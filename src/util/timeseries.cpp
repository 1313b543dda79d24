#include "util/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>

#include "util/check.hpp"

namespace maxutil::util {

TimeSeries::TimeSeries(std::vector<std::string> column_names)
    : names_(std::move(column_names)), columns_(names_.size()) {
  ensure(!names_.empty(), "TimeSeries: at least one column required");
  std::set<std::string> unique(names_.begin(), names_.end());
  ensure(unique.size() == names_.size(), "TimeSeries: duplicate column names");
}

void TimeSeries::append(std::span<const double> row) {
  ensure(row.size() == names_.size(), "TimeSeries::append: row width mismatch");
  for (std::size_t c = 0; c < row.size(); ++c) columns_[c].push_back(row[c]);
}

std::size_t TimeSeries::rows() const { return columns_.front().size(); }

const std::vector<double>& TimeSeries::column(const std::string& name) const {
  for (std::size_t c = 0; c < names_.size(); ++c) {
    if (names_[c] == name) return columns_[c];
  }
  throw CheckError("TimeSeries::column: unknown column '" + name + "'");
}

double TimeSeries::at(std::size_t row, std::size_t col) const {
  ensure(col < cols() && row < rows(), "TimeSeries::at: out of range");
  return columns_[col][row];
}

void TimeSeries::write_csv(std::ostream& out) const {
  for (std::size_t c = 0; c < names_.size(); ++c) {
    out << (c ? "," : "") << names_[c];
  }
  out << '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      out << (c ? "," : "") << columns_[c][r];
    }
    out << '\n';
  }
}

TimeSeries TimeSeries::log_downsample(std::size_t max_rows) const {
  TimeSeries result(names_);
  const std::size_t n = rows();
  if (n == 0) return result;
  std::set<std::size_t> keep;
  keep.insert(0);
  keep.insert(n - 1);
  if (max_rows > 2 && n > 2) {
    const double lo = std::log(1.0);
    const double hi = std::log(static_cast<double>(n));
    for (std::size_t i = 0; i < max_rows; ++i) {
      const double frac =
          static_cast<double>(i) / static_cast<double>(max_rows - 1);
      const auto idx = static_cast<std::size_t>(
          std::exp(lo + frac * (hi - lo))) - 1;
      keep.insert(std::min(idx, n - 1));
    }
  }
  std::vector<double> row(cols());
  for (const std::size_t r : keep) {
    for (std::size_t c = 0; c < cols(); ++c) row[c] = columns_[c][r];
    result.append(row);
  }
  return result;
}

}  // namespace maxutil::util
