#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace maxutil::util {

/// Column-oriented recorder for per-iteration experiment series
/// (e.g. "iteration, utility, cost, messages") with CSV export.
///
/// All columns share one row index; `append` adds a full row. Used by the
/// optimizer drivers to log convergence traces that the bench harness turns
/// into the paper's figures.
class TimeSeries {
 public:
  /// Defines the column layout. Must be non-empty and names unique.
  explicit TimeSeries(std::vector<std::string> column_names);

  /// Appends one row; `row.size()` must equal the number of columns.
  void append(std::span<const double> row);
  /// Braced-row form: the row lives on the caller's stack, not the heap.
  void append(std::initializer_list<double> row) {
    append(std::span<const double>(row.begin(), row.size()));
  }

  /// Number of recorded rows.
  std::size_t rows() const;

  /// Number of columns.
  std::size_t cols() const { return names_.size(); }

  /// Column names, in layout order.
  const std::vector<std::string>& names() const { return names_; }

  /// Entire column by name; throws if unknown.
  const std::vector<double>& column(const std::string& name) const;

  /// Single cell access.
  double at(std::size_t row, std::size_t col) const;

  /// Writes an RFC-4180 style CSV (header + rows) to `out`.
  void write_csv(std::ostream& out) const;

  /// Downsamples rows to at most `max_rows`, keeping first and last rows and
  /// approximately log-spaced interior rows — matches the paper's
  /// log-scale x-axis in Figure 4. Returns a new series.
  TimeSeries log_downsample(std::size_t max_rows) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;
};

}  // namespace maxutil::util
