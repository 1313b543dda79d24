#include "la/sparse.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace maxutil::la {

using maxutil::util::ensure;

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> entries)
    : rows_(rows), cols_(cols), row_starts_(rows + 1, 0) {
  for (const auto& t : entries) {
    ensure(t.row < rows_ && t.col < cols_, "CsrMatrix: entry out of range");
  }
  std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  // Accumulate duplicates while streaming into CSR arrays.
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i + 1;
    double total = entries[i].value;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      total += entries[j].value;
      ++j;
    }
    col_index_.push_back(entries[i].col);
    values_.push_back(total);
    ++row_starts_[entries[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < rows_; ++r) row_starts_[r + 1] += row_starts_[r];
}

std::span<const std::size_t> CsrMatrix::row_columns(std::size_t r) const {
  ensure(r < rows_, "CsrMatrix::row_columns: out of range");
  return {col_index_.data() + row_starts_[r], row_starts_[r + 1] - row_starts_[r]};
}

std::span<const double> CsrMatrix::row_values(std::size_t r) const {
  ensure(r < rows_, "CsrMatrix::row_values: out of range");
  return {values_.data() + row_starts_[r], row_starts_[r + 1] - row_starts_[r]};
}

}  // namespace maxutil::la
