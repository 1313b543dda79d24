#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace maxutil::la {

/// One (row, col, value) entry used to assemble a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Compressed sparse row (CSR) matrix.
///
/// Assembled from triplets (duplicates are summed, entries sorted within each
/// row). The revised simplex builds its constraint columns through it; not a
/// general sparse-algebra package.
class CsrMatrix {
 public:
  /// Builds a rows x cols CSR matrix from `entries`; duplicate (row, col)
  /// pairs are accumulated. Entries must be in range.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Number of stored non-zeros (after duplicate accumulation).
  std::size_t nonzeros() const { return values_.size(); }

  /// Zero-copy views of row r (parallel column-index / value spans). The
  /// revised simplex assembles the CSR of A^T, i.e. the CSC of A, and reads
  /// its columns through these.
  std::span<const std::size_t> row_columns(std::size_t r) const;
  std::span<const double> row_values(std::size_t r) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_starts_;  // size rows_+1
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
};

}  // namespace maxutil::la
