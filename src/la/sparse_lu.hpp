#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace maxutil::la {

/// One column of a sparse square matrix: (row, value) entries, any order,
/// no duplicates. The canonical input shape for SparseLu.
struct SparseColumnView {
  std::span<const std::uint32_t> rows;
  std::span<const double> values;
};

/// Sparse LU factorization with partial pivoting of a square matrix given
/// column-wise: P A Q = L U, where Q is a fill-reducing column pre-order
/// (ascending nonzero count, ties by column position — deterministic in the
/// input alone) and P comes from threshold-free partial pivoting.
///
/// Built for revised-simplex basis matrices: network-flow bases are close to
/// triangular, so the singleton-first column order keeps fill-in near zero
/// and factorization O(nnz)-ish. The left-looking (Gilbert–Peierls) kernel
/// computes each L/U column with a depth-first reach over the pattern, so
/// cost is proportional to arithmetic work, not to n.
///
/// A singular matrix does not throw: `singular()` reports it, because a
/// simplex caller wants to repair the basis, not unwind.
class SparseLu {
 public:
  /// Factorizes the n x n matrix whose j-th column is `columns[j]`.
  /// `pivot_tolerance` is the absolute magnitude below which a pivot is
  /// declared numerically zero (and the matrix singular).
  SparseLu(std::size_t n, const std::vector<SparseColumnView>& columns,
           double pivot_tolerance = 1e-11);

  bool singular() const { return singular_; }
  std::size_t size() const { return n_; }

  /// Stored non-zeros of L + U (diagnostics / refactorization heuristics).
  std::size_t fill() const { return l_rows_.size() + u_rows_.size(); }

  /// Solves A x = b in place (b.size() == n). Requires !singular().
  void solve_in_place(std::vector<double>& b) const;

  /// Solves A^T x = b in place (b.size() == n). Requires !singular().
  void solve_transposed_in_place(std::vector<double>& b) const;

 private:
  std::size_t n_ = 0;
  bool singular_ = false;

  // L (unit diagonal implicit) and U in pivot coordinates, column-wise:
  // column k of L holds entries with row > k, column k of U holds entries
  // with row < k plus the diagonal in u_diag_[k].
  std::vector<std::size_t> l_starts_;  // n+1
  std::vector<std::uint32_t> l_rows_;
  std::vector<double> l_values_;
  std::vector<std::size_t> u_starts_;  // n+1
  std::vector<std::uint32_t> u_rows_;
  std::vector<double> u_values_;
  std::vector<double> u_diag_;

  // Row permutation: perm_row_[k] = original row pivoted at position k.
  // Column pre-order: perm_col_[k] = original column factored at position k.
  std::vector<std::uint32_t> perm_row_;
  std::vector<std::uint32_t> perm_col_;
};

}  // namespace maxutil::la
