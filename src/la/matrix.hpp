#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace maxutil::la {

/// Dense row-major matrix of doubles.
///
/// Deliberately minimal: the dense tableau simplex needs bounds-checked
/// O(1) element access, nothing more. Value-semantic (rule of zero).
class Matrix {
 public:
  /// Zero-filled rows x cols matrix. Either dimension may be zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Builds from nested initializer lists; all rows must agree in width.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Mutable element access (row r, column c); bounds-checked.
  double& operator()(std::size_t r, std::size_t c);

  /// Const element access; bounds-checked.
  double operator()(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace maxutil::la
