#include "la/matrix.hpp"

#include "util/check.hpp"

namespace maxutil::la {

using maxutil::util::ensure;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init)
    : rows_(init.size()), cols_(init.size() ? init.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    ensure(row.size() == cols_, "Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  ensure(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  ensure(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

}  // namespace maxutil::la
