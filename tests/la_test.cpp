#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "la/sparse_lu.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using maxutil::la::Matrix;
using maxutil::la::SparseColumnView;
using maxutil::la::SparseLu;
using maxutil::util::CheckError;
using maxutil::util::Rng;

/// The non-zeros of a dense matrix, column by column, in the shape
/// SparseLu factorizes. The views point into this object's storage.
struct Columns {
  std::vector<std::vector<std::uint32_t>> rows;
  std::vector<std::vector<double>> values;
  std::vector<SparseColumnView> views;

  explicit Columns(const Matrix& a) : rows(a.cols()), values(a.cols()) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      for (std::size_t r = 0; r < a.rows(); ++r) {
        if (a(r, c) == 0.0) continue;
        rows[c].push_back(static_cast<std::uint32_t>(r));
        values[c].push_back(a(r, c));
      }
      views.push_back({rows[c], values[c]});
    }
  }
};

std::vector<double> multiply(const Matrix& a, const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  }
  return y;
}

std::vector<double> multiply_transposed(const Matrix& a,
                                        const std::vector<double>& y) {
  std::vector<double> x(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) x[c] += a(r, c) * y[r];
  }
  return x;
}

/// A random n x n matrix with about `density` off-diagonal fill, made
/// diagonally dominant (hence invertible) by `dominance`.
Matrix random_dominant(Rng& rng, std::size_t n, double density,
                       double dominance) {
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c || rng.chance(density)) a(r, c) = rng.uniform(-1.0, 1.0);
    }
    a(r, r) += dominance;
  }
  return a;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_THROW(m(2, 0), CheckError);
  EXPECT_THROW(m(0, 3), CheckError);
}

TEST(Matrix, InitializerListAndRaggedRejected) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix({{1.0, 2.0}, {3.0}}), CheckError);
}

// LU cases run against la::SparseLu, the revised simplex's basis
// factorization and the only LU in src/la.

TEST(Lu, SolvesKnownSystem) {
  // x + 2y = 5; 3x + 4y = 11  ->  x = 1, y = 2.
  const Columns a(Matrix{{1.0, 2.0}, {3.0, 4.0}});
  const SparseLu lu(2, a.views);
  ASSERT_FALSE(lu.singular());
  std::vector<double> x{5.0, 11.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero top-left pivot forces a row swap.
  const Columns a(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  const SparseLu lu(2, a.views);
  ASSERT_FALSE(lu.singular());
  std::vector<double> x{3.0, 7.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularIsReportedNotThrown) {
  // Numerically singular (dependent columns) and structurally singular (an
  // empty column): both factorize without throwing and report singular();
  // only a solve against the factors is an error.
  for (const Matrix& m : {Matrix{{1.0, 2.0}, {2.0, 4.0}},
                          Matrix{{1.0, 0.0}, {3.0, 0.0}}}) {
    const Columns a(m);
    const SparseLu lu(2, a.views);
    EXPECT_TRUE(lu.singular());
    std::vector<double> b{1.0, 1.0};
    EXPECT_THROW(lu.solve_in_place(b), CheckError);
    EXPECT_THROW(lu.solve_transposed_in_place(b), CheckError);
  }
}

TEST(Lu, NonSquareThrows) {
  // Three columns for a 2 x 2 factorization.
  const Columns a(Matrix(2, 3));
  EXPECT_THROW(SparseLu(2, a.views), CheckError);
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 12));
    // Alternate dense and sparse fill: the sparse ones exercise the reach.
    const Matrix a = random_dominant(rng, n, trial % 2 == 0 ? 1.0 : 0.2, 4.0);
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-10.0, 10.0);
    std::vector<double> x = multiply(a, x_true);
    const Columns columns(a);
    const SparseLu lu(n, columns.views);
    ASSERT_FALSE(lu.singular());
    lu.solve_in_place(x);
    EXPECT_LT(maxutil::util::max_abs_diff(x, x_true), 1e-8);
  }
}

TEST(Lu, TransposedSolveRoundTrip) {
  Rng rng(103);
  const std::size_t n = 8;
  const Matrix a = random_dominant(rng, n, 0.5, 3.0);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = multiply_transposed(a, x_true);  // b = A^T x
  const Columns columns(a);
  const SparseLu lu(n, columns.views);
  ASSERT_FALSE(lu.singular());
  lu.solve_transposed_in_place(x);
  EXPECT_LT(maxutil::util::max_abs_diff(x, x_true), 1e-9);
}

}  // namespace
