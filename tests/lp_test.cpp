#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "lp/pwl.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using maxutil::lp::kInfinity;
using maxutil::lp::LpProblem;
using maxutil::lp::LpSolution;
using maxutil::lp::LpStatus;
using maxutil::lp::PwlConcave;
using maxutil::lp::Relation;
using maxutil::lp::Sense;
using maxutil::lp::SimplexBasis;
using maxutil::lp::SimplexOptions;
using maxutil::lp::VarId;
using maxutil::util::CheckError;
using maxutil::util::Rng;

TEST(LpModel, VariableAccessors) {
  LpProblem p;
  const VarId x = p.add_variable("x", 1.0, 5.0, 2.0);
  EXPECT_EQ(p.variable_count(), 1u);
  EXPECT_EQ(p.variable_name(x), "x");
  EXPECT_DOUBLE_EQ(p.lower(x), 1.0);
  EXPECT_DOUBLE_EQ(p.upper(x), 5.0);
  EXPECT_DOUBLE_EQ(p.objective_coefficient(x), 2.0);
  p.set_objective_coefficient(x, 3.0);
  EXPECT_DOUBLE_EQ(p.objective_coefficient(x), 3.0);
}

TEST(LpModel, RejectsBadInput) {
  LpProblem p;
  EXPECT_THROW(p.add_variable("bad", 2.0, 1.0), CheckError);
  const VarId x = p.add_variable("x");
  EXPECT_THROW(p.add_constraint({{x + 1, 1.0}}, Relation::kLessEq, 1.0),
               CheckError);
  EXPECT_THROW(p.variable_name(99), CheckError);
}

TEST(LpModel, ViolationMeasures) {
  LpProblem p;
  const VarId x = p.add_variable("x", 0.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 3.0);
  EXPECT_DOUBLE_EQ(p.max_violation({2.0}), 0.0);
  EXPECT_DOUBLE_EQ(p.max_violation({5.0}), 2.0);
  EXPECT_DOUBLE_EQ(p.max_violation({-1.0}), 1.0);
}

// Classic 2-variable maximization with a known optimum.
TEST(Simplex, TextbookMaximize) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  (2, 6), obj 36.
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", 0.0, kInfinity, 3.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 6.0, 1e-8);
}

TEST(Simplex, MinimizeWithGreaterEq) {
  // min 2x + 3y s.t. x + y >= 4, x >= 0, y >= 0 -> (4, 0), obj 8.
  LpProblem p;
  const VarId x = p.add_variable("x", 0.0, kInfinity, 2.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEq, 4.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-8);
  EXPECT_NEAR(s.x[x], 4.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y s.t. x + 2y = 3, x - y = 0 -> x = y = 1, obj 2.
  LpProblem p;
  const VarId x = p.add_variable("x", 0.0, kInfinity, 1.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kEq, 3.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEq, 0.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 1.0, 1e-8);
  EXPECT_NEAR(s.x[y], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  const VarId x = p.add_variable("x", 0.0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEq, 2.0);
  EXPECT_EQ(maxutil::lp::solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  p.add_variable("x", 0.0, kInfinity, 1.0);
  EXPECT_EQ(maxutil::lp::solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, VariableBoundsBecomeActive) {
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", 0.0, 7.5, 1.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 7.5, 1e-8);
}

TEST(Simplex, LowerBoundShift) {
  // min x with x in [3, 10] -> 3.
  LpProblem p;
  const VarId x = p.add_variable("x", 3.0, 10.0, 1.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
}

TEST(Simplex, FixedVariable) {
  LpProblem p;
  const VarId x = p.add_variable("x", 4.0, 4.0, 1.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEq, 6.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 4.0, 1e-8);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
}

TEST(Simplex, FreeVariable) {
  // min |shape|: free variable pushed negative by the objective.
  LpProblem p;
  const VarId x = p.add_variable("x", -kInfinity, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEq, -5.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], -5.0, 1e-8);
}

TEST(Simplex, UpperBoundedFreeBelowVariable) {
  // max x with x <= 2 and no lower bound.
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", -kInfinity, 2.0, 1.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", 0.0, kInfinity, 1.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 1.0);
  for (int i = 0; i < 6; ++i) {
    p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 1.0);
  }
  p.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kLessEq, 2.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-8);
}

TEST(Simplex, RedundantEqualityRows) {
  LpProblem p;
  const VarId x = p.add_variable("x", 0.0, kInfinity, 1.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 2.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEq, 4.0);  // same plane
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
}

TEST(Simplex, BlandModeMatchesDantzig) {
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", 0.0, kInfinity, 3.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
  SimplexOptions bland;
  bland.always_bland = true;
  const LpSolution s = maxutil::lp::solve(p, bland);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
}

// Property sweep: random bounded maximization LPs must return solutions that
// are (a) feasible and (b) no worse than many random feasible points.
class SimplexRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomProperty, OptimalDominatesRandomFeasiblePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t nvars = 2 + rng.index(4);
  const std::size_t nrows = 1 + rng.index(4);
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  std::vector<VarId> vars;
  std::vector<double> ub;
  for (std::size_t v = 0; v < nvars; ++v) {
    const double upper = rng.uniform(0.5, 10.0);
    ub.push_back(upper);
    vars.push_back(p.add_variable("x" + std::to_string(v), 0.0, upper,
                                  rng.uniform(0.0, 5.0)));
  }
  // Non-negative coefficients keep x = 0 feasible, so the LP is never
  // infeasible and the bounded box keeps it from being unbounded.
  std::vector<std::vector<double>> coeff(nrows, std::vector<double>(nvars));
  std::vector<double> rhs(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    std::vector<std::pair<VarId, double>> terms;
    for (std::size_t v = 0; v < nvars; ++v) {
      coeff[r][v] = rng.uniform(0.0, 3.0);
      terms.emplace_back(vars[v], coeff[r][v]);
    }
    rhs[r] = rng.uniform(1.0, 15.0);
    p.add_constraint(std::move(terms), Relation::kLessEq, rhs[r]);
  }
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LT(p.max_violation(s.x), 1e-7);
  EXPECT_NEAR(p.objective_value(s.x), s.objective, 1e-6);

  // Monte-Carlo dominance check.
  for (int probe = 0; probe < 200; ++probe) {
    std::vector<double> x(nvars);
    for (std::size_t v = 0; v < nvars; ++v) x[v] = rng.uniform(0.0, ub[v]);
    bool feasible = true;
    for (std::size_t r = 0; r < nrows && feasible; ++r) {
      double lhs = 0.0;
      for (std::size_t v = 0; v < nvars; ++v) lhs += coeff[r][v] * x[v];
      feasible = lhs <= rhs[r];
    }
    if (feasible) {
      EXPECT_LE(p.objective_value(x), s.objective + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomProperty,
                         ::testing::Range(0, 25));

// --- Sparse revised simplex ---

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Status, objective, x and duals agree bit for bit.
void expect_bit_identical(const LpSolution& a, const LpSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(bits(a.objective), bits(b.objective));
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t j = 0; j < a.x.size(); ++j) {
    EXPECT_EQ(bits(a.x[j]), bits(b.x[j])) << "x " << j;
  }
  ASSERT_EQ(a.duals.size(), b.duals.size());
  for (std::size_t i = 0; i < a.duals.size(); ++i) {
    EXPECT_EQ(bits(a.duals[i]), bits(b.duals[i])) << "dual " << i;
  }
}

TEST(RevisedSimplex, WarmReSolveFromTheOptimalBasisIsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // A bounded packing LP with a few equality and covering rows, so the
    // optimal basis mixes structural and slack columns.
    LpProblem p;
    p.set_sense(Sense::kMaximize);
    const std::size_t nvars = 12;
    for (std::size_t v = 0; v < nvars; ++v) {
      p.add_variable("x" + std::to_string(v), 0.0, rng.uniform(1.0, 8.0),
                     rng.uniform(0.1, 5.0));
    }
    for (std::size_t r = 0; r < 8; ++r) {
      std::vector<std::pair<VarId, double>> terms;
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng.uniform(0.0, 1.0) < 0.5) {
          terms.emplace_back(v, rng.uniform(0.5, 3.0));
        }
      }
      if (terms.empty()) terms.emplace_back(r, 1.0);
      p.add_constraint(std::move(terms), Relation::kLessEq,
                       rng.uniform(4.0, 20.0));
    }
    p.add_constraint({{0, 1.0}, {1, -1.0}}, Relation::kEq, 0.0);
    p.add_constraint({{2, 1.0}, {3, 1.0}}, Relation::kGreaterEq, 0.5);

    SimplexBasis basis;
    const LpSolution first = maxutil::lp::solve_revised(p, {}, &basis);
    ASSERT_EQ(first.status, LpStatus::kOptimal);
    ASSERT_GT(first.iterations, 0u);
    ASSERT_FALSE(basis.empty());

    SimplexBasis warm = basis;
    const LpSolution second = maxutil::lp::solve_revised(p, {}, &warm);
    EXPECT_EQ(second.iterations, 0u);
    expect_bit_identical(second, first);
    EXPECT_EQ(warm.status, basis.status);
  }
}

TEST(RevisedSimplex, DuplicateAndCancellingTermsSolveAsTheSummedModel) {
  // max 3x + 5y + z  s.t.  x <= 4,  2y <= 12,  3x + 2y <= 18,  z + y <= 7,
  // 0 <= z <= 2: the hand-summed model.
  const auto build = [](bool split) {
    LpProblem p;
    p.set_sense(Sense::kMaximize);
    const VarId x = p.add_variable("x", 0.0, kInfinity, 3.0);
    const VarId y = p.add_variable("y", 0.0, kInfinity, 5.0);
    const VarId z = p.add_variable("z", 0.0, 2.0, 1.0);
    p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
    if (split) {
      // y's 2 split in two; x's 3 split around y; z enters and cancels.
      p.add_constraint({{y, 1.5}, {y, 0.5}}, Relation::kLessEq, 12.0);
      p.add_constraint({{x, 1.0}, {z, 1.0}, {y, 2.0}, {x, 2.0}, {z, -1.0}},
                       Relation::kLessEq, 18.0);
    } else {
      p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
      p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
    }
    p.add_constraint({{z, 1.0}, {y, 1.0}}, Relation::kLessEq, 7.0);
    return p;
  };
  const LpSolution summed = maxutil::lp::solve_revised(build(false));
  const LpSolution split = maxutil::lp::solve_revised(build(true));
  ASSERT_EQ(summed.status, LpStatus::kOptimal);
  EXPECT_NEAR(summed.objective, 37.0, 1e-9);  // (2, 6, 1)
  EXPECT_EQ(split.iterations, summed.iterations);
  expect_bit_identical(split, summed);
}

TEST(Duals, TextbookShadowPrices) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: the classic example
  // with duals (0, 3/2, 1).
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", 0.0, kInfinity, 3.0);
  const VarId y = p.add_variable("y", 0.0, kInfinity, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  ASSERT_EQ(s.duals.size(), 3u);
  EXPECT_NEAR(s.duals[0], 0.0, 1e-9);
  EXPECT_NEAR(s.duals[1], 1.5, 1e-9);
  EXPECT_NEAR(s.duals[2], 1.0, 1e-9);
}

TEST(Duals, MinimizationSign) {
  // min 2x s.t. x >= 3: tightening the rhs by 1 raises the optimum by 2.
  LpProblem p;
  const VarId x = p.add_variable("x", 0.0, kInfinity, 2.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEq, 3.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.duals[0], 2.0, 1e-9);
}

TEST(Duals, EqualityRowSensitivity) {
  // max x + y s.t. x + y = 5 (x, y <= 10): dual of the equality is 1.
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const VarId x = p.add_variable("x", 0.0, 10.0, 1.0);
  const VarId y = p.add_variable("y", 0.0, 10.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.duals[0], 1.0, 1e-9);
}

// Duals as numeric sensitivities: re-solve with each rhs perturbed and
// compare the objective change with the reported dual.
class DualSensitivityProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualSensitivityProperty, MatchesFiniteDifference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6011 + 13);
  const std::size_t nvars = 2 + rng.index(3);
  const std::size_t nrows = 1 + rng.index(3);
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  for (std::size_t v = 0; v < nvars; ++v) {
    p.add_variable("x" + std::to_string(v), 0.0, rng.uniform(1.0, 8.0),
                   rng.uniform(0.5, 5.0));
  }
  std::vector<double> rhs(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    std::vector<std::pair<VarId, double>> terms;
    for (std::size_t v = 0; v < nvars; ++v) {
      terms.emplace_back(v, rng.uniform(0.2, 3.0));
    }
    rhs[r] = rng.uniform(2.0, 12.0);
    p.add_constraint(std::move(terms), Relation::kLessEq, rhs[r]);
  }
  const LpSolution base = maxutil::lp::solve(p);
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  const double h = 1e-5;
  for (std::size_t r = 0; r < nrows; ++r) {
    // Rebuild with rhs[r] +- h (LpProblem rows are immutable by design).
    const auto solve_with = [&](double delta) {
      LpProblem q;
      q.set_sense(Sense::kMaximize);
      for (std::size_t v = 0; v < nvars; ++v) {
        q.add_variable(p.variable_name(v), p.lower(v), p.upper(v),
                       p.objective_coefficient(v));
      }
      for (std::size_t i = 0; i < nrows; ++i) {
        auto row = p.row(i);
        q.add_constraint(row.terms, row.rel,
                         row.rhs + (i == r ? delta : 0.0));
      }
      return maxutil::lp::solve(q);
    };
    const LpSolution up = solve_with(h);
    const LpSolution down = solve_with(-h);
    ASSERT_EQ(up.status, LpStatus::kOptimal);
    ASSERT_EQ(down.status, LpStatus::kOptimal);
    const double fd = (up.objective - down.objective) / (2.0 * h);
    EXPECT_NEAR(base.duals[r], fd, 1e-5 * (1.0 + std::abs(fd))) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualSensitivityProperty,
                         ::testing::Range(0, 12));

TEST(Pwl, ApproximatesSqrtClosely) {
  const auto fn = [](double x) { return std::sqrt(x); };
  const PwlConcave pwl = PwlConcave::from_function(fn, 100.0, 64);
  // sqrt has unbounded slope at 0, so the first uniform segment dominates the
  // gap: max gap = (1/4)*sqrt(width of first segment) = 0.3125 here.
  EXPECT_LT(pwl.max_gap(fn), 0.32);
  EXPECT_GT(pwl.max_gap(fn), 0.25);
  EXPECT_NEAR(pwl.evaluate(100.0), 10.0, 1e-9);
  EXPECT_NEAR(pwl.evaluate(0.0), 0.0, 1e-9);
}

TEST(Pwl, LinearIsExact) {
  const auto fn = [](double x) { return 2.0 * x + 1.0; };
  const PwlConcave pwl = PwlConcave::from_function(fn, 10.0, 4);
  EXPECT_LT(pwl.max_gap(fn), 1e-9);
  EXPECT_NEAR(pwl.evaluate(3.7), fn(3.7), 1e-9);
}

TEST(Pwl, RejectsConvexFunction) {
  const auto fn = [](double x) { return x * x; };
  EXPECT_THROW(PwlConcave::from_function(fn, 10.0, 8), CheckError);
}

TEST(Pwl, SlopesNonIncreasing) {
  const auto fn = [](double x) { return std::log1p(x); };
  const PwlConcave pwl = PwlConcave::from_function(fn, 50.0, 16);
  for (std::size_t k = 1; k < pwl.slopes().size(); ++k) {
    EXPECT_LE(pwl.slopes()[k], pwl.slopes()[k - 1] + 1e-12);
  }
}

TEST(Pwl, AdmissionVariableMaximizesConcaveUtility) {
  // max log1p(a) - 0.3 a over a in [0, 20]: optimum at U'(a) = 0.3,
  // i.e. a = 1/0.3 - 1 = 2.333...
  LpProblem p;
  p.set_sense(Sense::kMaximize);
  const auto fn = [](double x) { return std::log1p(x); };
  const PwlConcave pwl = PwlConcave::from_function(fn, 20.0, 400);
  const VarId a = maxutil::lp::add_pwl_admission_variable(p, 20.0, pwl, "s0");
  p.set_objective_coefficient(a, -0.3);
  const LpSolution s = maxutil::lp::solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[a], 1.0 / 0.3 - 1.0, 0.05);
}

TEST(Pwl, EmptyPrefixLeavesNamesEmpty) {
  const auto fn = [](double x) { return std::sqrt(x); };
  const PwlConcave pwl = PwlConcave::from_function(fn, 10.0, 4);
  LpProblem unnamed;
  maxutil::lp::add_pwl_admission_variable(unnamed, 10.0, pwl, "");
  ASSERT_EQ(unnamed.variable_count(), 5u);  // admitted + 4 segments
  for (VarId v = 0; v < unnamed.variable_count(); ++v) {
    EXPECT_TRUE(unnamed.variable_name(v).empty()) << "variable " << v;
  }
  LpProblem named;
  const VarId a =
      maxutil::lp::add_pwl_admission_variable(named, 10.0, pwl, "a3");
  EXPECT_EQ(named.variable_name(a), "a3.admitted");
  EXPECT_EQ(named.variable_name(a + 1), "a3.seg0");
}

TEST(Pwl, DomainMismatchRejected) {
  LpProblem p;
  const auto fn = [](double x) { return std::sqrt(x); };
  const PwlConcave pwl = PwlConcave::from_function(fn, 10.0, 4);
  EXPECT_THROW(maxutil::lp::add_pwl_admission_variable(p, 20.0, pwl, "s"),
               CheckError);
}

}  // namespace
