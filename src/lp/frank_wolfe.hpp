#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "lp/model.hpp"

namespace maxutil::lp {

/// Options for the Frank-Wolfe (conditional gradient) solver.
struct FrankWolfeOptions {
  std::size_t max_iterations = 500;
  /// Stop when the Frank-Wolfe duality gap g(x) = grad'(x - s) falls below
  /// this (an a-posteriori optimality certificate).
  double gap_tolerance = 1e-6;
};

/// Result of a Frank-Wolfe maximization.
struct FrankWolfeSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  /// Final duality gap: objective is within `gap` of the true maximum.
  double gap = 0.0;
  std::size_t iterations = 0;
};

/// Maximizes a smooth concave function over the polytope described by
/// `feasible_region` (an LpProblem whose objective is ignored) using the
/// Frank-Wolfe method with exact line search by golden-section.
///
/// Each iteration asks lp::solve_revised for the vertex maximizing the
/// linearization grad(x)'s — so this reuses the repository's own LP engine
/// as its oracle — then moves along the segment. Used as an *independent*
/// reference for concave-utility instances: it certifies the PWL-LP
/// reference (xform::solve_reference) without sharing its discretization.
///
/// `value` and `gradient` evaluate the concave objective and its gradient at
/// a point of the polytope (dimension = feasible_region.variable_count()).
FrankWolfeSolution maximize_concave(
    const LpProblem& feasible_region,
    const std::function<double(const std::vector<double>&)>& value,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        gradient,
    const FrankWolfeOptions& options = {});

}  // namespace maxutil::lp
