#pragma once

#include <cstddef>

#include "lp/model.hpp"

namespace maxutil::lp {

/// Tuning knobs for the simplex solver.
struct SimplexOptions {
  /// Feasibility/optimality tolerance.
  double tolerance = 1e-9;
  /// Hard pivot cap; 0 selects 200*(rows+cols) + 10000 automatically.
  std::size_t max_iterations = 0;
  /// Force Bland's anti-cycling rule from the first pivot (slower but
  /// guaranteed finite); otherwise Dantzig pricing with an automatic switch
  /// to Bland when the objective stalls.
  bool always_bland = false;
  /// Pivots without objective progress before the automatic Dantzig->Bland
  /// switch; 0 selects 2*(rows+cols) + 100. Exposed so anti-cycling
  /// regression tests can force the switch after a deterministic number of
  /// stalled pivots.
  std::size_t stall_pivot_limit = 0;
};

/// Solves `problem` with a dense two-phase primal simplex.
///
/// Not a production engine: every LP stage runs lp::solve_revised. This
/// tableau is the independent oracle the LP tests check the sparse engine
/// against, and the dense rung of the LP scaling bench. Bounded variables,
/// free variables, and all three row relations are handled by internal
/// standard-form conversion.
LpSolution solve(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace maxutil::lp
