#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/revised_simplex.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::xform {

/// Options for the centralized LP reference solve.
struct ReferenceOptions {
  /// Piecewise-linear segments used per non-linear utility (linear utilities
  /// are encoded exactly). More segments shrink the concave-approximation
  /// gap at the cost of LP size.
  std::size_t pwl_segments = 200;
  /// Optional warm-start basis: when non-null, a previous basis is adopted
  /// on entry and the final basis is written back, so repeated solves of a
  /// drifting instance (churn, admission batches) re-pivot from the last
  /// optimum. The basis is only portable across solves whose polytope has
  /// identical variable/constraint layout; a mismatched basis is ignored.
  lp::SimplexBasis* warm_basis = nullptr;
};

/// The centralized optimum of the transformed problem — the paper's
/// "optimal total throughput obtained using an optimization solver"
/// horizontal line in Figure 4.
struct ReferenceSolution {
  lp::LpStatus status = lp::LpStatus::kIterationLimit;
  /// Optimal overall utility sum_j U_j(a_j) (exact for linear utilities,
  /// PWL-approximate otherwise).
  double optimal_utility = 0.0;
  /// Optimal admitted rate a_j per commodity.
  std::vector<double> admitted;
  /// Resource usage f_v per extended node at the optimum.
  std::vector<double> node_usage;
  /// Commodity flows: per commodity, (extended edge, flow rate y = t*phi)
  /// pairs with y > 0.
  std::vector<std::vector<std::pair<EdgeId, double>>> flows;
  /// Shadow price per extended node: marginal utility of one extra unit of
  /// that node's resource (the capacity row's LP dual; 0 for slack or
  /// unconstrained nodes). The economics behind "which server to upgrade".
  std::vector<double> node_shadow_price;
  /// Simplex pivot count.
  std::size_t iterations = 0;
};

/// The feasible flow polytope of the transformed problem: variables
/// y_{j,e} >= 0 for every usable (commodity, extended edge), flow balance
/// with shrinkage at every non-sink commodity node (eq. 7), and capacity
/// f_v <= C_v at every finite-capacity node (eq. 6). The admitted rate a_j
/// is the variable of the dummy input link.
struct FlowPolytope {
  lp::LpProblem problem;  // objective all-zero; constraints = the polytope
  /// flow_var[j] maps a usable extended edge to its LP variable.
  std::vector<std::vector<std::pair<EdgeId, lp::VarId>>> flow_var;
  /// Variable of commodity j's dummy input link (the admitted rate).
  std::vector<lp::VarId> admitted_var;
  /// Constraint-row index of each node's capacity constraint, or
  /// `kNoCapacityRow` for nodes without one (infinite capacity / unused).
  std::vector<std::size_t> capacity_row;

  static constexpr std::size_t kNoCapacityRow = static_cast<std::size_t>(-1);
};

/// Assembles the polytope (shared by the simplex reference and the
/// Frank-Wolfe cross-check) from the graph's CommodityIndex. Variables are
/// unnamed: names would dominate assembly time and memory at scale.
FlowPolytope build_flow_polytope(const ExtendedGraph& xg);

/// Builds and solves the exact multicommodity LP on the extended graph with
/// lp::solve_revised:
///
///   max  sum_j U_j(a_j)  over the FlowPolytope,
///
/// with non-linear concave utilities encoded by piecewise-linear segments.
/// Admitted rates are reported clamped to [0, lambda_j], never as -0.
/// This solves the *original* constrained problem (no penalty barrier), so
/// its value upper-bounds what the penalty-regularized distributed
/// algorithms converge to; the gap is controlled by epsilon (bench E3).
ReferenceSolution solve_reference(const ExtendedGraph& xg,
                                  const ReferenceOptions& options = {});

/// Independent cross-check for concave utilities: maximizes sum U_j(a_j)
/// over the same polytope with the Frank-Wolfe method (exact line search,
/// simplex as the linear oracle) — no PWL discretization involved. Returns
/// the achieved utility, admitted rates, and the final duality gap, which
/// certifies the distance to the true optimum.
struct FrankWolfeReference {
  lp::LpStatus status = lp::LpStatus::kIterationLimit;
  double utility = 0.0;
  std::vector<double> admitted;
  double duality_gap = 0.0;
  std::size_t iterations = 0;
};
FrankWolfeReference solve_reference_frank_wolfe(const ExtendedGraph& xg,
                                                std::size_t max_iterations = 400);

}  // namespace maxutil::xform
