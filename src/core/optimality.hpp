#pragma once

#include "core/flow.hpp"
#include "core/marginals.hpp"
#include "core/routing.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

/// Residuals of Theorem 2's optimality conditions at a routing state.
struct OptimalityReport {
  /// Largest violation of the sufficient condition (13):
  ///   max over non-sink i and usable (i,k) of dA/dr_i - marginal-via-(i,k);
  /// <= 0 (up to tolerance) certifies global optimality.
  double sufficient_violation = 0.0;

  /// Largest violation of the necessary stationarity condition (12): for
  /// every node, loaded (phi > 0) links must all achieve the node's minimum
  /// marginal; this is max over loaded links of (via - min_via), weighted by
  /// the link's routing fraction to ignore vanishing stragglers.
  double stationarity_gap = 0.0;

  bool sufficient_holds(double tol = 1e-6) const {
    return sufficient_violation <= tol;
  }
  bool stationary(double tol = 1e-6) const { return stationarity_gap <= tol; }
};

/// Evaluates Theorem 2's conditions; used by tests and the optimality bench
/// to certify that the distributed algorithm actually converged to the
/// optimum rather than merely stalling.
OptimalityReport check_optimality(const ExtendedGraph& xg,
                                  const RoutingState& routing,
                                  const MarginalCosts& marginals);

}  // namespace maxutil::core
