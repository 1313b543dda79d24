#pragma once

#include <cstddef>
#include <vector>

#include "core/flow.hpp"
#include "core/marginals.hpp"
#include "core/routing.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

/// How the Gamma step size is scaled.
enum class StepMode {
  /// The paper's rule (eq. 16): Delta = min(phi, eta * a / t).
  kEtaOverTraffic,
  /// Gallager's "second derivative algorithm" sketch: Newton-like steps
  /// Delta = min(phi, eta * a / (t * (kappa_e + kappa_best))), using the
  /// diagonal curvature telescoped alongside eq. (9). Nearly parameter-free
  /// (eta ~ 1) and self-adjusting near the barrier where curvature explodes.
  kCurvatureScaled,
};

/// Tuning of the Gamma routing update (Section 5, eqs. 14-17).
struct GammaOptions {
  /// The paper's scale factor eta: small -> guaranteed but slow convergence,
  /// large -> fast but risking oscillation (Section 6 uses 0.04). In
  /// curvature-scaled mode this is a trust multiplier with natural value 1.
  double eta = 0.04;

  /// Traffic below this floor invokes Gallager's t -> 0 limit rule: the node
  /// simply routes everything to its current best link (the division by
  /// t_i(j) in eq. 16 would otherwise blow up).
  double traffic_floor = 1e-9;

  StepMode step_mode = StepMode::kEtaOverTraffic;

  /// Lower bound on the curvature denominator (curvature-scaled mode only):
  /// prevents unbounded steps on exactly-linear stretches of the cost.
  double curvature_floor = 1e-6;
};

/// Diagnostics of one Gamma application.
struct GammaStats {
  double max_phi_change = 0.0;    // max |phi1 - phi| over all entries
  std::size_t blocked_edges = 0;  // edges excluded by the blocked sets B_i(j)
  std::size_t snapped_nodes = 0;  // nodes updated under the t -> 0 rule
};

/// Reusable scratch storage of `apply_gamma`: one blocked tag per flat local
/// node and the eligible out-slots of the node being updated. Holding one
/// across iterations makes a step allocation-free once warm.
struct GammaScratch {
  std::vector<char> tagged;         // [flat local node]
  std::vector<std::size_t> eligible;
};

/// Computes the blocked-node tags of Section 5's protocol for commodity j:
/// tagged[v] is true when v has a routing path (over phi > 0 links) to the
/// sink containing an "improper" link (l, m) — one with phi_lm > 0,
/// dA/dr_l <= dA/dr_m, and phi_lm large enough to survive this iteration
/// (eq. 18). Nodes k with phi_ik = 0 and tagged[k] form B_i(j), and the
/// update may not raise phi_ik from zero, which is what preserves loop
/// freedom in Gallager's argument. Indexed by global node id.
std::vector<bool> compute_blocked_tags(const ExtendedGraph& xg,
                                       const RoutingState& routing,
                                       const FlowState& flows,
                                       const MarginalCosts& marginals,
                                       CommodityId j,
                                       const GammaOptions& options);

/// Applies one Gamma step (eqs. 14-17) in place: each node shifts routing
/// fraction away from expensive links onto its cheapest non-blocked link,
/// with per-link reduction Delta_ik = min(phi_ik, eta * a_ik / t_i).
/// `marginals` must carry curvature when the step mode is curvature-scaled.
GammaStats apply_gamma(const ExtendedGraph& xg, const FlowState& flows,
                       const MarginalCosts& marginals,
                       const GammaOptions& options, RoutingState& routing,
                       GammaScratch& scratch);

/// As above, with one-shot scratch storage.
GammaStats apply_gamma(const ExtendedGraph& xg, const FlowState& flows,
                       const MarginalCosts& marginals,
                       const GammaOptions& options, RoutingState& routing);

}  // namespace maxutil::core
