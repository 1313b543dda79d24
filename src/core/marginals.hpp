#pragma once

#include <memory>
#include <vector>

#include "core/flow.hpp"
#include "core/routing.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

/// Marginal costs of Section 5: dA/dr_i(j), computed by the paper's
/// deadlock-free upstream protocol — every node waits for the value from all
/// of its downstream neighbors, then broadcasts its own (eq. 9). Here the
/// wave is realized as a reverse topological sweep of each commodity's
/// usable DAG; the sim module re-implements it with real messages and is
/// tested to agree.
///
/// Storage is flat SoA indexed by the CommodityIndex's local node ids
/// (node_begin(j)..node_end(j) per commodity); `dr_at`/`curvature_at` look
/// up by global node id. The per-edge derivative tables are filled by the
/// same sweep, once per edge, and read by every slot over that edge.
struct MarginalCosts {
  std::shared_ptr<const xform::CommodityIndex> index;

  /// dA/dr_i(j): marginal cost of one extra unit of commodity-j traffic at
  /// node i. 0 at the commodity sink by convention.
  std::vector<double> d_cost_d_input;  // [flat local node]

  /// Diagonal curvature estimate K_i(j) ~ d2A/dr_i(j)^2, computed by the
  /// same downstream-to-upstream telescoping as eq. (9) with second
  /// derivatives (K_i = sum_k phi^2 [c^2 (Y'' + eps D'') + beta^2 K_head]).
  /// Powers the curvature-scaled (Newton-like) step variant that Gallager's
  /// paper sketches as the "second derivative algorithm"; an approximation
  /// (cross terms between sibling edges are dropped), which only affects
  /// step *size*, never the descent property. Empty when the sweep ran
  /// without curvature.
  std::vector<double> curvature;  // [flat local node]

  /// dA_i/df_e = Y'_e(f_e) + eps*D'_i(f_i) with i the tail of e (eq. 11
  /// with the paper's epsilon folded into D): the factor every slot over
  /// edge e shares.
  std::vector<double> d_cost_d_edge;  // [global edge]

  /// Y''_e(f_e) + eps*D''_i(f_i), the second-derivative analogue; empty
  /// when the sweep ran without curvature.
  std::vector<double> d2_cost_d_edge;  // [global edge]

  /// dA/dr_v(j) by global node id; 0 when v is not a commodity-j node.
  double dr_at(CommodityId j, NodeId v) const {
    const std::size_t local = index->local_of(j, v);
    return local == xform::CommodityIndex::kNoSlot ? 0.0
                                                   : d_cost_d_input[local];
  }

  /// K_v(j) by global node id; 0 when v is not a commodity-j node.
  double curvature_at(CommodityId j, NodeId v) const {
    const std::size_t local = index->local_of(j, v);
    return local == xform::CommodityIndex::kNoSlot ? 0.0 : curvature[local];
  }
};

/// The per-edge marginal of eq. (10)'s bracket (and eq. 15's a-term base):
///   dA_i/df_e * c_e(j) + beta_e(j) * dA/dr_head(j)
/// Slot-addressed hot-path form.
inline double marginal_via_slot(const MarginalCosts& marginals,
                                std::size_t slot) {
  const xform::CommodityIndex& idx = *marginals.index;
  return marginals.d_cost_d_edge[idx.edge(slot)] * idx.cost_rate(slot) +
         idx.beta(slot) * marginals.d_cost_d_input[idx.head_local(slot)];
}

/// Per-edge curvature kappa_e(j) = c^2 (Y'' + eps D'') + beta^2 K_head: the
/// second-derivative analogue of `marginal_via_slot`. Needs marginals swept
/// with curvature.
inline double curvature_via_slot(const MarginalCosts& marginals,
                                 std::size_t slot) {
  const xform::CommodityIndex& idx = *marginals.index;
  const double c = idx.cost_rate(slot);
  const double beta = idx.beta(slot);
  return c * c * marginals.d2_cost_d_edge[idx.edge(slot)] +
         beta * beta * marginals.curvature[idx.head_local(slot)];
}

/// (commodity, global edge) form of `marginal_via_slot`; the edge must be
/// usable by j.
double marginal_via_edge(const MarginalCosts& marginals, CommodityId j,
                         EdgeId e);

/// (commodity, global edge) form of `curvature_via_slot`.
double curvature_via_edge(const MarginalCosts& marginals, CommodityId j,
                          EdgeId e);

/// Runs the upstream sweep (eq. 9) for every commodity into `out`, reusing
/// its storage. The curvature recursion and second-derivative table run
/// only when `with_curvature` (the curvature-scaled step reads them);
/// d_cost_d_input does not depend on it.
void compute_marginals(const ExtendedGraph& xg, const RoutingState& routing,
                       const FlowState& flows, bool with_curvature,
                       MarginalCosts& out);

/// Allocating form of the above, with curvature.
MarginalCosts compute_marginals(const ExtendedGraph& xg,
                                const RoutingState& routing,
                                const FlowState& flows);

}  // namespace maxutil::core
