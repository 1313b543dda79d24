#pragma once

#include <memory>
#include <vector>

#include "core/routing.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

/// All flow quantities induced by a routing decision (Section 4, eqs. 3-5):
/// node traffic t, per-(commodity, edge) flow y = t * phi, per-edge resource
/// usage f_ik, per-node usage f_i, and the decomposed cost A = Y + eps*D
/// (eq. 8 summed over nodes).
///
/// Per-commodity quantities are sparse SoA over the graph's CommodityIndex:
/// `t` is indexed by flat local node, `y` by slot. The aggregate usages
/// `f_edge`/`f_node` stay globally indexed (every consumer — capacity
/// guards, penalties, allocation — wants them dense). Use `t_at`/`y_at` for
/// (commodity, global id) lookups.
struct FlowState {
  std::shared_ptr<const xform::CommodityIndex> index;
  std::vector<double> t;       // [flat local node]: traffic rate
  std::vector<double> y;       // [slot]: flow (tail units)
  std::vector<double> f_edge;  // [global edge]: resource usage rate f_ik
  std::vector<double> f_node;  // [global node]: total usage f_i
  double utility_loss = 0.0;   // Y = sum of dummy difference costs
  double penalty = 0.0;        // eps * D summed over nodes

  /// Total transformed cost A = Y + eps*D that the algorithm minimizes.
  double cost() const { return utility_loss + penalty; }

  /// Traffic rate t_v(j) by global node id; 0 when v is not a commodity-j
  /// node. O(log |nodes(j)|).
  double t_at(CommodityId j, NodeId v) const {
    const std::size_t local = index->local_of(j, v);
    return local == xform::CommodityIndex::kNoSlot ? 0.0 : t[local];
  }

  /// Flow y_e(j) by global edge id; 0 when e is not usable by j. O(1).
  double y_at(CommodityId j, EdgeId e) const {
    const std::size_t slot = index->slot_of(j, e);
    return slot == xform::CommodityIndex::kNoSlot ? 0.0 : y[slot];
  }
};

/// Solves the flow balance equations (3) by propagating in topological order
/// of each commodity's usable subgraph (a DAG, so the unique fixed point is
/// reached in one pass), then accumulates f (eqs. 4-5) and the cost terms.
/// Only dummy difference links carry a utility-loss cost and only
/// finite-capacity nodes a penalty, so the cost sums visit just those (in
/// ascending id order); every usage is still range-checked. Writes into
/// `out`, reusing its storage.
void compute_flows(const ExtendedGraph& xg, const RoutingState& routing,
                   FlowState& out);

/// Allocating form of the above.
FlowState compute_flows(const ExtendedGraph& xg, const RoutingState& routing);

/// Admitted rate a_j = flow on the dummy input link.
double admitted_rate(const ExtendedGraph& xg, const FlowState& flows,
                     CommodityId j);

/// Overall system utility sum_j U_j(a_j) at this flow.
double total_utility(const ExtendedGraph& xg, const FlowState& flows);

/// Largest violation of the eq.-7 balance identity
///   sum_out y - sum_in beta*y = r  at every non-sink commodity node,
/// for verifying the propagation (tests/property checks).
double max_balance_residual(const ExtendedGraph& xg, const FlowState& flows);

}  // namespace maxutil::core
