#include "core/flow.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace maxutil::core {

using maxutil::util::ensure;
using maxutil::xform::CommodityIndex;

void compute_flows(const ExtendedGraph& xg, const RoutingState& routing,
                   FlowState& out) {
  const CommodityIndex& idx = xg.index();
  ensure(routing.slot_count() == idx.slot_count(),
         "compute_flows: routing shape does not match graph index");
  if (out.index != xg.index_ptr()) out.index = xg.index_ptr();
  out.t.assign(idx.local_node_count(), 0.0);
  out.y.assign(idx.slot_count(), 0.0);
  out.f_edge.assign(xg.edge_count(), 0.0);
  out.f_node.assign(xg.node_count(), 0.0);

  // One pass per commodity over the index's CSR slots: locals are stored in
  // topological order, so every t[v] is final before v's out-slots run.
  for (CommodityId j = 0; j < idx.commodity_count(); ++j) {
    out.t[idx.dummy_source_local(j)] = xg.lambda(j);
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      const double tv = out.t[local];
      if (tv == 0.0) continue;
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        const double y = tv * routing.phi_slot(s);
        if (y == 0.0) continue;
        out.y[s] = y;
        out.t[idx.head_local(s)] += y * idx.beta(s);
        out.f_edge[idx.edge(s)] += y * idx.cost_rate(s);
      }
    }
  }

  // The range checks of edge_cost / node_penalty, hoisted out of the cost
  // sums: every usage fails loudly when negative or NaN, costed or not.
  const auto& g = xg.graph();
  for (EdgeId e = 0; e < xg.edge_count(); ++e) {
    ensure(out.f_edge[e] >= -1e-9, "compute_flows: negative edge usage");
    out.f_node[g.tail(e)] += out.f_edge[e];
  }
  for (const double z : out.f_node) {
    ensure(z >= 0.0, "compute_flows: negative node usage");
  }
  // Every other edge and node contributes exactly +0.0, so these sums are
  // bit-identical to summing over all edges and nodes in id order.
  out.utility_loss = 0.0;
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    const EdgeId e = xg.dummy_difference_link(j);
    out.utility_loss += xg.edge_cost(e, out.f_edge[e]);
  }
  out.penalty = 0.0;
  for (const NodeId v : xg.finite_capacity_nodes()) {
    out.penalty += xg.node_penalty(v, out.f_node[v]);
  }
}

FlowState compute_flows(const ExtendedGraph& xg, const RoutingState& routing) {
  FlowState flows;
  compute_flows(xg, routing, flows);
  return flows;
}

double admitted_rate(const ExtendedGraph& xg, const FlowState& flows,
                     CommodityId j) {
  return flows.y[xg.index().dummy_input_slot(j)];
}

double total_utility(const ExtendedGraph& xg, const FlowState& flows) {
  double total = 0.0;
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    const double a =
        std::clamp(admitted_rate(xg, flows, j), 0.0, xg.lambda(j));
    total += xg.network().utility(j).value(a);
  }
  return total;
}

double max_balance_residual(const ExtendedGraph& xg, const FlowState& flows) {
  const CommodityIndex& idx = xg.index();
  double worst = 0.0;
  for (CommodityId j = 0; j < idx.commodity_count(); ++j) {
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;
      double out = 0.0;
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        out += flows.y[s];
      }
      double in = (local == idx.dummy_source_local(j)) ? xg.lambda(j) : 0.0;
      for (std::size_t k = idx.in_begin(local); k < idx.in_end(local); ++k) {
        const std::size_t s = idx.in_slot(k);
        in += flows.y[s] * idx.beta(s);
      }
      worst = std::max(worst, std::abs(out - in));
    }
  }
  return worst;
}

}  // namespace maxutil::core
