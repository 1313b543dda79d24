#include "core/marginals.hpp"

#include "util/check.hpp"

namespace maxutil::core {

using maxutil::util::ensure;
using maxutil::xform::CommodityIndex;

double marginal_via_edge(const MarginalCosts& marginals, CommodityId j,
                         EdgeId e) {
  const std::size_t slot = marginals.index->slot_of(j, e);
  ensure(slot != CommodityIndex::kNoSlot,
         "marginal_via_edge: edge not usable by commodity");
  return marginal_via_slot(marginals, slot);
}

double curvature_via_edge(const MarginalCosts& marginals, CommodityId j,
                          EdgeId e) {
  const std::size_t slot = marginals.index->slot_of(j, e);
  ensure(slot != CommodityIndex::kNoSlot,
         "curvature_via_edge: edge not usable by commodity");
  return curvature_via_slot(marginals, slot);
}

void compute_marginals(const ExtendedGraph& xg, const RoutingState& routing,
                       const FlowState& flows, bool with_curvature,
                       MarginalCosts& out) {
  const CommodityIndex& idx = xg.index();
  ensure(routing.slot_count() == idx.slot_count(),
         "compute_marginals: routing shape does not match graph index");
  if (out.index != xg.index_ptr()) out.index = xg.index_ptr();

  // Eq. 11 once per edge: every slot over e reads the same dA_i/df_e.
  const auto& g = xg.graph();
  const std::size_t edges = xg.edge_count();
  out.d_cost_d_edge.resize(edges);
  for (EdgeId e = 0; e < edges; ++e) {
    const NodeId tail = g.tail(e);
    out.d_cost_d_edge[e] =
        xg.edge_cost_derivative(e, flows.f_edge[e]) +
        xg.node_penalty_derivative(tail, flows.f_node[tail]);
  }
  if (with_curvature) {
    out.d2_cost_d_edge.resize(edges);
    for (EdgeId e = 0; e < edges; ++e) {
      const NodeId tail = g.tail(e);
      out.d2_cost_d_edge[e] =
          xg.edge_cost_second_derivative(e, flows.f_edge[e]) +
          xg.node_penalty_second_derivative(tail, flows.f_node[tail]);
    }
    out.curvature.assign(idx.local_node_count(), 0.0);
  } else {
    out.d2_cost_d_edge.clear();
    out.curvature.clear();
  }

  out.d_cost_d_input.assign(idx.local_node_count(), 0.0);
  for (CommodityId j = 0; j < idx.commodity_count(); ++j) {
    // Reverse topological order: by the time node v is processed, every
    // downstream dA/dr is final — the sweep models the paper's wait-for-all-
    // downstream message protocol. dA/dr at the sink is 0 by convention.
    for (std::size_t local = idx.node_end(j); local-- > idx.node_begin(j);) {
      if (local == idx.sink_local(j)) continue;
      double total = 0.0;
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        const double phi = routing.phi_slot(s);
        if (phi == 0.0) continue;
        total += phi * marginal_via_slot(out, s);
      }
      out.d_cost_d_input[local] = total;
      if (!with_curvature) continue;
      double total_curvature = 0.0;
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        const double phi = routing.phi_slot(s);
        if (phi == 0.0) continue;
        total_curvature += phi * phi * curvature_via_slot(out, s);
      }
      out.curvature[local] = total_curvature;
    }
  }
}

MarginalCosts compute_marginals(const ExtendedGraph& xg,
                                const RoutingState& routing,
                                const FlowState& flows) {
  MarginalCosts marginals;
  compute_marginals(xg, routing, flows, /*with_curvature=*/true, marginals);
  return marginals;
}

}  // namespace maxutil::core
