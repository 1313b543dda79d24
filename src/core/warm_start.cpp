#include "core/warm_start.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "util/check.hpp"

namespace maxutil::core {

using maxutil::stream::kRemovedEntity;
using maxutil::util::ensure;
using maxutil::xform::ExtendedGraph;
using maxutil::xform::LinkKind;

RoutingState repair_capacity_feasibility(const ExtendedGraph& xg,
                                         RoutingState routing,
                                         double capacity_guard) {
  const RoutingState fallback = RoutingState::initial(xg);
  for (int round = 0; round < 60; ++round) {
    const FlowState flows = compute_flows(xg, routing);
    bool feasible = true;
    for (NodeId v = 0; v < xg.node_count() && feasible; ++v) {
      if (!xg.has_finite_capacity(v)) continue;
      feasible = flows.f_node[v] < capacity_guard * xg.capacity(v);
    }
    if (feasible) return routing;
    routing.blend_toward(fallback, 0.5);
  }
  return fallback;
}

std::optional<RoutingState> remap_routing(const ExtendedGraph& old_xg,
                                          const RoutingState& old_routing,
                                          const ExtendedGraph& new_xg,
                                          const stream::EntityMaps& maps,
                                          double capacity_guard, bool repair) {
  try {
    // Reverse indices: old physical link per new link, old commodity per new
    // commodity (kRemovedEntity where the new entity has no old counterpart).
    std::size_t new_link_count = 0;
    for (const std::size_t nl : maps.link_map) {
      if (nl != kRemovedEntity) new_link_count = std::max(new_link_count, nl + 1);
    }
    std::vector<std::size_t> old_link_of(new_link_count, kRemovedEntity);
    for (std::size_t l = 0; l < maps.link_map.size(); ++l) {
      if (maps.link_map[l] != kRemovedEntity) {
        ensure(maps.link_map[l] < new_link_count,
               "remap_routing: malformed link map");
        old_link_of[maps.link_map[l]] = l;
      }
    }
    std::vector<std::size_t> old_commodity_of(new_xg.commodity_count(),
                                              kRemovedEntity);
    for (std::size_t j = 0; j < maps.commodity_map.size(); ++j) {
      if (maps.commodity_map[j] != kRemovedEntity) {
        ensure(maps.commodity_map[j] < new_xg.commodity_count(),
               "remap_routing: commodity map exceeds new graph");
        ensure(j < old_xg.commodity_count(),
               "remap_routing: commodity map exceeds old graph");
        old_commodity_of[maps.commodity_map[j]] = j;
      }
    }

    // Old extended edge per new usable edge; kRemovedEntity = no counterpart
    // (a restored link, or any edge of a newly arrived commodity).
    const auto old_edge_of = [&](CommodityId oj, EdgeId new_e) -> EdgeId {
      switch (new_xg.link_kind(new_e)) {
        case LinkKind::kProcessing: {
          const auto nl = new_xg.physical_link(new_e);
          if (nl >= old_link_of.size() || old_link_of[nl] == kRemovedEntity) {
            return kRemovedEntity;
          }
          return old_xg.processing_edge(old_link_of[nl]);
        }
        case LinkKind::kTransfer: {
          const auto nl = new_xg.physical_link(new_e);
          if (nl >= old_link_of.size() || old_link_of[nl] == kRemovedEntity) {
            return kRemovedEntity;
          }
          return old_xg.transfer_edge(old_link_of[nl]);
        }
        case LinkKind::kDummyInput:
          return old_xg.dummy_input_link(oj);
        case LinkKind::kDummyDifference:
          return old_xg.dummy_difference_link(oj);
      }
      return kRemovedEntity;
    };

    RoutingState out(new_xg);
    const auto& g = new_xg.graph();
    for (CommodityId nj = 0; nj < new_xg.commodity_count(); ++nj) {
      const std::size_t oj = old_commodity_of[nj];
      for (const NodeId nv : new_xg.commodity_nodes(nj)) {
        if (nv == new_xg.sink(nj)) continue;
        std::vector<EdgeId> usable;
        std::vector<double> phi;
        double total = 0.0;
        for (const EdgeId e : g.out_edges(nv)) {
          if (!new_xg.usable(nj, e)) continue;
          usable.push_back(e);
          double value = 0.0;
          if (oj != kRemovedEntity) {
            const EdgeId old_e = old_edge_of(oj, e);
            if (old_e != kRemovedEntity) value = old_routing.phi(oj, old_e);
          }
          phi.push_back(value);
          total += value;
        }
        ensure(!usable.empty(), "remap_routing: node without usable out-edge");
        const bool at_dummy_source = nv == new_xg.dummy_source(nj);
        if (oj != kRemovedEntity && total > 1e-12) {
          for (std::size_t i = 0; i < usable.size(); ++i) {
            out.set_phi(nj, usable[i], phi[i] / total);
          }
        } else if (at_dummy_source) {
          // Unmapped commodity, or mapped mass vanished: admit nothing until
          // the optimizer pulls it in (RoutingState::initial convention).
          for (const EdgeId e : usable) {
            out.set_phi(nj, e,
                        e == new_xg.dummy_difference_link(nj) ? 1.0 : 0.0);
          }
        } else {
          const double share = 1.0 / static_cast<double>(usable.size());
          for (const EdgeId e : usable) out.set_phi(nj, e, share);
        }
      }
    }
    ensure(out.is_valid(new_xg, 1e-9), "remap_routing: produced invalid routing");
    if (!repair) return out;
    return repair_capacity_feasibility(new_xg, std::move(out), capacity_guard);
  } catch (const maxutil::util::CheckError&) {
    return std::nullopt;  // inconsistent maps: caller cold-starts instead
  }
}

RoutingState routing_from_flows(
    const ExtendedGraph& xg,
    const std::vector<std::vector<std::pair<EdgeId, double>>>& flows,
    double capacity_guard) {
  ensure(flows.size() == xg.commodity_count(),
         "routing_from_flows: one flow list per commodity required");
  RoutingState out(xg);
  const auto& idx = xg.index();
  // Per-commodity flow scratch addressed by slot; only this commodity's
  // slot range [edge_begin, edge_end) is ever touched, so a fill of that
  // range resets it between commodities.
  std::vector<double> y(idx.slot_count(), 0.0);
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    std::fill(y.begin() + idx.edge_begin(j), y.begin() + idx.edge_end(j), 0.0);
    for (const auto& [e, rate] : flows[j]) {
      ensure(e < xg.edge_count(), "routing_from_flows: edge out of range");
      ensure(rate >= -1e-9, "routing_from_flows: negative flow");
      const std::size_t slot = idx.slot_of(j, e);
      if (slot == xform::CommodityIndex::kNoSlot) continue;  // unusable: no
                                                             // usable out-sum
                                                             // ever read it
      y[slot] = std::max(0.0, rate);
    }
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;
      const std::size_t begin = idx.out_begin(local);
      const std::size_t end = idx.out_end(local);
      ensure(begin < end, "routing_from_flows: node without usable out-edge");
      double total = 0.0;
      for (std::size_t s = begin; s < end; ++s) total += y[s];
      if (total > 1e-12) {
        for (std::size_t s = begin; s < end; ++s) {
          out.set_phi_slot(s, y[s] / total);
        }
      } else {
        // The flow never reaches this node: any valid split works, and
        // uniform matches RoutingState::initial's interior convention.
        const double share = 1.0 / static_cast<double>(end - begin);
        for (std::size_t s = begin; s < end; ++s) out.set_phi_slot(s, share);
      }
    }
  }
  ensure(out.is_valid(xg, 1e-9),
         "routing_from_flows: produced invalid routing");
  return repair_capacity_feasibility(xg, std::move(out), capacity_guard);
}

}  // namespace maxutil::core
