#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/routing.hpp"
#include "stream/surgery.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

/// Remaps a converged routing decision across surgery maps (old network ->
/// new network: stream::without_server's SurgeryResult, or the churn
/// controller's stream::compose_maps), giving the optimizer a warm start
/// after a topology change instead of restarting from all-rejected.
///
/// For every commodity, the fraction of each usable extended edge with a
/// pre-surgery counterpart is copied and the per-node fractions
/// renormalized (mass that pointed at a removed server is spread
/// proportionally over the remaining links). The new network may also
/// contain entities with *no* pre-surgery counterpart (a restored server's
/// links, a newly arrived commodity):
///
/// * New commodities without an old counterpart start at the all-rejected
///   convention of RoutingState::initial (all mass on the dummy difference
///   link, uniform at interior nodes).
/// * New edges without an old counterpart contribute zero mass; nodes whose
///   entire mass landed on removed or new edges fall back to uniform
///   (all-rejected at dummy sources).
///
/// Warm starts are one payoff of the paper's Section-3 observation that the
/// penalty barrier leaves spare capacity "for faster recovery in the case of
/// node or link failures": the surviving routing is feasible-with-headroom
/// and already near-optimal for the reduced network (bench_recovery
/// quantifies the saved iterations).
///
/// `capacity_guard` mirrors GradientOptions::capacity_guard: if
/// concentrating the surviving mass would overload a node past guard * C
/// (the failed server's load landing on one replica), the remapped routing
/// is blended toward the all-rejected initial state until it is strictly
/// feasible, so it is always a legal optimizer start. With `repair = false`
/// the remapped routing is returned as-is (valid, but possibly violating
/// the guard) so the caller can apply its own degradation policy — e.g. the
/// churn controller's `priority` policy sheds whole commodities instead of
/// blending everyone proportionally.
///
/// Returns nullopt instead of throwing when the maps are inconsistent with
/// the graphs — the controller's cue to fall back to a cold start rather
/// than abort the churn run.
std::optional<RoutingState> remap_routing(const xform::ExtendedGraph& old_xg,
                                          const RoutingState& old_routing,
                                          const xform::ExtendedGraph& new_xg,
                                          const stream::EntityMaps& maps,
                                          double capacity_guard = 0.999,
                                          bool repair = true);

/// Blends `routing` toward the all-rejected initial state until every
/// finite-capacity node is strictly inside guard * C (the `proportional`
/// degradation policy: every commodity sheds the same fraction). Returns the
/// initial state itself when 60 halvings do not suffice. This is the repair
/// pass routing_from_flows and remap_routing run internally,
/// exported for callers that defer it (remap_routing with repair = false).
RoutingState repair_capacity_feasibility(const xform::ExtendedGraph& xg,
                                         RoutingState routing,
                                         double capacity_guard = 0.999);

/// Reconstructs a valid RoutingState from per-commodity extended-edge flows
/// (e.g. the LP reference vertex, whose ReferenceSolution::flows has exactly
/// this shape): phi at each non-sink commodity node is the node's outgoing
/// flow split, with a uniform fallback where the node carries no flow.
///
/// The second warm-start pipe alongside remap_routing: a vertex of the
/// *original* constrained polytope typically saturates capacities exactly
/// (f = C), where the barrier cost is infinite, so the result is blended
/// toward the all-rejected initial state until every finite-capacity node is
/// strictly inside guard * C — always a legal optimizer start. Used by the
/// solver layer's lp -> gradient warm-start chaining (docs/SOLVERS.md).
RoutingState routing_from_flows(
    const xform::ExtendedGraph& xg,
    const std::vector<std::vector<std::pair<graph::EdgeId, double>>>& flows,
    double capacity_guard = 0.999);

}  // namespace maxutil::core
