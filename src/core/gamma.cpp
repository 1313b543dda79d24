#include "core/gamma.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace maxutil::core {

using maxutil::util::ensure;
using maxutil::xform::CommodityIndex;

namespace {

/// Writes commodity j's blocked tags into tagged[node_begin(j)..node_end(j)),
/// by flat local node.
void tag_blocked(const CommodityIndex& idx, const RoutingState& routing,
                 const FlowState& flows, const MarginalCosts& marginals,
                 CommodityId j, double eta, std::vector<char>& tagged) {
  std::fill(tagged.begin() + idx.node_begin(j),
            tagged.begin() + idx.node_end(j), 0);
  // Reverse topological order: downstream tags are final before v looks at
  // its neighbors — the sweep form of the paper's tag-in-broadcast protocol.
  for (std::size_t local = idx.node_end(j); local-- > idx.node_begin(j);) {
    if (local == idx.sink_local(j)) continue;
    const double tv = flows.t[local];
    const double dr_v = marginals.d_cost_d_input[local];
    for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
      const double phi = routing.phi_slot(s);
      if (phi <= 0.0) continue;
      const std::size_t head = idx.head_local(s);
      if (tagged[head]) {
        tagged[local] = 1;
        break;
      }
      // Improper link test (eq. 18), with two adaptations:
      //  * the downstream marginal is shrinkage-scaled (dr_v vs beta * dr_m):
      //    eq. 18 is Gallager's beta = 1 form, and with shrinkage one unit
      //    at v legitimately becomes beta units at m, so the unscaled
      //    comparison would tag every normally-operating node (see
      //    DESIGN.md);
      //  * multiplied through by t_v so a zero-traffic node needs no special
      //    casing: phi * t_v >= eta * (marginal via e - dA/dr_v).
      if (dr_v <= idx.beta(s) * marginals.d_cost_d_input[head] &&
          phi * tv >= eta * (marginal_via_slot(marginals, s) - dr_v)) {
        tagged[local] = 1;
        break;
      }
    }
  }
}

}  // namespace

std::vector<bool> compute_blocked_tags(const ExtendedGraph& xg,
                                       const RoutingState& routing,
                                       const FlowState& flows,
                                       const MarginalCosts& marginals,
                                       CommodityId j,
                                       const GammaOptions& options) {
  const CommodityIndex& idx = xg.index();
  std::vector<char> local_tags(idx.local_node_count(), 0);
  tag_blocked(idx, routing, flows, marginals, j, options.eta, local_tags);
  std::vector<bool> tagged(xg.node_count(), false);
  for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
       ++local) {
    tagged[idx.node(local)] = local_tags[local] != 0;
  }
  return tagged;
}

GammaStats apply_gamma(const ExtendedGraph& xg, const FlowState& flows,
                       const MarginalCosts& marginals,
                       const GammaOptions& options, RoutingState& routing,
                       GammaScratch& scratch) {
  ensure(options.eta > 0.0, "apply_gamma: eta must be positive");
  const CommodityIndex& idx = xg.index();
  GammaStats stats;
  std::vector<char>& tagged = scratch.tagged;
  std::vector<std::size_t>& eligible = scratch.eligible;
  tagged.resize(idx.local_node_count());

  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    tag_blocked(idx, routing, flows, marginals, j, options.eta, tagged);

    // Each node's update touches only its own out-slots, so iterating locals
    // in topological order gives the same result as any other node order.
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;

      // Candidate out-slots, with the blocked set B_i(j) removed: an edge is
      // blocked when phi = 0 and its head carries the tag (eq. 14).
      eligible.clear();
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        if (routing.phi_slot(s) == 0.0 && tagged[idx.head_local(s)]) {
          ++stats.blocked_edges;
          continue;
        }
        eligible.push_back(s);
      }
      ensure(!eligible.empty(), "apply_gamma: all out-edges blocked");

      // Best (cheapest-marginal) eligible link k(i,j) of eq. 16/17.
      std::size_t best = eligible.front();
      double best_via = std::numeric_limits<double>::infinity();
      for (const std::size_t s : eligible) {
        const double via = marginal_via_slot(marginals, s);
        if (via < best_via) {
          best_via = via;
          best = s;
        }
      }

      const double tv = flows.t[local];
      double shifted = 0.0;
      if (tv <= options.traffic_floor) {
        // Gallager's t -> 0 limit: Delta = phi on every non-best link.
        ++stats.snapped_nodes;
        for (const std::size_t s : eligible) {
          if (s == best) continue;
          const double phi = routing.phi_slot(s);
          if (phi == 0.0) continue;
          shifted += phi;
          stats.max_phi_change = std::max(stats.max_phi_change, phi);
          routing.set_phi_slot(s, 0.0);
        }
      } else {
        const double best_curvature =
            options.step_mode == StepMode::kCurvatureScaled
                ? curvature_via_slot(marginals, best)
                : 0.0;
        for (const std::size_t s : eligible) {
          if (s == best) continue;
          const double phi = routing.phi_slot(s);
          if (phi == 0.0) continue;
          const double a = marginal_via_slot(marginals, s) - best_via;
          double step;
          if (options.step_mode == StepMode::kCurvatureScaled) {
            // Newton step for the 1-D move of mass from e to best:
            // A(delta) ~ -a t delta + 1/2 (kappa_e + kappa_best) t^2 delta^2.
            const double kappa =
                std::max(curvature_via_slot(marginals, s) + best_curvature,
                         options.curvature_floor);
            step = options.eta * a / (tv * kappa);
          } else {
            step = options.eta * a / tv;
          }
          const double delta = std::min(phi, step);
          if (delta <= 0.0) continue;
          shifted += delta;
          stats.max_phi_change = std::max(stats.max_phi_change, delta);
          routing.set_phi_slot(s, phi - delta);
        }
      }
      if (shifted > 0.0) {
        routing.set_phi_slot(best, routing.phi_slot(best) + shifted);
      }
    }
  }
  return stats;
}

GammaStats apply_gamma(const ExtendedGraph& xg, const FlowState& flows,
                       const MarginalCosts& marginals,
                       const GammaOptions& options, RoutingState& routing) {
  GammaScratch scratch;
  return apply_gamma(xg, flows, marginals, options, routing, scratch);
}

}  // namespace maxutil::core
