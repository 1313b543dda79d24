#include "core/optimality.hpp"

#include <algorithm>
#include <limits>

namespace maxutil::core {

OptimalityReport check_optimality(const ExtendedGraph& xg,
                                  const RoutingState& routing,
                                  const MarginalCosts& marginals) {
  const auto& idx = xg.index();
  OptimalityReport report;
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;
      const double dr_v = marginals.d_cost_d_input[local];
      double min_via = std::numeric_limits<double>::infinity();
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        const double via = marginal_via_slot(marginals, s);
        min_via = std::min(min_via, via);
        // Sufficient condition (13): via >= dA/dr_v on every usable edge.
        report.sufficient_violation =
            std::max(report.sufficient_violation, dr_v - via);
      }
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        const double phi = routing.phi_slot(s);
        if (phi <= 0.0) continue;
        const double via = marginal_via_slot(marginals, s);
        // Necessary condition (12): loaded links sit at the minimum,
        // weighted by phi so vanishing fractions do not dominate.
        report.stationarity_gap =
            std::max(report.stationarity_gap, phi * (via - min_via));
      }
    }
  }
  return report;
}

}  // namespace maxutil::core
