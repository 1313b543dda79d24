// E12 — extension: failure recovery with warm starts. Section 3 remarks
// that the penalty's reserved headroom helps "faster recovery in the case of
// node or link failures". After a fail-stop server crash we rebuild the
// network (stream::without_server), remap the surviving routing
// (core::remap_routing), and compare re-convergence against a cold
// restart, across several random instances.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/optimizer.hpp"
#include "core/warm_start.hpp"
#include "gen/random_instance.hpp"
#include "stream/surgery.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using namespace maxutil;

/// Picks an interior server that carries traffic at the converged solution
/// (never a source), so the failure actually matters.
stream::NodeId pick_victim(const stream::StreamNetwork& net,
                           const core::PhysicalAllocation& alloc) {
  stream::NodeId best = stream::kRemovedEntity;
  double best_usage = 0.0;
  for (stream::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.is_sink(n)) continue;
    bool is_source = false;
    for (std::size_t j = 0; j < net.commodity_count(); ++j) {
      is_source = is_source || net.source(j) == n;
    }
    if (is_source) continue;
    if (alloc.server_usage[n] > best_usage) {
      best_usage = alloc.server_usage[n];
      best = n;
    }
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== E12: warm-start failure recovery ===\n");
  std::printf("random instances (16 servers, 2 commodities, stages 3),"
              " fail the busiest interior server, eps=0.05, eta=0.1\n\n");

  util::Table table({"seed", "util before", "LP after", "warm start util",
                     "warm iters to 95%", "cold iters to 95%", "speedup"});
  util::RunningStats speedups;
  bool all_feasible = true;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 7919);
    gen::RandomInstanceParams p;
    p.servers = 16;
    p.commodities = 2;
    p.stages = 3;
    p.lambda = 60.0;
    const auto net = gen::random_instance(p, rng);
    xform::PenaltyConfig penalty;
    penalty.epsilon = 0.05;
    const xform::ExtendedGraph xg(net, penalty);
    core::GradientOptions options;
    options.eta = 0.1;
    options.record_history = false;
    options.max_iterations = 8000;
    core::GradientOptimizer before(xg, options);
    before.run();

    const auto victim = pick_victim(net, before.allocation());
    if (victim == stream::kRemovedEntity) continue;
    const auto surgery = stream::without_server(net, victim);
    if (surgery.network.commodity_count() == 0) continue;
    const xform::ExtendedGraph new_xg(surgery.network, penalty);
    const double target =
        0.95 * xform::solve_reference(new_xg).optimal_utility;

    const auto warm_routing =
        core::remap_routing(xg, before.routing(), new_xg, surgery).value();
    const auto warm_flows = core::compute_flows(new_xg, warm_routing);
    all_feasible = all_feasible &&
                   core::map_to_physical(new_xg, warm_flows)
                           .max_capacity_violation(new_xg) <= 0.0;

    const auto iterations_to = [&](core::GradientOptimizer& opt) {
      std::size_t count = 0;
      while (opt.utility() < target && count < 30000) {
        opt.step();
        ++count;
      }
      return count;
    };
    core::GradientOptions longrun = options;
    longrun.max_iterations = 30000;
    core::GradientOptimizer warm(new_xg, longrun, warm_routing);
    const double warm_initial = warm.utility();
    core::GradientOptimizer cold(new_xg, longrun);
    const std::size_t warm_iters = iterations_to(warm);
    const std::size_t cold_iters = iterations_to(cold);
    if (cold_iters >= 30000 && warm_iters >= 30000) {
      // Neither run reached the target inside the budget (deep-overload
      // instances where admission crawls at eta*a/lambda): no speedup
      // information, skip the row.
      continue;
    }
    const double speedup = static_cast<double>(cold_iters) /
                           std::max<double>(1.0, static_cast<double>(warm_iters));
    speedups.add(speedup);
    table.add_row({util::Table::cell(static_cast<long long>(seed)),
                   util::Table::cell(before.utility()),
                   util::Table::cell(target / 0.95),
                   util::Table::cell(warm_initial),
                   util::Table::cell(static_cast<long long>(warm_iters)),
                   util::Table::cell(static_cast<long long>(cold_iters)),
                   util::Table::cell(speedup, 1) + "x"});
  }
  table.print(std::cout);

  std::printf("\nmean warm-start speedup: %.1fx (min %.1fx)\n\n",
              speedups.mean(), speedups.min());
  std::printf("shape checks:\n");
  bool ok = true;
  ok &= bench::shape_check("transferred routing is always feasible",
                           all_feasible);
  ok &= bench::shape_check("warm start is never slower than cold",
                           speedups.min() >= 1.0);
  ok &= bench::shape_check("warm start is >= 3x faster on average",
                           speedups.mean() >= 3.0);
  return ok ? 0 : 1;
}
