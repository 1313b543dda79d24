// E17 — online churn controller (extension): warm-started re-optimization
// under scripted topology churn. Per seeded random instance we script one
// churn plan (capacity down/up scales on the busiest interior server, crash
// + restore of it, bandwidth down/up scales, commodity departure +
// re-arrival) and replay it through two ctrl::Controller arms that differ
// only in
// ControllerOptions::use_warm_start. Measures per-event re-solve iterations,
// the recovery SLOs (iterations back into the utility band, utility-deficit
// integral), and the crash->restore round trip. Writes BENCH_churn.json.
//
// Shape checks (the acceptance criteria):
//   * warm recovery (iterations until utility re-enters the band around the
//     post-event optimum) strictly beats cold on >= 80% of re-solved events,
//   * a crash->restore round trip restores utility within 1e-9 (the restore
//     is served exactly from the crash snapshot, 0 iterations),
//   * start-kind conservation: warm + cold + exact == events on every run,
//   * a distributed-backend churn run is bit-identical across 1/2/8 threads,
//   * no re-solve failures anywhere.
//
// `--smoke` runs 2 seeds instead of 5 (the CI leg).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/optimizer.hpp"
#include "ctrl/churn_plan.hpp"
#include "ctrl/controller.hpp"
#include "gen/random_instance.hpp"
#include "stream/surgery.hpp"
#include "util/artifacts.hpp"
#include "util/table.hpp"
#include "xform/extended_graph.hpp"

namespace {

using namespace maxutil;

/// The busiest interior server at a quickly converged solution, skipping
/// sinks, sources, and any server whose removal would kill every commodity
/// (the controller survives that, but the plan's later depart/arrive events
/// assume the instance stays alive).
stream::NodeId pick_victim(const stream::StreamNetwork& net,
                           const xform::PenaltyConfig& penalty) {
  const xform::ExtendedGraph xg(net, penalty);
  core::GradientOptions options;
  options.eta = 0.1;
  options.max_iterations = 600;
  core::GradientOptimizer probe(xg, options);
  probe.run();
  const core::PhysicalAllocation alloc = probe.allocation();

  std::vector<stream::NodeId> order;
  for (stream::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.is_sink(n)) continue;
    bool is_source = false;
    for (std::size_t j = 0; j < net.commodity_count(); ++j) {
      is_source = is_source || net.source(j) == n;
    }
    if (!is_source) order.push_back(n);
  }
  std::sort(order.begin(), order.end(),
            [&](stream::NodeId a, stream::NodeId b) {
              if (alloc.server_usage[a] != alloc.server_usage[b]) {
                return alloc.server_usage[a] > alloc.server_usage[b];
              }
              return a < b;
            });
  for (const stream::NodeId n : order) {
    if (stream::without_server(net, n).network.commodity_count() > 0) return n;
  }
  return stream::kRemovedEntity;
}

/// The scripted per-instance plan, built against baseline names (all
/// hyphen-free, so the bw=FROM-TO grammar is unambiguous). Indices matter
/// downstream: the restore at [3] must round-trip against [1], and the
/// re-arrival at [7] against [5] (both served exactly from snapshots).
ctrl::ChurnPlan scripted_plan(const stream::StreamNetwork& net,
                              stream::NodeId victim) {
  const auto& g = net.graph();
  const std::string v = net.node_name(victim);
  const std::string from = net.node_name(g.tail(0));
  const std::string to = net.node_name(g.head(0));
  const std::string j = net.commodity_name(net.commodity_count() - 1);
  return ctrl::parse_churn_plan(
      "cap=" + v + "*0.5@1,cap=" + v + "*1.2@2,crash=" + v + "@3,restore=" +
      v + "@4,bw=" + from + "-" + to + "*0.5@5,bw=" + from + "-" + to +
      "*1.6@6,depart=" + j + "@7,arrive=" + j + "@8");
}

ctrl::ControllerOptions arm_options(bool warm) {
  ctrl::ControllerOptions options;
  options.pipeline = "gradient";
  options.use_warm_start = warm;
  options.solve.eta = 0.1;
  options.solve.tolerance = 1e-6;
  options.watchdog_iterations = 8000;
  options.penalty.epsilon = 0.05;
  // Wide enough to clear the eps=0.05 barrier's standing gap against the LP
  // optimum, so "recovered" measures re-convergence, not the barrier.
  options.recovery_band = 0.10;
  return options;
}

struct ArmResult {
  ctrl::ChurnReport report;
  std::size_t total_iterations = 0;
  double deficit_total = 0.0;
  std::size_t recovered = 0;

  explicit ArmResult(ctrl::ChurnReport r) : report(std::move(r)) {
    for (const ctrl::EventOutcome& o : report.events) {
      total_iterations += o.iterations;
      deficit_total += o.utility_deficit;
      if (o.recovery_iterations != ctrl::kNotRecovered) recovered += 1;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
  }
  const std::size_t seeds = smoke ? 2 : 5;

  std::printf("=== E17: online churn controller (warm vs cold recovery) ===\n");
  std::printf("random instances (12 servers, 2 commodities, stages 3), "
              "8-event scripted plan per seed, eps=0.05, eta=0.1%s\n\n",
              smoke ? " [smoke]" : "");

  gen::RandomInstanceParams params;
  params.servers = 12;
  params.commodities = 2;
  params.stages = 3;
  params.lambda = 60.0;

  util::Table table({"seed", "event", "warm iters", "cold iters",
                     "warm recov", "cold recov", "warm util", "optimum"});
  std::vector<util::BenchRecord> records;

  std::size_t wins = 0, comparisons = 0, failures = 0;
  bool roundtrip_exact = true;
  bool conservation = true;
  double worst_roundtrip_gap = 0.0;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    util::Rng rng(seed * 7919);
    const auto net = gen::random_instance(params, rng);
    const auto victim = pick_victim(net, arm_options(true).penalty);
    if (victim == stream::kRemovedEntity) continue;
    const ctrl::ChurnPlan plan = scripted_plan(net, victim);

    ctrl::Controller warm_ctrl(net, arm_options(true));
    ctrl::Controller cold_ctrl(net, arm_options(false));
    const ArmResult warm(warm_ctrl.run(plan));
    const ArmResult cold(cold_ctrl.run(plan));
    failures += warm.report.failures + cold.report.failures;

    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      const ctrl::EventOutcome& w = warm.report.events[i];
      const ctrl::EventOutcome& c = cold.report.events[i];
      // Exact restores run no re-solve in either arm (both controllers
      // snapshot identically), so there is no recovery to compare. The win
      // metric is the recovery SLO — iterations until utility re-enters the
      // band — not iterations-to-tolerance: a warm start that lands next to
      // the optimum can still circle the barrier for thousands of damped
      // steps before the phi tolerance trips, while serving full utility
      // the whole time.
      if (!w.exact_restore || !c.exact_restore) {
        comparisons += 1;
        if (w.recovery_iterations < c.recovery_iterations) wins += 1;
      }
      table.add_row(
          {std::to_string(seed), w.describe(),
           std::to_string(w.iterations), std::to_string(c.iterations),
           w.recovery_iterations == ctrl::kNotRecovered
               ? "never"
               : std::to_string(w.recovery_iterations),
           c.recovery_iterations == ctrl::kNotRecovered
               ? "never"
               : std::to_string(c.recovery_iterations),
           util::Table::cell(w.utility_after, 4),
           util::Table::cell(w.optimum, 4)});
    }

    // Round trips: the restore at [3] must reproduce the state after [1]
    // (pre-crash snapshot) and the re-arrival at [7] the state after [5]
    // (pre-departure snapshot), both exactly and without a solve.
    double seed_gap = 0.0;
    for (const auto [back, fwd] : {std::pair<std::size_t, std::size_t>{3, 1},
                                   {7, 5}}) {
      const double gap = std::abs(warm.report.events[back].utility_after -
                                  warm.report.events[fwd].utility_after);
      seed_gap = std::max(seed_gap, gap);
      roundtrip_exact = roundtrip_exact && gap <= 1e-9 &&
                        warm.report.events[back].exact_restore &&
                        warm.report.events[back].iterations == 0 &&
                        cold.report.events[back].exact_restore;
    }
    worst_roundtrip_gap = std::max(worst_roundtrip_gap, seed_gap);

    for (const ArmResult* arm : {&warm, &cold}) {
      conservation = conservation &&
                     arm->report.warm_starts + arm->report.cold_starts +
                             arm->report.exact_restores ==
                         arm->report.events.size();
    }

    records.push_back(
        {"seed=" + std::to_string(seed),
         {{"victim", static_cast<double>(victim)},
          {"events", static_cast<double>(plan.events.size())},
          {"warm_total_iterations", static_cast<double>(warm.total_iterations)},
          {"cold_total_iterations", static_cast<double>(cold.total_iterations)},
          {"iteration_savings",
           cold.total_iterations == 0
               ? 0.0
               : 1.0 - static_cast<double>(warm.total_iterations) /
                           static_cast<double>(cold.total_iterations)},
          {"warm_recovered_events", static_cast<double>(warm.recovered)},
          {"cold_recovered_events", static_cast<double>(cold.recovered)},
          {"warm_deficit_total", warm.deficit_total},
          {"cold_deficit_total", cold.deficit_total},
          {"roundtrip_utility_gap", seed_gap},
          {"warm_final_utility", warm.report.final_utility},
          {"cold_final_utility", cold.report.final_utility},
          {"warm_failures", static_cast<double>(warm.report.failures)},
          {"cold_failures", static_cast<double>(cold.report.failures)}}});
  }
  table.print(std::cout);

  // Determinism: the same plan through the distributed backend must be
  // bit-identical across thread counts (the controller adds no wall-clock
  // or thread-dependent decisions on top of the deterministic runtime).
  bool identical = true;
  std::size_t det_events = 0;
  {
    util::Rng rng(7919);
    const auto net = gen::random_instance(params, rng);
    const auto victim = pick_victim(net, arm_options(true).penalty);
    const ctrl::ChurnPlan plan = scripted_plan(net, victim);
    std::vector<ctrl::ChurnReport> reports;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ctrl::ControllerOptions options = arm_options(true);
      options.pipeline = "distributed";
      options.watchdog_iterations = 200;
      options.solve.threads = threads;
      ctrl::Controller controller(net, options);
      reports.push_back(controller.run(plan));
      if (reports.size() == 1) {
        det_events = reports[0].events.size();
      } else {
        const ctrl::ChurnReport& a = reports[0];
        const ctrl::ChurnReport& b = reports.back();
        identical = identical && a.final_utility == b.final_utility &&
                    a.events.size() == b.events.size();
        for (std::size_t i = 0; identical && i < a.events.size(); ++i) {
          identical = identical &&
                      a.events[i].iterations == b.events[i].iterations &&
                      a.events[i].utility_after == b.events[i].utility_after;
        }
      }
    }
    std::printf("\ndeterminism: distributed pipeline, %zu events, threads "
                "{1,2,8} -> %s\n",
                det_events, identical ? "bit-identical" : "DIVERGED");
  }

  const double win_rate =
      comparisons == 0 ? 0.0
                       : static_cast<double>(wins) /
                             static_cast<double>(comparisons);
  std::printf("warm recovers sooner on %zu/%zu re-solved events (%.0f%%; "
              "exact restores excluded), worst round-trip gap %.3g\n",
              wins, comparisons, 100.0 * win_rate, worst_roundtrip_gap);

  records.push_back({"aggregate",
                     {{"wins", static_cast<double>(wins)},
                      {"comparisons", static_cast<double>(comparisons)},
                      {"win_rate", win_rate},
                      {"worst_roundtrip_gap", worst_roundtrip_gap},
                      {"failures", static_cast<double>(failures)},
                      {"distributed_bit_identical", identical ? 1.0 : 0.0}}});
  const std::string path = util::write_bench_json(
      "churn", records,
      {{"instance", "gen::random_instance (12 servers, 2 commodities, "
                    "3 stages, lambda 60)"},
       {"plan", "cap*0.5 -> cap*1.2 -> crash -> restore -> bw*0.5 -> "
                "bw*1.6 -> depart -> arrive"},
       {"seeds", std::to_string(seeds)},
       {"mode", smoke ? "smoke" : "full"}});
  std::printf("wrote %s\n\n", path.c_str());

  std::printf("shape checks:\n");
  bool ok = true;
  ok &= bench::shape_check(
      "warm recovers strictly sooner than cold on >= 80% of re-solved events",
      win_rate >= 0.8);
  ok &= bench::shape_check(
      "crash->restore and depart->arrive round trips exact (gap <= 1e-9)",
      roundtrip_exact);
  ok &= bench::shape_check("warm + cold + exact == events on every run",
                           conservation);
  ok &= bench::shape_check(
      "distributed churn bit-identical across 1/2/8 threads", identical);
  ok &= bench::shape_check("no re-solve failures", failures == 0);
  return ok ? 0 : 1;
}
