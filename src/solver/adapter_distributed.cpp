// Registry adapter for the message-passing Section-5 system
// (sim::DistributedGradientSystem on the parallel deterministic actor
// runtime). Computed iterates are thread-count independent; admitted rates
// and utility are evaluated observer-side through the shared flow solver,
// exactly as the pre-registry CLI did.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "core/flow.hpp"
#include "sim/distributed_gradient.hpp"
#include "sim/fault.hpp"
#include "solver/adapters.hpp"
#include "solver/registry.hpp"

namespace maxutil::solver {

namespace {

/// The pre-registry CLI's `--report` telemetry block, verbatim.
std::string runtime_report(const sim::DistributedGradientSystem& system,
                           std::size_t num_threads) {
  const sim::Runtime& rt = system.runtime();
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "runtime telemetry (%zu thread%s):\n",
                num_threads, num_threads == 1 ? "" : "s");
  out << line;
  std::snprintf(line, sizeof(line),
                "  rounds %zu, messages %zu, payload doubles %zu\n",
                rt.rounds(), rt.delivered_messages(),
                rt.delivered_payload_doubles());
  out << line;
  const std::size_t pool_total =
      rt.payload_pool_reuses() + rt.payload_pool_allocations();
  std::snprintf(line, sizeof(line),
                "  payload pool: %zu acquisitions, %.1f%% recycled\n",
                pool_total,
                pool_total == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(rt.payload_pool_reuses()) /
                          static_cast<double>(pool_total));
  out << line;
  if (rt.options().faults.enabled()) {
    out << "  fault plan: " << sim::describe(rt.options().faults) << "\n";
    std::snprintf(line, sizeof(line),
                  "  faults: %zu dropped, %zu duplicated, %zu delayed, "
                  "%zu crashes\n",
                  rt.fault_dropped_messages(), rt.fault_duplicated_messages(),
                  rt.fault_delayed_messages(), rt.fault_crashes());
    out << line;
    std::snprintf(line, sizeof(line),
                  "  staleness: %zu held updates, max input age %zu waves\n",
                  system.held_updates(), system.max_input_staleness());
    out << line;
  }
  std::snprintf(line, sizeof(line), "  %.3fs in rounds (%.1f rounds/s)\n",
                rt.total_round_seconds(),
                static_cast<double>(rt.rounds()) /
                    std::max(1e-12, rt.total_round_seconds()));
  out << line;
  return out.str();
}

SolveResult solve_distributed(const Problem& problem,
                              const SolveOptions& options) {
  const xform::ExtendedGraph& xg = problem.extended();
  core::GammaOptions g;
  if (options.curvature_scaled) {
    g.step_mode = core::StepMode::kCurvatureScaled;
    g.eta = 1.0;
  }
  if (options.eta > 0.0) g.eta = options.eta;

  sim::RuntimeOptions ropts;
  ropts.num_threads =
      options.threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.threads;
  const std::string faults = options.extra_text("faults", "");
  if (!faults.empty()) ropts.faults = sim::parse_fault_spec(faults);
  ropts.observe = options.observe;

  const std::size_t iterations =
      options.max_iterations != 0 ? options.max_iterations : 500;
  const auto max_staleness =
      static_cast<std::size_t>(options.extra_number("max_staleness", 8));

  SolveResult result;
  auto run = [&](sim::DistributedGradientSystem& system) {
    system.run(iterations);
    const core::FlowState flows =
        core::compute_flows(xg, system.routing_snapshot());
    result.admitted.resize(xg.commodity_count());
    for (stream::CommodityId j = 0; j < xg.commodity_count(); ++j) {
      result.admitted[j] = core::admitted_rate(xg, flows, j);
    }
    result.utility = core::total_utility(xg, flows);
    result.node_usage = flows.f_node;
    result.allocation = core::map_to_physical(xg, flows);
    result.routing = system.routing_snapshot();
    result.iterations = system.iterations();
    result.status = system.last_iteration_converged() ? Status::kIterationLimit
                                                      : Status::kRoundLimit;
    if (!system.last_iteration_converged()) {
      result.warnings.push_back(
          "last iteration's wave did not quiesce within the round budget");
    }
    const sim::Runtime& rt = system.runtime();
    result.metrics = {
        {"rounds", static_cast<double>(rt.rounds())},
        {"messages", static_cast<double>(rt.delivered_messages())},
        {"last_iteration_rounds",
         static_cast<double>(system.last_iteration_rounds())},
        {"held_updates", static_cast<double>(system.held_updates())},
        {"resync_events", static_cast<double>(system.resync_events())},
    };
    if (options.report) {
      result.report = runtime_report(system, ropts.num_threads);
    }
    if (options.observe) {
      const obs::Observability* o = rt.observability();
      if (o == nullptr) {
        result.warnings.push_back(
            "this build compiled the observability layer out "
            "(MAXUTIL_OBS_OFF); no metrics/trace written");
      } else {
        ObsSnapshot snapshot;
        std::ostringstream metrics_csv;
        o->metrics.write_csv(metrics_csv);
        snapshot.metrics_csv = metrics_csv.str();
        snapshot.metrics_report = o->metrics.report();
        std::ostringstream chrome;
        o->tracer.write_chrome_json(chrome);
        snapshot.trace_chrome_json = chrome.str();
        std::ostringstream csv;
        o->tracer.write_csv(csv);
        snapshot.trace_csv = csv.str();
        snapshot.trace_events = o->tracer.events().size();
        result.obs = std::move(snapshot);
      }
    }
  };

  if (options.warm_start.has_value()) {
    sim::DistributedGradientSystem system(xg, *options.warm_start, g, ropts,
                                          max_staleness);
    run(system);
  } else {
    sim::DistributedGradientSystem system(xg, g, ropts, max_staleness);
    run(system);
  }
  return result;
}

}  // namespace

void register_distributed_solver(SolverRegistry& registry) {
  SolverInfo info;
  info.name = "distributed";
  info.description =
      "Section-5 algorithm as message-passing actors on the parallel "
      "deterministic runtime (threads, faults, observability)";
  info.default_iterations = 500;
  info.supports_warm_start = true;
  info.supports_threads = true;
  info.supports_observation = true;
  info.emits_routing = true;
  info.solve = solve_distributed;
  registry.add(std::move(info));
}

}  // namespace maxutil::solver
