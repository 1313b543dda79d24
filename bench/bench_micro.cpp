// E9 — micro-benchmarks of the core primitives (google-benchmark): cost of
// one flow-balance solve, one marginal-cost sweep, one Gamma update, one
// full optimizer step, the extended-graph construction, the LP reference
// solve, and one back-pressure round, on Section-6-sized instances; and one
// controller brownout + repair pair re-solved on lp-sparse, on the
// 500-server rung of the served lp-churn benchmark.

#include <benchmark/benchmark.h>

#include "bp/backpressure.hpp"
#include "common.hpp"
#include "core/flow.hpp"
#include "core/gamma.hpp"
#include "core/marginals.hpp"
#include "core/optimizer.hpp"
#include "ctrl/controller.hpp"
#include "gen/random_instance.hpp"
#include "sim/distributed_gradient.hpp"
#include "util/artifacts.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using namespace maxutil;

const stream::StreamNetwork& shared_net() {
  static const stream::StreamNetwork net = bench::paper_instance();
  return net;
}

const xform::ExtendedGraph& shared_xg() {
  static const xform::ExtendedGraph xg(shared_net());
  return xg;
}

/// A routing state some way into the optimization (more representative than
/// the all-rejected initial state).
const core::RoutingState& warm_routing() {
  static const core::RoutingState routing = [] {
    core::GradientOptions options;
    options.eta = 0.04;
    options.max_iterations = 200;
    options.record_history = false;
    core::GradientOptimizer opt(shared_xg(), options);
    opt.run();
    return opt.routing();
  }();
  return routing;
}

void BM_ExtendedGraphBuild(benchmark::State& state) {
  for (auto _ : state) {
    xform::ExtendedGraph xg(shared_net());
    benchmark::DoNotOptimize(xg.edge_count());
  }
}
BENCHMARK(BM_ExtendedGraphBuild);

void BM_ComputeFlows(benchmark::State& state) {
  const auto& xg = shared_xg();
  const auto& routing = warm_routing();
  for (auto _ : state) {
    const auto flows = core::compute_flows(xg, routing);
    benchmark::DoNotOptimize(flows.f_node.data());
  }
}
BENCHMARK(BM_ComputeFlows);

void BM_MarginalSweep(benchmark::State& state) {
  const auto& xg = shared_xg();
  const auto& routing = warm_routing();
  const auto flows = core::compute_flows(xg, routing);
  for (auto _ : state) {
    const auto marginals = core::compute_marginals(xg, routing, flows);
    benchmark::DoNotOptimize(marginals.d_cost_d_input.data());
  }
}
BENCHMARK(BM_MarginalSweep);

void BM_GammaUpdate(benchmark::State& state) {
  const auto& xg = shared_xg();
  const auto flows = core::compute_flows(xg, warm_routing());
  const auto marginals = core::compute_marginals(xg, warm_routing(), flows);
  for (auto _ : state) {
    core::RoutingState routing = warm_routing();
    core::apply_gamma(xg, flows, marginals, {}, routing);
    benchmark::DoNotOptimize(routing.phi(0, 0));
  }
}
BENCHMARK(BM_GammaUpdate);

void BM_OptimizerStep(benchmark::State& state) {
  const auto& xg = shared_xg();
  core::GradientOptions options;
  options.record_history = false;
  options.max_iterations = static_cast<std::size_t>(-1);
  core::GradientOptimizer opt(xg, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OptimizerStep);

void BM_BackPressureRound(benchmark::State& state) {
  const auto& xg = shared_xg();
  bp::BackPressureOptions options;
  options.record_history = false;
  bp::BackPressureOptimizer opt(xg, options);
  for (auto _ : state) {
    opt.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BackPressureRound);

/// One distributed-gradient iteration (two message waves) with the
/// observability layer compiled in but switched off — the baseline for the
/// "<2% overhead when disabled" budget of docs/OBSERVABILITY.md. The arg is
/// the runtime thread count (1 = serial sweep, >1 = shard-partitioned).
void BM_DistributedIterate(benchmark::State& state) {
  const auto& xg = shared_xg();
  sim::RuntimeOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  sim::DistributedGradientSystem system(xg, {}, options);
  for (auto _ : state) {
    system.iterate();
    benchmark::DoNotOptimize(system.utility());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DistributedIterate)->Arg(1)->Arg(2)->Arg(4);

/// Same iteration with RuntimeOptions::observe on: full metric counters,
/// per-round spans, and wave latency histograms — staged in per-thread
/// rings, drained at the serial merge point. Compare against the matching
/// BM_DistributedIterate arg for the observe-on cost at each thread count.
void BM_DistributedIterateObserved(benchmark::State& state) {
  const auto& xg = shared_xg();
  sim::RuntimeOptions options;
  options.observe = true;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  sim::DistributedGradientSystem system(xg, {}, options);
  for (auto _ : state) {
    system.iterate();
    benchmark::DoNotOptimize(system.utility());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DistributedIterateObserved)->Arg(1)->Arg(2)->Arg(4);

void BM_LpReferenceSolve(benchmark::State& state) {
  const auto& xg = shared_xg();
  for (auto _ : state) {
    const auto reference = xform::solve_reference(xg);
    benchmark::DoNotOptimize(reference.optimal_utility);
  }
}
BENCHMARK(BM_LpReferenceSolve)->Unit(benchmark::kMillisecond);

/// A capacity brownout (x0.5) of one server and its repair (x2) through
/// ctrl::Controller::apply_batch on lp-sparse, on the lp-churn instance
/// (random 500 servers / 20 commodities / 5 stages, seed 7, epsilon 0.1).
/// Each iteration is the pair: two same-shape batches, each an in-place
/// patch of the live network plus a warm re-solve of the changed rhs.
void BM_LpCapResolve(benchmark::State& state) {
  gen::RandomInstanceParams params;
  params.servers = 500;
  params.commodities = 20;
  params.stages = 5;
  util::Rng rng(7);
  const stream::StreamNetwork net = gen::random_instance(params, rng);
  ctrl::ControllerOptions options;
  options.pipeline = "lp-sparse";
  options.penalty.epsilon = 0.1;
  options.lp_reference = false;
  ctrl::Controller controller(net, options);
  // A mid-id server: like most lp-churn brownouts, its re-solve needs few
  // or no pivots, so the pair measures the per-event set-up.
  graph::NodeId server = net.node_count() / 2;
  while (net.is_sink(server)) ++server;
  ctrl::ChurnEvent brownout;
  brownout.kind = ctrl::ChurnEventKind::kCapScale;
  brownout.node = net.node_name(server);
  brownout.factor = 0.5;
  ctrl::ChurnEvent repair = brownout;
  repair.factor = 2.0;
  std::size_t pivots = 0;
  for (auto _ : state) {
    pivots += controller.apply_batch({brownout}).iterations;
    pivots += controller.apply_batch({repair}).iterations;
  }
  state.counters["pivots_per_pair"] = benchmark::Counter(
      static_cast<double>(pivots), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LpCapResolve)->Unit(benchmark::kMicrosecond);

/// Console reporter that additionally captures every run for the
/// machine-readable BENCH_micro.json perf artifact.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double iters = static_cast<double>(run.iterations);
      records_.push_back(
          {run.benchmark_name(),
           {{"real_time_sec", run.real_accumulated_time / iters},
            {"cpu_time_sec", run.cpu_accumulated_time / iters},
            {"iterations", iters}}});
    }
  }

  const std::vector<maxutil::util::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<maxutil::util::BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = maxutil::util::write_bench_json(
      "micro", reporter.records(),
      {{"unit", "seconds per iteration"},
       {"instance", "Section-6 paper instance, seed 2007"}});
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
