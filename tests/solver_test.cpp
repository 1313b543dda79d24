// The unified solver layer (src/solver): registry dispatch, adapter
// bit-identity against driving each optimizer directly, cross-solver
// utility parity against the LP reference, warm-start pipelines, and the
// LP-vertex -> RoutingState recovery (core::routing_from_flows).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "bp/backpressure.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/warm_start.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "sim/distributed_gradient.hpp"
#include "solver/pipeline.hpp"
#include "solver/registry.hpp"
#include "stream/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using namespace maxutil;
using maxutil::util::CheckError;

stream::StreamNetwork figure1() {
  gen::Figure1Params params;
  params.lambda = 30.0;
  params.server_capacity = 40.0;
  params.link_bandwidth = 25.0;
  params.stage_shrinkage = 0.8;
  return gen::figure1_example(params);
}

// ---------------------------------------------------------------- registry

TEST(SolverRegistry, ListsTheSixBuiltinsInOrder) {
  const auto names = solver::SolverRegistry::instance().names();
  const std::vector<std::string> expected = {
      "gradient", "distributed", "backpressure", "lp", "fw", "lp-sparse"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(solver::SolverRegistry::instance().names_joined(),
            "gradient, distributed, backpressure, lp, fw, lp-sparse");
}

TEST(SolverRegistry, CapabilityFlagsMatchTheBackends) {
  const auto& registry = solver::SolverRegistry::instance();
  EXPECT_TRUE(registry.find("gradient")->supports_warm_start);
  EXPECT_TRUE(registry.find("gradient")->emits_routing);
  EXPECT_TRUE(registry.find("distributed")->supports_threads);
  EXPECT_TRUE(registry.find("distributed")->supports_observation);
  EXPECT_FALSE(registry.find("backpressure")->emits_routing);
  EXPECT_TRUE(registry.find("lp")->emits_routing);
  EXPECT_FALSE(registry.find("lp")->supports_warm_start);
  EXPECT_FALSE(registry.find("fw")->emits_routing);
  EXPECT_TRUE(registry.find("lp-sparse")->emits_routing);
  EXPECT_TRUE(registry.find("lp-sparse")->supports_warm_start);
}

TEST(SolverRegistry, UnknownSolverThrowsWithLiveNames) {
  const auto net = figure1();
  const solver::Problem problem(net);
  try {
    solver::SolverRegistry::instance().solve("simplex", problem, {});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown solver 'simplex'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("gradient, distributed"),
              std::string::npos);
  }
}

TEST(SolverRegistry, RejectsDuplicatesAndMalformedEntries) {
  solver::SolverRegistry registry;
  solver::SolverInfo info;
  info.name = "stub";
  info.solve = [](const solver::Problem&, const solver::SolveOptions&) {
    return solver::SolveResult{};
  };
  registry.add(info);
  EXPECT_THROW(registry.add(info), CheckError);  // duplicate name
  solver::SolverInfo no_fn;
  no_fn.name = "empty";
  EXPECT_THROW(registry.add(no_fn), CheckError);  // no solve function
}

TEST(SolverStatus, NamesAndUsability) {
  EXPECT_STREQ(solver::to_string(solver::Status::kConverged), "converged");
  EXPECT_STREQ(solver::to_string(solver::Status::kIterationLimit),
               "iteration-limit");
  EXPECT_TRUE(solver::is_usable(solver::Status::kRoundLimit));
  EXPECT_FALSE(solver::is_usable(solver::Status::kInfeasible));
  EXPECT_FALSE(solver::is_usable(solver::Status::kFailed));
}

TEST(SolveOptions, ExtraNumberParsesAndRejects) {
  solver::SolveOptions options;
  options.extra["pwl_segments"] = "120";
  EXPECT_EQ(options.extra_number("pwl_segments", 7.0), 120.0);
  EXPECT_EQ(options.extra_number("absent", 7.0), 7.0);
  options.extra["bad"] = "not-a-number";
  EXPECT_THROW(options.extra_number("bad", 0.0), CheckError);
}

// ----------------------------------------------------- adapter bit-identity
//
// A registry solve must reproduce a direct optimizer run bit for bit: the
// adapters delegate without changing call sequences or defaults, so every
// double compares EXPECT_EQ-exact, not just within tolerance.

TEST(AdapterParity, GradientMatchesDirectRunExactly) {
  const auto net = figure1();
  const solver::Problem problem(net);

  core::GradientOptimizer direct(problem.extended(), {});
  direct.run();

  const auto result =
      solver::SolverRegistry::instance().solve("gradient", problem, {});
  ASSERT_EQ(result.admitted.size(), direct.admitted().size());
  EXPECT_EQ(result.admitted, direct.admitted());
  EXPECT_EQ(result.utility, direct.utility());
  EXPECT_EQ(result.iterations, direct.iterations());
  EXPECT_EQ(result.node_usage, direct.flows().f_node);
  EXPECT_EQ(result.metric("cost"), direct.cost());
}

TEST(AdapterParity, GradientHonorsSharedKnobs) {
  const auto net = figure1();
  const solver::Problem problem(net);

  core::GradientOptions g;
  g.eta = 0.1;
  g.max_iterations = 300;
  g.convergence_tol = 1e-5;
  core::GradientOptimizer direct(problem.extended(), g);
  direct.run();

  solver::SolveOptions options;
  options.eta = 0.1;
  options.max_iterations = 300;
  options.tolerance = 1e-5;
  const auto result =
      solver::SolverRegistry::instance().solve("gradient", problem, options);
  EXPECT_EQ(result.admitted, direct.admitted());
  EXPECT_EQ(result.utility, direct.utility());
  EXPECT_EQ(result.iterations, direct.iterations());
}

TEST(AdapterParity, DistributedMatchesDirectRunExactly) {
  const auto net = figure1();
  const solver::Problem problem(net);
  const xform::ExtendedGraph& xg = problem.extended();

  sim::DistributedGradientSystem direct(xg, {}, {});
  direct.run(60);
  const auto direct_flows = core::compute_flows(xg, direct.routing_snapshot());

  solver::SolveOptions options;
  options.max_iterations = 60;
  const auto result =
      solver::SolverRegistry::instance().solve("distributed", problem, options);
  ASSERT_EQ(result.admitted.size(), xg.commodity_count());
  for (stream::CommodityId j = 0; j < xg.commodity_count(); ++j) {
    EXPECT_EQ(result.admitted[j], core::admitted_rate(xg, direct_flows, j));
  }
  EXPECT_EQ(result.utility, core::total_utility(xg, direct_flows));
  EXPECT_EQ(result.iterations, direct.iterations());
}

TEST(AdapterParity, BackpressureMatchesDirectRunExactly) {
  const auto net = figure1();
  const solver::Problem problem(net);

  bp::BackPressureOptions b;
  b.record_history = false;
  bp::BackPressureOptimizer direct(problem.extended(), b);
  direct.run(2000);

  solver::SolveOptions options;
  options.max_iterations = 2000;
  const auto result = solver::SolverRegistry::instance().solve(
      "backpressure", problem, options);
  EXPECT_EQ(result.admitted, direct.admitted_rates());
  EXPECT_EQ(result.utility, direct.utility());
  EXPECT_EQ(result.metric("max_budget_violation"),
            direct.max_budget_violation());
}

TEST(AdapterParity, LpMatchesDirectSolveExactly) {
  const auto net = figure1();
  const solver::Problem problem(net);

  const auto direct = xform::solve_reference(problem.extended());
  ASSERT_EQ(direct.status, lp::LpStatus::kOptimal);

  const auto result =
      solver::SolverRegistry::instance().solve("lp", problem, {});
  EXPECT_EQ(result.status, solver::Status::kConverged);
  EXPECT_EQ(result.admitted, direct.admitted);
  EXPECT_EQ(result.utility, direct.optimal_utility);
  EXPECT_EQ(result.node_usage, direct.node_usage);
  EXPECT_EQ(result.iterations, direct.iterations);
}

TEST(AdapterParity, LpSparseWritesItsBasisBackAndReSolvesFromIt) {
  util::Rng rng(5);
  const auto net = gen::random_instance({}, rng);
  const solver::Problem problem(net);
  auto& registry = solver::SolverRegistry::instance();

  lp::SimplexBasis basis;
  solver::SolveOptions options;
  options.lp_basis = &basis;
  const auto cold = registry.solve("lp-sparse", problem, options);
  ASSERT_EQ(cold.status, solver::Status::kConverged);
  EXPECT_GT(cold.iterations, 0u);
  ASSERT_FALSE(basis.empty());  // the final basis came back

  const lp::SimplexBasis written = basis;
  const auto warm = registry.solve("lp-sparse", problem, options);
  ASSERT_EQ(warm.status, solver::Status::kConverged);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_EQ(warm.utility, cold.utility);
  EXPECT_EQ(warm.admitted, cold.admitted);
  EXPECT_EQ(warm.node_usage, cold.node_usage);
  EXPECT_EQ(basis.status, written.status);

  // Without a basis the adapter is a plain cold solve.
  const auto plain = registry.solve("lp-sparse", problem, {});
  EXPECT_EQ(plain.iterations, cold.iterations);
  EXPECT_EQ(plain.utility, cold.utility);
}

TEST(AdapterParity, FrankWolfeMatchesDirectSolveExactly) {
  const auto net = figure1();
  const solver::Problem problem(net);

  const auto direct = xform::solve_reference_frank_wolfe(problem.extended(), 5000);
  ASSERT_EQ(direct.status, lp::LpStatus::kOptimal);

  const auto result =
      solver::SolverRegistry::instance().solve("fw", problem, {});
  EXPECT_EQ(result.admitted, direct.admitted);
  EXPECT_EQ(result.utility, direct.utility);
  EXPECT_EQ(result.iterations, direct.iterations);
  EXPECT_EQ(result.metric("duality_gap"), direct.duality_gap);
}

// -------------------------------------------------------- cross-solver parity
//
// Every backend lands within tolerance of the LP optimum on the same
// Problem — the iterative schemes from below (barrier gap + finite budget),
// fw from its duality-gap certificate.

void expect_parity(const stream::StreamNetwork& net, double min_fraction) {
  const solver::Problem problem(net);
  const auto& registry = solver::SolverRegistry::instance();
  const auto lp_result = registry.solve("lp", problem, {});
  ASSERT_EQ(lp_result.status, solver::Status::kConverged);
  ASSERT_GT(lp_result.utility, 0.0);
  for (const solver::SolverInfo& info : registry.solvers()) {
    solver::SolveOptions options;
    if (info.name == "distributed") options.max_iterations = 2000;
    const auto result = registry.solve(info.name, problem, options);
    EXPECT_TRUE(solver::is_usable(result.status)) << info.name;
    EXPECT_GE(result.utility, min_fraction * lp_result.utility) << info.name;
    EXPECT_LE(result.utility, lp_result.utility + 1e-6) << info.name;
    ASSERT_EQ(result.admitted.size(), net.commodity_count()) << info.name;
    for (std::size_t j = 0; j < result.admitted.size(); ++j) {
      EXPECT_GE(result.admitted[j], -1e-9) << info.name;
      EXPECT_LE(result.admitted[j], net.lambda(j) + 1e-6) << info.name;
    }
  }
}

TEST(CrossSolverParity, Figure1AllBackendsNearTheLpOptimum) {
  expect_parity(figure1(), 0.90);
}

TEST(CrossSolverParity, SeededRandomInstances) {
  for (const std::uint64_t seed : {11u, 29u}) {
    util::Rng rng(seed);
    gen::RandomInstanceParams p;
    p.servers = 12;
    p.commodities = 2;
    p.stages = 3;
    expect_parity(gen::random_instance(p, rng), 0.85);
  }
}

// ------------------------------------------------------------------ pipelines

TEST(Pipeline, ParseAcceptsSpacesAndSingleNames) {
  const auto single = solver::Pipeline::parse("lp");
  EXPECT_EQ(single.spec(), "lp");
  const auto chain = solver::Pipeline::parse("lp, gradient");
  EXPECT_EQ(chain.spec(), "lp,gradient");
  EXPECT_EQ(chain.stages().size(), 2u);
  EXPECT_TRUE(chain.any_stage(&solver::SolverInfo::supports_warm_start));
  EXPECT_FALSE(chain.any_stage(&solver::SolverInfo::supports_observation));
}

TEST(Pipeline, ParseRejectsUnknownAndEmptyStages) {
  EXPECT_THROW(solver::Pipeline::parse(""), CheckError);
  EXPECT_THROW(solver::Pipeline::parse("lp,,gradient"), CheckError);
  EXPECT_THROW(solver::Pipeline::parse("lp,simplex"), CheckError);
  try {
    solver::Pipeline::parse("nope");
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("gradient, distributed"),
              std::string::npos);
  }
}

TEST(Pipeline, LpWarmStartConvergesInFewerIterationsThanColdStart) {
  const auto net = figure1();
  const solver::Problem problem(net);
  solver::SolveOptions options;
  options.eta = 0.1;
  options.tolerance = 1e-4;

  const auto cold =
      solver::SolverRegistry::instance().solve("gradient", problem, options);
  const auto warm = solver::Pipeline::parse("lp,gradient").run(problem, options);

  ASSERT_TRUE(solver::is_usable(warm.status));
  ASSERT_EQ(warm.stages.size(), 2u);
  EXPECT_EQ(warm.stages[0].solver, "lp");
  EXPECT_EQ(warm.stages[1].solver, "gradient");
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_GE(warm.utility, 0.99 * cold.utility);
}

TEST(Pipeline, GradientSeedsTheDistributedRuntime) {
  const auto net = figure1();
  const solver::Problem problem(net);
  solver::SolveOptions options;
  options.eta = 0.1;
  options.max_iterations = 200;

  const auto result =
      solver::Pipeline::parse("gradient,distributed").run(problem, options);
  ASSERT_TRUE(solver::is_usable(result.status));
  ASSERT_EQ(result.stages.size(), 2u);
  // The distributed stage starts at the gradient iterate instead of the
  // all-rejected cold start, so it stays near that utility.
  EXPECT_GE(result.utility, 0.95 * result.stages[0].utility);
}

TEST(Pipeline, SingleStageResultMatchesDirectRegistrySolve) {
  const auto net = figure1();
  const solver::Problem problem(net);
  const auto direct =
      solver::SolverRegistry::instance().solve("lp", problem, {});
  const auto piped = solver::Pipeline::parse("lp").run(problem, {});
  EXPECT_EQ(piped.admitted, direct.admitted);
  EXPECT_EQ(piped.utility, direct.utility);
  EXPECT_EQ(piped.stages.size(), 1u);
}

// ------------------------------------------------- LP vertex -> RoutingState

TEST(RoutingFromFlows, RecoversAValidStrictlyFeasibleRouting) {
  const auto net = figure1();
  const solver::Problem problem(net);
  const xform::ExtendedGraph& xg = problem.extended();

  const auto reference = xform::solve_reference(xg);
  ASSERT_EQ(reference.status, lp::LpStatus::kOptimal);
  const auto routing = core::routing_from_flows(xg, reference.flows);
  ASSERT_TRUE(routing.is_valid(xg));

  // The LP vertex saturates capacities where the barrier is infinite; the
  // repaired routing must sit strictly inside every capacity.
  const auto flows = core::compute_flows(xg, routing);
  for (stream::NodeId v = 0; v < xg.node_count(); ++v) {
    if (!xg.has_finite_capacity(v)) continue;
    EXPECT_LT(flows.f_node[v], xg.capacity(v));
  }
}

TEST(RoutingFromFlows, WarmStartedGradientAcceptsTheRouting) {
  const auto net = figure1();
  const solver::Problem problem(net);
  const xform::ExtendedGraph& xg = problem.extended();

  const auto reference = xform::solve_reference(xg);
  ASSERT_EQ(reference.status, lp::LpStatus::kOptimal);
  const auto routing = core::routing_from_flows(xg, reference.flows);

  core::GradientOptions g;
  g.eta = 0.1;
  g.max_iterations = 50;
  core::GradientOptimizer opt(xg, g, routing);
  opt.run();
  // Starting near the optimum, a short run already sits close to the LP
  // utility (cold starts need hundreds of iterations to get here).
  EXPECT_GE(opt.utility(), 0.9 * reference.optimal_utility);
}

TEST(RoutingFromFlows, ZeroFlowCommoditiesFallBackToTheUniformSplit) {
  const auto net = gen::figure1_example();  // lightly loaded defaults
  const solver::Problem problem(net);
  const xform::ExtendedGraph& xg = problem.extended();

  // An empty flow list per commodity — the vertex of an all-zero objective.
  // Every non-sink node then carries no flow and must take the documented
  // uniform fallback over its usable out-edges.
  const std::vector<std::vector<std::pair<graph::EdgeId, double>>> zero(
      xg.commodity_count());
  const auto routing = core::routing_from_flows(xg, zero);
  ASSERT_TRUE(routing.is_valid(xg));

  for (stream::CommodityId j = 0; j < xg.commodity_count(); ++j) {
    // The dummy source has exactly two usable out-edges (input and
    // difference), so uniform means a 50/50 admit/reject split.
    EXPECT_DOUBLE_EQ(routing.phi(j, xg.dummy_input_link(j)), 0.5);
    EXPECT_DOUBLE_EQ(routing.phi(j, xg.dummy_difference_link(j)), 0.5);
    for (const stream::NodeId v : xg.commodity_nodes(j)) {
      if (v == xg.sink(j) || v == xg.dummy_source(j)) continue;
      std::size_t usable = 0;
      for (const graph::EdgeId e : xg.graph().out_edges(v)) {
        if (xg.usable(j, e)) ++usable;
      }
      ASSERT_GT(usable, 0u);
      for (const graph::EdgeId e : xg.graph().out_edges(v)) {
        if (!xg.usable(j, e)) continue;
        EXPECT_DOUBLE_EQ(routing.phi(j, e),
                         1.0 / static_cast<double>(usable));
      }
    }
  }
}

// ---------------------------------------------------- failure boundaries

// A commodity that can reach server b but never its sink: stream::validate
// rejects the network, and any solve over it trips a CheckError deep inside
// the optimizer (a commodity node without a usable out-edge).
stream::StreamNetwork stranded_commodity_network() {
  stream::StreamNetwork net;
  const auto a = net.add_server("a", 10.0);
  const auto b = net.add_server("b", 10.0);
  const auto sink = net.add_sink("t");
  const auto ab = net.add_link(a, b, 10.0);
  net.add_link(b, sink, 10.0);
  const auto j =
      net.add_commodity("stranded", a, sink, 5.0, stream::Utility::linear());
  net.enable_link(j, ab, 1.0);  // b -> t stays unusable: the sink is cut off
  return net;
}

TEST(SolverBoundary, UnreachableSinkIsAFailedResultNotAThrow) {
  const auto net = stranded_commodity_network();
  ASSERT_FALSE(stream::validate(net).ok());

  // The registry boundary converts the CheckError into a failed *result* so
  // callers that drive many solves (the churn controller, the CLI) can
  // inspect and continue instead of unwinding.
  const solver::Problem problem(net);
  solver::SolveResult result;
  ASSERT_NO_THROW(result = solver::SolverRegistry::instance().solve(
                      "gradient", problem, {}));
  EXPECT_EQ(result.status, solver::Status::kFailed);
  EXPECT_FALSE(solver::is_usable(result.status));
  EXPECT_FALSE(result.message.empty());
  ASSERT_FALSE(result.warnings.empty());
  EXPECT_EQ(result.warnings.front(), result.message);
}

TEST(SolverBoundary, PipelineSurvivesAFailingStage) {
  const auto net = stranded_commodity_network();
  const solver::Problem problem(net);
  solver::SolveResult result;
  ASSERT_NO_THROW(result =
                      solver::Pipeline::parse("gradient").run(problem, {}));
  EXPECT_EQ(result.status, solver::Status::kFailed);
}

// An unbounded-in-practice instance: a linear utility with weight 1e200 on
// an offered load of 1e200 makes the first admitted trickle evaluate
// utility - cost = inf - inf = NaN.
stream::StreamNetwork overflow_network() {
  stream::StreamNetwork net;
  const auto a = net.add_server("a", 10.0);
  const auto sink = net.add_sink("t");
  const auto l = net.add_link(a, sink, 10.0);
  const auto j = net.add_commodity("hot", a, sink, 1e200,
                                   stream::Utility::linear(1e200));
  net.enable_link(j, l, 1.0);
  return net;
}

TEST(SolverBoundary, DivergenceSurfacesAsFailedWithTheIterationNote) {
  const auto net = overflow_network();
  const solver::Problem problem(net);
  solver::SolveOptions options;
  options.eta = 0.1;
  options.max_iterations = 50;
  const auto result =
      solver::SolverRegistry::instance().solve("gradient", problem, options);
  EXPECT_EQ(result.status, solver::Status::kFailed);
  EXPECT_NE(result.message.find("gradient diverged"), std::string::npos)
      << result.message;
  bool noted = false;
  for (const auto& note : result.notes) {
    noted = noted || note.rfind("divergence_iteration=", 0) == 0;
  }
  EXPECT_TRUE(noted);
}

}  // namespace
