// End-to-end integration: whole-pipeline flows across modules, the way a
// user composes them — scenario text -> model -> transform -> (all four
// solvers) -> physical allocation -> packet-level execution; placement ->
// optimization; failure -> surgery -> warm restart -> re-validation.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bp/backpressure.hpp"
#include "core/optimizer.hpp"
#include "core/warm_start.hpp"
#include "des/packet_sim.hpp"
#include "gen/random_instance.hpp"
#include "placement/greedy_placer.hpp"
#include "scenario/scenario.hpp"
#include "sim/distributed_gradient.hpp"
#include "stream/surgery.hpp"
#include "stream/validate.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using maxutil::stream::CommodityId;
using maxutil::stream::NodeId;
using maxutil::stream::StreamNetwork;
using maxutil::util::Rng;
using maxutil::xform::ExtendedGraph;

// Pipeline A: text -> model -> every solver agrees on the economics.
TEST(Integration, ScenarioToAllSolvers) {
  const char* text = R"(
    server ingestA 40
    server ingestB 40
    server relay 25
    sink outA
    sink outB
    link ingestA relay 100
    link ingestB relay 100
    link relay outA 100
    link relay outB 100
    commodity alpha ingestA outA 30 log
    commodity beta  ingestB outB 30 log
    use alpha ingestA relay 1
    use alpha relay outA 1
    use beta ingestB relay 1
    use beta relay outB 1
  )";
  const StreamNetwork net = maxutil::scenario::parse_string(text);
  ASSERT_TRUE(maxutil::stream::validate(net).ok());
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.05;
  const ExtendedGraph xg(net, penalty);

  // Centralized references: PWL-LP and Frank-Wolfe.
  maxutil::xform::ReferenceOptions ropts;
  ropts.pwl_segments = 300;
  const auto lp = maxutil::xform::solve_reference(xg, ropts);
  ASSERT_EQ(lp.status, maxutil::lp::LpStatus::kOptimal);
  const auto fw = maxutil::xform::solve_reference_frank_wolfe(xg, 500);
  ASSERT_EQ(fw.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_NEAR(fw.utility, lp.optimal_utility, 0.02);

  // Distributed gradient (centralized sweeps and true message passing).
  maxutil::core::GradientOptions gopt;
  gopt.eta = 0.1;
  gopt.record_history = false;
  gopt.max_iterations = 6000;
  maxutil::core::GradientOptimizer gradient(xg, gopt);
  gradient.run();
  EXPECT_GT(gradient.utility(), 0.95 * lp.optimal_utility);

  maxutil::sim::DistributedGradientSystem actors(xg, {.eta = 0.1});
  actors.run(6000);
  EXPECT_NEAR(actors.utility(), gradient.utility(), 1e-6);

  // Back-pressure baseline lands in the same place (log utilities weight the
  // greedy ordering only, so allow a loose band).
  maxutil::bp::BackPressureOptions bopt;
  bopt.record_history = false;
  maxutil::bp::BackPressureOptimizer bp(xg, bopt);
  bp.run(40000);
  EXPECT_GT(bp.utility(), 0.85 * lp.optimal_utility);

  // The symmetric instance must split the relay evenly under log utility.
  const auto admitted = gradient.admitted();
  EXPECT_NEAR(admitted[0], admitted[1], 0.5);
}

// Pipeline B: placement -> optimize -> execute at packet level.
TEST(Integration, PlacementToPacketLevel) {
  StreamNetwork net;
  std::vector<NodeId> pool;
  for (int i = 0; i < 10; ++i) {
    pool.push_back(net.add_server("srv" + std::to_string(i), 40.0));
  }
  maxutil::placement::GreedyPlacer placer(net, pool, 60.0);
  maxutil::placement::PlacementRequest request;
  request.name = "q0";
  request.source = pool[0];
  request.stages = 2;
  request.replicas_per_stage = 2;
  request.lambda = 25.0;
  request.stage_gain = 0.8;
  const CommodityId j = placer.place(request);
  ASSERT_TRUE(maxutil::stream::validate(net).ok());

  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  maxutil::core::GradientOptions gopt;
  gopt.eta = 0.1;
  gopt.record_history = false;
  gopt.max_iterations = 5000;
  maxutil::core::GradientOptimizer opt(xg, gopt);
  opt.run();
  const double fluid = opt.admitted()[j];
  EXPECT_GT(fluid, 15.0);

  maxutil::des::PacketSimOptions sopts;
  sopts.horizon = 2000.0;
  sopts.warmup = 200.0;
  sopts.packet_size = 0.5;
  maxutil::des::PacketSimulator sim(xg, opt.routing(), sopts);
  sim.run();
  const auto stats = sim.commodity_stats(j);
  EXPECT_NEAR(stats.admitted_rate, fluid, 0.1 * fluid + 0.3);
  EXPECT_NEAR(stats.delivered_rate, stats.admitted_rate,
              0.05 * stats.admitted_rate + 0.3);
}

// Pipeline C: converge -> fail -> surgery -> warm restart -> re-validate,
// with the serialized scenario surviving the round trip at every stage.
TEST(Integration, FailureSurgeryWarmRestartRoundTrip) {
  Rng rng(314);
  maxutil::gen::RandomInstanceParams p;
  p.servers = 14;
  p.commodities = 2;
  p.stages = 3;
  p.lambda = 40.0;
  const StreamNetwork net = maxutil::gen::random_instance(p, rng);
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.05;
  const ExtendedGraph xg(net, penalty);
  maxutil::core::GradientOptions gopt;
  gopt.eta = 0.08;
  gopt.record_history = false;
  gopt.max_iterations = 6000;
  maxutil::core::GradientOptimizer before(xg, gopt);
  before.run();

  // Fail the busiest interior server.
  NodeId victim = maxutil::stream::kRemovedEntity;
  double load = -1.0;
  const auto alloc = before.allocation();
  for (NodeId n = 0; n < net.node_count(); ++n) {
    if (net.is_sink(n) || net.source(0) == n || net.source(1) == n) continue;
    if (alloc.server_usage[n] > load) {
      load = alloc.server_usage[n];
      victim = n;
    }
  }
  ASSERT_NE(victim, maxutil::stream::kRemovedEntity);
  const auto surgery = maxutil::stream::without_server(net, victim);
  ASSERT_TRUE(maxutil::stream::validate(surgery.network).ok());

  // The survivor serializes and parses back identically.
  const std::string text = maxutil::scenario::write_string(surgery.network);
  const StreamNetwork reparsed = maxutil::scenario::parse_string(text);
  EXPECT_EQ(reparsed.node_count(), surgery.network.node_count());
  EXPECT_EQ(reparsed.commodity_count(), surgery.network.commodity_count());

  if (surgery.network.commodity_count() == 0) return;  // nothing to restart
  const ExtendedGraph new_xg(surgery.network, penalty);
  const auto warm =
      maxutil::core::remap_routing(xg, before.routing(), new_xg, surgery)
          .value();
  maxutil::core::GradientOptimizer after(new_xg, gopt, warm);
  after.run();
  const auto reference = maxutil::xform::solve_reference(new_xg);
  ASSERT_EQ(reference.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_GT(after.utility(), 0.93 * reference.optimal_utility);
  EXPECT_NEAR(after.allocation().max_capacity_violation(new_xg), 0.0, 1e-9);
}

// The distributed actor system keeps functioning for the surviving
// commodity when a node carrying only the *other* commodity fails: the
// failed commodity's waves stall (messages drop) but the runtime stays
// quiet-terminating and snapshots remain valid for the survivor.
TEST(Integration, ActorSystemSurvivesIrrelevantFailure) {
  const char* text = R"(
    server s0 30
    server m0 30
    server s1 30
    server m1 30
    sink t0
    sink t1
    link s0 m0 50
    link m0 t0 50
    link s1 m1 50
    link m1 t1 50
    commodity c0 s0 t0 10 linear
    commodity c1 s1 t1 10 linear
    use c0 s0 m0 1
    use c0 m0 t0 1
    use c1 s1 m1 1
    use c1 m1 t1 1
  )";
  const StreamNetwork net = maxutil::scenario::parse_string(text);
  const ExtendedGraph xg(net);
  maxutil::sim::DistributedGradientSystem system(xg, {.eta = 0.1});
  system.run(200);
  const double u_both = system.utility();
  EXPECT_GT(u_both, 18.0);  // both streams admitted (~10 + ~10)

  // Kill commodity c1's relay m1 (extended node id 3 is the physical m1).
  // c0's marginal/forecast waves are untouched.
  const_cast<maxutil::sim::Runtime&>(system.runtime()).fail(3);
  system.run(50);  // must not hang or throw
  const auto snapshot = system.routing_snapshot();
  // c0's routing is still a valid distribution at every carrying node.
  const auto flows = maxutil::core::compute_flows(xg, snapshot);
  EXPECT_GT(maxutil::core::admitted_rate(xg, flows, 0), 8.0);
}

}  // namespace
