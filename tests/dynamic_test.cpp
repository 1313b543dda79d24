// Tests for the dynamic-workload features: demand traces, run-time lambda
// updates with continued (warm) optimization, and warm-start transfer of a
// routing decision across a failure.

#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.hpp"
#include "core/warm_start.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "gen/trace.hpp"
#include "stream/surgery.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using maxutil::core::GradientOptimizer;
using maxutil::core::GradientOptions;
using maxutil::gen::DemandTrace;
using maxutil::stream::CommodityId;
using maxutil::stream::NodeId;
using maxutil::stream::StreamNetwork;
using maxutil::stream::Utility;
using maxutil::util::CheckError;
using maxutil::util::Rng;
using maxutil::xform::ExtendedGraph;

TEST(DemandTrace, ConstantAndStep) {
  const DemandTrace c = DemandTrace::constant(5.0);
  EXPECT_DOUBLE_EQ(c.at(0), 5.0);
  EXPECT_DOUBLE_EQ(c.at(1000), 5.0);
  const DemandTrace s = DemandTrace::step(2.0, 8.0, 10);
  EXPECT_DOUBLE_EQ(s.at(9), 2.0);
  EXPECT_DOUBLE_EQ(s.at(10), 8.0);
}

TEST(DemandTrace, OnOffDutyCycle) {
  const DemandTrace t = DemandTrace::on_off(10.0, 1.0, 4, 1);
  EXPECT_DOUBLE_EQ(t.at(0), 10.0);
  EXPECT_DOUBLE_EQ(t.at(1), 1.0);
  EXPECT_DOUBLE_EQ(t.at(4), 10.0);
  EXPECT_DOUBLE_EQ(t.at(7), 1.0);
}

TEST(DemandTrace, SineStaysPositiveAndPeriodic) {
  const DemandTrace t = DemandTrace::sine(10.0, 4.0, 20);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_GT(t.at(i), 0.0);
    EXPECT_NEAR(t.at(i), t.at(i + 20), 1e-9);
  }
  EXPECT_NEAR(t.at(5), 14.0, 1e-9);  // peak at quarter period
}

TEST(DemandTrace, RandomWalkDeterministicAndPositive) {
  const DemandTrace a = DemandTrace::random_walk(10.0, 0.2, 99);
  const DemandTrace b = DemandTrace::random_walk(10.0, 0.2, 99);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(a.at(i), b.at(i));
    EXPECT_GT(a.at(i), 0.0);
  }
  // Random access equals sequential access (lazy path is consistent).
  const DemandTrace c = DemandTrace::random_walk(10.0, 0.2, 99);
  EXPECT_DOUBLE_EQ(c.at(150), a.at(150));
}

TEST(DemandTrace, RejectsBadParameters) {
  EXPECT_THROW(DemandTrace::constant(0.0), CheckError);
  EXPECT_THROW(DemandTrace::step(-1.0, 2.0, 5), CheckError);
  EXPECT_THROW(DemandTrace::on_off(1.0, 1.0, 4, 5), CheckError);
  EXPECT_THROW(DemandTrace::sine(1.0, 2.0, 10), CheckError);
}

// --- Run-time lambda updates ---

StreamNetwork chain(double lambda) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 10.0);
  const NodeId b = net.add_server("b", 20.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 5.0);
  const auto bt = net.add_link(b, t, 6.0);
  const CommodityId j = net.add_commodity("c", a, t, lambda, Utility::linear());
  net.enable_link(j, ab, 2.0);
  net.enable_link(j, bt, 1.0);
  return net;
}

TEST(DynamicLambda, SetLambdaValidates) {
  StreamNetwork net = chain(3.0);
  net.set_lambda(0, 7.5);
  EXPECT_DOUBLE_EQ(net.lambda(0), 7.5);
  EXPECT_THROW(net.set_lambda(0, 0.0), CheckError);
  EXPECT_THROW(net.set_lambda(5, 1.0), CheckError);
}

TEST(DynamicLambda, OptimizerTracksDemandIncrease) {
  // Start with lambda = 2 (uncongested), then raise to 100 (network-bound):
  // the running optimizer must re-converge toward the bottleneck rate 5.
  StreamNetwork net = chain(2.0);
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.05;
  const ExtendedGraph xg(net, penalty);
  GradientOptions options;
  options.eta = 0.2;
  options.record_history = false;
  options.max_iterations = 100000;
  GradientOptimizer opt(xg, options);
  for (int i = 0; i < 2000; ++i) opt.step();
  EXPECT_NEAR(opt.utility(), 2.0, 0.1);

  net.set_lambda(0, 100.0);
  opt.refresh_flows();
  for (int i = 0; i < 4000; ++i) opt.step();
  EXPECT_GT(opt.utility(), 4.3);
  EXPECT_LT(opt.utility(), 5.0);
  EXPECT_NEAR(opt.allocation().max_capacity_violation(xg), 0.0, 1e-9);
}

TEST(DynamicLambda, OptimizerTracksDemandDecrease) {
  StreamNetwork net = chain(100.0);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.2;
  options.record_history = false;
  options.max_iterations = 100000;
  GradientOptimizer opt(xg, options);
  for (int i = 0; i < 3000; ++i) opt.step();
  EXPECT_GT(opt.utility(), 4.0);  // pinned at the bottleneck

  net.set_lambda(0, 1.5);  // demand collapses
  opt.refresh_flows();
  for (int i = 0; i < 2000; ++i) opt.step();
  EXPECT_NEAR(opt.utility(), 1.5, 0.1);
  EXPECT_LE(opt.admitted()[0], 1.5 + 1e-9);
}

// --- Warm start across failures ---

TEST(WarmStart, TransferredRoutingIsValidAndNearOptimal) {
  maxutil::gen::Figure1Params params;
  params.lambda = 30.0;
  params.server_capacity = 40.0;
  params.link_bandwidth = 25.0;
  maxutil::gen::Figure1Ids ids;
  const StreamNetwork net = maxutil::gen::figure1_example(params, &ids);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.1;
  options.record_history = false;
  options.max_iterations = 4000;
  GradientOptimizer before(xg, options);
  before.run();

  const auto surgery = maxutil::stream::without_server(net, ids.server[1]);
  const ExtendedGraph new_xg(surgery.network);
  const auto warm =
      maxutil::core::remap_routing(xg, before.routing(), new_xg, surgery)
          .value();
  EXPECT_TRUE(warm.is_valid(new_xg, 1e-9));

  // Warm start must begin with substantial utility already admitted (the
  // surviving commodities keep most of their routing).
  GradientOptimizer after(new_xg, options, warm);
  EXPECT_GT(after.utility(), 20.0);
}

TEST(WarmStart, ConvergesFasterThanColdStart) {
  maxutil::gen::Figure1Params params;
  params.lambda = 30.0;
  params.server_capacity = 40.0;
  params.link_bandwidth = 25.0;
  maxutil::gen::Figure1Ids ids;
  const StreamNetwork net = maxutil::gen::figure1_example(params, &ids);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.1;
  options.record_history = false;
  options.max_iterations = 5000;
  GradientOptimizer before(xg, options);
  before.run();

  const auto surgery = maxutil::stream::without_server(net, ids.server[1]);
  const ExtendedGraph new_xg(surgery.network);
  const auto target = maxutil::xform::solve_reference(new_xg).optimal_utility;

  const auto iterations_to = [&](GradientOptimizer& opt, double goal) {
    std::size_t count = 0;
    while (opt.utility() < goal && count < 20000) {
      opt.step();
      ++count;
    }
    return count;
  };

  const auto warm_routing = maxutil::core::remap_routing(
      xg, before.routing(), new_xg, surgery).value();
  GradientOptimizer warm(new_xg, options, warm_routing);
  GradientOptimizer cold(new_xg, options);
  const std::size_t warm_iters = iterations_to(warm, 0.95 * target);
  const std::size_t cold_iters = iterations_to(cold, 0.95 * target);
  EXPECT_LT(warm_iters, cold_iters / 2)
      << "warm " << warm_iters << " vs cold " << cold_iters;
}

TEST(WarmStart, RepairsOverloadedTransfer) {
  // Tight capacities: after losing a replica the surviving path cannot carry
  // the transferred admission; the repair must yield a feasible start.
  maxutil::gen::Figure1Params params;
  params.lambda = 60.0;
  params.server_capacity = 30.0;
  params.link_bandwidth = 18.0;
  maxutil::gen::Figure1Ids ids;
  const StreamNetwork net = maxutil::gen::figure1_example(params, &ids);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.1;
  options.record_history = false;
  options.max_iterations = 4000;
  GradientOptimizer before(xg, options);
  before.run();

  const auto surgery = maxutil::stream::without_server(net, ids.server[1]);
  const ExtendedGraph new_xg(surgery.network);
  const auto warm =
      maxutil::core::remap_routing(xg, before.routing(), new_xg, surgery)
          .value();
  const auto flows = maxutil::core::compute_flows(new_xg, warm);
  for (NodeId v = 0; v < new_xg.node_count(); ++v) {
    if (!new_xg.has_finite_capacity(v)) continue;
    EXPECT_LT(flows.f_node[v], new_xg.capacity(v));
  }
  // And it is a legal optimizer start.
  EXPECT_NO_THROW(GradientOptimizer(new_xg, options, warm));
}

}  // namespace
