#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#include "core/allocation.hpp"
#include "core/flow.hpp"
#include "core/gamma.hpp"
#include "core/marginals.hpp"
#include "core/optimality.hpp"
#include "core/optimizer.hpp"
#include "core/routing.hpp"
#include "core/warm_start.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "scenario/scenario.hpp"
#include "stream/model.hpp"
#include "stream/surgery.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

// Every global operator new in this binary is counted, so a test can assert
// that a code path allocates nothing. Array, nothrow and sized forms route
// through these two.
std::atomic<std::size_t> g_operator_news{0};

void* operator new(std::size_t size) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using maxutil::core::FlowState;
using maxutil::core::GradientOptimizer;
using maxutil::core::GradientOptions;
using maxutil::core::MarginalCosts;
using maxutil::core::RoutingState;
using maxutil::graph::EdgeId;
using maxutil::stream::CommodityId;
using maxutil::stream::NodeId;
using maxutil::stream::StreamNetwork;
using maxutil::stream::Utility;
using maxutil::util::Rng;
using maxutil::xform::ExtendedGraph;

StreamNetwork chain_network(double lambda = 3.0) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 10.0);
  const NodeId b = net.add_server("b", 20.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 5.0);
  const auto bt = net.add_link(b, t, 6.0);
  const CommodityId j = net.add_commodity("c0", a, t, lambda, Utility::linear());
  net.enable_link(j, ab, 2.0);
  net.enable_link(j, bt, 1.0);
  return net;
}

StreamNetwork diamond_network(double lambda, double cheap_cost,
                              double pricey_cost) {
  // a -> {b, c} -> t with different consumptions on the two branches.
  StreamNetwork net;
  const NodeId a = net.add_server("a", 50.0);
  const NodeId b = net.add_server("b", 50.0);
  const NodeId c = net.add_server("c", 50.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 50.0);
  const auto ac = net.add_link(a, c, 50.0);
  const auto bt = net.add_link(b, t, 50.0);
  const auto ct = net.add_link(c, t, 50.0);
  const CommodityId j = net.add_commodity("d", a, t, lambda, Utility::linear());
  net.enable_link(j, ab, 1.0);
  net.enable_link(j, ac, 1.0);
  net.enable_link(j, bt, cheap_cost);
  net.enable_link(j, ct, pricey_cost);
  return net;
}

TEST(RoutingState, InitialSatisfiesInvariants) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  const RoutingState routing = RoutingState::initial(xg);
  EXPECT_TRUE(routing.is_valid(xg));
  // All offered load initially rejected.
  EXPECT_DOUBLE_EQ(routing.phi(0, xg.dummy_difference_link(0)), 1.0);
  EXPECT_DOUBLE_EQ(routing.phi(0, xg.dummy_input_link(0)), 0.0);
}

TEST(RoutingState, InvariantViolationDetected) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  RoutingState routing = RoutingState::initial(xg);
  routing.set_phi(0, xg.dummy_difference_link(0), 0.5);  // sums to 0.5 now
  EXPECT_FALSE(routing.is_valid(xg));
  EXPECT_NEAR(routing.max_invariant_violation(xg), 0.5, 1e-12);
}

TEST(RoutingState, BlendInterpolates) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  RoutingState a = RoutingState::initial(xg);
  RoutingState b = a;
  b.set_phi(0, xg.dummy_difference_link(0), 0.0);
  b.set_phi(0, xg.dummy_input_link(0), 1.0);
  a.blend_toward(b, 0.25);
  EXPECT_TRUE(a.is_valid(xg));
  EXPECT_DOUBLE_EQ(a.phi(0, xg.dummy_input_link(0)), 0.25);
  EXPECT_DOUBLE_EQ(a.max_difference(b), 0.75);
}

TEST(FlowState, ChainHandComputed) {
  const StreamNetwork net = chain_network(3.0);
  const ExtendedGraph xg(net);
  RoutingState routing = RoutingState::initial(xg);
  // Admit two thirds of lambda = 3 -> a = 2.
  routing.set_phi(0, xg.dummy_difference_link(0), 1.0 / 3.0);
  routing.set_phi(0, xg.dummy_input_link(0), 2.0 / 3.0);
  const FlowState flows = maxutil::core::compute_flows(xg, routing);

  EXPECT_NEAR(maxutil::core::admitted_rate(xg, flows, 0), 2.0, 1e-12);
  EXPECT_NEAR(maxutil::core::total_utility(xg, flows), 2.0, 1e-12);
  // Node a processes 2 units at c = 2 -> usage 4.
  EXPECT_NEAR(flows.f_node[0], 4.0, 1e-12);
  // Bandwidth node of a->b carries 2 (beta = 1), spending 2 of its 5.
  EXPECT_NEAR(flows.f_node[xg.bandwidth_node(0)], 2.0, 1e-12);
  // Node b processes 2 units at c = 1.
  EXPECT_NEAR(flows.f_node[1], 2.0, 1e-12);
  // Utility loss on the difference link: U(3) - U(3 - 1) = 1.
  EXPECT_NEAR(flows.utility_loss, 1.0, 1e-12);
  EXPECT_GT(flows.penalty, 0.0);
  EXPECT_NEAR(maxutil::core::max_balance_residual(xg, flows), 0.0, 1e-12);
}

TEST(FlowState, ShrinkageScalesDownstreamTraffic) {
  StreamNetwork net = chain_network(3.0);
  net.set_potential(0, 1, 0.5);
  net.set_potential(0, 2, 1.0);
  const ExtendedGraph xg(net);
  RoutingState routing = RoutingState::initial(xg);
  routing.set_phi(0, xg.dummy_difference_link(0), 0.0);
  routing.set_phi(0, xg.dummy_input_link(0), 1.0);
  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  // t at b is 3 * beta(a->b) = 1.5; b's usage = 1.5 * c(1) = 1.5.
  EXPECT_NEAR(flows.t_at(0, 1), 1.5, 1e-12);
  EXPECT_NEAR(flows.f_node[1], 1.5, 1e-12);
  // Bandwidth node b->t carries 1.5 * beta(b->t) = 3.
  EXPECT_NEAR(flows.f_node[xg.bandwidth_node(1)], 3.0, 1e-12);
  EXPECT_NEAR(maxutil::core::max_balance_residual(xg, flows), 0.0, 1e-12);
}

// Central correctness check for Section 5's calculus: eq. (10) says
// dA/dphi_ik(j) = t_i(j) * [dA_i/df_ik c_ik + beta_ik dA/dr_k], so the
// analytic marginals must match finite differences of the cost computed by
// compute_flows when phi_ik is perturbed as a free variable.
TEST(Marginals, MatchFiniteDifferencesOnRandomInstance) {
  Rng rng(404);
  maxutil::gen::RandomInstanceParams p;
  p.servers = 14;
  p.commodities = 2;
  p.stages = 3;
  p.lambda = 30.0;
  const StreamNetwork net = maxutil::gen::random_instance(p, rng);
  const ExtendedGraph xg(net);

  // A mildly admitted routing keeps every t_i positive along used paths
  // while staying far from the capacity barrier (so the finite differences
  // stay finite).
  RoutingState routing = RoutingState::initial(xg);
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    routing.set_phi(j, xg.dummy_difference_link(j), 0.9);
    routing.set_phi(j, xg.dummy_input_link(j), 0.1);
  }
  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  ASSERT_TRUE(std::isfinite(flows.cost()));
  const MarginalCosts marginals =
      maxutil::core::compute_marginals(xg, routing, flows);

  const double h = 1e-6;
  std::size_t checked = 0;
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    for (EdgeId e = 0; e < xg.edge_count(); ++e) {
      if (!xg.usable(j, e)) continue;
      const NodeId tail = xg.graph().tail(e);
      if (flows.t_at(j, tail) <= 0.0) continue;
      if (routing.phi(j, e) < h) continue;  // one-sided at the boundary
      RoutingState up = routing;
      up.set_phi(j, e, routing.phi(j, e) + h);
      RoutingState down = routing;
      down.set_phi(j, e, routing.phi(j, e) - h);
      const double up_cost = maxutil::core::compute_flows(xg, up).cost();
      const double down_cost = maxutil::core::compute_flows(xg, down).cost();
      ASSERT_TRUE(std::isfinite(up_cost) && std::isfinite(down_cost));
      const double fd = (up_cost - down_cost) / (2.0 * h);
      const double analytic = flows.t_at(j, tail) *
                              maxutil::core::marginal_via_edge(marginals, j, e);
      EXPECT_NEAR(analytic, fd, 1e-4 * (1.0 + std::abs(fd)))
          << "commodity " << j << " edge " << e;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(Marginals, SinkConventionIsZero) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  const RoutingState routing = RoutingState::initial(xg);
  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  const MarginalCosts marginals =
      maxutil::core::compute_marginals(xg, routing, flows);
  EXPECT_DOUBLE_EQ(marginals.dr_at(0, xg.sink(0)), 0.0);
}

TEST(Marginals, RejectedTrafficCostsUtilityDerivative) {
  // At the all-rejected initial state, the dummy source's marginal cost is
  // phi_diff * Y'(lambda) = U'(0) = 1 for linear utility.
  const StreamNetwork net = chain_network(3.0);
  const ExtendedGraph xg(net);
  const RoutingState routing = RoutingState::initial(xg);
  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  const MarginalCosts marginals =
      maxutil::core::compute_marginals(xg, routing, flows);
  EXPECT_NEAR(marginals.dr_at(0, xg.dummy_source(0)), 1.0, 1e-12);
}

TEST(Gamma, ShiftsTowardCheaperBranch) {
  // Diamond with pricey lower branch: Gamma must move fraction from the
  // expensive c-branch toward the cheap b-branch at node a.
  const StreamNetwork net = diamond_network(10.0, 1.0, 8.0);
  const ExtendedGraph xg(net);
  RoutingState routing = RoutingState::initial(xg);
  // Admit everything so interior traffic is positive.
  routing.set_phi(0, xg.dummy_difference_link(0), 0.0);
  routing.set_phi(0, xg.dummy_input_link(0), 1.0);
  const auto& g = xg.graph();
  const EdgeId to_b = g.find_edge(0, xg.bandwidth_node(0));  // a -> bw(a->b)
  const EdgeId to_c = g.find_edge(0, xg.bandwidth_node(1));  // a -> bw(a->c)
  const double before_b = routing.phi(0, to_b);

  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  const MarginalCosts marginals =
      maxutil::core::compute_marginals(xg, routing, flows);
  maxutil::core::GammaOptions options;
  options.eta = 0.1;
  const auto stats =
      maxutil::core::apply_gamma(xg, flows, marginals, options, routing);

  EXPECT_GT(routing.phi(0, to_b), before_b);
  EXPECT_LT(routing.phi(0, to_c), 1.0 - before_b + 1e-12);
  EXPECT_GT(stats.max_phi_change, 0.0);
  EXPECT_TRUE(routing.is_valid(xg, 1e-9));
}

TEST(Gamma, StepDecreasesCost) {
  const StreamNetwork net = diamond_network(10.0, 1.0, 4.0);
  const ExtendedGraph xg(net);
  RoutingState routing = RoutingState::initial(xg);
  const double cost_before = maxutil::core::compute_flows(xg, routing).cost();
  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  const MarginalCosts marginals =
      maxutil::core::compute_marginals(xg, routing, flows);
  maxutil::core::GammaOptions options;
  options.eta = 0.02;
  maxutil::core::apply_gamma(xg, flows, marginals, options, routing);
  const double cost_after = maxutil::core::compute_flows(xg, routing).cost();
  EXPECT_LT(cost_after, cost_before);
}

TEST(Gamma, ZeroTrafficNodesSnapToBestLink) {
  const StreamNetwork net = diamond_network(10.0, 1.0, 8.0);
  const ExtendedGraph xg(net);
  RoutingState routing = RoutingState::initial(xg);  // a = 0: interior t = 0
  const FlowState flows = maxutil::core::compute_flows(xg, routing);
  const MarginalCosts marginals =
      maxutil::core::compute_marginals(xg, routing, flows);
  maxutil::core::GammaOptions options;
  const auto stats =
      maxutil::core::apply_gamma(xg, flows, marginals, options, routing);
  EXPECT_GT(stats.snapped_nodes, 0u);
  // Node a now routes everything toward the cheap branch b.
  const EdgeId to_b = xg.graph().find_edge(0, xg.bandwidth_node(0));
  EXPECT_DOUBLE_EQ(routing.phi(0, to_b), 1.0);
  EXPECT_TRUE(routing.is_valid(xg, 1e-9));
}

TEST(Optimizer, ChainAdmitsUncongestedLoad) {
  const StreamNetwork net = chain_network(3.0);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.2;
  options.max_iterations = 3000;
  GradientOptimizer opt(xg, options);
  opt.run();
  // lambda = 3 is far below the bottleneck (5); nearly all is admitted, up
  // to the small barrier-induced backoff.
  EXPECT_GT(opt.utility(), 2.8);
  EXPECT_LE(opt.admitted()[0], 3.0 + 1e-9);
}

TEST(Optimizer, RespectsCapacitiesEveryIteration) {
  const StreamNetwork net = chain_network(100.0);  // heavily oversubscribed
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.3;  // aggressive step to provoke the safeguard
  options.max_iterations = 400;
  GradientOptimizer opt(xg, options);
  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    opt.step();
    const auto alloc = opt.allocation();
    ASSERT_NEAR(alloc.max_capacity_violation(xg), 0.0, 1e-9) << "iter " << i;
  }
  // The LP bottleneck is 5; the barrier keeps us just below.
  EXPECT_GT(opt.utility(), 4.0);
  EXPECT_LT(opt.utility(), 5.0 + 1e-6);
}

TEST(Optimizer, DiamondConvergesToLpOptimum) {
  const StreamNetwork net = diamond_network(60.0, 1.0, 3.0);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);

  GradientOptions options;
  options.eta = 0.1;
  options.max_iterations = 4000;
  GradientOptimizer opt(xg, options);
  opt.run();
  EXPECT_GT(opt.utility(), 0.95 * ref.optimal_utility)
      << "gradient " << opt.utility() << " vs LP " << ref.optimal_utility;
}

TEST(Optimizer, Figure1ConvergesToLpOptimum) {
  const StreamNetwork net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);

  GradientOptions options;
  options.eta = 0.2;
  options.max_iterations = 4000;
  GradientOptimizer opt(xg, options);
  opt.run();
  EXPECT_GT(opt.utility(), 0.95 * ref.optimal_utility);
  // Theorem 2's sufficient condition holds approximately at convergence.
  EXPECT_LT(opt.optimality().sufficient_violation, 0.05);
}

TEST(Optimizer, PaperInstanceReaches95PercentOfOptimal) {
  // The Section-6 experiment: 40 nodes, 3 commodities, eta = 0.04. At
  // eps = 0.1 the barrier gap is small enough that the gradient crosses 95%
  // of the LP optimum well within the paper's ~1000-iteration budget.
  Rng rng(2007);
  const StreamNetwork net = maxutil::gen::random_instance({}, rng);
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  ASSERT_GT(ref.optimal_utility, 0.0);

  GradientOptions options;
  options.eta = 0.04;
  options.max_iterations = 1000;
  GradientOptimizer opt(xg, options);
  opt.run();
  EXPECT_GT(opt.utility(), 0.95 * ref.optimal_utility)
      << "gradient " << opt.utility() << " vs LP " << ref.optimal_utility;
  EXPECT_LE(opt.utility(), ref.optimal_utility + 1e-6);
}

TEST(Optimizer, PenaltyGapShrinksWithEpsilon) {
  // Section 3's claim: the barrier makes the solution *nearly* optimal, with
  // the gap controlled by eps. Verify the achieved utility increases
  // monotonically toward the LP optimum as eps decreases.
  Rng rng(2007);
  const StreamNetwork net = maxutil::gen::random_instance({}, rng);
  double previous = 0.0;
  double lp_value = 0.0;
  for (const double eps : {0.4, 0.2, 0.05}) {
    maxutil::xform::PenaltyConfig penalty;
    penalty.epsilon = eps;
    const ExtendedGraph xg(net, penalty);
    if (lp_value == 0.0) {
      const auto ref = maxutil::xform::solve_reference(xg);
      ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
      lp_value = ref.optimal_utility;
    }
    GradientOptions options;
    options.eta = 0.04;
    options.max_iterations = 4000;
    options.record_history = false;
    GradientOptimizer opt(xg, options);
    opt.run();
    EXPECT_GT(opt.utility(), previous);
    EXPECT_LE(opt.utility(), lp_value + 1e-6);
    previous = opt.utility();
  }
  EXPECT_GT(previous, 0.97 * lp_value);
}

TEST(Optimizer, HistoryRecordsMonotoneCostTail) {
  const StreamNetwork net = diamond_network(30.0, 1.0, 2.0);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.05;
  options.max_iterations = 1500;
  GradientOptimizer opt(xg, options);
  opt.run();
  const auto& cost = opt.history().column("cost");
  ASSERT_GT(cost.size(), 100u);
  // The transformed cost decreases (allowing tiny numeric wiggle).
  for (std::size_t i = 1; i < cost.size(); ++i) {
    EXPECT_LE(cost[i], cost[i - 1] + 1e-6) << "iteration " << i;
  }
  EXPECT_LT(cost.back(), cost.front());
}

TEST(Optimizer, ConvergenceToleranceStopsEarly) {
  const StreamNetwork net = chain_network(3.0);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.2;
  options.max_iterations = 100000;
  options.convergence_tol = 1e-10;
  GradientOptimizer opt(xg, options);
  const std::size_t used = opt.run();
  EXPECT_LT(used, options.max_iterations);
}

TEST(Optimizer, AllocationMapsBackToPhysical) {
  const StreamNetwork net = chain_network(3.0);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.2;
  options.max_iterations = 2000;
  GradientOptimizer opt(xg, options);
  opt.run();
  const auto alloc = opt.allocation();
  EXPECT_NEAR(alloc.admitted[0], opt.admitted()[0], 1e-12);
  EXPECT_NEAR(alloc.delivered[0], alloc.admitted[0], 1e-12);  // gain = 1
  // Server a spends 2 per admitted unit; link a->b carries the flow 1:1.
  EXPECT_NEAR(alloc.server_usage[0], 2.0 * alloc.admitted[0], 1e-9);
  EXPECT_NEAR(alloc.link_usage[0], alloc.admitted[0], 1e-9);
  EXPECT_NEAR(alloc.link_flow[0][0], alloc.admitted[0], 1e-9);
  EXPECT_DOUBLE_EQ(alloc.max_capacity_violation(xg), 0.0);
}

TEST(Optimizer, LatchesDivergenceInsteadOfIteratingOnNaNs) {
  // A linear utility with weight 1e200 on an offered load of 1e200: the
  // first admitted trickle makes utility - cost = inf - inf = NaN. The
  // optimizer must detect the non-finite state, latch diverged(), and stop.
  StreamNetwork net;
  const NodeId a = net.add_server("a", 10.0);
  const NodeId t = net.add_sink("t");
  const auto at = net.add_link(a, t, 10.0);
  const CommodityId j =
      net.add_commodity("hot", a, t, 1e200, Utility::linear(1e200));
  net.enable_link(j, at, 1.0);
  const ExtendedGraph xg(net);

  GradientOptions options;
  options.eta = 0.1;
  options.max_iterations = 100;
  GradientOptimizer opt(xg, options);
  const std::size_t steps = opt.run();

  EXPECT_TRUE(opt.diverged());
  EXPECT_LT(steps, options.max_iterations);  // stopped early, not at budget
  EXPECT_LE(opt.divergence_iteration(), steps + 1);
  // Once latched, step() refuses to iterate on the NaN state.
  EXPECT_EQ(opt.step(), 0.0);
  EXPECT_TRUE(opt.diverged());
}

// ------------------------------------------- warm-start remapping edges

// Max capacity overshoot past guard * C over all finite-capacity extended
// nodes; negative means strictly inside the guard everywhere.
double worst_guard_overshoot(const ExtendedGraph& xg, const FlowState& flows,
                             double guard = 0.999) {
  double worst = -std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    if (!xg.has_finite_capacity(v)) continue;
    worst = std::max(worst, flows.f_node[v] - guard * xg.capacity(v));
  }
  return worst;
}

TEST(RemapRouting, RemovedCommodityDropsAndSurvivorsStayFeasible) {
  maxutil::gen::Figure1Ids ids;
  const StreamNetwork net = maxutil::gen::figure1_example({}, &ids);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.1;
  options.max_iterations = 400;
  GradientOptimizer opt(xg, options);
  opt.run();

  // Server 7 is S2's source: removing it kills S2 but leaves S1 whole.
  const auto surgery =
      maxutil::stream::without_server(net, ids.server[6]);
  ASSERT_EQ(surgery.commodity_map[ids.s2], maxutil::stream::kRemovedEntity);
  ASSERT_NE(surgery.commodity_map[ids.s1], maxutil::stream::kRemovedEntity);
  const ExtendedGraph new_xg(surgery.network);

  const auto warm =
      maxutil::core::remap_routing(xg, opt.routing(), new_xg, surgery);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->is_valid(new_xg));
  const FlowState flows = maxutil::core::compute_flows(new_xg, *warm);
  EXPECT_LT(worst_guard_overshoot(new_xg, flows), 0.0);
}

TEST(RemapRouting, NewCommodityStartsAtTheAllRejectedConvention) {
  // Compose baseline -> A (S2 departed) with baseline -> B (identity): the
  // A -> B maps contain a commodity of B with no pre-image in A — the
  // re-arrival case a shrink-only (without_server) surgery never produces.
  maxutil::gen::Figure1Ids ids;
  const StreamNetwork net = maxutil::gen::figure1_example({}, &ids);
  maxutil::stream::RebuildSpec depart;
  depart.removed_commodities.push_back(ids.s2);
  const auto a = maxutil::stream::rebuild(net, depart);
  const auto b = maxutil::stream::rebuild(net, {});
  const auto maps = maxutil::stream::compose_maps(a, b);

  const ExtendedGraph old_xg(a.network);
  const ExtendedGraph new_xg(b.network);
  GradientOptions options;
  options.eta = 0.1;
  options.max_iterations = 400;
  GradientOptimizer opt(old_xg, options);
  opt.run();

  const auto warm =
      maxutil::core::remap_routing(old_xg, opt.routing(), new_xg, maps);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->is_valid(new_xg));

  // The re-arrived commodity starts all-rejected: its rows equal the
  // initial convention and it admits nothing until the re-solve ramps it.
  const CommodityId s2 = b.commodity_map[ids.s2];
  ASSERT_NE(s2, maxutil::stream::kRemovedEntity);
  const RoutingState init = RoutingState::initial(new_xg);
  for (EdgeId e = 0; e < new_xg.edge_count(); ++e) {
    EXPECT_DOUBLE_EQ(warm->phi(s2, e), init.phi(s2, e));
  }
  const FlowState flows = maxutil::core::compute_flows(new_xg, *warm);
  EXPECT_NEAR(maxutil::core::admitted_rate(new_xg, flows, s2), 0.0, 1e-12);
}

TEST(RemapRouting, CapacityDownscaleIsRepairedToStrictFeasibility) {
  maxutil::gen::Figure1Ids ids;
  const StreamNetwork net = maxutil::gen::figure1_example({}, &ids);
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.1;
  options.max_iterations = 600;
  GradientOptimizer opt(xg, options);
  opt.run();

  // Shrink the shared Server 3 to 10% capacity: the converged point now
  // overloads it. repair = false must hand back the raw violating point
  // (the priority policy's input); the default repairs it inside the guard.
  const auto surgery =
      maxutil::stream::with_capacity_scaled(net, ids.server[2], 0.1);
  const ExtendedGraph new_xg(surgery.network);

  const auto raw = maxutil::core::remap_routing(xg, opt.routing(), new_xg,
                                                surgery, 0.999, false);
  ASSERT_TRUE(raw.has_value());
  EXPECT_TRUE(raw->is_valid(new_xg));
  const FlowState raw_flows = maxutil::core::compute_flows(new_xg, *raw);
  EXPECT_GT(worst_guard_overshoot(new_xg, raw_flows), 0.0);

  const auto repaired =
      maxutil::core::repair_capacity_feasibility(new_xg, *raw, 0.999);
  EXPECT_TRUE(repaired.is_valid(new_xg));
  const FlowState fixed = maxutil::core::compute_flows(new_xg, repaired);
  EXPECT_LT(worst_guard_overshoot(new_xg, fixed), 0.0);

  // And the one-call form agrees on feasibility.
  const auto warm =
      maxutil::core::remap_routing(xg, opt.routing(), new_xg, surgery);
  ASSERT_TRUE(warm.has_value());
  const FlowState warm_flows = maxutil::core::compute_flows(new_xg, *warm);
  EXPECT_LT(worst_guard_overshoot(new_xg, warm_flows), 0.0);
}

// Property sweep: across random instances, the converged state is feasible,
// admits within [0, lambda], keeps routing invariants, and (approximately)
// satisfies Theorem 2's sufficient optimality condition.
class OptimizerProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerProperty, ConvergedStateIsSoundAndNearOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  maxutil::gen::RandomInstanceParams p;
  p.servers = 16;
  p.commodities = 2;
  p.stages = 3;
  p.lambda = 60.0;
  const maxutil::stream::StreamNetwork net =
      maxutil::gen::random_instance(p, rng);
  const ExtendedGraph xg(net);

  GradientOptions options;
  options.eta = 0.08;
  options.max_iterations = 3000;
  options.record_history = false;
  GradientOptimizer opt(xg, options);
  opt.run();

  EXPECT_TRUE(opt.routing().is_valid(xg, 1e-6));
  const auto alloc = opt.allocation();
  EXPECT_NEAR(alloc.max_capacity_violation(xg), 0.0, 1e-9);
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    EXPECT_GE(alloc.admitted[j], -1e-9);
    EXPECT_LE(alloc.admitted[j], xg.lambda(j) + 1e-9);
  }
  EXPECT_NEAR(maxutil::core::max_balance_residual(xg, opt.flows()), 0.0, 1e-8);

  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_GT(opt.utility(), 0.90 * ref.optimal_utility)
      << "gradient " << opt.utility() << " vs LP " << ref.optimal_utility;
  EXPECT_LE(opt.utility(), ref.optimal_utility + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProperty, ::testing::Range(0, 12));

// ---------------------------------------------- served-instance golden

// The served gradient workload's instance: random 40 servers, 4 commodities,
// 5 stages, seed 7, eps = 0.1, round-tripped through the scenario text the
// way a served instance is loaded.
StreamNetwork served_instance() {
  maxutil::gen::RandomInstanceParams params;
  params.servers = 40;
  params.commodities = 4;
  params.stages = 5;
  Rng rng(7);
  return maxutil::scenario::parse_string(maxutil::scenario::write_string(
      maxutil::gen::random_instance(params, rng)));
}

maxutil::xform::PenaltyConfig served_penalty() {
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  return penalty;
}

/// FNV-1a over the bytes of every phi slot, in slot order.
std::uint64_t routing_hash(const RoutingState& routing) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t s = 0; s < routing.slot_count(); ++s) {
    const double phi = routing.phi_slot(s);
    unsigned char bytes[sizeof phi];
    std::memcpy(bytes, &phi, sizeof phi);
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// "<hexfloat utility> <hash>" of an optimizer's committed state.
std::string fingerprint(const GradientOptimizer& opt) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%a %016llx", opt.utility(),
                static_cast<unsigned long long>(routing_hash(opt.routing())));
  return buf;
}

/// The physical server with the highest utilization f_v / C_v.
NodeId busiest_server(const StreamNetwork& net, const ExtendedGraph& xg,
                      const FlowState& flows) {
  NodeId best = 0;
  double best_load = -1.0;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (net.is_sink(v)) continue;
    const double load = flows.f_node[v] / xg.capacity(v);
    if (load > best_load) {
      best_load = load;
      best = v;
    }
  }
  return best;
}

// Recorded from the optimizer before its per-step workspace, derivative
// tables and hoisted cost checks: those are storage and call-structure
// changes, so every committed iterate must stay the same to the last bit.
TEST(OptimizerGolden, ServedInstanceIteratesAreBitIdentical) {
  const StreamNetwork net = served_instance();
  const ExtendedGraph xg(net, served_penalty());
  GradientOptions options;
  options.max_iterations = 4000;
  options.record_history = false;
  GradientOptimizer cold(xg, options);
  ASSERT_EQ(cold.run(), 4000u);
  EXPECT_EQ(fingerprint(cold), "0x1.65bdb3f456978p+5 915713ad897d7aec");

  // Warm re-solve after halving the busiest server's capacity.
  const NodeId busiest = busiest_server(net, xg, cold.flows());
  const auto surgery =
      maxutil::stream::with_capacity_scaled(net, busiest, 0.5);
  const ExtendedGraph warm_xg(surgery.network, served_penalty());
  const auto start =
      maxutil::core::remap_routing(xg, cold.routing(), warm_xg, surgery);
  ASSERT_TRUE(start.has_value());
  GradientOptimizer warm(warm_xg, options, *start);
  ASSERT_EQ(warm.run(), 4000u);
  EXPECT_EQ(fingerprint(warm), "0x1.30a67b2c34e92p+5 f2dce4c74c3feb03");

  // The curvature-scaled step, with the utility trace on.
  GradientOptions newton;
  newton.curvature_scaled = true;
  newton.eta = 1.0;
  newton.max_iterations = 1000;
  GradientOptimizer curved(xg, newton);
  ASSERT_EQ(curved.run(), 1000u);
  EXPECT_EQ(fingerprint(curved), "0x1.65c1dbd9f1c8bp+5 3e703523f4850de0");
  EXPECT_EQ(curved.history().rows(), 1001u);
}

TEST(OptimizerGolden, SettledStepAllocatesNothing) {
  const StreamNetwork net = served_instance();
  const ExtendedGraph xg(net, served_penalty());
  GradientOptions options;
  options.record_history = false;
  GradientOptimizer opt(xg, options);
  for (int i = 0; i < 50; ++i) opt.step();  // warm-up sizes the workspace
  const std::size_t before = g_operator_news.load();
  for (int i = 0; i < 100; ++i) opt.step();
  EXPECT_EQ(g_operator_news.load() - before, 0u);
  EXPECT_EQ(opt.iterations(), 150u);
}

}  // namespace
