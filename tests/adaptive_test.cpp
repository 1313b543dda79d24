// Tests for the adaptive-eta mode of the gradient optimizer: the working
// step scale grows on clean streaks, shrinks on damped/rejected steps, and
// converges at least as well as the paper's hand-tuned eta without sweeps.

#include <gtest/gtest.h>

#include <cmath>

#include "core/flow.hpp"
#include "core/marginals.hpp"
#include "core/optimizer.hpp"
#include "gen/random_instance.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using maxutil::core::GradientOptimizer;
using maxutil::core::GradientOptions;
using maxutil::util::Rng;
using maxutil::xform::ExtendedGraph;

maxutil::stream::StreamNetwork paper_net() {
  Rng rng(2007);
  return maxutil::gen::random_instance({}, rng);
}

TEST(AdaptiveEta, GrowsOnCleanStreaks) {
  const auto net = paper_net();
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  GradientOptions options;
  options.eta = 0.01;
  options.adaptive_eta = true;
  options.adaptive_patience = 10;
  options.record_history = false;
  options.max_iterations = 300;
  GradientOptimizer opt(xg, options);
  EXPECT_DOUBLE_EQ(opt.working_eta(), 0.01);
  opt.run();
  EXPECT_GT(opt.working_eta(), 0.01);
}

TEST(AdaptiveEta, FixedModeKeepsEta) {
  const auto net = paper_net();
  const ExtendedGraph xg(net);
  GradientOptions options;
  options.eta = 0.04;
  options.record_history = false;
  options.max_iterations = 200;
  GradientOptimizer opt(xg, options);
  opt.run();
  EXPECT_DOUBLE_EQ(opt.working_eta(), 0.04);
}

TEST(AdaptiveEta, ShrinksWhenStepsNeedDamping) {
  // A huge starting eta forces damping immediately; the working eta must
  // fall below the start.
  const auto net = paper_net();
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  GradientOptions options;
  options.eta = 2.0;
  options.adaptive_eta = true;
  options.record_history = false;
  options.max_iterations = 500;
  GradientOptimizer opt(xg, options);
  opt.run();
  EXPECT_LT(opt.working_eta(), 2.0);
}

TEST(AdaptiveEta, MatchesHandTunedConvergence) {
  const auto net = paper_net();
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  const double optimal = maxutil::xform::solve_reference(xg).optimal_utility;

  const auto iterations_to_95 = [&](GradientOptions options) {
    options.record_history = false;
    options.max_iterations = 20000;
    GradientOptimizer opt(xg, options);
    std::size_t count = 0;
    while (opt.utility() < 0.95 * optimal && count < 20000) {
      opt.step();
      ++count;
    }
    return count;
  };

  GradientOptions tuned;
  tuned.eta = 0.04;  // the paper's sweep result
  GradientOptions adaptive;
  adaptive.eta = 0.005;  // a deliberately too-small start
  adaptive.adaptive_eta = true;
  adaptive.adaptive_patience = 10;

  const std::size_t tuned_iters = iterations_to_95(tuned);
  const std::size_t adaptive_iters = iterations_to_95(adaptive);
  ASSERT_LT(tuned_iters, 20000u);
  ASSERT_LT(adaptive_iters, 20000u);
  // Adaptive from a bad start stays within ~4x of the hand-tuned optimum
  // and far better than the fixed bad start (which is ~8x slower).
  EXPECT_LT(adaptive_iters, 4 * tuned_iters);
}

TEST(CurvatureScaled, SecondDerivativesMatchFiniteDifferences) {
  // The curvature telescoping must agree with numeric second differences of
  // the cost along single-phi perturbations (same scheme as the first-order
  // test, one derivative higher): d2A/dphi^2 = t^2 * kappa_via_edge.
  const auto net = paper_net();
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  // Measure at a realistic feasible point: a briefly-run optimizer iterate.
  // (The all-uniform interior routing is *infeasible* on this instance — it
  // funnels flow through tiny-capacity nodes the optimizer learns to avoid,
  // making the barrier cost infinite.)
  GradientOptions warmup;
  warmup.eta = 0.04;
  warmup.record_history = false;
  warmup.max_iterations = 200;
  GradientOptimizer warm(xg, warmup);
  warm.run();
  const maxutil::core::RoutingState routing = warm.routing();
  const auto flows = maxutil::core::compute_flows(xg, routing);
  ASSERT_TRUE(std::isfinite(flows.cost()));
  const auto marginals = maxutil::core::compute_marginals(xg, routing, flows);
  const double h = 1e-4;
  std::size_t checked = 0;
  for (maxutil::stream::CommodityId j = 0; j < xg.commodity_count(); ++j) {
    for (maxutil::graph::EdgeId e = 0; e < xg.edge_count(); ++e) {
      if (!xg.usable(j, e)) continue;
      const auto tail = xg.graph().tail(e);
      const double t = flows.t_at(j, tail);
      if (t <= 1e-6 || routing.phi(j, e) < h) continue;
      auto up = routing, down = routing;
      up.set_phi(j, e, routing.phi(j, e) + h);
      down.set_phi(j, e, routing.phi(j, e) - h);
      const double c0 = flows.cost();
      const double cu = maxutil::core::compute_flows(xg, up).cost();
      const double cd = maxutil::core::compute_flows(xg, down).cost();
      if (!std::isfinite(cu) || !std::isfinite(cd)) continue;
      const double fd2 = (cu - 2.0 * c0 + cd) / (h * h);
      const double analytic =
          t * t * maxutil::core::curvature_via_edge(marginals, j, e);
      EXPECT_NEAR(analytic, fd2, 2e-2 * (1.0 + std::abs(fd2)))
          << "j " << j << " e " << e;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(CurvatureScaled, ConvergesWithoutTuning) {
  // Natural eta = 1 matches a well-tuned fixed eta on the paper instance
  // (no sweep needed), and reaches the same optimum.
  const auto net = paper_net();
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  const double optimal = maxutil::xform::solve_reference(xg).optimal_utility;
  GradientOptions options;
  options.eta = 1.0;
  options.curvature_scaled = true;
  options.record_history = false;
  options.max_iterations = 5000;
  GradientOptimizer opt(xg, options);
  std::size_t it = 0;
  while (it < 5000 && opt.utility() < 0.95 * optimal) {
    opt.step();
    ++it;
  }
  EXPECT_LT(it, 300u);  // comparable to the tuned eta=0.08 (73 iterations)
  opt.run();
  EXPECT_GT(opt.utility(), 0.96 * optimal);
}

TEST(AdaptiveEta, StaysStableAtHighGrowthCap) {
  const auto net = paper_net();
  maxutil::xform::PenaltyConfig penalty;
  penalty.epsilon = 0.1;
  const ExtendedGraph xg(net, penalty);
  const double optimal = maxutil::xform::solve_reference(xg).optimal_utility;
  GradientOptions options;
  options.eta = 0.04;
  options.adaptive_eta = true;
  options.adaptive_eta_max = 2.0;
  options.record_history = false;
  options.max_iterations = 5000;
  GradientOptimizer opt(xg, options);
  opt.run();
  // Even when eta climbs aggressively, the monotone-descent safeguard keeps
  // the end state near-optimal rather than oscillating away.
  EXPECT_GT(opt.utility(), 0.95 * optimal);
}

}  // namespace
