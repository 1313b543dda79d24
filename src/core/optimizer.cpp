#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace maxutil::core {

using maxutil::util::ensure;

namespace {

/// True when `flows` stays strictly inside the guarded capacity region.
bool within_guard(const xform::ExtendedGraph& xg, const FlowState& flows,
                  double guard) {
  for (const NodeId v : xg.finite_capacity_nodes()) {
    if (flows.f_node[v] >= guard * xg.capacity(v)) return false;
  }
  return true;
}

/// True when utility/cost and every node's routed mass are finite. The
/// barrier keeps feasible states finite (within_guard implies z < C), so a
/// non-finite value here is genuine divergence — e.g. an unbounded utility
/// evaluating to inf - inf — not a barrier touch.
bool finite_flows(const FlowState& flows) {
  if (!std::isfinite(flows.cost())) return false;
  for (const double f : flows.f_node) {
    if (!std::isfinite(f)) return false;
  }
  return true;
}

}  // namespace

GradientOptimizer::GradientOptimizer(const xform::ExtendedGraph& xg,
                                     GradientOptions options)
    : GradientOptimizer(xg, options, RoutingState::initial(xg)) {}

GradientOptimizer::GradientOptimizer(const xform::ExtendedGraph& xg,
                                     GradientOptions options,
                                     RoutingState initial_routing)
    : xg_(&xg),
      options_(options),
      routing_(std::move(initial_routing)),
      flows_(compute_flows(xg, routing_)),
      target_(routing_),
      candidate_(routing_),
      history_({"iteration", "utility", "cost", "utility_loss", "penalty",
                "max_phi_delta", "damping_rounds"}) {
  working_eta_ = options_.eta;
  ensure(options_.eta > 0.0, "GradientOptimizer: eta must be positive");
  ensure(options_.capacity_guard > 0.0 && options_.capacity_guard <= 1.0,
         "GradientOptimizer: capacity_guard outside (0, 1]");
  ensure(routing_.is_valid(xg, 1e-6),
         "GradientOptimizer: initial routing violates invariants");
  ensure(within_guard(xg, flows_, options_.capacity_guard),
         "GradientOptimizer: initial state violates capacity guard");
  if (options_.record_history) record(0.0, 0);
}

void GradientOptimizer::refresh_flows() {
  flows_ = compute_flows(*xg_, routing_);
  // Emergency response to a demand surge: admission is proportional to
  // lambda (a = lambda * phi_input), so raising lambda can make the current
  // routing infeasible on the spot. Blend toward the all-rejected initial
  // state (cutting admission) until strictly inside the guard again; the
  // gradient then re-grows admission to the new optimum.
  if (within_guard(*xg_, flows_, options_.capacity_guard)) return;
  const RoutingState fallback = RoutingState::initial(*xg_);
  for (std::size_t round = 0; round < options_.max_damping_rounds; ++round) {
    routing_.blend_toward(fallback, 0.5);
    flows_ = compute_flows(*xg_, routing_);
    if (within_guard(*xg_, flows_, options_.capacity_guard)) return;
  }
  routing_ = fallback;
  flows_ = compute_flows(*xg_, routing_);
}

double GradientOptimizer::step() {
  if (diverged_) return 0.0;
  if (!finite_flows(flows_)) {
    // The current state is already non-finite (a warm start or the very
    // first flow computation produced inf - inf): refuse to iterate on NaNs.
    diverged_ = true;
    divergence_iteration_ = iterations_;
    return 0.0;
  }
  compute_marginals(*xg_, routing_, flows_, options_.curvature_scaled,
                    marginals_);

  GammaOptions gamma_options;
  gamma_options.eta = working_eta_;
  gamma_options.traffic_floor = options_.traffic_floor;
  gamma_options.step_mode = options_.curvature_scaled
                                ? StepMode::kCurvatureScaled
                                : StepMode::kEtaOverTraffic;

  target_ = routing_;
  apply_gamma(*xg_, flows_, marginals_, gamma_options, target_,
              gamma_scratch_);

  // Forecast protocol + safeguard: accept the full step when its predicted
  // flows respect the guard *and* the transformed cost does not increase;
  // otherwise damp geometrically toward the current (feasible) routing.
  // Gamma's target is a descent direction (Gallager's lemma), so a small
  // enough blend always improves the cost — the monotonicity requirement
  // prevents the fixed-eta update from oscillating against the barrier's
  // exploding curvature near capacity (see DESIGN.md).
  const double current_cost = flows_.cost();
  candidate_ = target_;
  compute_flows(*xg_, candidate_, candidate_flows_);
  std::size_t damping = 0;
  double alpha = 1.0;
  // A non-finite candidate is damped like a guard violation (NaN compares
  // false everywhere, so without this clause it would slip through and
  // commit); if damping never recovers a finite step, the iteration is
  // rejected below like any other failed step.
  while (!finite_flows(candidate_flows_) ||
         !within_guard(*xg_, candidate_flows_, options_.capacity_guard) ||
         (options_.enforce_cost_decrease &&
          candidate_flows_.cost() > current_cost + 1e-12)) {
    if (++damping > options_.max_damping_rounds) {
      // Reject the step entirely; the iteration becomes a no-op.
      if (options_.adaptive_eta) {
        working_eta_ = std::max(working_eta_ * 0.5, 1e-6);
        clean_steps_ = 0;
      }
      if (options_.record_history) record(0.0, damping);
      ++iterations_;
      return 0.0;
    }
    alpha *= 0.5;
    candidate_ = routing_;
    candidate_.blend_toward(target_, alpha);
    compute_flows(*xg_, candidate_, candidate_flows_);
  }

  // Commit by swapping, so the old state's storage becomes next step's
  // candidate workspace.
  const double max_delta = routing_.max_difference(candidate_);
  std::swap(routing_, candidate_);
  std::swap(flows_, candidate_flows_);
  ++iterations_;
  if (options_.adaptive_eta) {
    if (damping > 0) {
      working_eta_ = std::max(working_eta_ * 0.5, 1e-6);
      clean_steps_ = 0;
    } else if (++clean_steps_ >= options_.adaptive_patience) {
      working_eta_ =
          std::min(working_eta_ * options_.adaptive_growth,
                   options_.adaptive_eta_max);
      clean_steps_ = 0;
    }
  }
  if (options_.record_history) record(max_delta, damping);
  return max_delta;
}

std::size_t GradientOptimizer::run() {
  std::size_t steps = 0;
  while (steps < options_.max_iterations) {
    const double delta = step();
    if (diverged_) break;
    ++steps;
    if (options_.convergence_tol > 0.0 && delta < options_.convergence_tol) {
      break;
    }
  }
  return steps;
}

double GradientOptimizer::utility() const {
  return total_utility(*xg_, flows_);
}

std::vector<double> GradientOptimizer::admitted() const {
  std::vector<double> out(xg_->commodity_count());
  for (CommodityId j = 0; j < out.size(); ++j) {
    out[j] = admitted_rate(*xg_, flows_, j);
  }
  return out;
}

OptimalityReport GradientOptimizer::optimality() const {
  const MarginalCosts marginals = compute_marginals(*xg_, routing_, flows_);
  return check_optimality(*xg_, routing_, marginals);
}

PhysicalAllocation GradientOptimizer::allocation() const {
  return map_to_physical(*xg_, flows_);
}

void GradientOptimizer::record(double max_delta, std::size_t damping_rounds) {
  history_.append({static_cast<double>(iterations_), utility(), flows_.cost(),
                   flows_.utility_loss, flows_.penalty, max_delta,
                   static_cast<double>(damping_rounds)});
}

}  // namespace maxutil::core
