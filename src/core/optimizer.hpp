#pragma once

#include <cstddef>
#include <vector>

#include "core/allocation.hpp"
#include "core/flow.hpp"
#include "core/gamma.hpp"
#include "core/marginals.hpp"
#include "core/optimality.hpp"
#include "core/routing.hpp"
#include "util/timeseries.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

/// Configuration of the full distributed gradient optimizer (Section 5).
struct GradientOptions {
  /// Scale factor eta of the Gamma update (Section 6 uses 0.04).
  double eta = 0.04;

  /// Hard iteration cap for run().
  std::size_t max_iterations = 5000;

  /// run() stops early when the largest phi change of an iteration falls
  /// below this; 0 disables early stopping.
  double convergence_tol = 0.0;

  /// Capacity safeguard: a Gamma step whose forecast usage would exceed
  /// guard * C_i at any node is geometrically damped until feasible. Keeps
  /// the barrier cost finite under discrete steps (see DESIGN.md).
  double capacity_guard = 0.999;

  /// Maximum halvings before a step is rejected entirely.
  std::size_t max_damping_rounds = 60;

  /// Require every committed step to not increase the transformed cost A.
  /// Gamma's target is a descent direction, so damping always finds such a
  /// step; without this, a fixed eta can oscillate against the barrier's
  /// steep curvature near capacity and slowly degrade (see DESIGN.md).
  bool enforce_cost_decrease = true;

  /// Auto-tune the working eta: halve it whenever a step needs damping,
  /// multiply by `adaptive_growth` after `adaptive_patience` consecutive
  /// clean steps (capped at `adaptive_eta_max`). Resolves the paper's
  /// "choosing eta" dilemma (Section 6) without manual sweeps; `eta` is the
  /// starting value.
  bool adaptive_eta = false;
  double adaptive_growth = 1.26;
  std::size_t adaptive_patience = 20;
  double adaptive_eta_max = 2.0;

  /// Use curvature-scaled (Newton-like) Gamma steps — Gallager's sketched
  /// "second derivative algorithm". `eta` then acts as a trust multiplier
  /// with natural value 1.0; set it accordingly when enabling this.
  bool curvature_scaled = false;

  /// Record a history row per iteration (a utility evaluation each); turn
  /// it off when nothing reads history().
  bool record_history = true;

  /// Floor under which t_i(j) triggers the t -> 0 update rule.
  double traffic_floor = 1e-9;
};

/// Drives the three per-iteration protocols of Section 5 — marginal-cost
/// calculation, routing update Gamma, and flow forecasting/resource
/// allocation — from the paper's all-traffic-rejected initial state to the
/// optimum. The sim module runs the same mathematics over real messages;
/// this driver is the centralized (and benchmarkable) form.
class GradientOptimizer {
 public:
  explicit GradientOptimizer(const xform::ExtendedGraph& xg,
                             GradientOptions options = {});

  /// Starts from a caller-provided routing (e.g. a warm start transferred
  /// from a pre-failure network via remap_routing) instead of the
  /// all-rejected initial state. The routing must satisfy the invariants.
  GradientOptimizer(const xform::ExtendedGraph& xg, GradientOptions options,
                    RoutingState initial_routing);

  /// Re-derives flows from the current routing — call after mutating the
  /// underlying StreamNetwork (e.g. stream::StreamNetwork::set_lambda) so
  /// the next step's marginals see the new demand immediately rather than
  /// one iteration late.
  void refresh_flows();

  /// One iteration: sweep marginals, apply Gamma, forecast flows, damp if
  /// the forecast violates the capacity guard, commit. Returns the max phi
  /// change actually committed.
  double step();

  /// Runs until `max_iterations` or `convergence_tol`. Returns iterations.
  std::size_t run();

  std::size_t iterations() const { return iterations_; }
  const RoutingState& routing() const { return routing_; }
  const FlowState& flows() const { return flows_; }
  const xform::ExtendedGraph& extended_graph() const { return *xg_; }

  /// Current overall utility sum_j U_j(a_j).
  double utility() const;

  /// Current transformed cost A = Y + eps*D.
  double cost() const { return flows_.cost(); }

  /// Current admitted rate per commodity.
  std::vector<double> admitted() const;

  /// The eta currently in force (equals options.eta unless adaptive_eta).
  double working_eta() const { return working_eta_; }

  /// True when an iteration produced non-finite utility or routing mass
  /// (e.g. an unbounded utility evaluating to inf - inf). Once set, step()
  /// and run() are no-ops: the optimizer refuses to iterate on NaNs, and the
  /// solver layer surfaces Status::kFailed with divergence_iteration().
  bool diverged() const { return diverged_; }

  /// Iteration index at which divergence was detected (0 when the initial
  /// state was already non-finite). Meaningful only when diverged().
  std::size_t divergence_iteration() const { return divergence_iteration_; }

  /// Theorem-2 residuals at the current state.
  OptimalityReport optimality() const;

  /// Physical-network view of the current solution.
  PhysicalAllocation allocation() const;

  /// Per-iteration trace: iteration, utility, cost, utility_loss, penalty,
  /// max_phi_delta, damping_rounds. Row 0 is the initial state.
  const util::TimeSeries& history() const { return history_; }

 private:
  void record(double max_delta, std::size_t damping_rounds);

  const xform::ExtendedGraph* xg_;
  GradientOptions options_;
  RoutingState routing_;
  FlowState flows_;
  // Per-step workspace, reused so a settled step allocates nothing: the
  // Gamma target, the damped candidate and its forecast flows, the
  // marginals and the Gamma scratch.
  RoutingState target_;
  RoutingState candidate_;
  FlowState candidate_flows_;
  MarginalCosts marginals_;
  GammaScratch gamma_scratch_;
  std::size_t iterations_ = 0;
  double working_eta_ = 0.0;
  std::size_t clean_steps_ = 0;
  bool diverged_ = false;
  std::size_t divergence_iteration_ = 0;
  util::TimeSeries history_;
};

}  // namespace maxutil::core
