#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/routing.hpp"
#include "ctrl/churn_plan.hpp"
#include "lp/revised_simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/pipeline.hpp"
#include "solver/solver.hpp"
#include "stream/model.hpp"
#include "stream/surgery.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::ctrl {

using maxutil::graph::NodeId;

/// recovery_iterations value when utility never re-entered the band.
inline constexpr std::size_t kNotRecovered = static_cast<std::size_t>(-1);

/// What the interim operating point sheds while a re-solve is in flight
/// (docs/CONTROLLER.md §3). The re-solve then redistributes optimally; the
/// policy only shapes the transient.
enum class DegradationPolicy {
  /// Blend every commodity toward all-rejected by the same fraction until
  /// the warm start is strictly feasible (fair transient shedding).
  kProportional,
  /// Shed whole commodities highest-id-first (later arrivals are lower
  /// priority) until feasible; earlier commodities keep their admission.
  kPriority,
  /// Shed nothing. If the carried-over point violates capacity, the warm
  /// start is unusable and the event cold-starts with a warning.
  kFreeze,
};

const char* to_string(DegradationPolicy policy);

/// Parses "proportional" / "priority" / "freeze"; throws on anything else.
DegradationPolicy parse_policy(const std::string& text);

struct ControllerOptions {
  /// Re-solve pipeline spec (solver registry grammar, e.g. "gradient" or
  /// "lp,gradient" or "distributed"). The last stage must emit a routing —
  /// the controller needs it to warm-start the next event.
  std::string pipeline = "gradient";

  DegradationPolicy policy = DegradationPolicy::kProportional;

  /// Per-event solve knobs (iteration budget, eta, threads, tolerance, ...).
  /// tolerance 0 is upgraded to 1e-7 so re-solves stop at convergence
  /// instead of burning the whole budget after every event. lp_basis is
  /// the controller's own (see lp_slots_); a value set here is ignored.
  solver::SolveOptions solve;

  xform::PenaltyConfig penalty;

  /// Watchdog iteration budget per re-solve: caps (and defaults) the
  /// per-event max_iterations. 0 disables the cap.
  std::size_t watchdog_iterations = 4000;

  /// Watchdog wall budget per re-solve attempt in seconds; 0 disables.
  double watchdog_wall_seconds = 0.0;

  /// A tripped watchdog retries once with eta scaled by this factor (a
  /// safer, smaller step) before the event is declared failed.
  double retry_eta_factor = 0.25;

  /// Recovered when utility >= optimum - band * max(1, |optimum|).
  double recovery_band = 0.01;

  /// Remap the previous routing across the surgery maps as a warm start,
  /// and hand the sparse LP engine the stored basis of the next layout
  /// (false = always cold start; bench_churn's control arm).
  bool use_warm_start = true;

  /// Solve the post-event LP optimum for the recovery SLOs. Disable to
  /// skip the reference solve (outcomes then report optimum 0 and
  /// recovery_iterations relative to nothing — only the iteration and
  /// status fields remain meaningful).
  bool lp_reference = true;

  /// Record per-event Chrome trace spans (deterministic timestamps derived
  /// from event time and iteration counts, never the wall clock).
  bool record_trace = false;
};

/// Per-event record: what happened, how the re-solve went, and the
/// recovery SLOs (docs/CONTROLLER.md §4).
struct EventOutcome {
  ChurnEvent event;
  solver::Status status = solver::Status::kFailed;

  bool warm_started = false;   // remapped previous routing fed the solve
  bool cold_started = false;   // solve started from all-rejected
  bool exact_restore = false;  // snapshot restored, re-solve skipped
  bool watchdog_retry = false; // first attempt tripped the watchdog
  bool degraded_infeasible = false;  // freeze policy carried an infeasible point

  std::size_t iterations = 0;           // re-solve iterations actually spent
  std::size_t recovery_iterations = 0;  // to within the band; kNotRecovered
  double utility_before = 0.0;  // interim (degraded) utility after surgery
  double utility_after = 0.0;   // utility after the re-solve
  double optimum = 0.0;         // post-event LP optimum (lp_reference)
  double utility_deficit = 0.0; // sum over iterations of max(0, opt - u)
  double warm_start_violation = 0.0;  // capacity violation of the warm point
  double wall_seconds = 0.0;
  std::string message;  // failure cause when status is not usable
};

/// Outcome of a coalesced batch of events applied with a *single* re-solve
/// (Controller::apply_batch — the serve daemon's path, docs/SERVE.md §3).
/// Mirrors the solve-related fields of EventOutcome; the per-event recovery
/// SLOs (recovery_iterations, utility_deficit) are the per-event path's job
/// and are not computed here.
struct BatchOutcome {
  std::vector<ChurnEvent> events;
  solver::Status status = solver::Status::kFailed;

  bool warm_started = false;
  bool cold_started = false;
  bool exact_restore = false;   // singleton batch served from a snapshot
  bool watchdog_retry = false;
  bool degraded_infeasible = false;

  std::size_t iterations = 0;
  double utility_before = 0.0;  // interim (degraded) utility after surgery
  double utility_after = 0.0;
  double warm_start_violation = 0.0;
  double wall_seconds = 0.0;
  std::string message;
};

/// Whole-run aggregate returned by Controller::run.
struct ChurnReport {
  std::vector<EventOutcome> events;
  double initial_utility = 0.0;
  double final_utility = 0.0;
  std::size_t warm_starts = 0;
  std::size_t cold_starts = 0;
  std::size_t exact_restores = 0;
  std::size_t watchdog_retries = 0;
  std::size_t failures = 0;

  /// Human-readable per-event table + aggregate lines (CLI --report).
  std::string summary() const;
};

/// The online churn controller (ISSUE 5 tentpole): owns the solver Problem
/// for the current topology and drives it through a ChurnPlan. Per event it
/// 1. validates the event against the current topology configuration,
/// 2. rebuilds the network from the pristine baseline via stream::rebuild
///    (so a crash followed by a restore reproduces the pre-crash network
///    bit-for-bit, making crashes reversible),
/// 3. remaps the previous routing across the composed surgery maps as a
///    warm start (core::remap_routing; cold start when the remap fails),
///    shaped by the degradation policy while reconvergence is in flight,
/// 4. re-solves through solver::Pipeline under a watchdog (iteration/wall
///    budget, one retry at a safer step size before Status::kFailed),
/// 5. records recovery SLOs into the obs layer (metrics + trace spans).
///
/// A crash (or departure) snapshots the pre-event configuration and
/// routing; a restore (or re-arrival) that returns the configuration to
/// exactly the snapshot skips the re-solve entirely and reinstates the
/// snapshot (recovery in 0 iterations — the strongest form of the paper's
/// "faster recovery" remark).
///
/// Deterministic by construction: no wall-clock input affects decisions,
/// and with a deterministic backend (gradient, or distributed under the
/// deterministic runtime) a run is bit-identical across thread counts.
///
/// The baseline network is copied; the caller's network is not retained.
class Controller {
 public:
  explicit Controller(const stream::StreamNetwork& baseline,
                      ControllerOptions options = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Applies one event: surgery + degradation + watchdogged re-solve.
  /// Throws util::CheckError when the event is invalid against the current
  /// configuration (crashing a down node, restoring an up node, scaling a
  /// sink, departing an absent commodity, unknown names); solver failures
  /// are *recorded* in the outcome, never thrown.
  EventOutcome apply(const ChurnEvent& event);

  /// Applies a coalesced batch of events with ONE rebuild + ONE warm-started
  /// re-solve (the serve daemon's load-shedding path: many topology changes
  /// and admissions arriving inside a coalescing window cost one solve, not
  /// one per event). Events are validated in order against the staged
  /// configuration, exactly as if applied one by one; the whole batch throws
  /// util::CheckError before any state changes when one is invalid — use
  /// check_event to pre-screen a stream. A singleton batch takes apply()'s
  /// per-event path (keeping the exact-restore snapshot machinery);
  /// multi-event batches skip snapshots, so a restore cannot be served
  /// exactly across a batched crash. No batch outcome, singleton or not, is
  /// appended to report().events, so a long-running daemon's report does
  /// not grow per decision; report() counts only the batches' failures.
  BatchOutcome apply_batch(const std::vector<ChurnEvent>& events);

  /// Validates `event` against the configuration reached from the current
  /// one by staging `staged` first (no state is modified). Returns the
  /// failure message — naming the offending entity and value, the same text
  /// apply() would throw — or an empty string when the event is applicable.
  std::string check_event(const ChurnEvent& event,
                          const std::vector<ChurnEvent>& staged = {}) const;

  /// Replays a whole plan (events already in time order) and returns the
  /// aggregate report, also kept in report().
  ChurnReport run(const ChurnPlan& plan);

  // --- Current state ---
  /// The pristine baseline every event's entity names resolve against.
  const stream::StreamNetwork& baseline() const { return baseline_; }
  const stream::StreamNetwork& network() const;
  const xform::ExtendedGraph& extended() const;
  const core::RoutingState& routing() const;
  const std::vector<double>& admitted() const { return admitted_; }
  double utility() const { return utility_; }
  const ChurnReport& report() const { return report_; }

  /// Serializes the controller's full decision-bearing state — the topology
  /// configuration, the standing routing, admitted rates, utility, the
  /// exact-restore snapshot table, the applied-event count, and the two LP
  /// basis slots (a warm basis can pick a different optimal vertex) — as a
  /// line-oriented text blob. Doubles are rendered as C hexfloats, so a
  /// round trip through import_state is bit-exact and a restored controller
  /// continues a deterministic run with the same decisions the original
  /// would have made (the serve WAL's snapshot payload, docs/SERVE.md §8).
  /// Metrics, traces, and the per-event report are per-process observability
  /// and are NOT serialized.
  void export_state(std::ostream& out) const;

  /// Restores a state written by export_state against the same baseline
  /// network. Rebuilds the current topology from the pristine baseline (the
  /// same deterministic rebuild path every event uses), reinstates the
  /// routing slot-for-slot, and rebuilds every pending exact-restore
  /// snapshot. Version-1 blobs (no basis section) load with empty basis
  /// slots. Throws util::CheckError on a malformed blob or a baseline shape
  /// mismatch, leaving the controller untouched.
  void import_state(std::istream& in);

  /// SLO metrics (counters/gauges/histograms; docs/CONTROLLER.md §4).
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Per-event spans (ControllerOptions::record_trace).
  const obs::Tracer& tracer() const { return tracer_; }
  obs::Tracer& tracer() { return tracer_; }

 private:
  /// Baseline-indexed topology configuration; the current network is always
  /// rebuild(baseline, spec_of(config)).
  struct Config {
    std::vector<char> node_down;
    std::vector<char> link_down;
    std::vector<char> commodity_absent;
    std::vector<double> cap_factor;
    std::vector<double> bw_factor;
    std::vector<double> lambda_factor;
    bool operator==(const Config&) const = default;
  };

  /// The rebuilt network, its baseline->current maps, and the Problem over
  /// it. Heap-held so the Problem's pointer into the network stays stable.
  struct State;

  struct Snapshot {
    Config config;
    core::RoutingState routing;
    std::vector<double> admitted;
    double utility = 0.0;
  };

  /// A simplex basis and the LP layout it was solved on. The layout is the
  /// entity set of a Config (node_down, link_down, commodity_absent, in
  /// that order); the cap/bw/lambda factors move only rhs and bounds, so
  /// configurations that differ in them alone share a basis.
  struct LpSlot {
    std::vector<char> layout;  // empty: the slot was never used
    lp::SimplexBasis basis;    // empty: cold start
  };

  std::unique_ptr<State> build_state(const Config& config) const;
  /// The per-event path shared by apply() and a singleton apply_batch();
  /// leaves report() to its callers.
  EventOutcome apply_event(const ChurnEvent& event);
  /// Selects the slot for `config`'s layout, rotating the two slots on a
  /// layout change, and returns its basis for the next solve's
  /// SolveOptions::lp_basis; nullptr when use_warm_start is off.
  lp::SimplexBasis* lp_basis_for(const Config& config);
  /// Validates `event` against `config` and applies its delta (pure with
  /// respect to controller state — apply()/apply_batch record metrics and
  /// snapshots themselves). Returns the snapshot key a restore/arrive
  /// should be checked against, when applicable.
  std::optional<std::pair<char, std::size_t>> stage_event(
      const ChurnEvent& event, Config& config) const;
  /// Per-kind event counter for stage_event's metrics recording.
  obs::MetricId kind_metric(ChurnEventKind kind) const;
  NodeId resolve_node(const std::string& text, const char* what) const;
  stream::CommodityId resolve_commodity(const std::string& text,
                                        const char* what) const;
  solver::SolveResult watchdogged_solve(const solver::Problem& problem,
                                        const Config& config,
                                        std::optional<core::RoutingState> warm,
                                        EventOutcome& outcome);
  void register_metrics();

  ControllerOptions options_;
  solver::Pipeline pipeline_;
  stream::StreamNetwork baseline_;
  Config config_;
  std::unique_ptr<State> state_;
  std::optional<core::RoutingState> routing_;
  std::vector<double> admitted_;
  double utility_ = 0.0;
  /// Pre-event snapshots: crashes key on {'n', node}, departures on
  /// {'c', commodity}. A restore/arrive whose configuration returns exactly
  /// to the snapshot is served from it with no re-solve.
  std::map<std::pair<char, std::size_t>, Snapshot> snapshots_;
  /// Simplex bases of the two most recent LP layouts: [0] is the layout
  /// solved last, [1] the one before the last layout change. Every solve
  /// gets the matching slot, whatever the pipeline; engines other than the
  /// sparse LP leave it empty.
  std::array<LpSlot, 2> lp_slots_;
  ChurnReport report_;
  std::size_t events_applied_ = 0;

  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  // Metric handles (see register_metrics for the catalog).
  obs::MetricId m_events_, m_crashes_, m_restores_, m_cap_scales_,
      m_bw_scales_, m_arrivals_, m_departures_, m_warm_starts_,
      m_cold_starts_, m_lp_warm_bases_, m_exact_restores_, m_retries_,
      m_failures_,
      m_recovered_, m_utility_, m_commodities_, m_recovery_hist_,
      m_deficit_hist_;
};

}  // namespace maxutil::ctrl
