#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/optimality.hpp"
#include "core/routing.hpp"
#include "stream/model.hpp"
#include "util/timeseries.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::lp {
struct SimplexBasis;
}  // namespace maxutil::lp

namespace maxutil::solver {

/// The problem every backend solves: a validated StreamNetwork together with
/// its (cached) Section-3 extended-graph transformation. Building the
/// extended graph once here means the five optimizers, the parity tests, and
/// any pipeline stage all differentiate the *same* cost model — the paper's
/// premise that the transformed problem is the common ground between the LP
/// reference, the gradient schemes, and the back-pressure baseline.
///
/// The referenced StreamNetwork must outlive the Problem (same contract as
/// xform::ExtendedGraph).
class Problem {
 public:
  explicit Problem(const stream::StreamNetwork& network,
                   xform::PenaltyConfig penalty = {});

  const stream::StreamNetwork& network() const { return *network_; }
  const xform::ExtendedGraph& extended() const { return xg_; }
  std::size_t commodity_count() const { return xg_.commodity_count(); }

 private:
  const stream::StreamNetwork* network_;
  xform::ExtendedGraph xg_;
};

/// Shared solve knobs. Every field has a neutral default; 0 means "use the
/// backend's documented default" for the numeric knobs, so a default-
/// constructed SolveOptions reproduces each backend's standalone behavior.
/// Backend-specific extras travel in `extra` (string key/value passthrough —
/// the registry table in docs/SOLVERS.md lists each backend's keys).
struct SolveOptions {
  /// Iteration budget; 0 = backend default (gradient/backpressure/fw 5000,
  /// distributed 500; ignored by lp, whose pivots are unbounded here).
  std::size_t max_iterations = 0;

  /// Early-stop tolerance for solvers that support one (gradient: max phi
  /// change per iteration); 0 runs the full budget.
  double tolerance = 0.0;

  /// Step size eta for the gradient family; 0 = backend default (the
  /// paper's 0.04, or 1.0 in curvature-scaled mode).
  double eta = 0.0;

  /// Worker threads for backends with a parallel engine (distributed);
  /// 0 = all hardware threads.
  std::size_t threads = 1;

  /// Parallel partitioning strategy for the distributed runtime: "shard"
  /// (default — graph-aware shard partition, per-shard queues and pools)
  /// or "chunked" (contiguous actor-id chunks, the pre-sharding A/B
  /// reference). Results are bit-identical either way; only throughput
  /// changes. Ignored by backends without a parallel engine.
  std::string partition = "shard";

  /// Seed for any backend-internal randomness (none of the current five
  /// draw from it directly; the fault injector's default seed comes from
  /// extra["faults"]). Kept in the shared contract so stochastic future
  /// backends don't need a new field.
  std::uint64_t seed = 2007;

  /// Curvature-scaled (Newton-like) steps for the gradient family.
  bool curvature_scaled = false;

  /// Record a per-iteration history trace into SolveResult::history.
  bool record_history = false;

  /// Turn on the runtime observability layer (backends with
  /// supports_observation); fills SolveResult::obs.
  bool observe = false;

  /// Fill SolveResult::report with the backend's human-readable diagnostics
  /// (bottleneck prices, runtime/fault telemetry, ...).
  bool report = false;

  /// Start from this routing instead of the backend's cold start (backends
  /// with supports_warm_start). Must be valid on the Problem's extended
  /// graph. Pipelines thread the previous stage's routing through here.
  std::optional<core::RoutingState> warm_start;

  /// In/out simplex basis for the sparse LP engine (lp-sparse, or lp with
  /// extra["lp_backend"]="sparse"). When non-null and non-empty it seeds
  /// the solve; on an optimal exit the final basis is written back through
  /// it. A basis from a different LP layout is ignored (cold start), so a
  /// stale one costs pivots, never correctness. The caller owns the
  /// storage (ctrl::Controller keeps one per recent layout); every other
  /// backend ignores it.
  lp::SimplexBasis* lp_basis = nullptr;

  /// Per-solver passthrough (e.g. {"faults", "drop=0.1"} for distributed,
  /// {"buffer_cap", "8"} for backpressure, {"pwl_segments", "200"} for lp).
  std::map<std::string, std::string> extra;

  /// `extra` lookup helpers with fallbacks.
  double extra_number(const std::string& key, double fallback) const;
  std::string extra_text(const std::string& key,
                         const std::string& fallback) const;
};

/// Named outcome taxonomy shared by all backends (docs/SOLVERS.md).
enum class Status {
  kConverged,       // tolerance met / LP optimal: the solution is final
  kIterationLimit,  // budget exhausted; the iterate is usable but unproven
  kRoundLimit,      // a message wave exhausted its round budget (distributed)
  kInfeasible,      // the problem has no feasible point (LP certificate)
  kUnbounded,       // the LP relaxation is unbounded (model error)
  kFailed,          // backend error; SolveResult::message has the cause
};

const char* to_string(Status status);

/// True for statuses whose SolveResult carries a usable solution.
bool is_usable(Status status);

/// Observability export snapshot (filled when SolveOptions::observe and the
/// backend runs an instrumented runtime; absent under MAXUTIL_OBS_OFF).
struct ObsSnapshot {
  std::string metrics_csv;         // obs::MetricsRegistry::write_csv
  std::string metrics_report;      // obs::MetricsRegistry::report
  std::string trace_chrome_json;   // obs::Tracer::write_chrome_json
  std::string trace_csv;           // obs::Tracer::write_csv
  std::size_t trace_events = 0;
};

/// One pipeline stage's headline numbers (SolveResult::stages).
struct StageSummary {
  std::string solver;
  Status status = Status::kFailed;
  double utility = 0.0;
  std::size_t iterations = 0;
  double wall_seconds = 0.0;
};

/// The common result shape. Core fields (status, admitted, utility,
/// iterations, wall_seconds) are always set by every backend; the optional
/// blocks are filled when the backend produces them (the capability flags in
/// SolverInfo say which).
struct SolveResult {
  Status status = Status::kFailed;

  /// Admitted rate a_j per commodity (source units).
  std::vector<double> admitted;

  /// Resource usage f_v per *extended* node (servers, bandwidth nodes,
  /// dummies), parallel to the extended graph; empty when the backend does
  /// not expose node usage (backpressure, fw).
  std::vector<double> node_usage;

  /// Overall utility sum_j U_j(a_j).
  double utility = 0.0;

  /// Iterations (gradient steps, message-passing iterations, back-pressure
  /// rounds, or simplex pivots — the backend's natural unit).
  std::size_t iterations = 0;

  /// Wall-clock seconds of the solve call (stamped by the registry).
  double wall_seconds = 0.0;

  /// Failure cause for non-usable statuses; empty on success.
  std::string message;

  /// Non-fatal notes (round-budget exhaustion, ignored knobs, ...); the CLI
  /// prints each as a stderr warning.
  std::vector<std::string> warnings;

  /// Informational stdout lines (e.g. fw's duality-gap certificate); the
  /// CLI prints each before the result table.
  std::vector<std::string> notes;

  /// Backend-specific scalar diagnostics, e.g. {"duality_gap", 1e-6} (fw),
  /// {"rounds", 4200} (distributed), {"cost", ...} (gradient).
  std::vector<std::pair<std::string, double>> metrics;

  /// Human-readable diagnostics block (SolveOptions::report).
  std::string report;

  /// Final routing decision, for warm-start chaining and inspection
  /// (backends with emits_routing).
  std::optional<core::RoutingState> routing;

  /// Physical-network view of the solution (admission, per-server /
  /// per-link usage, per-commodity link flows).
  std::optional<core::PhysicalAllocation> allocation;

  /// Theorem-2 residuals at the final iterate (gradient family).
  std::optional<core::OptimalityReport> optimality;

  /// Per-iteration trace (SolveOptions::record_history).
  std::optional<util::TimeSeries> history;

  /// Observability export (SolveOptions::observe).
  std::optional<ObsSnapshot> obs;

  /// Per-stage summaries when this result came from a Pipeline (the outer
  /// fields are the last stage's).
  std::vector<StageSummary> stages;

  /// Convenience: metrics lookup; fallback when absent.
  double metric(const std::string& name, double fallback = 0.0) const;
};

}  // namespace maxutil::solver
