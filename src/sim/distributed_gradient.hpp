#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/gamma.hpp"
#include "core/routing.hpp"
#include "sim/runtime.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::sim {

using maxutil::graph::EdgeId;
using maxutil::graph::NodeId;
using maxutil::stream::CommodityId;

/// Message tags of the distributed gradient protocol. Every payload ends
/// with the wave sequence number, which makes the protocol safe under the
/// fault injector's drops, delays, duplicates, and crashes (docs/RUNTIME.md
/// has the full degradation model).
inline constexpr int kMarginalTag = 1;  // [edge, dA/dr, blocked?, K, seq]
inline constexpr int kForecastTag = 2;  // [edge, arriving flow, seq]

/// One extended-graph node running the three per-iteration protocols of
/// Section 5 with *only local knowledge*: its own capacity/cost functions,
/// its incident edges' parameters, its routing fractions, and whatever
/// arrives in messages. The runtime delivers messages with unit delay, so
/// the marginal-cost wave genuinely takes O(L) rounds (L = longest path), as
/// the paper's message-complexity discussion states.
///
/// Fault hardening (the stale-update variant of the synchronous protocol;
/// see docs/ALGORITHM.md §8): every input slot remembers the last value it
/// ever received with the wave sequence number it arrived under. A wave
/// normally emits once all inputs of the current sequence are in; when a
/// fault plan is active, a node that has waited `patience` rounds emits
/// anyway using the held-over values, and re-emits if a late arrival then
/// changes its outputs. apply_update() skips (holds phi) whenever any input
/// it depends on is older than `max_staleness` waves — the bounded-staleness
/// guard under which the gradient still converges to the fault-free fixed
/// point.
class NodeActor : public Actor {
 public:
  NodeActor(const xform::ExtendedGraph& xg, NodeId self,
            core::GammaOptions gamma);

  // --- Phase control (invoked by the system at iteration boundaries) ---

  /// Marginal-cost phase: sinks (and any node with no usable out-edges)
  /// immediately broadcast dA/dr = 0 upstream; everyone else waits for all
  /// downstream values (eq. 9's deadlock-free protocol). `seq` is the wave
  /// sequence number, strictly increasing across iterations.
  void begin_marginal(Outbox& out, std::size_t seq);

  /// Applies the Gamma update (eqs. 14-17) using the received downstream
  /// marginals and blocking tags. Purely local. Held (skipped) when inputs
  /// exceed the staleness bound.
  void apply_update();

  /// Forecast phase: dummy sources emit t = lambda immediately; every node
  /// forwards forecast flows once all upstream contributions arrived
  /// (the Section-5 resource-allocation protocol).
  void begin_forecast(Outbox& out, std::size_t seq);

  void on_round(Outbox& out, std::span<const Message> inbox) override;

  // --- Fault-tolerance knobs (set by the system once at construction) ---

  /// Rounds a node waits for current-sequence inputs before emitting with
  /// held-over values. kNoPatience (the default) disables the timeout: the
  /// node waits forever, which is the exact synchronous protocol.
  void set_patience(std::size_t rounds) { patience_ = rounds; }
  /// Maximum input age (in waves) apply_update() tolerates before holding.
  void set_max_staleness(std::size_t waves) { max_staleness_ = waves; }

  static constexpr std::size_t kNoPatience = static_cast<std::size_t>(-1);

  /// Sentinel for the wave-completion stamps below: the current wave has
  /// not completed on this node (yet).
  static constexpr std::size_t kWaveOpen = static_cast<std::size_t>(-1);

  /// True when every carried commodity has emitted in the current
  /// marginal/forecast wave — the system's wave-completion check.
  bool marginal_complete() const;
  bool forecast_complete() const;

  // --- Observer-side accessors (not part of the protocol) ---
  double phi(CommodityId j, EdgeId e) const;
  void set_phi(CommodityId j, EdgeId e, double value);
  double traffic(CommodityId j) const;
  double node_usage() const { return f_node_; }
  double marginal(CommodityId j) const;
  /// Gamma updates skipped by the staleness guard (cumulative).
  std::size_t held_updates() const { return held_updates_; }
  /// Sequence-number resyncs — times this node observed a wave newer than
  /// its own and fast-forwarded (it was crashed, or the kickoff was lost).
  std::size_t resyncs() const { return resyncs_; }
  /// Age (in waves) of this node's oldest input right now.
  std::size_t max_input_staleness() const;

  /// Runtime round in which the current marginal/forecast wave completed
  /// on this node (every carried commodity emitted), or kWaveOpen while it
  /// has not. Stamped in-protocol at emission time — O(1) per wave instead
  /// of an observer rescanning every node every round — and maintained
  /// unconditionally, so observed and unobserved runs execute identical
  /// code. The system turns these into the wave_node_latency_rounds
  /// histogram at wave end.
  std::size_t marginal_done_round() const { return marginal_done_round_; }
  std::size_t forecast_done_round() const { return forecast_done_round_; }

 private:
  struct PerCommodity {
    std::vector<EdgeId> out_edges;
    std::vector<NodeId> out_heads;
    std::vector<EdgeId> in_edges;
    std::vector<NodeId> in_tails;
    std::vector<double> phi;      // parallel to out_edges
    std::vector<double> f_edge;   // resource usage per out edge
    std::vector<double> dr_head;  // received downstream marginals
    std::vector<double> kappa_head;  // received downstream curvatures
    std::vector<char> head_tagged;
    std::vector<char> head_received;
    std::vector<std::size_t> head_seq;  // wave seq of each held marginal
    std::size_t heads_received = 0;
    std::vector<double> inflow;  // parallel to in_edges (arriving units)
    std::vector<char> inflow_received;
    std::vector<std::size_t> inflow_seq;  // wave seq of each held inflow
    std::size_t inflows_received = 0;
    double input_rate = 0.0;  // lambda at the dummy source, else 0
    double t = 0.0;           // traffic from the last forecast
    std::size_t t_seq = 0;    // wave seq at which t was last recomputed
    double f_comm = 0.0;      // this commodity's share of f_node_
    double dr_self = 0.0;
    double kappa_self = 0.0;
    bool tagged_self = false;
    bool is_sink = false;
    // Emission state of the current wave; the patience counters tick every
    // round a wave is open and the node has not emitted yet.
    bool marginal_emitted = true;
    bool forecast_emitted = true;
    std::size_t marginal_wait = 0;
    std::size_t forecast_wait = 0;
  };

  PerCommodity& state(CommodityId j);
  const PerCommodity& state(CommodityId j) const;
  /// Marginal through out-edge `idx`: (Y' + D') c + beta * dr_head.
  double via(CommodityId j, const PerCommodity& s, std::size_t idx) const;
  /// Curvature through out-edge `idx`: c^2 (Y'' + D'') + beta^2 kappa_head.
  double kappa_via(CommodityId j, const PerCommodity& s,
                   std::size_t idx) const;
  void emit_marginal(Outbox& out, CommodityId j);
  void emit_forecast(Outbox& out, CommodityId j);
  /// Patience timeouts: emits overdue waves with held-over values.
  void tick_patience(Outbox& out);
  /// Fast-forwards wave state after observing a newer sequence number than
  /// our own (we missed the kickoff — crashed, or the kickoff was lost).
  void resync_marginal(std::size_t seq);
  void resync_forecast(std::size_t seq);
  /// Recomputes f_node_ as the commodity-index-order sum of f_comm, so the
  /// total is well-defined even when a faulted wave updates only some
  /// commodities.
  void refresh_node_usage();

  const xform::ExtendedGraph* xg_;
  NodeId self_;
  core::GammaOptions gamma_;
  std::vector<std::optional<PerCommodity>> commodities_;
  std::vector<std::size_t> eligible_scratch_;  // apply_update working set
  double f_node_ = 0.0;  // total usage from the last forecast
  std::size_t cur_mseq_ = 0;  // current marginal-wave sequence
  std::size_t cur_fseq_ = 0;  // current forecast-wave sequence
  std::size_t patience_ = kNoPatience;
  std::size_t max_staleness_ = 8;
  std::size_t held_updates_ = 0;
  std::size_t resyncs_ = 0;
  // Wave-completion stamps (see marginal_done_round()); reset by the wave
  // kickoffs and by sequence resyncs.
  std::size_t marginal_done_round_ = kWaveOpen;
  std::size_t forecast_done_round_ = kWaveOpen;
};

/// The full distributed system: one NodeActor per extended node on a
/// synchronous message-passing Runtime. Each iterate() performs the
/// marginal-cost wave, the local Gamma updates, and the forecast wave, and
/// reports how many message rounds the iteration took — the quantity behind
/// the paper's O(L)-vs-O(1) comparison with back-pressure (bench E4).
///
/// This runs the *pure* Section-5 algorithm (no global capacity safeguard —
/// a node only knows local state); with the paper's small eta values the
/// iterates stay strictly feasible, and the equivalence test against the
/// centralized GradientOptimizer pins both implementations together.
///
/// When `runtime_options.faults` is an active plan, waves run the hardened
/// stale-update protocol: nodes get a patience timeout of
/// (max wave depth + 2 * delay_max + 2) rounds, waves end when every live
/// node has emitted (not merely when the network is quiet — dropped
/// messages make early quiet rounds normal), and the staleness guard holds
/// Gamma updates whose inputs are older than `max_staleness` waves.
class DistributedGradientSystem {
 public:
  /// `runtime_options` selects the execution engine (thread count) and the
  /// fault plan; the computed iterates are bit-identical for every thread
  /// count — see tests/runtime_parallel_test.cpp and tests/fault_test.cpp.
  explicit DistributedGradientSystem(const xform::ExtendedGraph& xg,
                                     core::GammaOptions gamma = {},
                                     RuntimeOptions runtime_options = {},
                                     std::size_t max_staleness = 8);

  /// Starts the actors from a caller-provided routing (e.g. the centralized
  /// fixed point, or an LP vertex repaired by core::routing_from_flows)
  /// instead of the paper's all-rejected initial state — the solver layer's
  /// gradient -> distributed warm-start path. The routing must satisfy the
  /// RoutingState invariants on `xg`; the bootstrap forecast wave then
  /// derives consistent traffic/usage state before the first iteration.
  DistributedGradientSystem(const xform::ExtendedGraph& xg,
                            const core::RoutingState& initial_routing,
                            core::GammaOptions gamma = {},
                            RuntimeOptions runtime_options = {},
                            std::size_t max_staleness = 8);

  /// One full algorithm iteration; returns message rounds consumed.
  std::size_t iterate();

  void run(std::size_t iterations);

  std::size_t iterations() const { return iterations_; }
  std::size_t last_iteration_rounds() const { return last_rounds_; }
  std::size_t last_iteration_messages() const { return last_messages_; }
  /// False when a wave of the last iteration exhausted its round budget
  /// without completing (possible under fail-stop crashes or pathological
  /// delay models) — observable non-convergence instead of an abort.
  bool last_iteration_converged() const { return last_converged_; }
  const Runtime& runtime() const { return runtime_; }

  /// Installs heterogeneous link delays (see Runtime::set_delay_model).
  /// The wave protocols wait for all inputs, so the computed iterates are
  /// identical to the uniform-delay execution — only rounds per iteration
  /// grow to the longest-delay path.
  void set_delay_model(std::function<std::size_t(ActorId, ActorId)> delay) {
    runtime_.set_delay_model(std::move(delay));
  }

  /// Gathers the actors' routing fractions (observer-side).
  core::RoutingState routing_snapshot() const;

  /// Utility of the current routing, evaluated observer-side via the shared
  /// flow solver.
  double utility() const;

  // --- Fault telemetry (observer-side, summed over live actors) ---
  /// Gamma updates held by the staleness guard so far.
  std::size_t held_updates() const;
  /// Sequence-number resyncs across all nodes so far.
  std::size_t resync_events() const;
  /// Oldest input age (in waves) across all nodes right now.
  std::size_t max_input_staleness() const;

 private:
  /// Round budget per wave; generous — a healthy wave needs O(longest
  /// path) rounds, and exhaustion marks the iteration non-converged.
  static constexpr std::size_t kWaveRoundBudget = 100000;

  /// Installs a commodity-DAG-aware shard partition of the extended graph
  /// into the runtime (one shard per worker thread, edges weighted by the
  /// number of commodities that can route over them — a proxy for messages
  /// per wave). No-op at one thread, where the runtime's default single
  /// shard applies; results are identical for every partition.
  void install_partition();
  void marginal_wave();
  void forecast_wave();
  /// Runs rounds until the wave completes on every live actor (fault-free
  /// this coincides with quiescence; under drops, quiet rounds before the
  /// patience timeouts fire are normal and the loop keeps stepping).
  /// Observation is read-only and does not change the round sequence, so
  /// runs are bit-identical with it on or off.
  void drive_wave(bool marginal);
  bool wave_complete(bool marginal) const;

  // --- Observability (active only while runtime_.observing()) ---
  void obs_register_metrics();
  /// Records every live node's wave latency from its completion-round
  /// stamp (NodeActor::marginal_done_round) — one scan at wave end, not
  /// one per round, so observing adds O(n) per wave instead of
  /// O(n * rounds * commodities). Latencies are tallied locally and flushed
  /// as one observe_n per distinct value. Returns true when every live node
  /// carries a fresh stamp, which is exactly wave_complete().
  bool obs_record_wave_latencies(bool marginal, std::size_t wave_start);
  void obs_finish_wave(bool marginal, std::size_t wave_start,
                       std::size_t span);

  const xform::ExtendedGraph* xg_;
  core::GammaOptions gamma_;
  Runtime runtime_;
  std::vector<NodeActor*> actors_;  // owned by runtime_, indexed by node id
  std::size_t iterations_ = 0;
  std::size_t marginal_seq_ = 0;
  std::size_t forecast_seq_ = 0;
  std::size_t last_rounds_ = 0;
  std::size_t last_messages_ = 0;
  bool last_converged_ = true;

  /// Metric handles, valid only while runtime_.observing().
  struct ObsIds {
    obs::MetricId waves, wave_rounds, node_latency, resyncs, iterations,
        held_updates, staleness;
  } obs_ids_{};
  std::size_t obs_synced_resyncs_ = 0;
  /// Scratch for obs_record_wave_latencies (index = latency in rounds);
  /// a member so per-wave harvests reuse its high-water capacity.
  std::vector<std::uint64_t> obs_latency_tally_;
};

}  // namespace maxutil::sim
