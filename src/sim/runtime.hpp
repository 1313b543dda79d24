#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "obs/observability.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace maxutil::sim {

/// Identifier of an actor within a Runtime (dense, assigned in add order;
/// the distributed-gradient system keeps these equal to extended-graph node
/// ids).
using ActorId = std::size_t;

/// A message between actors. `tag` discriminates protocol phases;
/// `commodity` scopes per-stream protocols; `payload` carries the numeric
/// content (marginal costs, blocking flags, forecast flows, ...). Payload
/// buffers are pooled by the runtime: a delivered message's vector is
/// recycled into the next round's sends, so steady-state rounds perform no
/// per-message heap allocation.
struct Message {
  ActorId from = 0;
  ActorId to = 0;
  int tag = 0;
  std::size_t commodity = 0;
  std::vector<double> payload;
};

/// Execution knobs for the runtime. The default is one serial shard;
/// benches and large instances raise `num_threads`.
struct RuntimeOptions {
  /// Worker threads stepping shards within a round (the calling thread
  /// included). 1 = serial. Results are bit-identical for every value: actor
  /// steps are data-independent within a round and every shard queue is
  /// merged in (epoch, sender, send order) sequence regardless of
  /// scheduling.
  std::size_t num_threads = 1;

  /// Rounds with fewer queued messages than this (kickoffs: fewer actors)
  /// are stepped serially even when a thread pool exists (identical results
  /// either way — this only skips dispatch overhead on near-empty
  /// wave-tail rounds).
  std::size_t serial_cutoff = 64;

  /// Seeded fault-injection plan (drop/delay/duplicate/crash — see
  /// sim/fault.hpp and docs/RUNTIME.md). Default-constructed = no faults;
  /// the runtime then takes its fault-free fast path untouched. Link faults
  /// are drawn at the serial shard merge, in canonical sender order, so a
  /// faulted run stays bit-identical across thread counts and partitions.
  FaultPlan faults;

  /// When true (and the build did not define MAXUTIL_OBS_OFF), the runtime
  /// allocates an obs::Observability and records metrics (message/fault
  /// counters, queue depth, per-round delivery and wall-time histograms,
  /// actor steps staged in per-shard rings) plus trace spans (one per
  /// round, fault instants for crash/restart). Observation is read-only:
  /// the computed messages and actor states are bit-identical with it on or
  /// off, for every thread count (tests/property_test.cpp pins this). Off
  /// (the default) costs one null-pointer branch per round and per merge.
  bool observe = false;
};

/// Why run_until_quiet stopped.
enum class QuietStatus {
  kQuiet,       // the network quiesced
  kRoundLimit,  // the round budget ran out with messages still in flight
};

/// Result of run_until_quiet: rounds executed plus a named status, so
/// callers no longer infer budget exhaustion from quiet()==false.
struct QuietResult {
  std::size_t rounds = 0;
  QuietStatus status = QuietStatus::kQuiet;

  bool quiet() const { return status == QuietStatus::kQuiet; }
};

class Runtime;

/// Send-side interface handed to an actor during its turn. Bound to the
/// sender's shard, whose payload pool and queues the send touches.
class Outbox {
 public:
  /// Queues a message for delivery at the start of the next round (or later
  /// under a delay model). The payload is copied into a pooled buffer.
  void send(ActorId to, int tag, std::size_t commodity,
            std::span<const double> payload);

  void send(ActorId to, int tag, std::size_t commodity,
            std::initializer_list<double> payload) {
    send(to, tag, commodity,
         std::span<const double>(payload.begin(), payload.size()));
  }

  /// Current round counter of the owning runtime. Lets an actor stamp
  /// events with the round they happened in (e.g. wave-completion rounds
  /// for latency accounting) without holding a runtime back-pointer.
  std::size_t round() const;

 private:
  friend class Runtime;
  Outbox(Runtime& runtime, ActorId self, std::size_t shard)
      : runtime_(&runtime), self_(self), shard_(shard) {}

  Runtime* runtime_;
  ActorId self_;
  std::size_t shard_;  // the sender's shard (queues and payload pool)
};

/// A node in the simulated distributed system. Actors communicate only
/// through messages; the runtime invokes them once per round with the
/// messages addressed to them.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Handles this round's inbox. May send messages via `out`; they arrive
  /// next round (unit link delay, synchronous rounds).
  virtual void on_round(Outbox& out, std::span<const Message> inbox) = 0;
};

/// Synchronous-round message-passing runtime with delivery counters and
/// fail-stop node crashes — the paper's execution model (iterative rounds,
/// neighbor message exchange) made concrete and measurable. The message
/// counters back the Section-6 comparison of per-iteration message
/// complexity (O(L) marginal-cost waves vs O(1) buffer-level exchanges).
///
/// Throughput architecture (see DESIGN.md §7): actors are split into
/// shards, one pool task per shard. Each shard owns its queues, a
/// counting-sort inbox arena reused across rounds, and a payload free list,
/// so steady-state rounds allocate nothing per message. Sends that leave
/// their shard (every send, under link faults) are merged serially in
/// ascending sender order, which keeps runs reproducible regardless of
/// thread count or partition.
class Runtime {
 public:
  Runtime() : Runtime(RuntimeOptions{}) {}
  explicit Runtime(RuntimeOptions options);

  /// Registers an actor; returns its id (dense, in add order). Must precede
  /// set_partition and the first round or kickoff.
  ActorId add_actor(std::unique_ptr<Actor> actor);

  /// Installs a shard assignment (`shard_of[id]` = owning shard of actor
  /// id, values < `shards`): per-shard pending queues, inboxes, and payload
  /// pools, with cross-shard sends batched and merged serially in canonical
  /// sender order (see docs/RUNTIME.md). Requires quiescence (install
  /// before the first send). Without a call, the first round or kickoff
  /// installs the default: one shard at num_threads == 1, else contiguous
  /// actor-id blocks, one per thread. Delivery order, results, and counters
  /// are bit-identical for every assignment and shard count.
  void set_partition(std::vector<std::uint32_t> shard_of, std::size_t shards);

  /// Shards of the installed partition; 0 until set_partition or the first
  /// round or kickoff installs one.
  std::size_t shard_count() const { return shards_.size(); }

  /// Installs a heterogeneous link-delay model: a message from `a` to `b`
  /// takes `delay(a, b)` rounds (values < 1 are clamped to 1). Default is a
  /// uniform one-round delay. The gradient protocol's waves wait for all
  /// inputs, so results are delay-insensitive — only round counts change
  /// (tested in sim_test.cpp). Must be safe to call concurrently when
  /// num_threads > 1 (a pure function of the endpoints always is).
  void set_delay_model(std::function<std::size_t(ActorId, ActorId)> delay);

  std::size_t actor_count() const { return actors_.size(); }

  const RuntimeOptions& options() const { return options_; }

  /// Fail-stop crash: the actor stops executing; messages to or from it are
  /// silently dropped (and counted in dropped_messages()).
  void fail(ActorId id);
  /// Restart after fail(): the actor resumes executing with whatever local
  /// state it had when it crashed. Messages dropped while it was down stay
  /// dropped — recovery is the protocol's job (see the seq-number resync in
  /// sim/distributed_gradient.cpp). FaultPlan crash windows call this pair.
  void restore(ActorId id);
  bool is_failed(ActorId id) const;

  /// Delivers all queued messages, runs every live actor once, and queues
  /// their sends for the next round. Returns the number of messages
  /// delivered this round.
  std::size_t run_round();

  /// Runs rounds until no messages are in flight (quiescence) or
  /// `max_rounds` elapse; returns the rounds executed plus a named
  /// QuietStatus. When `strict` (the default) an exhausted budget aborts
  /// via util::ensure; with strict = false the caller gets
  /// QuietStatus::kRoundLimit instead — what the failure/recovery benches
  /// need to measure stalled protocols rather than crash.
  QuietResult run_until_quiet(std::size_t max_rounds = 100000,
                              bool strict = true);

  /// True when no messages are in flight — neither queued for delivery
  /// in any shard nor parked in the fault injector's delay
  /// buffer. Counting the delayed messages matters: without them,
  /// run_until_quiet(strict=false) could report quiescence while a
  /// fault-delayed message was still due to arrive, and its late delivery
  /// would silently restart the protocol.
  bool quiet() const { return in_flight_messages() == 0; }

  /// Messages currently in flight (queued + fault-delayed).
  std::size_t in_flight_messages() const {
    std::size_t total = fault_deferred_.size();
    for (const Shard& s : shards_) {
      total += s.local.size() + s.handoff.size();
    }
    return total;
  }

  /// Runs `fn` once for every live actor with a connected outbox — the hook
  /// for protocol phase kickoffs outside the message-driven path. Uses the
  /// thread pool (and the same deterministic send merge as run_round) when
  /// one is configured.
  void for_each_live_actor(
      const std::function<void(ActorId, Actor&, Outbox&)>& fn);

  // --- Counters (cumulative) ---
  std::size_t rounds() const { return rounds_; }
  /// Messages accepted by the runtime — before failure filtering and fault
  /// draws. Conservation law, checked by
  /// tests/property_test.cpp: sent + fault_duplicated ==
  /// delivered + dropped + in_flight.
  std::size_t sent_messages() const { return sent_messages_; }
  std::size_t delivered_messages() const { return delivered_messages_; }
  std::size_t dropped_messages() const { return dropped_messages_; }
  /// Subset of dropped_messages() lost to fault injection (vs failed
  /// endpoints).
  std::size_t fault_dropped_messages() const { return fault_dropped_; }
  /// Extra copies created by fault-injected duplication.
  std::size_t fault_duplicated_messages() const { return fault_duplicated_; }
  /// Messages that drew a nonzero extra fault delay.
  std::size_t fault_delayed_messages() const { return fault_delayed_; }
  /// Crash windows that have triggered so far.
  std::size_t fault_crashes() const { return fault_crashes_; }
  /// Scheduled restarts that have triggered so far.
  std::size_t fault_restarts() const { return fault_restarts_; }
  /// Total doubles carried in delivered payloads (a bandwidth proxy).
  std::size_t delivered_payload_doubles() const { return delivered_payload_; }
  /// Payload buffers served from the recycle free lists vs freshly heap
  /// allocated — the pool's zero-steady-state-allocation evidence.
  std::size_t payload_pool_reuses() const;
  std::size_t payload_pool_allocations() const;
  /// Wall-clock seconds spent inside run_round (cumulative / last round).
  double total_round_seconds() const { return total_round_seconds_; }
  double last_round_seconds() const { return last_round_seconds_; }
  /// Per-phase wall-clock breakdown of the round loop (delivery scatter /
  /// actor stepping / cross-shard merge). Accumulated only while
  /// observing — zero otherwise, so the off path pays no clock reads.
  double total_deliver_seconds() const { return total_deliver_seconds_; }
  double total_step_seconds() const { return total_step_seconds_; }
  double total_merge_seconds() const { return total_merge_seconds_; }

  // --- Observability (see src/obs/ and docs/OBSERVABILITY.md) ---
  /// Trace track ids used by the runtime (and, by convention, the layers
  /// above it — DistributedGradientSystem claims kObsWaveTrack).
  static constexpr std::size_t kObsRoundTrack = 0;
  static constexpr std::size_t kObsFaultTrack = 1;
  static constexpr std::size_t kObsWaveTrack = 2;

  /// Non-null iff RuntimeOptions::observe was set and the build has the
  /// layer compiled in. The registry's counters mirror the accessor values
  /// above; the staging rings are drained at every serial merge point, so
  /// reads between rounds are always current.
  obs::Observability* observability() { return obs_.get(); }
  const obs::Observability* observability() const { return obs_.get(); }
  bool observing() const { return obs_ != nullptr; }

  /// Direct read access to an actor (observer-side instrumentation only —
  /// the protocol itself must go through messages).
  Actor& actor(ActorId id);
  const Actor& actor(ActorId id) const;

 private:
  friend class Outbox;

  /// A queued message. `epoch` is the stepping sweep that produced it:
  /// sweeps are serially numbered, and within a sweep every queue receives
  /// sends in ascending sender order, so each shard queue is totally
  /// ordered by (epoch, message.from). Delivery is a two-way merge of the
  /// shard's queues on that key — which replays the serial global enqueue
  /// order exactly (the two queues split senders by shard, so keys never
  /// tie across them). Under link faults `local` stays empty and the
  /// `handoff` queue alone is the serial order.
  struct Pending {
    std::size_t due;  // first round in which the message may be delivered
    std::size_t epoch;
    Message message;
  };

  /// A payload buffer recycled by a shard that did not acquire it (a
  /// cross-shard delivery). Routed back to the sender's shard pool at the
  /// serial merge point, so every pool's level is conserved and steady
  /// state allocates nothing.
  struct PayloadReturn {
    ActorId from;
    std::vector<double> payload;
  };

  /// All state owned by one shard. During a parallel round exactly one
  /// pool task touches a given shard (reads of shared state — failed_,
  /// epoch_, rounds_, delay_ — are const for the whole sweep), so the hot
  /// path needs no locks and no atomics.
  struct Shard {
    std::uint32_t index = 0;
    std::vector<ActorId> actors;  // owned actor ids, ascending

    // Pending queues: `local` is fed by this shard's own stepping,
    // `handoff` by the serial merge (cross-shard sends, and every send
    // under link faults, plus released fault-delayed messages).
    std::vector<Pending> local;
    std::vector<Pending> handoff;

    std::vector<Message> inbox;  // this round's deliveries, counting-sorted
    std::vector<Message> cross;  // sends for the serial merge (asc. sender)
    std::size_t cross_read = 0;  // k-way merge cursor into `cross`
    std::vector<PayloadReturn> returns;
    std::vector<std::size_t> counts;  // delivery scratch, |actors| entries

    // Round-local tallies, folded into the global counters at the serial
    // merge point (so parallel tasks never touch shared counters).
    std::size_t delivered = 0;
    std::size_t delivered_payload = 0;
    std::size_t sent = 0;
    std::size_t dropped = 0;
    double deliver_seconds = 0.0;  // accumulated only while observing
    double step_seconds = 0.0;
  };

  /// Per-shard recycle pool for payload vectors. Touched only by its
  /// shard's task during parallel stepping, and by the serial merge.
  struct PayloadShard {
    std::vector<std::vector<double>> free_list;
    std::size_t reuses = 0;
    std::size_t allocations = 0;
  };

  /// Routes one send from the stepping sweep: intra-shard sends are
  /// filtered, due-stamped, and queued entirely within the sender's shard;
  /// cross-shard sends — and every send while link faults are on — are
  /// buffered in `cross` for the serial merge.
  void record_send(const Outbox& outbox, ActorId to, int tag,
                   std::size_t commodity, std::span<const double> payload);
  /// Serial merge tail of one buffered send: counts it, failure-filters,
  /// applies fault injection, stamps the due round, and queues it. All
  /// fault RNG draws happen here, in canonical sender order, which is why
  /// a faulted run is bit-identical across thread counts and partitions.
  void enqueue_now(Message message);
  /// Queues `message` due in `base + extra` rounds: messages with no fault
  /// delay (extra == 0) go straight to the recipient shard's handoff queue,
  /// fault-delayed ones to the fault_deferred_ holding buffer.
  void schedule(Message message, std::size_t base, std::size_t extra);
  /// Moves now-due fault-delayed messages into their recipient shard's
  /// handoff queue (start of round).
  void release_fault_deferred();
  /// Triggers crash/restart windows whose round has arrived (start of
  /// round).
  void apply_crash_schedule();
  std::vector<double> acquire_payload(std::size_t shard,
                                      std::span<const double> data);
  /// Installs the default partition unless one is already installed.
  void ensure_partition();

  /// Returns a delivered payload to its home pool: the sender's own shard
  /// pool directly, or `s.returns` when the sender lives elsewhere.
  void release_payload(ActorId from, std::vector<double>&& payload, Shard& s);
  /// Two-queue ordered merge delivery into the shard's inbox (counting
  /// sort per owned actor), compacting not-yet-due messages in place.
  void shard_deliver(Shard& s);
  /// Steps the shard's live actors in ascending id order (the hot round
  /// loop — no std::function).
  void shard_step_round(Shard& s);
  /// Generic sweep over the shard's live actors (kickoff path).
  void shard_step_fn(Shard& s,
                     const std::function<void(ActorId, Actor&, Outbox&)>& fn);
  /// Recycles the shard's dead inbox payloads after stepping.
  void shard_recycle(Shard& s);
  /// Serial tail of every sweep: k-way merges the `cross` buffers in
  /// ascending global sender order through enqueue_now, routes payload
  /// returns home, and folds the per-shard tallies into the global
  /// counters. Returns messages delivered this sweep (from the folded
  /// tallies).
  std::size_t merge_cross_and_fold();
  /// Queued messages across all shard queues (the parallel-cutoff hint).
  std::size_t queued() const;
  /// Delivers, steps, and recycles every shard, then merges.
  std::size_t step_round();
  /// Runs `fn` over live actors and merges their sends. `work_hint` gates
  /// the serial cutoff.
  void step_live_actors(
      const std::function<void(ActorId, Actor&, Outbox&)>& fn,
      std::size_t work_hint);

  /// Registers the runtime's metric catalog (ctor, observe path only).
  void obs_register_metrics();
  /// Pushes counter deltas into the registry and drains the per-shard
  /// staging rings — called at the serial merge points (end of
  /// step_live_actors / round).
  void obs_sync_counters();

  RuntimeOptions options_;
  /// options_.faults.link_faults(), read once per send.
  bool link_faults_ = false;
  std::unique_ptr<util::ThreadPool> pool_;

  std::vector<std::unique_ptr<Actor>> actors_;
  // SoA mirrors of the per-actor hot state: raw actor pointers (skips the
  // unique_ptr indirection in the step loop) and byte-wide failure flags
  // (vector<bool> bit ops are too slow for the per-message filter).
  std::vector<Actor*> actors_raw_;
  std::vector<std::uint8_t> failed_;
  /// Fault-delayed messages not yet due; kept out of the shard queues so
  /// the per-round delivery scan stays proportional to near-term traffic.
  std::vector<Pending> fault_deferred_;
  std::function<std::size_t(ActorId, ActorId)> delay_;
  util::Rng fault_rng_;
  // Once-only latches per FaultPlan crash window (parallel to
  // options_.faults.crashes).
  std::vector<char> crash_fired_;
  std::vector<char> restart_fired_;

  std::vector<PayloadShard> payload_shards_;  // one per shard
  std::vector<Shard> shards_;  // empty until a partition is installed
  std::vector<std::uint32_t> shard_of_;     // actor id -> shard
  std::vector<std::uint32_t> local_index_;  // actor id -> index in its shard
  // SoA inbox views: per-actor span into the owning shard's inbox buffer,
  // rewritten by that shard every round.
  std::vector<Message*> inbox_ptr_;
  std::vector<std::uint32_t> inbox_len_;
  /// Serial number of the current stepping sweep (rounds and kickoffs);
  /// bumped at the start of each sweep, it is the major delivery-order key.
  std::size_t epoch_ = 0;

  std::size_t rounds_ = 0;
  std::size_t sent_messages_ = 0;
  std::size_t delivered_messages_ = 0;
  std::size_t dropped_messages_ = 0;
  std::size_t fault_dropped_ = 0;
  std::size_t fault_duplicated_ = 0;
  std::size_t fault_delayed_ = 0;
  std::size_t fault_crashes_ = 0;
  std::size_t fault_restarts_ = 0;
  std::size_t delivered_payload_ = 0;
  double total_round_seconds_ = 0.0;
  double last_round_seconds_ = 0.0;
  double total_deliver_seconds_ = 0.0;
  double total_step_seconds_ = 0.0;
  double total_merge_seconds_ = 0.0;

  /// Observability state; null unless options_.observe (and the layer is
  /// compiled in). Every instrumented site is behind an `if (obs_)`.
  std::unique_ptr<obs::Observability> obs_;
  /// Metric handles, valid only while obs_ is non-null.
  struct ObsIds {
    obs::MetricId rounds, sent, delivered, dropped, fault_dropped,
        fault_duplicated, fault_delayed, fault_crashes, fault_restarts,
        actor_steps, queue_depth, round_delivered, round_us;
  } obs_ids_{};
  /// Counter values already pushed to the registry (delta sync).
  struct ObsSynced {
    std::size_t rounds = 0, sent = 0, delivered = 0, dropped = 0,
                fault_dropped = 0, fault_duplicated = 0, fault_delayed = 0,
                fault_crashes = 0, fault_restarts = 0;
  } obs_synced_;
};

}  // namespace maxutil::sim
