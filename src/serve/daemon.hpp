#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ctrl/controller.hpp"
#include "serve/protocol.hpp"

namespace maxutil::serve {

/// What the daemon answered for one request (docs/SERVE.md §3).
enum class Outcome {
  kAdmit,     // admit request: admitted share >= admit_share
  kDegrade,   // admit request: between deny_share and admit_share
  kDeny,      // admit request: share below deny_share (or batch solve failed);
              // the commodity is reverted out of the plan
  kApplied,   // topology event folded into the batch and applied
  kRejected,  // request failed validation; state untouched
  kReport,    // query answered from the post-batch standing plan
};

const char* to_string(Outcome outcome);

/// One decided request. `decided_at` and `virtual_latency` come from the
/// virtual clock (decided_at = batch open time + window), so the record —
/// and the whole decision log — is a pure function of the input stream.
/// `wall_seconds` is the real re-solve time of the request's batch and is
/// reported only through the latency metrics, never in the log.
struct DecisionRecord {
  Request request;
  Outcome outcome = Outcome::kRejected;
  std::size_t batch = 0;        // 0-based batch ordinal
  std::size_t decided_at = 0;   // virtual decision timestamp
  double requested = 0.0;       // admit/query: the asked-for source rate
  double admitted = 0.0;        // admit/query: rate the plan carries
  double share = 0.0;           // admitted / requested (0 when requested 0)
  double utility = 0.0;         // total utility after the batch settled
  double wall_seconds = 0.0;    // the batch's re-solve wall time
  std::string reason;           // rejection / denial cause

  /// Canonical deterministic log line, e.g.
  /// "t=12 batch=3 admit=video@12 -> admit share=1 utility=34.5".
  std::string line() const;
};

struct ServeOptions {
  ctrl::ControllerOptions controller;

  /// Coalescing window in virtual time units: a batch opened by the first
  /// pending request at time T flushes when a request arrives at or past
  /// T + window (or when the stream ends). 0 = flush every request
  /// individually (lowest latency, most re-solves).
  std::size_t window = 0;

  /// Admission thresholds on admitted/requested share.
  double admit_share = 0.95;
  double deny_share = 0.05;

  /// Overload bound: when the open batch already holds this many pending
  /// requests, further arrivals are denied *immediately* (outcome kDeny,
  /// reason "overloaded ... (retryable)") without joining the batch, so a
  /// re-solve backlog can never grow the next solve without bound. The
  /// denial is a pure function of the input stream — replay-deterministic.
  /// 0 = unbounded (the default).
  std::size_t max_pending = 0;

  /// Record one Chrome trace span per batch (deterministic timestamps).
  bool record_trace = false;
};

/// Aggregate over a serve run (docs/SERVE.md §5).
struct ServeReport {
  std::vector<DecisionRecord> decisions;
  std::size_t batches = 0;
  std::size_t solves = 0;  // apply_batch calls (re-solves + revert solves)
  std::size_t admits = 0;
  std::size_t degrades = 0;
  std::size_t denies = 0;
  std::size_t applied = 0;
  std::size_t rejected = 0;
  std::size_t queries = 0;
  /// Batches flushed by a timer or end-of-stream rather than an arrival at
  /// or past T + window (the serve_batch_forced_flush counter).
  std::size_t forced_flushes = 0;
  /// Requests denied immediately by the max_pending overload bound.
  std::size_t overload_denied = 0;
  double initial_utility = 0.0;
  double final_utility = 0.0;
  double solve_wall_seconds = 0.0;  // total wall spent inside re-solves

  // Virtual decision latency (decided_at - request time, time units) and
  // wall decision latency (the deciding batch's solve wall time, seconds).
  double virtual_p50 = 0.0;
  double virtual_p99 = 0.0;
  double wall_p50 = 0.0;
  double wall_p99 = 0.0;

  /// Decisions per wall-second of solve time (0 when no solve ran).
  double decisions_per_second() const;

  /// The deterministic replay artifact: every DecisionRecord::line(),
  /// newline-terminated. Bit-identical across thread counts.
  std::string decision_log() const;

  /// Human-readable aggregate (CLI --report).
  std::string summary() const;

  /// Machine-readable summary (CLI --json): counts, latency percentiles,
  /// throughput, and the final utility. Valid JSON by construction.
  void write_json(std::ostream& out) const;
};

/// The admission-serving event loop (ISSUE 7 tentpole, docs/SERVE.md).
/// Wraps a ctrl::Controller: requests stream in via submit() in timestamp
/// order, coalesce into batches under `window`, and each flush applies the
/// batch's topology events plus staged admit arrivals through
/// Controller::apply_batch — one rebuild, one warm-started re-solve —
/// then answers every pending request from the updated plan. Denied
/// admissions are reverted with a second (depart) batch, so a flush costs
/// at most two solves regardless of batch size.
///
/// Deterministic by construction: decisions depend only on the request
/// stream and the solver (bit-identical across thread counts with the
/// distributed backend); wall time feeds metrics only.
class Daemon {
 public:
  Daemon(const stream::StreamNetwork& baseline, ServeOptions options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Feeds one request. Throws util::CheckError if its timestamp precedes
  /// an already-submitted one; any other validation failure becomes a
  /// kRejected decision, not an exception — a live daemon must survive bad
  /// input. May flush the pending batch first (window expiry).
  void submit(const Request& request);

  /// Advances the virtual clock to `time` without submitting anything:
  /// flushes the open batch iff `time >= open time + window`, exactly as an
  /// arrival at `time` would. The durable wrapper (serve/wal.hpp) calls this
  /// *before* appending a request's WAL record, so every flush-point
  /// snapshot is taken with an empty pending set and covers precisely the
  /// records appended so far. Idempotent; does not move the ordering bound.
  void advance_to(std::size_t time);

  /// Flushes the pending batch (no-op when nothing is pending). A flush
  /// from here — the wall-clock timer and end-of-stream path — counts as
  /// *forced* (serve_batch_forced_flush), unlike the arrival-driven flushes
  /// inside submit()/advance_to().
  void flush();

  /// Flushes and returns the final report. submit() after finish() throws.
  /// Asserts the trailing-batch contract: after finish() nothing is pending
  /// — a batch left open by the stream's end has been force-flushed.
  const ServeReport& finish();

  /// Replays a whole script: submit every request, then finish().
  const ServeReport& run(const Script& script);

  const ServeReport& report() const { return report_; }
  const ServeOptions& options() const { return options_; }
  const ctrl::Controller& controller() const { return *controller_; }
  ctrl::Controller& controller() { return *controller_; }

  bool batch_open() const { return batch_open_; }
  std::size_t pending_count() const { return pending_.size(); }
  std::size_t last_time() const { return last_time_; }

  /// Serializes everything a restarted daemon needs to continue the run
  /// bit-identically — batch ordinal, ordering bound, outcome counters, and
  /// the controller's full state (hexfloat-exact) — as a text blob. Only
  /// legal at a settled point (no open batch, nothing pending): the durable
  /// wrapper snapshots at flush boundaries. Decided records themselves are
  /// not serialized; the WAL's decisions.log carries those.
  void export_snapshot(std::ostream& out) const;

  /// Restores an export_snapshot blob into a freshly constructed daemon.
  /// After import the daemon continues numbering batches and enforcing
  /// time-ordering where the exporter stopped; report().decisions restarts
  /// empty (recovery re-derives the tail from the WAL). Wall-clock latency
  /// stats and process-local metric counters restart at zero.
  void import_snapshot(std::istream& in);

 private:
  struct Pending {
    Request request;
    bool staged = false;          // accepted into the batch's event list
    std::string reject_reason;    // non-empty => decided kRejected
  };

  void open_batch(std::size_t time);
  void decide_batch(bool forced);
  /// Fills record.requested/admitted/share from the current plan; false
  /// when the commodity is absent from the current network.
  bool read_rates(DecisionRecord& record) const;
  DecisionRecord decide_admit(const Pending& pending,
                              const ctrl::EventOutcome& outcome,
                              std::vector<ctrl::ChurnEvent>& reverts);
  void finalize_record(DecisionRecord record);
  void register_metrics();

  ServeOptions options_;
  std::unique_ptr<ctrl::Controller> controller_;
  ServeReport report_;
  std::vector<Pending> pending_;
  std::vector<double> virtual_latencies_;
  std::vector<double> wall_latencies_;
  std::size_t open_time_ = 0;
  std::size_t last_time_ = 0;
  bool batch_open_ = false;
  bool finished_ = false;
  /// Set by import_snapshot: the time-ordering bound applies from the very
  /// first post-restore submit even though report().decisions is empty.
  bool restored_ = false;

  obs::MetricId m_requests_ = 0;
  obs::MetricId m_admits_ = 0;
  obs::MetricId m_degrades_ = 0;
  obs::MetricId m_denies_ = 0;
  obs::MetricId m_applied_ = 0;
  obs::MetricId m_rejected_ = 0;
  obs::MetricId m_queries_ = 0;
  obs::MetricId m_batches_ = 0;
  obs::MetricId m_solves_ = 0;
  obs::MetricId m_forced_flush_ = 0;
  obs::MetricId m_overload_ = 0;
  obs::MetricId m_batch_size_ = 0;
  obs::MetricId m_virtual_latency_ = 0;
  obs::MetricId m_wall_latency_us_ = 0;
  obs::MetricId m_utility_ = 0;
};

/// What the acceptor (serve/acceptor.hpp) pushes ordered requests into —
/// either a bare Daemon (DaemonSink) or the durable WAL wrapper
/// (serve/wal.hpp's Durable), which persists each request before it enters
/// a batch. The acceptor never talks to the Daemon directly, so durability
/// is a composition choice, not a code path.
class ServeSink {
 public:
  virtual ~ServeSink() = default;

  /// Accepts the next request in boundary total order. Throws
  /// util::CheckError on an out-of-order timestamp (the caller answers the
  /// client with an error line and drops the request).
  virtual void submit(const Request& request) = 0;

  /// Forces the open batch to flush now (wall-clock timer, end-of-stream).
  virtual void force_flush() = 0;

  virtual Daemon& daemon() = 0;

  /// The fencing epoch clients must match; 0 when the sink is not durable
  /// (no persisted epoch — fencing is vacuous).
  virtual std::uint64_t epoch() const = 0;

  /// Requests ever accepted into the sink — across restarts for a durable
  /// sink (the WAL sequence number). The acceptor seeds its --stamp arrival
  /// ordinal from this so the stamped virtual clock continues monotonically
  /// after a recovery instead of restarting at 0 (docs/SERVE.md §9).
  virtual std::uint64_t accepted() const = 0;
};

/// The non-durable sink: forwards straight to a Daemon.
class DaemonSink final : public ServeSink {
 public:
  explicit DaemonSink(Daemon& daemon) : daemon_(&daemon) {}

  void submit(const Request& request) override { daemon_->submit(request); }
  void force_flush() override { daemon_->flush(); }
  Daemon& daemon() override { return *daemon_; }
  std::uint64_t epoch() const override { return 0; }
  std::uint64_t accepted() const override {
    return daemon_->report().decisions.size() + daemon_->pending_count();
  }

 private:
  Daemon* daemon_;
};

}  // namespace maxutil::serve
