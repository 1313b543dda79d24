#include "serve/daemon.hpp"

#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/hexfloat.hpp"
#include "util/stats.hpp"

namespace maxutil::serve {

using maxutil::util::ensure;
using maxutil::util::hex_double;
using maxutil::util::read_double;
using maxutil::util::read_size;

namespace {

/// Shortest round-trip-ish rendering used everywhere a decision value is
/// logged: %.9g never emits locale separators and keeps the log compact.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Decision reason of a batch whose re-solve failed: the solver's own
/// message, which the controller already stripped of any check preamble,
/// so the log carries no build paths.
std::string failed_solve_reason(const ctrl::EventOutcome& outcome) {
  return "re-solve failed: " + outcome.message;
}

/// Error-message prefix of the snapshot header reader.
constexpr std::string_view kSnapshot = "serve snapshot";

}  // namespace

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kAdmit: return "admit";
    case Outcome::kDegrade: return "degrade";
    case Outcome::kDeny: return "deny";
    case Outcome::kApplied: return "applied";
    case Outcome::kRejected: return "rejected";
    case Outcome::kReport: return "report";
  }
  return "?";
}

std::string DecisionRecord::line() const {
  std::ostringstream out;
  out << "t=" << decided_at << " batch=" << batch << " " << request.describe()
      << " -> " << to_string(outcome);
  const bool rate_bearing = outcome == Outcome::kAdmit ||
                            outcome == Outcome::kDegrade ||
                            outcome == Outcome::kDeny ||
                            outcome == Outcome::kReport;
  if (rate_bearing) {
    out << " requested=" << fmt(requested) << " admitted=" << fmt(admitted)
        << " share=" << fmt(share);
  }
  if (outcome != Outcome::kRejected) out << " utility=" << fmt(utility);
  if (!reason.empty()) out << " reason=\"" << reason << "\"";
  return out.str();
}

double ServeReport::decisions_per_second() const {
  if (solve_wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(decisions.size()) / solve_wall_seconds;
}

std::string ServeReport::decision_log() const {
  std::string out;
  for (const DecisionRecord& record : decisions) {
    out += record.line();
    out += "\n";
  }
  return out;
}

std::string ServeReport::summary() const {
  std::ostringstream out;
  out << "serve: " << decisions.size() << " decisions in " << batches
      << " batches (" << solves << " solves, " << forced_flushes
      << " forced flushes)\n"
      << "  admit=" << admits << " degrade=" << degrades << " deny=" << denies
      << " applied=" << applied << " rejected=" << rejected
      << " query=" << queries << " overload_denied=" << overload_denied
      << "\n"
      << "  utility " << fmt(initial_utility) << " -> " << fmt(final_utility)
      << "\n"
      << "  virtual latency p50=" << fmt(virtual_p50)
      << " p99=" << fmt(virtual_p99) << " (time units)\n"
      << "  wall latency p50=" << fmt(wall_p50 * 1e3)
      << "ms p99=" << fmt(wall_p99 * 1e3) << "ms, "
      << fmt(decisions_per_second()) << " decisions/sec\n";
  return out.str();
}

void ServeReport::write_json(std::ostream& out) const {
  out << "{\n"
      << "  \"decisions\": " << decisions.size() << ",\n"
      << "  \"batches\": " << batches << ",\n"
      << "  \"solves\": " << solves << ",\n"
      << "  \"admits\": " << admits << ",\n"
      << "  \"degrades\": " << degrades << ",\n"
      << "  \"denies\": " << denies << ",\n"
      << "  \"applied\": " << applied << ",\n"
      << "  \"rejected\": " << rejected << ",\n"
      << "  \"queries\": " << queries << ",\n"
      << "  \"forced_flushes\": " << forced_flushes << ",\n"
      << "  \"overload_denied\": " << overload_denied << ",\n"
      << "  \"virtual_latency_p50\": " << fmt(virtual_p50) << ",\n"
      << "  \"virtual_latency_p99\": " << fmt(virtual_p99) << ",\n"
      << "  \"wall_latency_p50_seconds\": " << fmt(wall_p50) << ",\n"
      << "  \"wall_latency_p99_seconds\": " << fmt(wall_p99) << ",\n"
      << "  \"solve_wall_seconds\": " << fmt(solve_wall_seconds) << ",\n"
      << "  \"decisions_per_second\": " << fmt(decisions_per_second()) << ",\n"
      << "  \"initial_utility\": " << fmt(initial_utility) << ",\n"
      << "  \"final_utility\": " << fmt(final_utility) << "\n"
      << "}\n";
}

Daemon::Daemon(const stream::StreamNetwork& baseline, ServeOptions options)
    : options_(std::move(options)) {
  // The serve decision is share-threshold based; the controller's LP
  // reference solve would double every batch's cost for SLO fields serve
  // never reads.
  options_.controller.lp_reference = false;
  options_.controller.record_trace = false;  // serve records its own spans
  ensure(options_.deny_share <= options_.admit_share,
         "serve: deny_share " + fmt(options_.deny_share) +
             " exceeds admit_share " + fmt(options_.admit_share));
  controller_ =
      std::make_unique<ctrl::Controller>(baseline, options_.controller);
  report_.initial_utility = controller_->utility();
  report_.final_utility = report_.initial_utility;
  register_metrics();
}

Daemon::~Daemon() = default;

void Daemon::register_metrics() {
  obs::MetricsRegistry& m = controller_->metrics();
  m_requests_ = m.counter("serve_requests_total", "protocol lines accepted");
  m_admits_ = m.counter("serve_admitted_total", "admit answered admit");
  m_degrades_ = m.counter("serve_degraded_total", "admit answered degrade");
  m_denies_ = m.counter("serve_denied_total", "admit answered deny");
  m_applied_ = m.counter("serve_applied_total", "topology events applied");
  m_rejected_ = m.counter("serve_rejected_total", "requests failing validation");
  m_queries_ = m.counter("serve_queries_total", "query requests answered");
  m_batches_ = m.counter("serve_batches_total", "coalesced batches flushed");
  m_solves_ = m.counter("serve_solves_total",
                        "apply_batch calls (staged batches + denial "
                        "reverts; exact restores included)");
  m_forced_flush_ =
      m.counter("serve_batch_forced_flush",
                "batches flushed by a timer or end-of-stream, not an arrival");
  m_overload_ = m.counter("serve_overload_denied_total",
                          "requests denied by the max_pending overload bound");
  m_batch_size_ = m.histogram("serve_batch_size", {1, 2, 4, 8, 16, 32, 64},
                              "requests coalesced per batch");
  m_virtual_latency_ =
      m.histogram("serve_decision_latency", {0, 1, 2, 4, 8, 16, 32, 64},
                  "virtual decision latency (time units)");
  m_wall_latency_us_ = m.histogram(
      "serve_decision_wall_us", {100, 1e3, 1e4, 1e5, 1e6, 1e7},
      "wall decision latency (us; the deciding batch's solve time)");
  m_utility_ = m.gauge("serve_utility", "total utility after the last batch");
}

void Daemon::open_batch(std::size_t time) {
  open_time_ = time;
  batch_open_ = true;
}

void Daemon::submit(const Request& request) {
  ensure(!finished_, "serve: submit after finish");
  const bool first =
      !restored_ && report_.decisions.empty() && pending_.empty();
  ensure(first || request.time() >= last_time_,
         "serve: request '" + request.describe() + "' at @" +
             std::to_string(request.time()) + " precedes @" +
             std::to_string(last_time_) + "; streams must be time-ordered");
  if (batch_open_ && request.time() >= open_time_ + options_.window) {
    decide_batch(/*forced=*/false);
  }
  if (options_.max_pending != 0 && pending_.size() >= options_.max_pending) {
    // Overload: deny immediately without joining the batch. The decision is
    // a pure function of the stream (pending count at this arrival), so
    // replay reproduces it bit-identically.
    DecisionRecord record;
    record.request = request;
    record.outcome = Outcome::kDeny;
    record.batch = report_.batches;  // the batch it could not join
    record.decided_at = request.time();
    record.utility = controller_->utility();
    record.reason = "overloaded: " + std::to_string(pending_.size()) +
                    " requests pending (retryable)";
    ++report_.overload_denied;
    controller_->metrics().add(m_overload_);
    finalize_record(std::move(record));
    last_time_ = request.time();
    return;
  }
  if (!batch_open_) open_batch(request.time());
  last_time_ = request.time();

  Pending pending;
  pending.request = request;
  if (request.kind == RequestKind::kQuery) {
    // Queries are answered from the post-batch plan; the only validation
    // is that the commodity exists in the baseline universe.
    if (!controller_->find_commodity(request.commodity()).has_value()) {
      pending.reject_reason = "serve query: unknown commodity '" +
                              request.commodity() +
                              "' (baseline names or ids)";
    }
  } else {
    std::vector<ctrl::ChurnEvent> staged;
    for (const Pending& p : pending_) {
      if (p.staged) staged.push_back(p.request.event);
    }
    const std::string reason = controller_->check_event(request.event, staged);
    if (reason.empty()) {
      pending.staged = true;
    } else {
      pending.reject_reason = reason;
    }
  }
  pending_.push_back(std::move(pending));
}

bool Daemon::read_rates(DecisionRecord& record) const {
  // The commodity's id in the current network (rebuilds renumber
  // commodities).
  const std::optional<stream::CommodityId> j = controller_->find_commodity(
      record.request.commodity(), /*in_current=*/true);
  if (j.has_value()) {
    record.requested = controller_->network().lambda(*j);
    record.admitted = controller_->admitted()[*j];
  }
  record.share =
      record.requested > 0.0 ? record.admitted / record.requested : 0.0;
  return j.has_value();
}

DecisionRecord Daemon::decide_admit(const Pending& pending,
                                    const ctrl::EventOutcome& outcome,
                                    std::vector<ctrl::ChurnEvent>& reverts) {
  DecisionRecord record;
  record.request = pending.request;

  if (!read_rates(record)) {
    // A later depart in the same batch removed the commodity again before
    // the decision point; there is nothing to admit and nothing to revert.
    record.outcome = Outcome::kDeny;
    record.reason = "departed again before the batch decision";
    return record;
  }

  ctrl::ChurnEvent depart;
  depart.kind = ctrl::ChurnEventKind::kDepart;
  depart.commodity = pending.request.commodity();
  depart.time = pending.request.time();

  if (outcome.status == solver::Status::kFailed) {
    record.outcome = Outcome::kDeny;
    record.reason = failed_solve_reason(outcome);
    reverts.push_back(depart);
  } else if (record.share >= options_.admit_share) {
    record.outcome = Outcome::kAdmit;
  } else if (record.share >= options_.deny_share) {
    record.outcome = Outcome::kDegrade;
  } else {
    record.outcome = Outcome::kDeny;
    record.reason = "admitted share " + fmt(record.share) +
                    " below deny_share " + fmt(options_.deny_share);
    reverts.push_back(depart);
  }
  return record;
}

void Daemon::advance_to(std::size_t time) {
  ensure(!finished_, "serve: advance_to after finish");
  if (batch_open_ && time >= open_time_ + options_.window) {
    decide_batch(/*forced=*/false);
  }
}

void Daemon::decide_batch(bool forced) {
  if (pending_.empty()) {
    batch_open_ = false;
    return;
  }
  if (forced) {
    ++report_.forced_flushes;
    controller_->metrics().add(m_forced_flush_);
  }
  const std::size_t batch = report_.batches;
  const std::size_t decided_at = open_time_ + options_.window;

  std::vector<ctrl::ChurnEvent> staged;
  for (const Pending& p : pending_) {
    if (p.staged) staged.push_back(p.request.event);
  }

  ctrl::EventOutcome outcome;
  outcome.status = solver::Status::kConverged;  // empty batch: nothing moved
  double wall = 0.0;
  if (!staged.empty()) {
    outcome = controller_->apply_batch(staged);
    ++report_.solves;
    controller_->metrics().add(m_solves_);
    wall += outcome.wall_seconds;
  }

  std::vector<DecisionRecord> records;
  std::vector<ctrl::ChurnEvent> reverts;
  records.reserve(pending_.size());
  for (const Pending& pending : pending_) {
    DecisionRecord record;
    if (!pending.reject_reason.empty()) {
      record.request = pending.request;
      record.outcome = Outcome::kRejected;
      record.reason = pending.reject_reason;
    } else {
      switch (pending.request.kind) {
        case RequestKind::kTopology:
          record.request = pending.request;
          record.outcome = Outcome::kApplied;
          if (outcome.status == solver::Status::kFailed) {
            record.reason = failed_solve_reason(outcome);
          }
          break;
        case RequestKind::kAdmit:
          record = decide_admit(pending, outcome, reverts);
          break;
        case RequestKind::kQuery:
          record.request = pending.request;
          record.outcome = Outcome::kReport;  // filled after the revert pass
          break;
      }
    }
    records.push_back(std::move(record));
  }

  if (!reverts.empty()) {
    const ctrl::EventOutcome undo = controller_->apply_batch(reverts);
    ++report_.solves;
    controller_->metrics().add(m_solves_);
    wall += undo.wall_seconds;
  }

  // Queries read the settled plan (denials already reverted out).
  const double utility = controller_->utility();
  for (DecisionRecord& record : records) {
    if (record.outcome == Outcome::kReport && !read_rates(record)) {
      record.reason = "absent";
    }
    record.batch = batch;
    record.decided_at = decided_at;
    record.utility = utility;
    record.wall_seconds = wall;
    finalize_record(std::move(record));
  }

  obs::MetricsRegistry& m = controller_->metrics();
  m.add(m_batches_);
  m.observe(m_batch_size_, static_cast<double>(pending_.size()));
  m.set(m_utility_, utility);
  if (options_.record_trace) {
    // Deterministic timestamps: virtual decision time in "ms", iteration
    // count as the span width — same convention as the churn spans.
    controller_->tracer().complete(
        "batch[" + std::to_string(pending_.size()) + "]", "serve",
        /*track=*/1, 1000.0 * static_cast<double>(decided_at),
        static_cast<double>(outcome.iterations == 0 ? 1 : outcome.iterations),
        {{"batch", static_cast<double>(batch)},
         {"utility", utility}});
  }

  ++report_.batches;
  report_.final_utility = utility;
  pending_.clear();
  batch_open_ = false;
}

void Daemon::finalize_record(DecisionRecord record) {
  obs::MetricsRegistry& m = controller_->metrics();
  m.add(m_requests_);
  const double virtual_latency =
      static_cast<double>(record.decided_at - record.request.time());
  virtual_latencies_.push_back(virtual_latency);
  wall_latencies_.push_back(record.wall_seconds);
  m.observe(m_virtual_latency_, virtual_latency);
  m.observe(m_wall_latency_us_, record.wall_seconds * 1e6);
  switch (record.outcome) {
    case Outcome::kAdmit: ++report_.admits; m.add(m_admits_); break;
    case Outcome::kDegrade: ++report_.degrades; m.add(m_degrades_); break;
    case Outcome::kDeny: ++report_.denies; m.add(m_denies_); break;
    case Outcome::kApplied: ++report_.applied; m.add(m_applied_); break;
    case Outcome::kRejected: ++report_.rejected; m.add(m_rejected_); break;
    case Outcome::kReport: ++report_.queries; m.add(m_queries_); break;
  }
  report_.decisions.push_back(std::move(record));
}

void Daemon::flush() {
  if (batch_open_) decide_batch(/*forced=*/true);
}

const ServeReport& Daemon::finish() {
  if (!finished_) {
    flush();
    // Trailing-batch contract (docs/SERVE.md §2): a batch left open at
    // end-of-stream has been force-flushed; nothing is ever dropped.
    ensure(!batch_open_ && pending_.empty(),
           "serve: finish left a batch open; trailing flush is mandatory");
    finished_ = true;
    // Wall seconds were recorded per decision; the total is per batch, so
    // sum one contribution per batch via the unique (batch, wall) pairs.
    double total = 0.0;
    std::size_t seen = static_cast<std::size_t>(-1);
    for (const DecisionRecord& record : report_.decisions) {
      if (record.batch != seen) {
        total += record.wall_seconds;
        seen = record.batch;
      }
    }
    report_.solve_wall_seconds = total;
    if (!virtual_latencies_.empty()) {
      report_.virtual_p50 = util::percentile(virtual_latencies_, 50.0);
      report_.virtual_p99 = util::percentile(virtual_latencies_, 99.0);
      report_.wall_p50 = util::percentile(wall_latencies_, 50.0);
      report_.wall_p99 = util::percentile(wall_latencies_, 99.0);
    }
    report_.final_utility = controller_->utility();
  }
  return report_;
}

const ServeReport& Daemon::run(const Script& script) {
  for (const Request& request : script.requests) submit(request);
  return finish();
}

void Daemon::export_snapshot(std::ostream& out) const {
  ensure(!batch_open_ && pending_.empty(),
         "serve snapshot: export requires a settled daemon (no open batch)");
  out << "maxutil-serve-daemon 1\n";
  out << report_.batches << " " << report_.solves << " " << last_time_ << "\n";
  out << report_.admits << " " << report_.degrades << " " << report_.denies
      << " " << report_.applied << " " << report_.rejected << " "
      << report_.queries << " " << report_.forced_flushes << " "
      << report_.overload_denied << "\n";
  out << hex_double(report_.initial_utility) << "\n";
  controller_->export_state(out);
  out << "end-serve\n";
}

void Daemon::import_snapshot(std::istream& in) {
  ensure(report_.decisions.empty() && pending_.empty() && !batch_open_ &&
             !finished_,
         "serve snapshot: import requires a freshly constructed daemon");
  std::string magic;
  std::size_t version = 0;
  in >> magic >> version;
  ensure(magic == "maxutil-serve-daemon" && version == 1,
         "serve snapshot: bad header '" + magic + "'");
  const std::size_t batches = read_size(in, kSnapshot);
  const std::size_t solves = read_size(in, kSnapshot);
  const std::size_t last_time = read_size(in, kSnapshot);
  const std::size_t admits = read_size(in, kSnapshot);
  const std::size_t degrades = read_size(in, kSnapshot);
  const std::size_t denies = read_size(in, kSnapshot);
  const std::size_t applied = read_size(in, kSnapshot);
  const std::size_t rejected = read_size(in, kSnapshot);
  const std::size_t queries = read_size(in, kSnapshot);
  const std::size_t forced = read_size(in, kSnapshot);
  const std::size_t overloaded = read_size(in, kSnapshot);
  const double initial_utility = read_double(in, kSnapshot);
  controller_->import_state(in);
  std::string trailer;
  in >> trailer;
  ensure(trailer == "end-serve", "serve snapshot: missing end-serve trailer");

  report_.batches = batches;
  report_.solves = solves;
  report_.admits = admits;
  report_.degrades = degrades;
  report_.denies = denies;
  report_.applied = applied;
  report_.rejected = rejected;
  report_.queries = queries;
  report_.forced_flushes = forced;
  report_.overload_denied = overloaded;
  report_.initial_utility = initial_utility;
  report_.final_utility = controller_->utility();
  last_time_ = last_time;
  restored_ = true;
  controller_->metrics().set(m_utility_, report_.final_utility);
}

}  // namespace maxutil::serve
