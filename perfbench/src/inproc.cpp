// In-process passes over the socket-free session layer of serve::Acceptor:
//
//   serve  — the timed pass (tracing off).
//   boots  — set-up timing and a durable crash/recovery check.
//   trace  — the traced pass over exactly the requests an untraced pass
//            served, through the durable WAL wrapper: spans around every
//            public call from the client, a timing ServeSink between the
//            acceptor and serve::Durable, a timing solver registered
//            through SolverRegistry::add, and re-timed public calls on the
//            settled state after each batch.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "core/flow.hpp"
#include "core/marginals.hpp"
#include "serve/acceptor.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "solver/registry.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

using maxutil::util::ensure;
namespace fs = std::filesystem;
namespace solver = maxutil::solver;

// ---------------------------------------------------------------------------
// Instrumentation (traced pass only).

/// Top-level client calls plus the client's own code between them; together
/// they tile the traced pass's timeline.
enum CallKind { kGap, kSend, kFlush, kRead, kRetime, kKinds };
const char* const kKindNames[kKinds] = {"client", "send", "flush", "read",
                                        "retime"};

struct CallRecord {
  CallKind kind = kGap;
  std::int64_t request = -1;  // the fed request (send), else -1
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t sink_ns = 0;   // inside ServeSink calls
  std::int64_t solve_ns = 0;  // inside the solver (subset of sink_ns)
  std::int64_t fsync_ns = 0;  // inside fsync (subset of sink_ns)
  std::int64_t parse_ns = 0;  // re-timed serve::parse_script_text (send)
  bool flushed = false;       // a batch flushed inside this call
  std::size_t routed = 0;     // decision lines the acceptor routed in it
};

/// What the timing solver saw.
struct SolverTap {
  std::vector<double> solve_ms;
  std::int64_t ns = 0;
  double iterations = 0.0;
  double rounds = 0.0;
  double messages = 0.0;
  std::size_t warm = 0;
  std::size_t warm_basis = 0;  // LP solves handed a stored basis
  std::size_t retries = 0;
  const solver::Problem* last_problem = nullptr;
};
SolverTap g_solver;

constexpr const char* kTimedSolver = "perfbench-timed";

/// Registers a solver that wraps `engine` and times every call into it.
void register_timed_solver(const std::string& engine) {
  const solver::SolverInfo* inner =
      solver::SolverRegistry::instance().find(engine);
  ensure(inner != nullptr, "unknown engine " + engine);
  solver::SolverInfo info = *inner;
  info.name = kTimedSolver;
  info.description = "timing wrapper around " + engine;
  const solver::SolverFn real = inner->solve;
  info.solve = [real](const solver::Problem& problem,
                      const solver::SolveOptions& options) {
    const std::int64_t start = now_ns();
    solver::SolveResult result = real(problem, options);
    const std::int64_t ns = now_ns() - start;
    SolverTap& tap = g_solver;
    tap.ns += ns;
    tap.solve_ms.push_back(static_cast<double>(ns) * 1e-6);
    tap.iterations += static_cast<double>(result.iterations);
    tap.rounds += result.metric("rounds");
    tap.messages += result.metric("messages");
    if (options.warm_start.has_value()) ++tap.warm;
    if (options.extra.count("lp_warm_key") != 0) ++tap.warm_basis;
    // The controller's watchdog retries on the same Problem; a revert
    // solve always runs on a freshly rebuilt one.
    if (tap.last_problem == &problem) ++tap.retries;
    tap.last_problem = &problem;
    return result;
  };
  solver::SolverRegistry::instance().add(std::move(info));
}

/// ServeSink between the acceptor and the real sink: attributes the time
/// of every sink call (and the solver and fsync time inside it) to the
/// client call in progress.
class TimingSink final : public serve::ServeSink {
 public:
  explicit TimingSink(serve::ServeSink& inner) : inner_(&inner) {}

  void submit(const serve::Request& request) override {
    const std::size_t batches = begin();
    inner_->submit(request);
    end(batches);
  }
  void force_flush() override {
    const std::size_t batches = begin();
    inner_->force_flush();
    end(batches);
  }
  serve::Daemon& daemon() override { return inner_->daemon(); }
  std::uint64_t epoch() const override { return inner_->epoch(); }
  std::uint64_t accepted() const override { return inner_->accepted(); }

  CallRecord* call = nullptr;  // the client call being attributed

 private:
  std::size_t begin() {
    g_solver.last_problem = nullptr;
    solve_before_ = g_solver.ns;
    fsync_before_ = g_fsync[kFsyncPath].ns;
    start_ = now_ns();
    return inner_->daemon().report().batches;
  }
  void end(std::size_t batches_before) {
    const std::int64_t ns = now_ns() - start_;
    if (call == nullptr) return;
    call->sink_ns += ns;
    call->solve_ns += g_solver.ns - solve_before_;
    call->fsync_ns += g_fsync[kFsyncPath].ns - fsync_before_;
    if (inner_->daemon().report().batches > batches_before) {
      call->flushed = true;
    }
  }

  serve::ServeSink* inner_;
  std::int64_t start_ = 0;
  std::int64_t solve_before_ = 0;
  std::int64_t fsync_before_ = 0;
};

/// Records the client's calls, tiling the timeline with client-gap records.
/// A call's start is the previous gap's end (one clock read), so records
/// abut exactly.
class Tracer {
 public:
  CallRecord& begin(CallKind kind, std::int64_t request = -1) {
    const std::int64_t t = now_ns();
    if (last_end_ != 0) {
      CallRecord gap;
      gap.kind = kGap;
      gap.start = last_end_;
      gap.end = t;
      calls.push_back(gap);
    }
    CallRecord record;
    record.kind = kind;
    record.request = request;
    record.start = t;
    calls.push_back(record);
    return calls.back();
  }
  std::int64_t end() {
    last_end_ = now_ns();
    calls.back().end = last_end_;
    return last_end_;
  }

  std::vector<CallRecord> calls;

 private:
  std::int64_t last_end_ = 0;
};

/// Re-timed public calls on the settled state (traced pass only).
struct Retimes {
  std::vector<double> parse_us;
  std::vector<double> line_us;  // DecisionRecord::line, as the acceptor routes
  std::vector<double> build_ms;
  std::vector<double> flows_us;
  std::vector<double> marginals_us;
  std::vector<double> append_us;
  std::vector<double> snapshot_ms;
  double slots = 0.0;
  std::size_t wal_records = 0;
};

// ---------------------------------------------------------------------------
// The pass.

struct PassConfig {
  double seconds = 0.0;    // stop once this much time has passed (0: off)
  std::size_t count = 0;   // serve exactly this many requests (0: off)
};

struct PassResult {
  std::size_t requests = 0;
  std::vector<std::int64_t> handed;    // request handed to the acceptor
  std::vector<std::int64_t> readable;  // its decision line was read
  std::vector<std::int64_t> flusher;   // start of the call that flushed it
  std::vector<std::string> answers;    // the decision line it got back
  std::size_t answered = 0;
  std::size_t duplicates = 0;
  std::size_t errors = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;

  double latency_ms(std::size_t r) const {
    return static_cast<double>(readable[r] - handed[r]) * 1e-6;
  }
};

/// Optional tracing hooks for run_pass.
struct Tracing {
  Tracer tracer;
  TimingSink* sink = nullptr;
  Retimes retimes;
  std::unique_ptr<serve::Wal> wal;  // scratch WAL for the append re-time
  std::string snapshot_path;
};

double ms_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-6;
}

void retime_settled(Tracing& t, serve::Daemon& daemon,
                    const std::vector<std::string>& batch_lines,
                    std::size_t batch_index) {
  t.tracer.begin(kRetime);
  g_fsync_bucket = kFsyncRetime;
  const auto& ctl = daemon.controller();
  std::int64_t t0 = now_ns();
  const solver::Problem problem(ctl.network(),
                                daemon.options().controller.penalty);
  t.retimes.build_ms.push_back(ms_since(t0));
  t.retimes.slots =
      static_cast<double>(problem.extended().index().slot_count());
  t0 = now_ns();
  const auto flows =
      maxutil::core::compute_flows(ctl.extended(), ctl.routing());
  t.retimes.flows_us.push_back(ms_since(t0) * 1e3);
  t0 = now_ns();
  maxutil::core::compute_marginals(ctl.extended(), ctl.routing(), flows);
  t.retimes.marginals_us.push_back(ms_since(t0) * 1e3);
  for (const std::string& line : batch_lines) {
    serve::WalRecord record;
    record.seq = ++t.retimes.wal_records;
    record.epoch = 1;
    record.payload = serve::parse_request(line).describe();
    t0 = now_ns();
    t.wal->append(record);
    t.retimes.append_us.push_back(ms_since(t0) * 1e3);
  }
  // A snapshot every eighth batch, as Durable's default, when settled (a
  // pipelined pass settles only at its end: then once).
  if ((batch_index % 8 == 0 || t.retimes.snapshot_ms.empty()) &&
      !daemon.batch_open() && daemon.pending_count() == 0) {
    t0 = now_ns();
    std::ostringstream body;
    daemon.export_snapshot(body);
    const std::string tmp = t.snapshot_path + ".tmp";
    write_file(tmp, body.str());
    {
      std::FILE* f = std::fopen(tmp.c_str(), "rb");
      ensure(f != nullptr, "trace: cannot reopen snapshot");
      fsync(fileno(f));
      std::fclose(f);
    }
    fs::rename(tmp, t.snapshot_path);
    t.retimes.snapshot_ms.push_back(ms_since(t0));
  }
  g_fsync_bucket = kFsyncPath;
  t.tracer.end();
}

PassResult run_pass(const Workload& w, serve::ServeSink& sink,
                    const std::vector<std::string>& lines,
                    const std::vector<std::size_t>& times,
                    const PassConfig& cfg, Tracing* tracing) {
  serve::Acceptor acceptor(sink);
  const int session = acceptor.open_session();
  const std::string greeting = acceptor.take_output(session);
  ensure(greeting == "epoch=" + std::to_string(sink.epoch()) + "\n",
         "unexpected greeting '" + greeting + "'");
  serve::Daemon& daemon = sink.daemon();

  PassResult r;
  const std::size_t cap = cfg.count != 0 ? std::min(cfg.count, lines.size())
                                         : lines.size();
  r.handed.assign(cap, 0);
  r.readable.assign(cap, 0);
  r.flusher.assign(cap, 0);
  r.answers.assign(cap, "");
  std::deque<std::size_t> outstanding;
  std::size_t batches_settled = daemon.report().batches;
  std::int64_t last_flush_start = 0;

  // Runs one client call, traced or not; returns its {start, end}. The
  // client's timestamps (handed, readable) are the call boundaries.
  const auto call = [&](CallKind kind, std::int64_t request, auto&& fn) {
    if (tracing == nullptr) {
      const std::int64_t t = now_ns();
      fn();
      return std::pair<std::int64_t, std::int64_t>(t, now_ns());
    }
    const std::size_t decided = daemon.report().decisions.size();
    CallRecord& record = tracing->tracer.begin(kind, request);
    tracing->sink->call = &record;
    const std::int64_t t = record.start;
    fn();
    tracing->sink->call = nullptr;
    const std::int64_t end = tracing->tracer.end();
    CallRecord& done = tracing->tracer.calls.back();
    done.routed = daemon.report().decisions.size() - decided;
    if (done.flushed) last_flush_start = t;
    return std::pair<std::int64_t, std::int64_t>(t, end);
  };

  // Reads the session's output and assigns answers FIFO to requests.
  const auto read = [&]() {
    std::string out;
    const std::int64_t t =
        call(kRead, -1, [&] { out = acceptor.take_output(session); }).second;
    const std::size_t first_answered = r.answered;
    std::size_t pos = 0;
    while (pos < out.size()) {
      const std::size_t nl = out.find('\n', pos);
      const std::string line = out.substr(pos, nl - pos);
      pos = nl == std::string::npos ? out.size() : nl + 1;
      if (outstanding.empty()) {
        ++r.duplicates;
        continue;
      }
      const std::size_t q = outstanding.front();
      outstanding.pop_front();
      r.readable[q] = t;
      r.flusher[q] = last_flush_start;
      r.answers[q] = line;
      ++r.answered;
      if (is_error_line(line)) ++r.errors;
    }
    if (tracing == nullptr) return;
    if (r.answered > first_answered) {
      // The acceptor formats each routed decision with its public line();
      // re-time that for the lines just read (decision k answers request k).
      tracing->tracer.begin(kRetime);
      const auto& decisions = daemon.report().decisions;
      for (std::size_t k = first_answered; k < r.answered; ++k) {
        const std::int64_t t0 = now_ns();
        const std::string formatted = decisions[k].line();
        tracing->retimes.line_us.push_back(ms_since(t0) * 1e3);
      }
      tracing->tracer.end();
    }
    if (daemon.report().batches > batches_settled) {
      // Every request of the settled batches, in order.
      const auto& decisions = daemon.report().decisions;
      std::vector<std::string> batch_lines;
      std::size_t first = decisions.size();
      while (first > 0 && decisions[first - 1].batch >= batches_settled) {
        --first;
      }
      for (std::size_t k = first; k < decisions.size(); ++k) {
        batch_lines.push_back(lines[k]);
      }
      retime_settled(*tracing, daemon, batch_lines, daemon.report().batches);
      batches_settled = daemon.report().batches;
    }
  };

  const auto send = [&](std::size_t i) {
    r.handed[i] = call(kSend, static_cast<std::int64_t>(i), [&] {
                    acceptor.feed_line(session, lines[i]);
                  }).first;
    outstanding.push_back(i);
    if (tracing == nullptr) return;
    // The acceptor's parse (serve::parse_script_text, which wraps
    // parse_request) has no seam inside feed_line: re-time it here, after
    // the call, on the now-warm line (a lower bound). The
    // durable sink's WAL append stays inside the daemon's self time; the
    // serve.wal append metric re-times it on a scratch WAL.
    const std::size_t index = tracing->tracer.calls.size() - 1;
    tracing->tracer.begin(kRetime);
    const std::int64_t t0 = now_ns();
    serve::parse_script_text(lines[i]);
    const std::int64_t parse_ns = now_ns() - t0;
    tracing->retimes.parse_us.push_back(static_cast<double>(parse_ns) * 1e-3);
    CallRecord& rec = tracing->tracer.calls[index];
    rec.parse_ns = parse_ns;
    tracing->tracer.end();
  };

  const auto flush = [&]() {
    call(kFlush, -1, [&] { acceptor.flush_now(); });
  };

  r.start = now_ns();
  const std::int64_t deadline =
      r.start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  const auto time_up = [&](std::size_t i) {
    if (i >= cap) return true;
    if (cfg.count != 0) return false;
    return cfg.seconds > 0.0 && now_ns() >= deadline;
  };
  std::size_t i = 0;
  if (w.driving == Driving::kClosed) {
    for (; !time_up(i); ++i) {
      send(i);
      flush();
      read();
    }
  } else {
    // Pipelined in virtual-time order. A timed stop waits for a batch
    // boundary, so the batches served are exactly the reference's.
    std::size_t open_time = 0;
    for (;; ++i) {
      const bool would_flush =
          i < cap && daemon.batch_open() && times[i] >= open_time + w.window;
      if (i >= cap || (time_up(i) && (!daemon.batch_open() || would_flush))) {
        break;
      }
      const bool was_open = daemon.batch_open();
      send(i);
      if (!was_open || would_flush) open_time = times[i];
      read();
    }
    flush();
    read();
  }
  r.requests = i;
  r.end = now_ns();
  return r;
}

/// Parses request timestamps up front (pipelined stop rule).
std::vector<std::size_t> request_times(const std::vector<std::string>& lines) {
  std::vector<std::size_t> times;
  times.reserve(lines.size());
  for (const std::string& line : lines) {
    times.push_back(serve::parse_request(line).time());
  }
  return times;
}

/// Checks answers: each served request answered exactly once.
std::size_t unanswered(const PassResult& r) {
  std::size_t missing = 0;
  for (std::size_t q = 0; q < r.requests; ++q) {
    if (r.readable[q] == 0) ++missing;
  }
  return missing;
}

/// The answer each served request got, one line each in request order
/// (run.py checks them against the decision log).
void write_answers(const std::string& path, const PassResult& r) {
  std::string body;
  for (std::size_t q = 0; q < r.requests; ++q) body += r.answers[q] + "\n";
  write_file(path, body);
}

std::vector<double> latencies(const PassResult& r) {
  std::vector<double> out;
  for (std::size_t q = 0; q < r.requests; ++q) {
    if (r.readable[q] != 0) out.push_back(r.latency_ms(q));
  }
  return out;
}

void emit_pass(JsonLine& out, const PassResult& r) {
  const std::vector<double> lat = latencies(r);
  double pct = 0.0;
  std::size_t segments = 0;
  const double tail_ms = segmented_tail(lat, &pct, &segments);
  const double elapsed = static_cast<double>(r.end - r.start) * 1e-9;
  out.num("requests", static_cast<double>(r.requests))
      .num("answered", static_cast<double>(r.answered))
      .num("unanswered", static_cast<double>(unanswered(r)))
      .num("duplicates", static_cast<double>(r.duplicates))
      .num("errors", static_cast<double>(r.errors))
      .num("elapsed_s", elapsed)
      .num("decision_p50_ms", median(lat))
      .num("decision_tail_ms", tail_ms)
      .num("tail_percentile", pct)
      .num("tail_segments", static_cast<double>(segments))
      .num("tail_samples", static_cast<double>(lat.size()))
      .num("capacity_dps",
           elapsed > 0.0 ? static_cast<double>(r.answered) / elapsed : 0.0);
}

}  // namespace

// ---------------------------------------------------------------------------

int cmd_serve(const std::map<std::string, std::string>& args) {
  const Workload& w = find_workload(arg(args, "workload"));
  const std::string dir = arg(args, "dir");
  PassConfig cfg;
  cfg.seconds = std::stod(arg(args, "seconds"));
  const std::vector<std::string> lines = read_lines(dir + "/stream.txt");
  const std::vector<std::size_t> times = request_times(lines);

  const stream::StreamNetwork net = load_instance(dir);
  serve::Daemon daemon(net, serve_options(w));
  serve::DaemonSink sink(daemon);
  const PassResult pass = run_pass(w, sink, lines, times, cfg, nullptr);
  const serve::ServeReport& report = daemon.finish();
  write_file(dir + "/serve.log", report.decision_log());
  write_answers(dir + "/serve.answers", pass);

  JsonLine out;
  emit_pass(out, pass);
  out.num("batches", static_cast<double>(report.batches))
      .num("solves", static_cast<double>(report.solves));
  std::cout << out.str() << std::endl;
  return 0;
}

int cmd_boots(const std::map<std::string, std::string>& args) {
  const Workload& w = find_workload(arg(args, "workload"));
  const std::string dir = arg(args, "dir");
  const double seconds = std::stod(arg(args, "seconds"));
  write_instance(w, dir);
  const serve::ServeOptions options = serve_options(w);

  // A fixed crash script, so this step needs no request stream (run.py
  // calls it before the stream is generated too): brownout/repair pairs on
  // the first commodity's source, one batch each.
  const stream::StreamNetwork base = load_instance(dir);
  const std::string server = base.node_name(base.source(0));
  std::vector<serve::Request> script;
  for (std::size_t k = 0; k < 12; ++k) {
    script.push_back(serve::parse_request(
        "cap=" + server + (k % 2 == 0 ? "*0.5@" : "*2@") +
        std::to_string(k * (w.window + 1))));
  }
  // Once per run, untimed: two crashes that drop a durable daemon without
  // finishing (the destructor writes nothing). After 9 requests the eighth
  // flush has just written a snapshot (the default interval of 8) and the
  // ninth request is logged but pending; after 12 the WAL also holds three
  // decided records past the snapshot. Each restart, finished, must
  // reproduce the uninterrupted replay exactly.
  bool recovered_ok = true;
  if (!fs::exists(dir + "/recovery-wal-9")) {
    for (const std::size_t n : {std::size_t{9}, std::size_t{12}}) {
      serve::DurableOptions dopt;
      dopt.dir = dir + "/recovery-wal-" + std::to_string(n);
      {
        serve::Daemon d(base, options);
        serve::Durable durable(d, dopt);
        for (std::size_t k = 0; k < n; ++k) durable.submit(script[k]);
      }
      serve::Daemon replay(base, options);
      for (std::size_t k = 0; k < n; ++k) replay.submit(script[k]);
      replay.finish();
      serve::Daemon d(base, options);
      serve::Durable durable(d, dopt);
      durable.finish();
      recovered_ok = recovered_ok && durable.recovered() &&
                     durable.full_decision_log() ==
                         replay.report().decision_log();
    }
  }

  // Set-up samples for the whole budget: scenario load + validate + Daemon
  // construction (the cold initial solve included). A boot lasts tens of
  // milliseconds, and the host's speed for it wanders in phases of up to
  // seconds, so run.py calls this step at three points of a run and takes
  // the median over every sample appended to boots.tsv.
  std::ofstream samples(dir + "/boots.tsv", std::ios::app);
  std::size_t count = 0;
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (; count < 3 || now_ns() < stop; ++count) {
    const std::int64_t t0 = now_ns();
    const stream::StreamNetwork net = load_instance(dir);
    serve::Daemon d(net, options);
    samples << "setup_s\t" << static_cast<double>(now_ns() - t0) * 1e-9
            << '\n';
  }
  JsonLine out;
  out.num("samples", static_cast<double>(count))
      .num("recovered_ok", recovered_ok ? 1.0 : 0.0);
  std::cout << out.str() << std::endl;
  return 0;
}

int cmd_trace(const std::map<std::string, std::string>& args) {
  const Workload& w = find_workload(arg(args, "workload"));
  const std::string dir = arg(args, "dir");
  PassConfig cfg;
  cfg.count = static_cast<std::size_t>(std::stoul(arg(args, "count")));
  const std::vector<std::string> lines = read_lines(dir + "/stream.txt");
  const std::vector<std::size_t> times = request_times(lines);

  register_timed_solver(w.pipeline);
  const serve::ServeOptions options = serve_options(w, kTimedSolver);
  const stream::StreamNetwork net = load_instance(dir);
  serve::Daemon daemon(net, options);
  // The program's durable serving path: every WAL append, fsync and
  // snapshot of the traced pass is the library's own.
  serve::DurableOptions dopt;
  dopt.dir = dir + "/trace-wal";
  serve::Durable durable(daemon, dopt);
  g_solver = SolverTap{};  // the boot solve is set-up, not serving
  g_fsync[kFsyncPath] = FsyncTally{};

  Tracing tracing;
  // Spans stay in memory; reserve up front so no push_back reallocates
  // inside a call (a request produces at most ~14 records).
  tracing.tracer.calls.reserve(16 * cfg.count + 64);
  tracing.wal = std::make_unique<serve::Wal>(dir + "/trace-scratch.wal");
  tracing.snapshot_path = dir + "/trace-scratch.snap";
  TimingSink sink(durable);
  tracing.sink = &sink;
  const PassResult pass = run_pass(w, sink, lines, times, cfg, &tracing);
  const serve::ServeReport& report = durable.finish();
  write_file(dir + "/trace.log", durable.full_decision_log());
  write_answers(dir + "/trace.answers", pass);

  // ---- Layer sums: along each decision's path, from the call that handed
  // it in to the read that returned its answer, the spans measured on
  // their own must add up to its end-to-end latency. Those are the client's
  // code between calls, each take_output call, each sink call (daemon,
  // WAL, solver and fsync inside it), and, for the acceptor's own work in a
  // feed_line or flush_now call outside the sink, the re-timed public calls
  // it makes: serve::parse_script_text for a fed line and DecisionRecord::line
  // for each decision it routes. No layer is taken as a remainder, so time
  // inside the acceptor that none of these cover shows as a miss.
  // Re-timing between calls is excluded from both sides. Each re-time
  // enters as its median: one re-time can catch a host stall. The re-times
  // run warm, so they fall short of the acceptor's cold work right after a
  // solve or fsync, and a host stall outside every span shows in full: the
  // shortest decisions can miss by more than the typical one.
  const std::vector<CallRecord>& calls = tracing.tracer.calls;
  const auto parse_ns =
      static_cast<std::int64_t>(median(tracing.retimes.parse_us) * 1e3);
  const auto line_ns =
      static_cast<std::int64_t>(median(tracing.retimes.line_us) * 1e3);
  const auto parse_of = [&](const CallRecord& c) -> std::int64_t {
    return c.kind == kSend ? parse_ns : 0;
  };
  const auto layered = [&](const CallRecord& c) -> std::int64_t {
    if (c.kind != kSend && c.kind != kFlush) return c.end - c.start;
    return c.sink_ns + parse_of(c) +
           static_cast<std::int64_t>(c.routed) * line_ns;
  };
  std::vector<double> misses;
  std::vector<double> batch_wait_ms;
  std::size_t c0 = 0;
  for (std::size_t q = 0; q < pass.requests; ++q) {
    if (pass.readable[q] == 0) continue;
    const std::int64_t from = pass.handed[q];
    const std::int64_t to = pass.readable[q];
    while (c0 < calls.size() && calls[c0].start < from) ++c0;
    std::int64_t layers = 0;
    std::int64_t excluded = 0;
    for (std::size_t c = c0; c < calls.size() && calls[c].end <= to; ++c) {
      if (calls[c].kind == kRetime) {
        excluded += calls[c].end - calls[c].start;
      } else {
        layers += layered(calls[c]);
      }
    }
    const double e2e = static_cast<double>(to - from - excluded);
    if (e2e > 0.0) {
      misses.push_back(std::abs(e2e - static_cast<double>(layers)) / e2e);
    }
    if (pass.flusher[q] != 0) {
      batch_wait_ms.push_back(static_cast<double>(pass.flusher[q] - from) *
                              1e-6);
    }
  }

  // ---- Per-call layer self times (a layer's span minus its child spans).
  std::vector<double> acceptor_us, submit_us, flush_self_ms;
  for (const CallRecord& c : calls) {
    if (c.kind != kSend && c.kind != kFlush) continue;
    acceptor_us.push_back(
        static_cast<double>(c.end - c.start - c.sink_ns - parse_of(c)) * 1e-3);
    if (c.kind == kSend && !c.flushed) {
      submit_us.push_back(static_cast<double>(c.sink_ns - c.fsync_ns) * 1e-3);
    }
  }
  const double submit_est_us = median(submit_us);
  for (const CallRecord& c : calls) {
    if (!c.flushed) continue;
    double self =
        static_cast<double>(c.sink_ns - c.solve_ns - c.fsync_ns) * 1e-6;
    if (c.kind == kSend) self -= submit_est_us * 1e-3;
    flush_self_ms.push_back(self);
  }

  // a / b, or 0 when the layer did no such work.
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double decisions = d(report.decisions.size());
  const double batches = d(report.batches);
  const double solves = d(g_solver.solve_ms.size());
  const double solve_us = d(g_solver.ns) * 1e-3;
  const double iterations = g_solver.iterations;
  const bool lp = std::string(w.pipeline).rfind("lp", 0) == 0;
  const bool sim = std::string(w.pipeline) == "distributed";
  // The serving path's fsyncs (WAL, decisions.log and snapshots).
  const FsyncTally path = g_fsync[kFsyncPath];
  const double wal_bytes = d(fs::file_size(dopt.dir + "/wal.log"));

  JsonLine out;
  out.num("requests", d(pass.requests))
      .num("answered", d(pass.answered))
      .num("unanswered", d(unanswered(pass)))
      .num("duplicates", d(pass.duplicates))
      .num("errors", d(pass.errors))
      .num("traced_p50_ms", median(latencies(pass)))
      .num("trace.layer_sum_miss_p50", median(misses))
      .num("trace.layer_sum_miss_p95", percentile(misses, 95.0))
      .num("trace.layer_sum_miss_max", percentile(misses, 100.0))
      .num("serve.protocol.parse_us", median(tracing.retimes.parse_us))
      .num("serve.acceptor.self_us", median(acceptor_us))
      .num("serve.wal.append_us", median(tracing.retimes.append_us))
      .num("serve.wal.fsync_us", per(d(path.ns) * 1e-3, d(path.calls)))
      .num("serve.wal.fsyncs_per_decision", per(d(path.calls), decisions))
      .num("serve.wal.bytes_per_request", per(wal_bytes, d(pass.requests)))
      .num("serve.wal.snapshot_ms", median(tracing.retimes.snapshot_ms))
      .num("serve.daemon.submit_us", submit_est_us)
      .num("serve.daemon.flush_self_ms", median(flush_self_ms))
      .num("serve.daemon.batch_size", per(decisions, batches))
      .num("serve.daemon.solves_per_batch", per(d(report.solves), batches))
      .num("serve.batch_wait_ms", median(batch_wait_ms))
      .num("xform.build_ms", median(tracing.retimes.build_ms))
      .num("xform.slots", tracing.retimes.slots)
      .num("core.flows_us", median(tracing.retimes.flows_us))
      .num("core.marginals_us", median(tracing.retimes.marginals_us))
      .num("solver.solve_ms", median(g_solver.solve_ms))
      .num("solver.solves", solves)
      .num("solver.warm_share", per(d(g_solver.warm), solves))
      .num("solver.iterations_per_solve", per(iterations, solves))
      .num("solver.us_per_iteration", per(solve_us, iterations))
      .num("solver.retry_share", per(d(g_solver.retries), solves))
      .num("lp.pivots_per_solve", lp ? per(iterations, solves) : 0.0)
      .num("lp.us_per_pivot", lp ? per(solve_us, iterations) : 0.0)
      .num("lp.warm_basis_share",
           lp ? per(d(g_solver.warm_basis), solves) : 0.0)
      .num("sim.rounds_per_solve", sim ? per(g_solver.rounds, solves) : 0.0)
      .num("sim.messages_per_solve", sim ? per(g_solver.messages, solves) : 0.0)
      .num("sim.us_per_round", sim ? per(solve_us, g_solver.rounds) : 0.0);

  // Spans stay in memory until here.
  std::ofstream spans(dir + "/spans.tsv");
  spans << "kind\trequest\tstart_ns\tend_ns\tsink_ns\tsolve_ns\tfsync_ns"
           "\tparse_ns\tflushed\trouted\n";
  for (const CallRecord& c : calls) {
    spans << kKindNames[c.kind] << '\t' << c.request << '\t' << c.start << '\t'
          << c.end << '\t' << c.sink_ns << '\t' << c.solve_ns << '\t'
          << c.fsync_ns << '\t' << c.parse_ns << '\t' << c.flushed << '\t'
          << c.routed << '\n';
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace perfbench
