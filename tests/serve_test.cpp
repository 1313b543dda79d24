#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ctrl/churn_plan.hpp"
#include "gen/figure1.hpp"
#include "serve/acceptor.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "util/check.hpp"

namespace {

using maxutil::ctrl::ChurnEvent;
using maxutil::ctrl::ChurnEventKind;
using maxutil::serve::Acceptor;
using maxutil::serve::AcceptorOptions;
using maxutil::serve::Daemon;
using maxutil::serve::DaemonSink;
using maxutil::serve::Durable;
using maxutil::serve::DurableOptions;
using maxutil::serve::Outcome;
using maxutil::serve::parse_request;
using maxutil::serve::parse_script_text;
using maxutil::serve::Request;
using maxutil::serve::RequestKind;
using maxutil::serve::Script;
using maxutil::serve::ServeOptions;
using maxutil::serve::ServeReport;
using maxutil::serve::Wal;
using maxutil::serve::WalRecord;
using maxutil::util::CheckError;

ServeOptions fast_options() {
  ServeOptions options;
  options.controller.solve.eta = 0.1;
  options.controller.solve.tolerance = 1e-6;
  options.controller.watchdog_iterations = 3000;
  return options;
}

/// Expects `fn` to throw CheckError whose message contains `needle`.
template <typename Fn>
void expect_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected CheckError containing '" << needle << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// --- Request grammar ---

TEST(ServeProtocol, ParsesAdmitQueryAndTopology) {
  const Request admit = parse_request("admit=video*0.5@12");
  EXPECT_EQ(admit.kind, RequestKind::kAdmit);
  EXPECT_EQ(admit.commodity(), "video");
  EXPECT_DOUBLE_EQ(admit.event.factor, 0.5);
  EXPECT_EQ(admit.time(), 12u);
  EXPECT_EQ(admit.describe(), "admit=video*0.5@12");

  const Request query = parse_request("query=video@3");
  EXPECT_EQ(query.kind, RequestKind::kQuery);
  EXPECT_EQ(query.describe(), "query=video@3");

  const Request crash = parse_request("crash=Server 2@7");
  EXPECT_EQ(crash.kind, RequestKind::kTopology);
  EXPECT_EQ(crash.event.kind, ChurnEventKind::kCrash);
  EXPECT_EQ(crash.event.node, "Server 2");
  EXPECT_EQ(crash.time(), 7u);
}

TEST(ServeProtocol, ErrorsNameTheOffendingLine) {
  // Unknown key falls through to the churn grammar, which names the key.
  expect_error([] { parse_request("evict=video@1"); }, "evict");
  // Missing timestamp.
  expect_error([] { parse_request("admit=video"); }, "admit=video");
  // Bad factor: the message quotes the operator's line, not the internal
  // arrive= alias the parser uses under the hood.
  expect_error([] { parse_request("admit=video*x@3"); }, "'admit=video*x@3'");
  // One request per line.
  expect_error([] { parse_request("admit=a@1,admit=b@1"); }, "comma");
  // Queries take no factor.
  expect_error([] { parse_request("query=video*0.5@3"); }, "no *FACTOR");
}

TEST(ServeProtocol, ScriptSkipsCommentsAndTracksLineNumbers) {
  const Script script = parse_script_text(
      "# header comment\n"
      "\n"
      "admit=a@1   # trailing comment\n"
      "  query=b@2\n");
  ASSERT_EQ(script.requests.size(), 2u);
  EXPECT_EQ(script.requests[0].line, 3u);
  EXPECT_EQ(script.requests[0].describe(), "admit=a@1");
  EXPECT_EQ(script.requests[1].line, 4u);

  expect_error([] { parse_script_text("admit=a@1\nbogus line\n"); }, "line 2");
}

TEST(ServeProtocol, ScriptRejectsDecreasingTimestamps) {
  expect_error([] { parse_script_text("admit=a@5\nquery=b@3\n"); },
               "decreases");
  expect_error([] { parse_script_text("admit=a@5\nquery=b@3\n"); }, "line 2");
  // Equal timestamps are fine (they coalesce).
  EXPECT_EQ(parse_script_text("admit=a@5\nquery=b@5\n").requests.size(), 2u);
}

// --- Batching window ---

TEST(ServeDaemon, WindowCoalescesBurstIntoOneSolve) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 10;
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"
      "cap=Server 3*0.5@2\n"
      "query=S1@3\n"));
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.solves, 1u);
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(report.queries, 1u);
  // Virtual decision time is batch open (1) + window (10).
  for (const auto& decision : report.decisions) {
    EXPECT_EQ(decision.decided_at, 11u);
    EXPECT_EQ(decision.batch, 0u);
  }
}

TEST(ServeDaemon, WindowZeroSolvesPerRequest) {
  const auto net = maxutil::gen::figure1_example();
  Daemon daemon(net, fast_options());  // window = 0
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"
      "cap=Server 3*0.5@2\n"
      "query=S1@3\n"));
  EXPECT_EQ(report.batches, 3u);
  EXPECT_EQ(report.solves, 2u);  // the query batch has nothing to solve
  for (const auto& decision : report.decisions) {
    // Zero window: decided at the request's own timestamp, zero latency.
    EXPECT_EQ(decision.decided_at, decision.request.time());
  }
  EXPECT_EQ(report.virtual_p99, 0.0);
}

TEST(ServeDaemon, OutOfOrderSubmitThrows) {
  const auto net = maxutil::gen::figure1_example();
  Daemon daemon(net, fast_options());
  daemon.submit(parse_request("query=S1@5"));
  expect_error([&] { daemon.submit(parse_request("query=S1@3")); },
               "time-ordered");
}

// --- Decisions ---

TEST(ServeDaemon, AdmitDenyDegradeAndRejectOutcomes) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(
      "admit=S1@1\n"     // already present: validation rejects it
      "depart=S2@2\n"
      "admit=S2@3\n"     // exact snapshot restore: full rate back
      "query=S2@4\n"
      "query=nope@5\n"   // unknown commodity
      ));
  ASSERT_EQ(report.decisions.size(), 5u);
  EXPECT_EQ(report.decisions[0].outcome, Outcome::kRejected);
  EXPECT_NE(report.decisions[0].reason.find("already present"),
            std::string::npos);
  EXPECT_EQ(report.decisions[1].outcome, Outcome::kApplied);
  EXPECT_EQ(report.decisions[2].outcome, Outcome::kAdmit);
  EXPECT_DOUBLE_EQ(report.decisions[2].share, 1.0);
  EXPECT_EQ(report.decisions[3].outcome, Outcome::kReport);
  EXPECT_GT(report.decisions[3].admitted, 0.0);
  EXPECT_EQ(report.decisions[4].outcome, Outcome::kRejected);
  EXPECT_NE(report.decisions[4].reason.find("unknown commodity"),
            std::string::npos);
  EXPECT_EQ(report.admits, 1u);
  EXPECT_EQ(report.rejected, 2u);
  // Rejection reasons never leak build-tree paths into the decision log.
  EXPECT_EQ(report.decision_log().find("/src/ctrl/"), std::string::npos);
}

TEST(ServeDaemon, ExactRestoreRoundTripReinstatesUtility) {
  const auto net = maxutil::gen::figure1_example();
  Daemon daemon(net, fast_options());
  const double initial = daemon.report().initial_utility;
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"
      "admit=S2@2\n"));
  // A departure snapshot plus an identical re-arrival is an exact restore:
  // the pre-departure plan comes back bit-for-bit.
  EXPECT_DOUBLE_EQ(report.final_utility, initial);
  EXPECT_EQ(report.decisions[1].outcome, Outcome::kAdmit);
  EXPECT_DOUBLE_EQ(report.decisions[1].share, 1.0);
}

TEST(ServeDaemon, DenialRevertsTheCommodity) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  // Impossible threshold: every admit with share < 1.01 is denied, which
  // must revert the commodity back out of the plan.
  options.admit_share = 1.01;
  options.deny_share = 1.01;
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"
      "admit=S2*0.5@2\n"  // half-rate re-arrival: no snapshot match, re-solve
      "query=S2@3\n"));
  EXPECT_EQ(report.decisions[1].outcome, Outcome::kDeny);
  EXPECT_NE(report.decisions[1].reason.find("below deny_share"),
            std::string::npos);
  // The deny was reverted: the query sees the commodity absent.
  EXPECT_EQ(report.decisions[2].outcome, Outcome::kReport);
  EXPECT_EQ(report.decisions[2].reason, "absent");
  EXPECT_DOUBLE_EQ(report.decisions[2].admitted, 0.0);
}

TEST(ServeDaemon, ServingDoesNotGrowTheControllerReport) {
  const auto net = maxutil::gen::figure1_example();
  Daemon daemon(net, fast_options());  // window 0: singleton batches
  std::string stream;
  for (std::size_t t = 0; t < 40; t += 4) {
    stream += "cap=Server 3*0.5@" + std::to_string(t) + "\n";
    stream += "depart=S2@" + std::to_string(t + 1) + "\n";
    stream += "admit=S2@" + std::to_string(t + 2) + "\n";
    stream += "cap=Server 3*2@" + std::to_string(t + 3) + "\n";
  }
  const ServeReport& report = daemon.run(parse_script_text(stream));
  EXPECT_EQ(report.decisions.size(), 40u);
  EXPECT_EQ(report.applied, 30u);
  EXPECT_TRUE(daemon.controller().report().events.empty());
}

TEST(ServeDaemon, SubmitAfterFinishThrows) {
  const auto net = maxutil::gen::figure1_example();
  Daemon daemon(net, fast_options());
  daemon.finish();
  expect_error([&] { daemon.submit(parse_request("query=S1@1")); },
               "after finish");
}

// --- Determinism ---

std::string run_replay(const std::string& stream, std::size_t threads,
                       double* final_utility) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options;
  options.controller.pipeline = "distributed";
  options.controller.solve.threads = threads;
  options.controller.solve.tolerance = 1e-6;
  options.controller.watchdog_iterations = 400;
  options.window = 2;
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(stream));
  *final_utility = report.final_utility;
  return report.decision_log();
}

TEST(ServeDaemon, ReplayIsBitIdenticalAcross128Threads) {
  const std::string stream =
      "query=S1@0\n"
      "depart=S2@1\n"
      "cap=Server 3*0.5@2\n"
      "admit=S2*0.5@5\n"
      "query=S2@6\n"
      "cap=Server 3*2@9\n"
      "query=S1@12\n";
  double u1 = 0.0, u2 = 0.0, u8 = 0.0;
  const std::string log1 = run_replay(stream, 1, &u1);
  const std::string log2 = run_replay(stream, 2, &u2);
  const std::string log8 = run_replay(stream, 8, &u8);
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(log1, log8);
  EXPECT_DOUBLE_EQ(u1, u2);
  EXPECT_DOUBLE_EQ(u1, u8);
  EXPECT_FALSE(log1.empty());
}

TEST(ServeDaemon, ReplayTwiceIsBitIdentical) {
  const std::string stream =
      "depart=S2@1\n"
      "admit=S2*0.5@4\n"
      "query=S1@8\n";
  double ua = 0.0, ub = 0.0;
  const std::string a = run_replay(stream, 1, &ua);
  const std::string b = run_replay(stream, 1, &ub);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(ua, ub);
}

// --- Batch path on the controller ---

TEST(ServeDaemon, BatchValidationIsAllOrNothing) {
  const auto net = maxutil::gen::figure1_example();
  maxutil::ctrl::Controller controller(net, fast_options().controller);
  const double utility = controller.utility();
  std::vector<ChurnEvent> batch =
      maxutil::ctrl::parse_churn_plan("depart=S2@1,depart=nope@1").events;
  EXPECT_THROW(controller.apply_batch(batch), CheckError);
  // The valid first event must not have been applied.
  EXPECT_EQ(controller.network().commodity_count(), 2u);
  EXPECT_DOUBLE_EQ(controller.utility(), utility);
}

TEST(ServeDaemon, CheckEventSeesStagedEvents) {
  const auto net = maxutil::gen::figure1_example();
  maxutil::ctrl::Controller controller(net, fast_options().controller);
  const ChurnEvent depart =
      maxutil::ctrl::parse_churn_plan("depart=S2@1").events[0];
  EXPECT_EQ(controller.check_event(depart), "");
  // With the same departure already staged, a second one must fail.
  const std::string reason = controller.check_event(depart, {depart});
  EXPECT_NE(reason.find("absent"), std::string::npos);
  // And the reason carries no file:line preamble.
  EXPECT_EQ(reason.find("check failed"), std::string::npos);
}

// --- Report export ---

TEST(ServeReportJson, IsWellFormedAndCarriesLatencies) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 3;
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"
      "query=S1@2\n"
      "admit=S2@7\n"));
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  for (const char* key :
       {"\"decisions\"", "\"batches\"", "\"solves\"", "\"admits\"",
        "\"virtual_latency_p50\"", "\"virtual_latency_p99\"",
        "\"wall_latency_p99_seconds\"", "\"decisions_per_second\"",
        "\"final_utility\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');

  // serve_* metrics landed in the shared registry.
  const auto& metrics = daemon.controller().metrics();
  ASSERT_TRUE(metrics.find("serve_requests_total").has_value());
  EXPECT_EQ(metrics.counter_value(*metrics.find("serve_requests_total")), 3u);
  ASSERT_TRUE(metrics.find("serve_batches_total").has_value());
  EXPECT_EQ(metrics.counter_value(*metrics.find("serve_batches_total")),
            report.batches);
}

// --- Window semantics: trailing flush + overload bound ---

std::uint64_t counter(const Daemon& daemon, const char* name) {
  const auto& metrics = daemon.controller().metrics();
  const auto id = metrics.find(name);
  return id ? metrics.counter_value(*id) : 0;
}

TEST(ServeDaemon, TrailingBatchForceFlushesAndIsCounted) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 3;
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"   // batch 0 opens at 1 ...
      "query=S2@2\n"    // ... coalesces ...
      "query=S1@10\n"   // ... flushes on arrival; batch 1 opens at 10
      ));              // end-of-stream: batch 1 must force-flush
  EXPECT_EQ(report.batches, 2u);
  EXPECT_EQ(report.decisions.size(), 3u);  // nothing dropped at EOS
  // Only the end-of-stream flush is "forced"; batch 0 flushed on arrival.
  EXPECT_EQ(report.forced_flushes, 1u);
  EXPECT_EQ(counter(daemon, "serve_batch_forced_flush"), 1u);
}

TEST(ServeDaemon, OverloadDeniesBeyondMaxPending) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 100;   // nothing flushes on its own
  options.max_pending = 2;
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(
      "depart=S2@1\n"
      "query=S1@2\n"
      "query=S1@3\n"    // third arrival: immediate overload denial
      "admit=S2@4\n"    // fourth: denied too
      ));
  EXPECT_EQ(report.overload_denied, 2u);
  EXPECT_EQ(counter(daemon, "serve_overload_denied_total"), 2u);
  // Overload denials are decided immediately, before the batch flushes.
  ASSERT_GE(report.decisions.size(), 2u);
  EXPECT_EQ(report.decisions[0].outcome, Outcome::kDeny);
  EXPECT_EQ(report.decisions[0].decided_at, 3u);  // the arrival's own time
  EXPECT_NE(report.decisions[0].reason.find("overloaded"), std::string::npos);
  EXPECT_NE(report.decisions[0].reason.find("retryable"), std::string::npos);
  // The two batch members were still decided at the trailing flush.
  EXPECT_EQ(report.decisions.size(), 4u);
  // And the denial is replay-deterministic: same stream, same log.
  Daemon again(net, options);
  again.run(parse_script_text(
      "depart=S2@1\nquery=S1@2\nquery=S1@3\nadmit=S2@4\n"));
  EXPECT_EQ(again.report().decision_log(), report.decision_log());
}

// --- Crash recovery: WAL + snapshots ---

/// mkdtemp-backed scratch directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/maxutil_serve_XXXXXX";
    const char* made = ::mkdtemp(buf);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

ServeOptions recovery_options(const std::string& pipeline,
                              std::size_t threads) {
  ServeOptions options;
  options.controller.pipeline = pipeline;
  options.controller.solve.threads = threads;
  options.controller.solve.tolerance = 1e-6;
  if (pipeline == "gradient") {
    options.controller.solve.eta = 0.1;
    options.controller.watchdog_iterations = 3000;
  } else {
    options.controller.watchdog_iterations = 400;
  }
  options.window = 2;
  return options;
}

/// Requests in canonical describe() form (WAL payloads equal these lines).
const char* kRecoveryStream =
    "query=S1@0\n"
    "depart=S2@1\n"
    "cap=Server 3*0.5@2\n"
    "admit=S2*0.5@5\n"
    "query=S2@6\n"
    "cap=Server 3*2@9\n"
    "query=S1@12\n"
    "admit=S1@13\n"   // S1 already present: a rejected decision
    "query=S2@15\n";

/// Cap, bandwidth and a denied admit each in a batch of its own (window 2,
/// requests 3 apart), so an lp-sparse controller has live basis slots at
/// every crash point: rhs-only events re-solve warm, and the denial's
/// revert returns to the layout held in the previous slot.
const char* kLpBasisStream =
    "query=S1@0\n"
    "cap=Server 3*0.5@3\n"
    "depart=S2@6\n"
    "bw=Server 3-Server 5*0.5@9\n"
    "cap=Server 3*0.005@12\n"
    "admit=S2*0.5@15\n"   // starved at Server 3: denied and reverted
    "query=S2@18\n"
    "bw=Server 3-Server 5*2@21\n"
    "cap=Server 3*100@24\n"
    "admit=S2@27\n"
    "query=S2@30\n";

/// The settled daemon's snapshot blob: counters plus the full controller
/// state, LP basis slots included.
std::string state_blob(const Daemon& daemon) {
  std::ostringstream out;
  daemon.export_snapshot(out);
  return out.str();
}

std::string run_uninterrupted(const ServeOptions& options, double* utility,
                              const char* stream = kRecoveryStream,
                              std::string* state = nullptr) {
  const auto net = maxutil::gen::figure1_example();
  Daemon daemon(net, options);
  const ServeReport& report = daemon.run(parse_script_text(stream));
  *utility = report.final_utility;
  if (state != nullptr) *state = state_blob(daemon);
  return report.decision_log();
}

/// Feeds the first `crash_after` requests through a Durable, "crashes"
/// (destroys everything without finish — exactly what SIGKILL leaves on
/// disk, since every WAL append is an immediate write() syscall), then
/// recovers into a fresh Daemon over the same directory and feeds the rest.
std::string run_with_crash(std::size_t crash_after,
                           const ServeOptions& options,
                           std::size_t snapshot_every, double* utility,
                           std::uint64_t* replayed = nullptr,
                           const char* stream = kRecoveryStream,
                           std::string* state = nullptr) {
  const auto net = maxutil::gen::figure1_example();
  const Script script = parse_script_text(stream);
  TempDir dir;
  DurableOptions durable_options;
  durable_options.dir = dir.path;
  durable_options.snapshot_every = snapshot_every;
  {
    Daemon daemon(net, options);
    Durable durable(daemon, durable_options);
    EXPECT_EQ(durable.epoch(), 1u);
    for (std::size_t i = 0; i < crash_after; ++i) {
      durable.submit(script.requests[i]);
    }
  }
  Daemon daemon(net, options);
  Durable durable(daemon, durable_options);
  EXPECT_EQ(durable.epoch(), 2u);
  if (replayed != nullptr) *replayed = durable.replayed();
  for (std::size_t i = crash_after; i < script.requests.size(); ++i) {
    durable.submit(script.requests[i]);
  }
  const ServeReport& report = durable.finish();
  *utility = report.final_utility;
  if (state != nullptr) *state = state_blob(daemon);
  return durable.full_decision_log();
}

TEST(ServeRecovery, KillAtEveryWalRecordIsBitIdentical) {
  const ServeOptions options = recovery_options("gradient", 1);
  double reference_utility = 0.0;
  const std::string reference =
      run_uninterrupted(options, &reference_utility);
  const std::size_t requests =
      parse_script_text(kRecoveryStream).requests.size();
  for (std::size_t k = 0; k <= requests; ++k) {
    double utility = 0.0;
    const std::string log = run_with_crash(k, options, 2, &utility);
    EXPECT_EQ(log, reference) << "crash after record " << k;
    EXPECT_EQ(utility, reference_utility) << "crash after record " << k;
  }
}

TEST(ServeRecovery, LpSparseKillAtEveryWalRecordIsBitIdentical) {
  const ServeOptions options = recovery_options("lp-sparse", 1);
  {
    // The stream exercises what it should: a denial, warm re-solves.
    const auto net = maxutil::gen::figure1_example();
    Daemon daemon(net, options);
    const ServeReport& report = daemon.run(parse_script_text(kLpBasisStream));
    ASSERT_EQ(report.decisions[5].outcome, Outcome::kDeny)
        << report.decision_log();
    const auto warm =
        daemon.controller().metrics().find("ctrl_lp_warm_bases_total");
    ASSERT_TRUE(warm.has_value());
    EXPECT_GE(daemon.controller().metrics().counter_value(*warm), 6u);
  }
  double reference_utility = 0.0;
  std::string reference_state;
  const std::string reference = run_uninterrupted(
      options, &reference_utility, kLpBasisStream, &reference_state);
  const std::size_t requests =
      parse_script_text(kLpBasisStream).requests.size();
  for (std::size_t k = 0; k <= requests; ++k) {
    double utility = 0.0;
    std::string state;
    const std::string log = run_with_crash(k, options, 2, &utility, nullptr,
                                           kLpBasisStream, &state);
    EXPECT_EQ(log, reference) << "crash after record " << k;
    EXPECT_EQ(utility, reference_utility) << "crash after record " << k;
    // The decision lines round; the final state (routing, bases) may not
    // differ in a single bit either.
    EXPECT_EQ(state, reference_state) << "crash after record " << k;
  }
}

TEST(ServeRecovery, NoSnapshotsMeansFullWalReplay) {
  const ServeOptions options = recovery_options("gradient", 1);
  double reference_utility = 0.0;
  const std::string reference =
      run_uninterrupted(options, &reference_utility);
  double utility = 0.0;
  std::uint64_t replayed = 0;
  // snapshot_every = 0: recovery must replay all 6 pre-crash records.
  const std::string log = run_with_crash(6, options, 0, &utility, &replayed);
  EXPECT_EQ(replayed, 6u);
  EXPECT_EQ(log, reference);
  EXPECT_EQ(utility, reference_utility);
}

TEST(ServeRecovery, DistributedBitIdentityAcross128Threads) {
  // The acceptance bar: crash + recover under the distributed backend at
  // 1/2/8 threads matches the uninterrupted run bit-for-bit, and the logs
  // agree across thread counts.
  std::string logs[3];
  const std::size_t threads[3] = {1, 2, 8};
  for (std::size_t t = 0; t < 3; ++t) {
    const ServeOptions options = recovery_options("distributed", threads[t]);
    double reference_utility = 0.0;
    const std::string reference =
        run_uninterrupted(options, &reference_utility);
    for (const std::size_t k : {std::size_t{2}, std::size_t{5}}) {
      double utility = 0.0;
      const std::string log = run_with_crash(k, options, 2, &utility);
      EXPECT_EQ(log, reference)
          << "threads=" << threads[t] << " crash after " << k;
      EXPECT_EQ(utility, reference_utility)
          << "threads=" << threads[t] << " crash after " << k;
      logs[t] = log;
    }
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
  EXPECT_FALSE(logs[0].empty());
}

TEST(ServeRecovery, TornWalTailIsTruncated) {
  TempDir dir;
  const std::string path = dir.path + "/wal.log";
  {
    Wal wal(path);
    wal.append({1, 1, "query=S1@0"});
    wal.append({2, 1, "depart=S2@1"});
    wal.sync();
  }
  {
    // A corrupt record (bad checksum) and a torn final line.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "r 3 1 deadbeefdeadbeef query=S1@2\n";
    out << "r 4 1 0123";  // no newline: torn mid-append
  }
  std::size_t truncated = 0;
  const std::vector<WalRecord> records = Wal::read_and_repair(path, &truncated);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "query=S1@0");
  EXPECT_EQ(records[1].seq, 2u);
  EXPECT_GT(truncated, 0u);
  // The repair is durable: a second read finds a clean file.
  std::size_t truncated_again = 0;
  EXPECT_EQ(Wal::read_and_repair(path, &truncated_again).size(), 2u);
  EXPECT_EQ(truncated_again, 0u);
}

TEST(ServeRecovery, SnapshotRoundTripContinuesBatchNumbering) {
  const auto net = maxutil::gen::figure1_example();
  const ServeOptions options = recovery_options("gradient", 1);
  const Script script = parse_script_text(kRecoveryStream);

  Daemon original(net, options);
  for (std::size_t i = 0; i < 5; ++i) original.submit(script.requests[i]);
  original.flush();
  std::ostringstream snapshot;
  original.export_snapshot(snapshot);
  const std::size_t batches_at_export = original.report().batches;

  Daemon restored(net, options);
  std::istringstream in(snapshot.str());
  restored.import_snapshot(in);
  EXPECT_EQ(restored.report().batches, batches_at_export);
  EXPECT_EQ(restored.report().final_utility,
            original.report().final_utility);

  // Both continue with the rest of the stream and agree bit-for-bit.
  for (std::size_t i = 5; i < script.requests.size(); ++i) {
    original.submit(script.requests[i]);
    restored.submit(script.requests[i]);
  }
  original.finish();
  restored.finish();
  const auto& a = original.report().decisions;
  const auto& b = restored.report().decisions;
  ASSERT_EQ(a.size() - 5, b.size());  // restored log restarts after import
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].line(), a[i + 5].line());
  }
  EXPECT_EQ(restored.report().final_utility, original.report().final_utility);

  // The ordering bound survived the restore: pre-snapshot times are stale.
  Daemon late(net, options);
  std::istringstream again(snapshot.str());
  late.import_snapshot(again);
  expect_error([&] { late.submit(parse_request("query=S1@1")); },
               "time-ordered");
}

TEST(ServeRecovery, MismatchedOptionsAreRefused) {
  const auto net = maxutil::gen::figure1_example();
  TempDir dir;
  DurableOptions durable_options;
  durable_options.dir = dir.path;
  {
    Daemon daemon(net, recovery_options("gradient", 1));
    Durable durable(daemon, durable_options);
    durable.submit(parse_request("query=S1@0"));
  }
  ServeOptions changed = recovery_options("gradient", 1);
  changed.window = 7;  // a different window would re-batch history
  Daemon daemon(net, changed);
  expect_error([&] { Durable durable(daemon, durable_options); },
               "different serve options");
}

// --- Acceptor: multi-client fan-in, epoch fencing, overload routing ---

TEST(ServeAcceptor, MultiClientInterleavingIsDeterministic) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 0;
  Daemon daemon(net, options);
  DaemonSink sink(daemon);
  AcceptorOptions acceptor_options;
  acceptor_options.stamp_arrival = true;
  Acceptor acceptor(sink, acceptor_options);

  const int a = acceptor.open_session();
  const int b = acceptor.open_session();
  EXPECT_EQ(acceptor.take_output(a), "epoch=0\n");  // not durable: epoch 0
  EXPECT_EQ(acceptor.take_output(b), "epoch=0\n");

  // Clients disagree about time (@0 everywhere); the boundary order rules.
  acceptor.feed_line(a, "depart=S2@0");
  acceptor.feed_line(b, "query=S1@0");
  acceptor.feed_line(a, "admit=S2*0.5@0");
  acceptor.feed_line(b, "query=S2@0");
  acceptor.flush_now();
  daemon.finish();

  // Responses route to the submitting client, in that client's order.
  const std::string out_a = acceptor.take_output(a);
  const std::string out_b = acceptor.take_output(b);
  EXPECT_NE(out_a.find("depart=S2@0 -> applied"), std::string::npos);
  EXPECT_NE(out_a.find("admit=S2*0.5@2 -> "), std::string::npos);
  EXPECT_EQ(out_a.find("query="), std::string::npos);
  EXPECT_NE(out_b.find("query=S1@1 -> report"), std::string::npos);
  EXPECT_NE(out_b.find("query=S2@3 -> report"), std::string::npos);
  EXPECT_EQ(out_b.find("depart="), std::string::npos);

  // The stamped stream replays to the identical decision log: any client
  // interleaving is just a serve script under boundary ordinals.
  Daemon replay(net, options);
  replay.run(parse_script_text(
      "depart=S2@0\nquery=S1@1\nadmit=S2*0.5@2\nquery=S2@3\n"));
  EXPECT_EQ(replay.report().decision_log(),
            daemon.report().decision_log());
}

TEST(ServeAcceptor, StaleEpochIsFencedWithRetryableError) {
  const auto net = maxutil::gen::figure1_example();
  TempDir dir;
  ServeOptions options = fast_options();
  options.window = 0;
  Daemon daemon(net, options);
  DurableOptions durable_options;
  durable_options.dir = dir.path;
  Durable durable(daemon, durable_options);
  EXPECT_EQ(durable.epoch(), 1u);

  Acceptor acceptor(durable);
  const int stale = acceptor.open_session();
  EXPECT_EQ(acceptor.take_output(stale), "epoch=1\n");
  acceptor.feed_line(stale, "epoch=0");  // a fenced-off predecessor's epoch
  std::string out = acceptor.take_output(stale);
  EXPECT_NE(out.find("error: stale epoch 0 (current 1)"), std::string::npos);
  EXPECT_NE(out.find("retry"), std::string::npos);
  // Every later line bounces without reaching the daemon.
  acceptor.feed_line(stale, "query=S1@0");
  EXPECT_NE(acceptor.take_output(stale).find("fenced"), std::string::npos);
  EXPECT_TRUE(daemon.report().decisions.empty());
  EXPECT_EQ(counter(daemon, "serve_stale_epoch_total"), 2u);

  // A client asserting the current epoch proceeds normally.
  const int fresh = acceptor.open_session();
  acceptor.take_output(fresh);
  acceptor.feed_line(fresh, "epoch=1");
  acceptor.feed_line(fresh, "query=S1@0");
  acceptor.flush_now();
  EXPECT_NE(acceptor.take_output(fresh).find("-> report"), std::string::npos);
}

TEST(ServeAcceptor, OverloadDenialRoutesToTheOverloadingClient) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 100;
  options.max_pending = 1;
  Daemon daemon(net, options);
  DaemonSink sink(daemon);
  AcceptorOptions acceptor_options;
  acceptor_options.stamp_arrival = true;
  Acceptor acceptor(sink, acceptor_options);
  const int a = acceptor.open_session();
  const int b = acceptor.open_session();
  acceptor.take_output(a);
  acceptor.take_output(b);
  acceptor.feed_line(a, "query=S1@0");  // joins the batch
  acceptor.feed_line(b, "query=S1@0");  // overflows: denied immediately
  // The denial reaches b at once, while a's request is still pending.
  EXPECT_NE(acceptor.take_output(b).find("overloaded"), std::string::npos);
  EXPECT_EQ(acceptor.take_output(a), "");
  // a's answer arrives at the flush and routes to a, not b.
  acceptor.flush_now();
  EXPECT_NE(acceptor.take_output(a).find("-> report"), std::string::npos);
  EXPECT_EQ(acceptor.take_output(b), "");
}

TEST(ServeAcceptor, ClosingClientGetsItsAnswers) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 100;  // nothing would flush without the EOF
  Daemon daemon(net, options);
  DaemonSink sink(daemon);
  Acceptor acceptor(sink);
  const int session = acceptor.open_session();
  acceptor.take_output(session);
  acceptor.feed_line(session, "query=S1@0");
  const std::string farewell = acceptor.close_session(session);
  EXPECT_NE(farewell.find("query=S1@0 -> report"), std::string::npos);
  EXPECT_FALSE(acceptor.has_session(session));
}

// --- Acceptor socket front end: wall-clock timer flush ---

TEST(ServeAcceptor, SocketTimerFlushesWithoutFurtherArrivals) {
  const auto net = maxutil::gen::figure1_example();
  ServeOptions options = fast_options();
  options.window = 1000000;  // virtually never flushes on arrival
  Daemon daemon(net, options);
  DaemonSink sink(daemon);
  AcceptorOptions acceptor_options;
  acceptor_options.flush_ms = 30;
  Acceptor acceptor(sink, acceptor_options);

  const std::string path = "/tmp/maxutil_serve_sock_" +
                           std::to_string(::getpid());
  std::thread server([&] { acceptor.run(path); });

  // Wait for the socket to appear, then connect.
  int client = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    client = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(client);
    client = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(client, 0) << "could not connect to " << path;

  const auto read_until = [&](const std::string& needle) {
    std::string got;
    char chunk[512];
    while (got.find(needle) == std::string::npos) {
      const ssize_t n = ::read(client, chunk, sizeof(chunk));
      if (n <= 0) break;
      got.append(chunk, static_cast<std::size_t>(n));
    }
    return got;
  };

  EXPECT_NE(read_until("epoch=0\n").find("epoch=0"), std::string::npos);
  const std::string line = "query=S1@0\n";
  ASSERT_EQ(::write(client, line.data(), line.size()),
            static_cast<ssize_t>(line.size()));
  // No second request ever arrives; only the wall-clock timer can flush.
  const std::string answer = read_until("-> report");
  EXPECT_NE(answer.find("query=S1@0 -> report"), std::string::npos);
  ::close(client);  // last client leaves: run() returns
  server.join();
  EXPECT_EQ(acceptor.clients_served(), 1u);
  EXPECT_GE(daemon.report().forced_flushes, 1u);
}

TEST(ServeAcceptor, StampOrdinalContinuesAcrossRecovery) {
  const auto net = maxutil::gen::figure1_example();
  TempDir dir;
  ServeOptions options = fast_options();
  options.window = 2;
  AcceptorOptions acceptor_options;
  acceptor_options.stamp_arrival = true;
  DurableOptions durable_options;
  durable_options.dir = dir.path;
  {
    Daemon daemon(net, options);
    Durable durable(daemon, durable_options);
    Acceptor acceptor(durable, acceptor_options);
    const int a = acceptor.open_session();
    acceptor.take_output(a);
    acceptor.feed_line(a, "query=S1@0");
    acceptor.feed_line(a, "query=S2@0");
    // Crash without finish: the WAL holds ordinals 0 and 1, both pending.
  }
  Daemon daemon(net, options);
  Durable durable(daemon, durable_options);
  ASSERT_TRUE(durable.recovered());
  Acceptor acceptor(durable, acceptor_options);
  const int a = acceptor.open_session();
  EXPECT_EQ(acceptor.take_output(a), "epoch=2\n");
  // A restarted stamp clock would emit @0 and violate the daemon's time
  // ordering; the ordinal must continue where the WAL left off, and the
  // replayed orphans' decisions must be dropped, not misrouted to `a`.
  acceptor.feed_line(a, "query=S1@0");
  acceptor.flush_now();
  const std::string out = acceptor.take_output(a);
  EXPECT_NE(out.find("query=S1@2 -> report"), std::string::npos);
  EXPECT_EQ(out.find("error"), std::string::npos);
  EXPECT_EQ(out.find("query=S2"), std::string::npos);
  durable.finish();
  EXPECT_EQ(counter(daemon, "serve_dropped_responses_total"), 2u);
}

}  // namespace
