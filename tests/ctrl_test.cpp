#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctrl/churn_plan.hpp"
#include "ctrl/controller.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "solver/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/check.hpp"
#include "util/hexfloat.hpp"
#include "util/rng.hpp"

namespace {

using maxutil::ctrl::ChurnEvent;
using maxutil::ctrl::ChurnEventKind;
using maxutil::ctrl::ChurnPlan;
using maxutil::ctrl::ChurnReport;
using maxutil::ctrl::Controller;
using maxutil::ctrl::ControllerOptions;
using maxutil::ctrl::DegradationPolicy;
using maxutil::ctrl::EventOutcome;
using maxutil::ctrl::kNotRecovered;
using maxutil::ctrl::parse_churn_plan;
using maxutil::util::CheckError;

ControllerOptions fast_options() {
  ControllerOptions options;
  options.solve.eta = 0.1;
  options.solve.tolerance = 1e-6;
  options.watchdog_iterations = 3000;
  options.lp_reference = false;  // skip the per-event LP in structural tests
  return options;
}

// --- Plan grammar ---

TEST(ChurnPlan, ParsesEveryEventKindAndSortsByTime) {
  const ChurnPlan plan = parse_churn_plan(
      "restore=n2@6, depart=k@5,arrive=j*1.5@4,cap=relay*0.5@3,"
      "bw=a-b*2@2,crash=n2@1");
  ASSERT_EQ(plan.events.size(), 6u);
  EXPECT_EQ(plan.events[0].kind, ChurnEventKind::kCrash);
  EXPECT_EQ(plan.events[0].node, "n2");
  EXPECT_EQ(plan.events[0].time, 1u);
  EXPECT_EQ(plan.events[1].kind, ChurnEventKind::kBwScale);
  EXPECT_EQ(plan.events[1].from, "a");
  EXPECT_EQ(plan.events[1].to, "b");
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 2.0);
  EXPECT_EQ(plan.events[2].kind, ChurnEventKind::kCapScale);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 0.5);
  EXPECT_EQ(plan.events[3].kind, ChurnEventKind::kArrive);
  EXPECT_EQ(plan.events[3].commodity, "j");
  EXPECT_DOUBLE_EQ(plan.events[3].factor, 1.5);
  EXPECT_EQ(plan.events[4].kind, ChurnEventKind::kDepart);
  EXPECT_EQ(plan.events[5].kind, ChurnEventKind::kRestore);
}

TEST(ChurnPlan, DescribeRoundTrips) {
  const std::string spec =
      "crash=n2@1,bw=a-b*2@2,cap=relay*0.5@3,arrive=j*1.5@4,depart=k@5";
  const ChurnPlan plan = parse_churn_plan(spec);
  const ChurnPlan again = parse_churn_plan(plan.describe());
  ASSERT_EQ(again.events.size(), plan.events.size());
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(ChurnPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(parse_churn_plan("").empty());
  EXPECT_TRUE(parse_churn_plan(" ,  , ").empty());
}

TEST(ChurnPlan, SameTimeEventsKeepSpecOrder) {
  const ChurnPlan plan = parse_churn_plan("depart=a@3,arrive=b@3,crash=c@3");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, ChurnEventKind::kDepart);
  EXPECT_EQ(plan.events[1].kind, ChurnEventKind::kArrive);
  EXPECT_EQ(plan.events[2].kind, ChurnEventKind::kCrash);
}

TEST(ChurnPlan, RejectsMalformedEntries) {
  EXPECT_THROW(parse_churn_plan("boom=x@1"), CheckError);      // unknown key
  EXPECT_THROW(parse_churn_plan("crash=x"), CheckError);       // missing @T
  EXPECT_THROW(parse_churn_plan("crash=x@-1"), CheckError);    // bad time
  EXPECT_THROW(parse_churn_plan("crash=x@soon"), CheckError);  // bad time
  EXPECT_THROW(parse_churn_plan("crash=@1"), CheckError);      // empty name
  EXPECT_THROW(parse_churn_plan("cap=x@1"), CheckError);       // missing *F
  EXPECT_THROW(parse_churn_plan("cap=x*0@1"), CheckError);     // zero factor
  EXPECT_THROW(parse_churn_plan("cap=x*-2@1"), CheckError);    // negative
  EXPECT_THROW(parse_churn_plan("cap=x*nan@1"), CheckError);   // non-finite
  EXPECT_THROW(parse_churn_plan("bw=ab*2@1"), CheckError);     // no '-' pair
  EXPECT_THROW(parse_churn_plan("crash"), CheckError);         // no '='
}

TEST(ChurnPlan, ParsesPolicyNames) {
  EXPECT_EQ(maxutil::ctrl::parse_policy("proportional"),
            DegradationPolicy::kProportional);
  EXPECT_EQ(maxutil::ctrl::parse_policy("priority"),
            DegradationPolicy::kPriority);
  EXPECT_EQ(maxutil::ctrl::parse_policy("freeze"), DegradationPolicy::kFreeze);
  EXPECT_THROW(maxutil::ctrl::parse_policy("yolo"), CheckError);
}

// --- Controller: exact restores ---

TEST(Controller, CrashRestoreRoundTripIsExact) {
  maxutil::gen::Figure1Ids ids;
  const auto net = maxutil::gen::figure1_example({}, &ids);
  Controller controller(net, fast_options());
  const double before = controller.utility();
  const std::size_t nodes_before = controller.network().node_count();

  controller.apply(parse_churn_plan("crash=Server 2@1").events[0]);
  EXPECT_EQ(controller.network().node_count(), nodes_before - 1);

  const EventOutcome restore =
      controller.apply(parse_churn_plan("restore=Server 2@2").events[0]);
  EXPECT_TRUE(restore.exact_restore);
  EXPECT_EQ(restore.iterations, 0u);
  EXPECT_EQ(restore.recovery_iterations, 0u);
  EXPECT_EQ(restore.status, maxutil::solver::Status::kConverged);
  EXPECT_EQ(controller.network().node_count(), nodes_before);
  // Bit-exact: the snapshot is reinstated, not re-computed.
  EXPECT_EQ(controller.utility(), before);
  EXPECT_EQ(controller.report().exact_restores, 1u);
}

TEST(Controller, DepartArriveRoundTripIsExact) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  const double before = controller.utility();

  controller.apply(parse_churn_plan("depart=S2@1").events[0]);
  EXPECT_EQ(controller.network().commodity_count(), 1u);

  const EventOutcome arrive =
      controller.apply(parse_churn_plan("arrive=S2@2").events[0]);
  EXPECT_TRUE(arrive.exact_restore);
  EXPECT_EQ(arrive.iterations, 0u);
  EXPECT_EQ(controller.network().commodity_count(), 2u);
  EXPECT_EQ(controller.utility(), before);
}

TEST(Controller, InterveningEventDefeatsExactRestore) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  controller.apply(parse_churn_plan("crash=Server 2@1").events[0]);
  controller.apply(parse_churn_plan("cap=Server 4*0.5@2").events[0]);
  const EventOutcome restore =
      controller.apply(parse_churn_plan("restore=Server 2@3").events[0]);
  // The configuration no longer matches the crash snapshot, so the restore
  // re-solves (warm-started off the degraded routing).
  EXPECT_FALSE(restore.exact_restore);
  EXPECT_TRUE(restore.warm_started || restore.cold_started);
  EXPECT_GT(restore.iterations, 0u);
}

TEST(Controller, ArriveAtDifferentRateIsNotExact) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  controller.apply(parse_churn_plan("depart=S2@1").events[0]);
  const EventOutcome arrive =
      controller.apply(parse_churn_plan("arrive=S2*0.5@2").events[0]);
  EXPECT_FALSE(arrive.exact_restore);
  EXPECT_EQ(controller.network().commodity_count(), 2u);
}

// --- Controller: warm starts, policies, SLOs ---

TEST(Controller, WarmStartsAreStrictlyFeasible) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  const ChurnReport report = controller.run(parse_churn_plan(
      "cap=Server 3*0.3@1,bw=Server 3-Server 5*0.5@2,cap=Server 3*2@3"));
  ASSERT_EQ(report.events.size(), 3u);
  for (const EventOutcome& o : report.events) {
    EXPECT_TRUE(o.warm_started);
    // The degradation policy hands the optimizer a point strictly inside
    // the capacity guard.
    EXPECT_LT(o.warm_start_violation, 0.0) << o.describe();
  }
}

TEST(Controller, StartKindConservation) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.lp_reference = true;
  Controller controller(net, options);
  const ChurnReport report = controller.run(parse_churn_plan(
      "cap=Server 3*0.5@1,crash=Server 2@2,restore=Server 2@3,"
      "depart=S2@4,arrive=S2@5,cap=Server 3*2@6"));
  ASSERT_EQ(report.events.size(), 6u);
  EXPECT_EQ(report.warm_starts + report.cold_starts + report.exact_restores,
            report.events.size());
  for (const EventOutcome& o : report.events) {
    EXPECT_GE(o.utility_deficit, 0.0);
    EXPECT_GT(o.optimum, 0.0);
  }
}

TEST(Controller, FreezePolicyColdStartsOnInfeasibleCarryOver) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.policy = DegradationPolicy::kFreeze;
  Controller controller(net, options);
  // Shrinking the shared Server 3 to 2% of its power makes the carried-over
  // routing grossly infeasible; freeze sheds nothing, so it must cold-start.
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.02@1").events[0]);
  EXPECT_TRUE(outcome.degraded_infeasible);
  EXPECT_TRUE(outcome.cold_started);
  EXPECT_FALSE(outcome.warm_started);
  // `message` is only a failure cause; the flag records the cold start.
  EXPECT_TRUE(maxutil::solver::is_usable(outcome.status));
  EXPECT_EQ(outcome.message, "");

  // A two-event batch takes the same path.
  Controller twin(net, options);
  const EventOutcome batch = twin.apply_batch(
      parse_churn_plan("cap=Server 3*0.02@1,cap=Server 4*0.9@1").events);
  EXPECT_TRUE(batch.degraded_infeasible);
  EXPECT_TRUE(batch.cold_started);
  EXPECT_FALSE(batch.warm_started);
  EXPECT_TRUE(maxutil::solver::is_usable(batch.status));
  EXPECT_EQ(batch.message, "");
}

TEST(Controller, ProportionalPolicyKeepsWarmStartOnSameEvent) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());  // proportional default
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.02@1").events[0]);
  EXPECT_TRUE(outcome.warm_started);
  EXPECT_LT(outcome.warm_start_violation, 0.0);
}

TEST(Controller, PriorityPolicyKeepsWarmStartOnSameEvent) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.policy = DegradationPolicy::kPriority;
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.02@1").events[0]);
  EXPECT_TRUE(outcome.warm_started);
  EXPECT_LT(outcome.warm_start_violation, 0.0);
}

TEST(Controller, RecoverySlosAgainstReferenceOptimum) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.lp_reference = true;
  options.recovery_band = 0.15;
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.5@1").events[0]);
  EXPECT_GT(outcome.optimum, 0.0);
  ASSERT_NE(outcome.recovery_iterations, kNotRecovered);
  EXPECT_LE(outcome.recovery_iterations, outcome.iterations);
  EXPECT_GE(outcome.utility_deficit, 0.0);
}

TEST(Controller, MetricsAndTraceAreRecorded) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.record_trace = true;
  Controller controller(net, options);
  controller.run(
      parse_churn_plan("crash=Server 2@1,restore=Server 2@2,depart=S2@3"));
  const auto& metrics = controller.metrics();
  const auto events = metrics.find("ctrl_events_total");
  ASSERT_TRUE(events.has_value());
  EXPECT_EQ(metrics.counter_value(*events), 3u);
  const auto exact = metrics.find("ctrl_exact_restores_total");
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(metrics.counter_value(*exact), 1u);
  // One deterministic span per event.
  EXPECT_EQ(controller.tracer().events().size(), 3u);
}

TEST(Controller, ColdStartArmNeverWarmStarts) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.use_warm_start = false;
  Controller controller(net, options);
  const ChurnReport report = controller.run(
      parse_churn_plan("cap=Server 3*0.5@1,bw=Server 3-Server 5*0.5@2"));
  EXPECT_EQ(report.warm_starts, 0u);
  EXPECT_EQ(report.cold_starts, 2u);
}

// --- Controller: validation errors ---

TEST(Controller, RejectsInvalidEvents) {
  maxutil::gen::Figure1Ids ids;
  const auto net = maxutil::gen::figure1_example({}, &ids);
  Controller controller(net, fast_options());
  // Unknown entities.
  EXPECT_THROW(controller.apply(parse_churn_plan("crash=nope@1").events[0]),
               CheckError);
  EXPECT_THROW(controller.apply(parse_churn_plan("depart=nope@1").events[0]),
               CheckError);
  EXPECT_THROW(
      controller.apply(parse_churn_plan("bw=Server 1-Server 8*2@1").events[0]),
      CheckError);  // no such baseline link
  // State mismatches.
  EXPECT_THROW(
      controller.apply(parse_churn_plan("restore=Server 2@1").events[0]),
      CheckError);  // not down
  EXPECT_THROW(controller.apply(parse_churn_plan("arrive=S2@1").events[0]),
               CheckError);  // already present
  EXPECT_THROW(controller.apply(parse_churn_plan("cap=Sink 1*2@1").events[0]),
               CheckError);  // sinks have no computing power
  controller.apply(parse_churn_plan("crash=Server 2@2").events[0]);
  EXPECT_THROW(controller.apply(parse_churn_plan("crash=Server 2@3").events[0]),
               CheckError);  // already down
  EXPECT_THROW(
      controller.apply(parse_churn_plan("cap=Server 2*0.5@3").events[0]),
      CheckError);  // down
}

TEST(Controller, ResolvesEntitiesByNumericId) {
  maxutil::gen::Figure1Ids ids;
  const auto net = maxutil::gen::figure1_example({}, &ids);
  Controller controller(net, fast_options());
  const EventOutcome outcome = controller.apply(parse_churn_plan(
      "crash=" + std::to_string(ids.server[1]) + "@1").events[0]);
  EXPECT_EQ(outcome.status, maxutil::solver::Status::kConverged);
  EXPECT_EQ(controller.network().node_count(), net.node_count() - 1);
}

TEST(Controller, RejectsPipelineWithoutRoutingOutput) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "fw";  // fw emits admissions, not a routing
  EXPECT_THROW(Controller(net, options), CheckError);
}

// --- Watchdog ---

/// A deliberately flaky backend: delegates to the gradient adapter but fails
/// outright on a scripted window of call numbers (1-based, inclusive), so
/// tests can script "the first attempt dies, the watchdog's retry succeeds"
/// or "both attempts die".
std::size_t g_flaky_calls = 0;
std::size_t g_flaky_fail_lo = 0;
std::size_t g_flaky_fail_hi = 0;  // 0 = never fail

void register_flaky_solver() {
  static bool once = [] {
    maxutil::solver::SolverInfo info;
    info.name = "flaky";
    info.description = "test-only: fails on a scripted call-number window";
    info.default_iterations = 5000;
    info.supports_warm_start = true;
    info.emits_routing = true;
    info.solve = [](const maxutil::solver::Problem& problem,
                    const maxutil::solver::SolveOptions& options) {
      ++g_flaky_calls;
      if (g_flaky_calls >= g_flaky_fail_lo && g_flaky_calls <= g_flaky_fail_hi) {
        maxutil::solver::SolveResult result;
        result.status = maxutil::solver::Status::kFailed;
        result.message = "flaky: scripted failure";
        return result;
      }
      return maxutil::solver::SolverRegistry::instance().solve(
          "gradient", problem, options);
    };
    maxutil::solver::SolverRegistry::instance().add(std::move(info));
    return true;
  }();
  (void)once;
}

TEST(Controller, WatchdogRetriesOnceThenSucceeds) {
  register_flaky_solver();
  g_flaky_calls = 0;
  g_flaky_fail_lo = g_flaky_fail_hi = 2;  // boot passes, first attempt dies
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "flaky";
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.5@1").events[0]);
  EXPECT_TRUE(outcome.watchdog_retry);
  EXPECT_TRUE(maxutil::solver::is_usable(outcome.status));
  EXPECT_EQ(controller.report().watchdog_retries, 1u);
  EXPECT_EQ(controller.report().failures, 0u);
  g_flaky_fail_lo = g_flaky_fail_hi = 0;
}

TEST(Controller, FailedRetryKeepsDegradedInterimPoint) {
  register_flaky_solver();
  g_flaky_calls = 0;
  g_flaky_fail_lo = 2;
  g_flaky_fail_hi = 3;  // boot passes; the event's attempt AND retry die
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "flaky";
  Controller controller(net, options);
  const double boot_utility = controller.utility();
  // Harsh enough that the degraded interim point must shed admitted rate.
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.05@1").events[0]);
  // The topology change stands even though the solve failed; the degraded
  // interim routing keeps serving traffic until a later event recovers.
  EXPECT_FALSE(maxutil::solver::is_usable(outcome.status));
  EXPECT_TRUE(outcome.watchdog_retry);
  EXPECT_EQ(outcome.message, "flaky: scripted failure");
  EXPECT_EQ(controller.report().failures, 1u);
  EXPECT_GT(controller.utility(), 0.0);
  EXPECT_LT(controller.utility(), boot_utility);

  // The next event re-solves (calls 4+ succeed) and recovers.
  const EventOutcome next =
      controller.apply(parse_churn_plan("cap=Server 3*20@2").events[0]);
  EXPECT_TRUE(maxutil::solver::is_usable(next.status));
  EXPECT_GT(controller.utility(), 0.0);
  g_flaky_fail_lo = g_flaky_fail_hi = 0;
}

TEST(Controller, FailedFreezeBatchReportsTheSolverCause) {
  register_flaky_solver();
  g_flaky_calls = 0;
  g_flaky_fail_lo = 2;
  g_flaky_fail_hi = 3;  // boot passes; the batch's attempt AND retry die
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "flaky";
  options.policy = DegradationPolicy::kFreeze;
  Controller controller(net, options);
  const EventOutcome outcome = controller.apply_batch(
      parse_churn_plan("cap=Server 3*0.02@1,cap=Server 4*0.9@1").events);
  EXPECT_TRUE(outcome.degraded_infeasible);
  EXPECT_FALSE(maxutil::solver::is_usable(outcome.status));
  EXPECT_EQ(outcome.message, "flaky: scripted failure");
  EXPECT_EQ(controller.report().failures, 1u);
  g_flaky_fail_lo = g_flaky_fail_hi = 0;
}

// --- One apply path ---

std::string state_blob(const Controller& controller) {
  std::ostringstream out;
  controller.export_state(out);
  return out.str();
}

void expect_same_outcome(const EventOutcome& a, const EventOutcome& b) {
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.warm_started, b.warm_started);
  EXPECT_EQ(a.cold_started, b.cold_started);
  EXPECT_EQ(a.exact_restore, b.exact_restore);
  EXPECT_EQ(a.watchdog_retry, b.watchdog_retry);
  EXPECT_EQ(a.degraded_infeasible, b.degraded_infeasible);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.recovery_iterations, b.recovery_iterations);
  EXPECT_EQ(a.utility_before, b.utility_before);
  EXPECT_EQ(a.utility_after, b.utility_after);
  EXPECT_EQ(a.optimum, b.optimum);
  EXPECT_EQ(a.utility_deficit, b.utility_deficit);
  EXPECT_EQ(a.warm_start_violation, b.warm_start_violation);
  EXPECT_EQ(a.message, b.message);
}

TEST(ControllerApplyPath, EventAndSingletonBatchAgreeForEveryKind) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.lp_reference = true;  // compare the recovery SLOs too
  Controller one(net, options);
  Controller twin(net, options);
  // Every kind; restore@4 and arrive@6 are exact restores, restore@9 is not.
  const ChurnPlan plan = parse_churn_plan(
      "cap=Server 3*0.5@1,bw=Server 3-Server 5*0.5@2,crash=Server 2@3,"
      "restore=Server 2@4,depart=S2@5,arrive=S2@6,crash=Server 2@7,"
      "cap=Server 4*0.5@8,restore=Server 2@9");
  std::size_t exact = 0;
  for (const ChurnEvent& event : plan.events) {
    SCOPED_TRACE(event.describe());
    const EventOutcome a = one.apply(event);
    const EventOutcome b = twin.apply_batch({event});
    expect_same_outcome(a, b);
    EXPECT_EQ(state_blob(one), state_blob(twin));
    if (a.exact_restore) ++exact;
  }
  EXPECT_EQ(exact, 2u);
  EXPECT_EQ(one.report().events.size(), plan.events.size());
  EXPECT_TRUE(twin.report().events.empty());
}

TEST(ControllerApplyPath, CrashInsideABatchTakesNoSnapshot) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  controller.apply_batch(
      parse_churn_plan("crash=Server 2@1,cap=Server 3*2@1").events);
  // Undo the scale: the configuration now differs from the pre-batch one
  // only by the crash, so a snapshot taken at the crash would match.
  controller.apply(parse_churn_plan("cap=Server 3*0.5@2").events[0]);
  const EventOutcome restore =
      controller.apply(parse_churn_plan("restore=Server 2@3").events[0]);
  EXPECT_FALSE(restore.exact_restore);
  EXPECT_TRUE(restore.warm_started);
  EXPECT_TRUE(maxutil::solver::is_usable(restore.status));
  const auto id = controller.metrics().find("ctrl_exact_restores_total");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(controller.metrics().counter_value(*id), 0u);
  EXPECT_EQ(controller.network().node_count(), net.node_count());
}

// --- Determinism ---

// --- Serialized state (serve recovery snapshots ride on this) ---

TEST(Controller, ExportImportStateIsBitExact) {
  const auto net = maxutil::gen::figure1_example();
  Controller original(net, fast_options());
  // Build up non-trivial state: a scale, a departure (creates a snapshot
  // entry for exact restore), and a crash.
  original.run(parse_churn_plan(
      "cap=Server 3*0.5@1,depart=S2@2,crash=Server 2@3"));
  std::ostringstream blob;
  original.export_state(blob);

  Controller restored(net, fast_options());
  std::istringstream in(blob.str());
  restored.import_state(in);
  EXPECT_EQ(restored.utility(), original.utility());  // exact, not approx
  EXPECT_EQ(restored.network().commodity_count(),
            original.network().commodity_count());
  ASSERT_EQ(restored.admitted().size(), original.admitted().size());
  for (std::size_t j = 0; j < restored.admitted().size(); ++j) {
    EXPECT_EQ(restored.admitted()[j], original.admitted()[j]);
  }

  // The restored controller continues identically: the snapshot map came
  // across, so re-arriving S2 is an exact restore in both.
  const ChurnPlan tail = parse_churn_plan("restore=Server 2@4,arrive=S2@5");
  original.run(tail);
  restored.run(tail);
  EXPECT_EQ(restored.utility(), original.utility());

  // A truncated blob is rejected without corrupting the target.
  Controller fresh(net, fast_options());
  const double before = fresh.utility();
  std::istringstream torn(blob.str().substr(0, blob.str().size() / 2));
  EXPECT_THROW(fresh.import_state(torn), CheckError);
  EXPECT_EQ(fresh.utility(), before);
}

// --- LP basis slots (lp-sparse) ---

maxutil::stream::StreamNetwork small_generated_network() {
  maxutil::gen::RandomInstanceParams params;
  params.servers = 24;
  params.commodities = 3;
  params.stages = 4;
  maxutil::util::Rng rng(11);
  return maxutil::gen::random_instance(params, rng);
}

ControllerOptions lp_sparse_options() {
  ControllerOptions options = fast_options();
  options.pipeline = "lp-sparse";
  return options;
}

ChurnEvent scale_event(ChurnEventKind kind, const std::string& a,
                       const std::string& b, double factor, std::size_t time) {
  ChurnEvent event;
  event.kind = kind;
  event.time = time;
  event.factor = factor;
  if (kind == ChurnEventKind::kCapScale) event.node = a;
  if (kind == ChurnEventKind::kBwScale) {
    event.from = a;
    event.to = b;
  }
  return event;
}

ChurnEvent commodity_event(ChurnEventKind kind, const std::string& name,
                           double factor, std::size_t time) {
  ChurnEvent event;
  event.kind = kind;
  event.time = time;
  event.commodity = name;
  event.factor = factor;
  return event;
}

/// Cap and bandwidth events on entities commodity 0 routes through: they
/// move only row right-hand sides, never the LP layout.
std::vector<ChurnEvent> rhs_only_events(
    const maxutil::stream::StreamNetwork& net) {
  const auto& g = net.graph();
  const std::string tail = net.node_name(g.tail(0));
  const std::string head = net.node_name(g.head(0));
  const std::string other = net.node_name(g.tail(net.link_count() / 2));
  return {scale_event(ChurnEventKind::kCapScale, tail, "", 0.5, 1),
          scale_event(ChurnEventKind::kBwScale, tail, head, 0.4, 2),
          scale_event(ChurnEventKind::kCapScale, other, "", 0.3, 3),
          scale_event(ChurnEventKind::kCapScale, tail, "", 3.0, 4),
          scale_event(ChurnEventKind::kBwScale, tail, head, 2.0, 5)};
}

std::uint64_t lp_warm_bases(const Controller& controller) {
  const auto id = controller.metrics().find("ctrl_lp_warm_bases_total");
  return id.has_value() ? controller.metrics().counter_value(*id) : 0;
}

TEST(ControllerLpBasis, RhsOnlyEventsReSolveWarmInFewerPivots) {
  const auto net = small_generated_network();
  Controller warm(net, lp_sparse_options());
  ControllerOptions cold_options = lp_sparse_options();
  cold_options.use_warm_start = false;  // every solve starts from slack
  Controller cold(net, cold_options);

  std::size_t warm_pivots = 0, cold_pivots = 0;
  for (const ChurnEvent& event : rhs_only_events(net)) {
    const EventOutcome w = warm.apply(event);
    const EventOutcome c = cold.apply(event);
    ASSERT_TRUE(maxutil::solver::is_usable(w.status)) << event.describe();
    ASSERT_TRUE(maxutil::solver::is_usable(c.status)) << event.describe();
    EXPECT_LT(w.iterations, c.iterations) << event.describe();
    EXPECT_NEAR(w.utility_after, c.utility_after,
                1e-9 * std::max(1.0, std::abs(c.utility_after)))
        << event.describe();
    warm_pivots += w.iterations;
    cold_pivots += c.iterations;
  }
  EXPECT_LT(warm_pivots, cold_pivots);
  EXPECT_EQ(lp_warm_bases(warm), 5u);  // every event was handed its basis
  EXPECT_EQ(lp_warm_bases(cold), 0u);
}

TEST(ControllerLpBasis, RevertToThePriorLayoutReSolvesInZeroPivots) {
  const auto net = small_generated_network();
  Controller controller(net, lp_sparse_options());
  controller.apply(
      commodity_event(ChurnEventKind::kDepart, "commodity1", 1.0, 1));
  const double utility = controller.utility();
  const std::vector<double> admitted = controller.admitted();

  // A half-rate arrival is a new layout (and not an exact restore: the rate
  // differs from the departure snapshot's); departing again returns to the
  // layout whose basis the previous slot still holds.
  const EventOutcome arrive = controller.apply(
      commodity_event(ChurnEventKind::kArrive, "commodity1", 0.5, 2));
  EXPECT_FALSE(arrive.exact_restore);
  const std::uint64_t warm_before = lp_warm_bases(controller);
  const EventOutcome depart = controller.apply(
      commodity_event(ChurnEventKind::kDepart, "commodity1", 1.0, 3));
  EXPECT_FALSE(depart.exact_restore);
  EXPECT_EQ(depart.iterations, 0u);
  EXPECT_EQ(lp_warm_bases(controller), warm_before + 1);
  EXPECT_EQ(controller.utility(), utility);  // bit for bit
  ASSERT_EQ(controller.admitted().size(), admitted.size());
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    EXPECT_EQ(controller.admitted()[j], admitted[j]) << "commodity " << j;
  }
}

TEST(ControllerLpBasis, ExportImportCarriesBothSlotsBitExactly) {
  const auto net = small_generated_network();
  const std::vector<ChurnEvent> rhs = rhs_only_events(net);
  Controller original(net, lp_sparse_options());
  original.apply(rhs[0]);
  original.apply(
      commodity_event(ChurnEventKind::kDepart, "commodity2", 1.0, 2));
  original.apply(
      commodity_event(ChurnEventKind::kArrive, "commodity2", 0.5, 3));
  std::ostringstream blob;
  original.export_state(blob);

  Controller restored(net, lp_sparse_options());
  std::istringstream in(blob.str());
  restored.import_state(in);
  std::ostringstream again;
  restored.export_state(again);
  EXPECT_EQ(again.str(), blob.str());

  // The next event reverts to the previous slot's layout: both controllers
  // must re-solve it from the same basis.
  const ChurnEvent next =
      commodity_event(ChurnEventKind::kDepart, "commodity2", 1.0, 4);
  const EventOutcome a = original.apply(next);
  const EventOutcome b = restored.apply(next);
  EXPECT_EQ(a.iterations, 0u);
  EXPECT_EQ(b.iterations, a.iterations);
  EXPECT_EQ(restored.utility(), original.utility());
  ASSERT_EQ(restored.routing().slot_count(), original.routing().slot_count());
  for (std::size_t s = 0; s < original.routing().slot_count(); ++s) {
    EXPECT_EQ(restored.routing().phi_slot(s), original.routing().phi_slot(s))
        << "slot " << s;
  }
  // And a warm rhs-only event after that agrees as well.
  const EventOutcome c = original.apply(rhs[1]);
  const EventOutcome d = restored.apply(rhs[1]);
  EXPECT_EQ(d.iterations, c.iterations);
  EXPECT_EQ(restored.utility(), original.utility());
}

/// The blob's lines, and the index of the "lp-bases" header line.
std::vector<std::string> blob_lines(const std::string& blob,
                                    std::size_t* lp_bases_at) {
  std::vector<std::string> lines;
  std::istringstream in(blob);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("lp-bases", 0) == 0) *lp_bases_at = lines.size();
    lines.push_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(ControllerLpBasis, VersionOneBlobImportsWithEmptySlots) {
  const auto net = small_generated_network();
  const std::vector<ChurnEvent> rhs = rhs_only_events(net);
  Controller original(net, lp_sparse_options());
  original.apply(rhs[0]);
  std::ostringstream blob;
  original.export_state(blob);

  // Rewrite as version 1: old header, no basis section.
  std::size_t at = 0;
  std::vector<std::string> lines = blob_lines(blob.str(), &at);
  ASSERT_GT(at, 0u);
  ASSERT_EQ(lines.front(), "maxutil-ctrl-state 2");
  lines.front() = "maxutil-ctrl-state 1";
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at),
              lines.begin() + static_cast<std::ptrdiff_t>(at + 5));
  Controller restored(net, lp_sparse_options());
  std::istringstream in(join_lines(lines));
  restored.import_state(in);
  EXPECT_EQ(restored.utility(), original.utility());

  // Both slots came back empty: the next solve starts cold.
  const std::uint64_t warm_before = lp_warm_bases(restored);
  const EventOutcome outcome = restored.apply(rhs[1]);
  EXPECT_TRUE(maxutil::solver::is_usable(outcome.status));
  EXPECT_EQ(lp_warm_bases(restored), warm_before);
  std::ostringstream out;
  restored.export_state(out);
  EXPECT_NE(out.str().find("lp-bases 2\n"), std::string::npos);
}

TEST(ControllerLpBasis, CorruptBasisSectionIsRejectedUntouched) {
  const auto net = small_generated_network();
  Controller original(net, lp_sparse_options());
  original.apply(rhs_only_events(net)[0]);
  std::ostringstream blob;
  original.export_state(blob);
  std::size_t at = 0;
  const std::vector<std::string> lines = blob_lines(blob.str(), &at);
  ASSERT_GT(at, 0u);
  const std::string& layout = lines[at + 1];  // slot 0: "<n> <digits>"
  const std::string& basis = lines[at + 2];
  ASSERT_NE(basis, "0");  // the boot and the event solved this layout

  std::vector<std::pair<std::string, std::vector<std::string>>> corrupt;
  const auto with = [&](std::size_t line, std::string text) {
    std::vector<std::string> copy = lines;
    copy[at + line] = std::move(text);
    return copy;
  };
  std::string bad_digit = basis;
  bad_digit.back() = '7';
  corrupt.push_back({"bad status digit", with(2, bad_digit)});
  corrupt.push_back(
      {"basis length", with(2, basis.substr(0, basis.size() - 1))});
  std::string short_layout = layout.substr(layout.find(' ') + 1);
  short_layout.pop_back();
  corrupt.push_back(
      {"layout length",
       with(1, std::to_string(short_layout.size()) + " " + short_layout)});
  std::string bad_layout = layout;
  bad_layout.back() = '2';
  corrupt.push_back({"layout digit", with(1, bad_layout)});
  corrupt.push_back({"basis without layout", with(1, "0")});

  Controller target(net, lp_sparse_options());
  std::ostringstream before;
  target.export_state(before);
  for (const auto& [what, bad] : corrupt) {
    std::istringstream in(join_lines(bad));
    EXPECT_THROW(target.import_state(in), CheckError) << what;
    std::ostringstream after;
    target.export_state(after);
    EXPECT_EQ(after.str(), before.str()) << what;
  }
}

TEST(ControllerLpBasis, RunStillRecordsEveryEventButBatchesDoNot) {
  const auto net = small_generated_network();
  const std::vector<ChurnEvent> rhs = rhs_only_events(net);
  Controller controller(net, lp_sparse_options());
  ChurnPlan plan;
  plan.events = {rhs[0], rhs[1]};
  EXPECT_EQ(controller.run(plan).events.size(), 2u);
  controller.apply_batch({rhs[2]});
  controller.apply_batch({rhs[3], rhs[4]});
  EXPECT_EQ(controller.report().events.size(), 2u);
}

// --- In-place capacity patch (same-shape batches) ---

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The live networks and extended graphs of `a` and `b` agree bit for bit
/// in every capacity and bandwidth.
void expect_same_live_state(const Controller& a, const Controller& b) {
  const auto& na = a.network();
  const auto& nb = b.network();
  ASSERT_EQ(na.node_count(), nb.node_count());
  ASSERT_EQ(na.link_count(), nb.link_count());
  for (std::size_t n = 0; n < na.node_count(); ++n) {
    EXPECT_EQ(bits(na.capacity(n)), bits(nb.capacity(n))) << "node " << n;
  }
  for (std::size_t l = 0; l < na.link_count(); ++l) {
    EXPECT_EQ(bits(na.bandwidth(l)), bits(nb.bandwidth(l))) << "link " << l;
  }
  const auto& xa = a.extended();
  const auto& xb = b.extended();
  ASSERT_EQ(xa.node_count(), xb.node_count());
  for (std::size_t v = 0; v < xa.node_count(); ++v) {
    EXPECT_EQ(bits(xa.capacity(v)), bits(xb.capacity(v))) << "xg node " << v;
  }
  EXPECT_EQ(xa.finite_capacity_nodes(), xb.finite_capacity_nodes());
}

/// A controller rebuilt from `source`'s exported configuration.
std::unique_ptr<Controller> rebuilt_twin(
    const maxutil::stream::StreamNetwork& net, const Controller& source,
    const ControllerOptions& options) {
  auto twin = std::make_unique<Controller>(net, options);
  std::istringstream in(state_blob(source));
  twin->import_state(in);
  return twin;
}

/// One event drawn from a seeded mix (cap and bw scales, crash/restore
/// toggles, depart/arrive toggles), redrawn until it is valid against
/// `controller` after `staged`.
ChurnEvent draw_event(const Controller& controller,
                      const std::vector<ChurnEvent>& staged,
                      maxutil::util::Rng& rng, std::size_t time) {
  const auto& net = controller.baseline();
  const auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  const double cap_factors[] = {0.5, 0.8, 1.25, 2.0};
  const double bw_factors[] = {0.4, 0.9, 1.5, 2.5};
  while (true) {
    const std::size_t roll = pick(10);
    ChurnEvent event;
    if (roll < 4) {
      const std::size_t n = pick(net.node_count());
      if (net.is_sink(n)) continue;
      event = scale_event(ChurnEventKind::kCapScale, net.node_name(n), "",
                          cap_factors[pick(4)], time);
    } else if (roll < 8) {
      const std::size_t l = pick(net.link_count());
      event = scale_event(ChurnEventKind::kBwScale,
                          net.node_name(net.graph().tail(l)),
                          net.node_name(net.graph().head(l)),
                          bw_factors[pick(4)], time);
    } else if (roll == 8) {
      const std::size_t n = pick(net.node_count());
      if (net.is_sink(n)) continue;
      event.kind = ChurnEventKind::kCrash;
      event.node = net.node_name(n);
      event.time = time;
      if (!controller.check_event(event, staged).empty()) {
        event.kind = ChurnEventKind::kRestore;
      }
    } else {
      const std::string name = net.commodity_name(pick(net.commodity_count()));
      event = commodity_event(ChurnEventKind::kDepart, name, 1.0, time);
      if (!controller.check_event(event, staged).empty()) {
        event = commodity_event(ChurnEventKind::kArrive, name,
                                pick(2) == 0 ? 1.0 : 0.5, time);
      }
    }
    if (controller.check_event(event, staged).empty()) return event;
  }
}

/// Drives a seeded event mix through `options`' engine. After every batch
/// the live state must equal a twin rebuilt from the exported
/// configuration, and the next batch must decide the same on both.
void check_patch_parity(const ControllerOptions& options) {
  const auto net = small_generated_network();
  Controller live(net, options);
  maxutil::util::Rng rng(2024);
  std::size_t same_shape = 0;
  for (std::size_t step = 1; step <= 24; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::unique_ptr<Controller> twin = rebuilt_twin(net, live, options);
    expect_same_live_state(live, *twin);
    std::vector<ChurnEvent> batch = {draw_event(live, {}, rng, step)};
    if (rng.uniform_int(0, 3) == 0) {
      batch.push_back(draw_event(live, batch, rng, step));
    }
    bool rhs_only = true;
    for (const ChurnEvent& event : batch) {
      rhs_only = rhs_only && (event.kind == ChurnEventKind::kCapScale ||
                              event.kind == ChurnEventKind::kBwScale);
    }
    if (rhs_only) ++same_shape;
    const EventOutcome a = live.apply_batch(batch);
    const EventOutcome b = twin->apply_batch(batch);
    expect_same_outcome(a, b);
    EXPECT_TRUE(maxutil::solver::is_usable(a.status)) << a.describe();
    EXPECT_EQ(state_blob(live), state_blob(*twin));
    expect_same_live_state(live, *twin);
  }
  EXPECT_GE(same_shape, 8u);  // the mix exercised the patch path
}

TEST(ControllerPatch, LpSparseLiveStateMatchesARebuild) {
  check_patch_parity(lp_sparse_options());
}

TEST(ControllerPatch, GradientLiveStateMatchesARebuild) {
  check_patch_parity(fast_options());
}

/// A gradient stage that throws a std::runtime_error (not a CheckError, so
/// no registry layer turns it into a failed status) once armed.
bool g_throw_armed = false;

void register_throwing_solver() {
  static bool once = [] {
    maxutil::solver::SolverInfo info;
    info.name = "throwing";
    info.description = "test-only: gradient that throws once armed";
    info.default_iterations = 5000;
    info.supports_warm_start = true;
    info.emits_routing = true;
    info.solve = [](const maxutil::solver::Problem& problem,
                    const maxutil::solver::SolveOptions& options) {
      if (g_throw_armed) {
        g_throw_armed = false;
        throw std::runtime_error("throwing: scripted stage exception");
      }
      return maxutil::solver::SolverRegistry::instance().solve(
          "gradient", problem, options);
    };
    maxutil::solver::SolverRegistry::instance().add(std::move(info));
    return true;
  }();
  (void)once;
}

TEST(ControllerPatch, ThrowingStageLeavesThePreEventState) {
  register_throwing_solver();
  const auto net = small_generated_network();
  ControllerOptions options = fast_options();
  options.pipeline = "throwing";
  Controller controller(net, options);
  const std::vector<ChurnEvent> rhs = rhs_only_events(net);
  controller.apply(rhs[0]);  // one patch applied and committed first
  const std::unique_ptr<Controller> before =
      rebuilt_twin(net, controller, options);
  const std::string blob = state_blob(controller);

  g_throw_armed = true;
  EXPECT_THROW(controller.apply(rhs[2]), std::runtime_error);
  EXPECT_FALSE(g_throw_armed);
  expect_same_live_state(controller, *before);
  EXPECT_EQ(state_blob(controller), blob);

  // The next event applies normally and agrees with the untouched twin.
  const EventOutcome a = controller.apply(rhs[1]);
  const EventOutcome b = before->apply(rhs[1]);
  EXPECT_TRUE(maxutil::solver::is_usable(a.status));
  expect_same_outcome(a, b);
  EXPECT_EQ(state_blob(controller), state_blob(*before));
  expect_same_live_state(controller, *before);
}

/// Two tenants share an aggregation server; `aggregate` is its computing
/// power, which a scenario may declare unbounded (`inf`).
maxutil::stream::StreamNetwork two_tenants(const std::string& aggregate) {
  return maxutil::scenario::parse_string(
      "server tenant-a 100\nserver tenant-b 100\n"
      "server aggregate " + aggregate + "\n"
      "sink out-a\nsink out-b\n"
      "link tenant-a aggregate 50\nlink tenant-b aggregate 50\n"
      "link aggregate out-a 500\nlink aggregate out-b 500\n"
      "commodity a tenant-a out-a 80 log\n"
      "use a tenant-a aggregate 1\nuse a aggregate out-a 1\n"
      "commodity b tenant-b out-b 80 log\n"
      "use b tenant-b aggregate 1\nuse b aggregate out-b 1\n");
}

TEST(ControllerPatch, UnboundedServerStaysUnboundedUnderThePatch) {
  const auto net = two_tenants("inf");
  const std::vector<ChurnEvent> events = {
      scale_event(ChurnEventKind::kCapScale, "aggregate", "", 0.5, 1),
      scale_event(ChurnEventKind::kBwScale, "tenant-a", "aggregate", 0.4, 2),
      scale_event(ChurnEventKind::kCapScale, "aggregate", "", 1e300, 3),
      scale_event(ChurnEventKind::kCapScale, "tenant-b", "", 0.5, 4)};
  for (const ControllerOptions& options :
       {fast_options(), lp_sparse_options()}) {
    SCOPED_TRACE(options.pipeline);
    Controller live(net, options);
    for (const ChurnEvent& event : events) {
      SCOPED_TRACE(event.describe());
      const std::unique_ptr<Controller> twin = rebuilt_twin(net, live, options);
      const EventOutcome a = live.apply(event);
      const EventOutcome b = twin->apply(event);
      EXPECT_TRUE(maxutil::solver::is_usable(a.status)) << a.describe();
      expect_same_outcome(a, b);
      EXPECT_EQ(state_blob(live), state_blob(*twin));
      expect_same_live_state(live, *twin);
      EXPECT_TRUE(std::isinf(live.network().capacity(2)));
    }
  }
}

TEST(ControllerPatch, BudgetCrossingInfinityRebuilds) {
  // Staging rejects a budget that overflows, but an imported configuration
  // may hold one (a rebuild accepts +inf). Scaling it back to a finite
  // budget changes finite_capacity_nodes(), which a patch cannot, so the
  // batch rebuilds and the live state still equals a rebuild.
  const auto net = two_tenants("30");
  const ControllerOptions options = lp_sparse_options();
  Controller live(net, options);
  // Line 5 of the blob holds the capacity factors; aggregate is node 2.
  std::istringstream lines(state_blob(live));
  std::string blob, line;
  for (std::size_t k = 0; std::getline(lines, line); ++k) {
    if (k == 5) {
      std::istringstream factors(line);
      std::string factor;
      line.clear();
      for (std::size_t n = 0; factors >> factor; ++n) {
        line += (n == 2 ? maxutil::util::hex_double(1e307) : factor) + ' ';
      }
    }
    blob += line + '\n';
  }
  std::istringstream in(blob);
  live.import_state(in);
  ASSERT_TRUE(std::isinf(live.network().capacity(2)));

  const std::unique_ptr<Controller> twin = rebuilt_twin(net, live, options);
  const ChurnEvent event =
      scale_event(ChurnEventKind::kCapScale, "aggregate", "", 1e-300, 1);
  const EventOutcome a = live.apply(event);
  const EventOutcome b = twin->apply(event);
  EXPECT_TRUE(maxutil::solver::is_usable(a.status)) << a.describe();
  expect_same_outcome(a, b);
  expect_same_live_state(live, *twin);
  EXPECT_TRUE(std::isfinite(live.network().capacity(2)));
  EXPECT_EQ(state_blob(live), state_blob(*twin));
}

TEST(Controller, DistributedChurnRunsAreThreadIndependent) {
  const auto net = maxutil::gen::figure1_example();
  const std::string plan_spec =
      "cap=Server 3*0.5@1,crash=Server 2@2,restore=Server 2@3";
  std::optional<ChurnReport> reference;
  std::optional<double> reference_utility;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ControllerOptions options = fast_options();
    options.pipeline = "distributed";
    options.watchdog_iterations = 120;
    options.solve.threads = threads;
    Controller controller(net, options);
    const ChurnReport report = controller.run(parse_churn_plan(plan_spec));
    if (!reference.has_value()) {
      reference = report;
      reference_utility = controller.utility();
    } else {
      EXPECT_EQ(controller.utility(), *reference_utility);
      ASSERT_EQ(report.events.size(), reference->events.size());
      for (std::size_t i = 0; i < report.events.size(); ++i) {
        EXPECT_EQ(report.events[i].iterations,
                  reference->events[i].iterations);
        EXPECT_EQ(report.events[i].utility_after,
                  reference->events[i].utility_after);
      }
    }
  }
}

}  // namespace
