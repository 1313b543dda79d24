// Tests for the seeded fault-injection layer (sim::FaultPlan): the spec
// parser, drop/delay/duplicate/crash semantics at the runtime level, the
// in-flight accounting behind run_until_quiet's quiet check, and the
// hardened distributed gradient protocol — bit-identical faulted runs
// across thread counts, crash/restart resynchronization, and the
// drop<=0.2/delay<=3 degradation bound from the E16 acceptance criterion.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "core/routing.hpp"
#include "gen/figure1.hpp"
#include "sim/distributed_gradient.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "util/check.hpp"
#include "xform/extended_graph.hpp"

namespace {

using maxutil::sim::Actor;
using maxutil::sim::ActorId;
using maxutil::sim::DistributedGradientSystem;
using maxutil::sim::FaultPlan;
using maxutil::sim::Message;
using maxutil::sim::Outbox;
using maxutil::sim::parse_fault_spec;
using maxutil::sim::QuietResult;
using maxutil::sim::QuietStatus;
using maxutil::sim::Runtime;
using maxutil::sim::RuntimeOptions;
using maxutil::util::CheckError;
using maxutil::xform::ExtendedGraph;

/// Counts and records everything it receives.
class Counter : public Actor {
 public:
  std::size_t received = 0;
  void on_round(Outbox&, std::span<const Message> inbox) override {
    received += inbox.size();
  }
};

/// Sends one message from actor 0 to actor 1 via the kickoff hook.
void send_one(Runtime& runtime, double value = 42.0) {
  runtime.for_each_live_actor([&](ActorId id, Actor&, Outbox& out) {
    if (id == 0) out.send(1, /*tag=*/7, /*commodity=*/0, {value});
  });
}

Runtime make_pair_runtime(FaultPlan plan) {
  RuntimeOptions options;
  options.faults = std::move(plan);
  Runtime runtime(options);
  runtime.add_actor(std::make_unique<Counter>());
  runtime.add_actor(std::make_unique<Counter>());
  return runtime;
}

const Counter& receiver(const Runtime& runtime) {
  return static_cast<const Counter&>(runtime.actor(1));
}

// --- Spec parser ---

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultPlan plan =
      parse_fault_spec("drop=0.1,delay=1-3,dup=0.05,seed=7,crash=4@200-400");
  EXPECT_DOUBLE_EQ(plan.drop, 0.1);
  EXPECT_EQ(plan.delay_min, 1u);
  EXPECT_EQ(plan.delay_max, 3u);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.05);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].node, 4u);
  EXPECT_EQ(plan.crashes[0].crash_round, 200u);
  EXPECT_EQ(plan.crashes[0].restart_round, 400u);
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.link_faults());
}

TEST(FaultSpec, SingleDelayValueMeansZeroToMax) {
  const FaultPlan plan = parse_fault_spec("delay=4");
  EXPECT_EQ(plan.delay_min, 0u);
  EXPECT_EQ(plan.delay_max, 4u);
}

TEST(FaultSpec, CrashEntriesRepeat) {
  const FaultPlan plan = parse_fault_spec("crash=1@10-20,crash=2@30-0");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[1].restart_round, 0u);  // 0 = never restarts
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.link_faults());  // crash-only plan draws no RNG
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec(""), CheckError);
  EXPECT_THROW(parse_fault_spec("drop"), CheckError);
  EXPECT_THROW(parse_fault_spec("bogus=1"), CheckError);
  EXPECT_THROW(parse_fault_spec("drop=abc"), CheckError);
  EXPECT_THROW(parse_fault_spec("drop=1.5"), CheckError);    // validate()
  EXPECT_THROW(parse_fault_spec("delay=3-1"), CheckError);   // inverted
  EXPECT_THROW(parse_fault_spec("crash=1@5"), CheckError);   // no window end
}

TEST(FaultSpec, DefaultPlanIsDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.link_faults());
}

TEST(FaultSpec, ParsesPerLinkOverrides) {
  const FaultPlan plan = parse_fault_spec("drop=0.1,link=2-5@0.5,link=0-1@0");
  ASSERT_EQ(plan.link_drops.size(), 2u);
  EXPECT_EQ(plan.link_drops[0].from, 2u);
  EXPECT_EQ(plan.link_drops[0].to, 5u);
  EXPECT_DOUBLE_EQ(plan.link_drops[0].probability, 0.5);
  // Overrides replace the global rate on their exact link, both ways.
  EXPECT_DOUBLE_EQ(plan.drop_for(2, 5), 0.5);
  EXPECT_DOUBLE_EQ(plan.drop_for(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(plan.drop_for(5, 2), 0.1);
}

/// Extracts the message a CheckError carries; every parser/validator error
/// must name what was wrong, not just abort.
template <typename Fn>
std::string error_message_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return {};
}

TEST(FaultSpec, MalformedLinkOverridesExplainTheShape) {
  EXPECT_THROW(parse_fault_spec("link=2-5"), CheckError);       // no @drop
  EXPECT_THROW(parse_fault_spec("link=25@0.5"), CheckError);    // no dash
  EXPECT_THROW(parse_fault_spec("link=a-b@0.5"), CheckError);   // not numbers
  EXPECT_THROW(parse_fault_spec("link=2-5@zzz"), CheckError);   // bad drop
  const std::string message =
      error_message_of([] { parse_fault_spec("link=2-5"); });
  EXPECT_NE(message.find("link=FROM-TO@DROP"), std::string::npos) << message;
}

TEST(FaultSpec, NegativeRatesNameTheOffendingValue) {
  EXPECT_THROW(parse_fault_spec("drop=-0.2"), CheckError);
  EXPECT_THROW(parse_fault_spec("dup=-1"), CheckError);
  EXPECT_THROW(parse_fault_spec("link=0-1@-0.5"), CheckError);
  const std::string message =
      error_message_of([] { parse_fault_spec("drop=-0.2"); });
  EXPECT_NE(message.find("-0.2"), std::string::npos) << message;
  EXPECT_NE(message.find("[0, 1]"), std::string::npos) << message;
  const std::string link_message =
      error_message_of([] { parse_fault_spec("link=0-1@-0.5"); });
  EXPECT_NE(link_message.find("link 0-1"), std::string::npos) << link_message;
}

TEST(FaultSpec, OverlappingCrashWindowsAreRejectedWithBothWindows) {
  // Plain overlap of two finite windows on one node.
  EXPECT_THROW(parse_fault_spec("crash=1@10-30,crash=1@20-40"), CheckError);
  // A never-restarting window ([5, inf)) overlaps anything after round 5.
  EXPECT_THROW(parse_fault_spec("crash=1@5-0,crash=1@100-200"), CheckError);
  // Same windows on different nodes are fine; so are disjoint windows.
  EXPECT_NO_THROW(parse_fault_spec("crash=1@10-30,crash=2@20-40"));
  EXPECT_NO_THROW(parse_fault_spec("crash=1@10-20,crash=1@20-30"));
  const std::string message = error_message_of(
      [] { parse_fault_spec("crash=1@10-30,crash=1@20-40"); });
  EXPECT_NE(message.find("node 1"), std::string::npos) << message;
  EXPECT_NE(message.find("[10, 30)"), std::string::npos) << message;
  EXPECT_NE(message.find("[20, 40)"), std::string::npos) << message;
}

TEST(FaultRuntime, PerLinkOverrideDropsOnlyThatLink) {
  FaultPlan plan;
  plan.link_drops.push_back({0, 1, 1.0});  // forward link always drops
  Runtime runtime = make_pair_runtime(plan);
  for (int i = 0; i < 5; ++i) send_one(runtime);
  runtime.run_until_quiet();
  EXPECT_EQ(receiver(runtime).received, 0u);
  EXPECT_EQ(runtime.fault_dropped_messages(), 5u);
}

// --- run_until_quiet status regression (the named-error fix) ---

TEST(FaultRuntime, RoundLimitExhaustionIsNamedNotInferred) {
  FaultPlan plan;
  plan.delay_min = 50;
  plan.delay_max = 50;
  Runtime runtime = make_pair_runtime(plan);
  send_one(runtime);
  // The message is parked in the fault-delay buffer for 50 rounds; a
  // 10-round budget must report kRoundLimit, not quiescence.
  const QuietResult limited = runtime.run_until_quiet(10, /*strict=*/false);
  EXPECT_EQ(limited.status, QuietStatus::kRoundLimit);
  EXPECT_FALSE(limited.quiet());
  EXPECT_EQ(limited.rounds, 10u);
  // With budget to spare the same run drains and reports kQuiet.
  const QuietResult drained = runtime.run_until_quiet(100, /*strict=*/false);
  EXPECT_EQ(drained.status, QuietStatus::kQuiet);
  EXPECT_TRUE(drained.quiet());
  EXPECT_EQ(receiver(runtime).received, 1u);
}

// --- Runtime-level fault semantics ---

TEST(FaultRuntime, CertainDropLosesEveryMessageAndCountsIt) {
  FaultPlan plan;
  plan.drop = 1.0;
  Runtime runtime = make_pair_runtime(plan);
  for (int i = 0; i < 10; ++i) send_one(runtime);
  runtime.run_until_quiet();
  EXPECT_EQ(receiver(runtime).received, 0u);
  EXPECT_EQ(runtime.fault_dropped_messages(), 10u);
  EXPECT_EQ(runtime.dropped_messages(), 10u);
  EXPECT_EQ(runtime.delivered_messages(), 0u);
}

TEST(FaultRuntime, PerLinkOverrideBeatsGlobalDrop) {
  FaultPlan plan;
  plan.drop = 1.0;
  plan.link_drops.push_back({0, 1, 0.0});  // this link never drops
  Runtime runtime = make_pair_runtime(plan);
  for (int i = 0; i < 5; ++i) send_one(runtime);
  runtime.run_until_quiet();
  EXPECT_EQ(receiver(runtime).received, 5u);
  EXPECT_EQ(runtime.fault_dropped_messages(), 0u);
}

TEST(FaultRuntime, DelayedMessageCountsAsInFlightUntilDelivered) {
  FaultPlan plan;
  plan.delay_min = 3;
  plan.delay_max = 3;
  Runtime runtime = make_pair_runtime(plan);
  send_one(runtime);
  // Base delay 1 + fault delay 3: due in round 4. Until then the message
  // sits in the injector's holding buffer and the runtime must NOT claim
  // quiescence — this is the in-flight accounting fix.
  EXPECT_FALSE(runtime.quiet());
  EXPECT_EQ(runtime.in_flight_messages(), 1u);
  runtime.run_round();
  runtime.run_round();
  runtime.run_round();
  EXPECT_EQ(receiver(runtime).received, 0u);
  EXPECT_FALSE(runtime.quiet());  // still in flight after 3 rounds
  runtime.run_round();
  EXPECT_EQ(receiver(runtime).received, 1u);
  EXPECT_TRUE(runtime.quiet());
  EXPECT_EQ(runtime.fault_delayed_messages(), 1u);
}

TEST(FaultRuntime, RunUntilQuietWaitsOutFaultDelays) {
  FaultPlan plan;
  plan.delay_min = 5;
  plan.delay_max = 5;
  Runtime runtime = make_pair_runtime(plan);
  send_one(runtime);
  const QuietResult result = runtime.run_until_quiet(100, /*strict=*/false);
  EXPECT_GE(result.rounds, 6u);  // no early return while the message was held
  EXPECT_EQ(result.status, QuietStatus::kQuiet);
  EXPECT_EQ(receiver(runtime).received, 1u);
  EXPECT_TRUE(runtime.quiet());
}

TEST(FaultRuntime, CertainDuplicationDeliversTwice) {
  FaultPlan plan;
  plan.duplicate = 1.0;
  Runtime runtime = make_pair_runtime(plan);
  for (int i = 0; i < 4; ++i) send_one(runtime);
  runtime.run_until_quiet();
  EXPECT_EQ(receiver(runtime).received, 8u);
  EXPECT_EQ(runtime.fault_duplicated_messages(), 4u);
  EXPECT_EQ(runtime.fault_dropped_messages(), 0u);
}

TEST(FaultRuntime, CrashWindowFailsAndRestoresOnSchedule) {
  FaultPlan plan;
  plan.crashes.push_back({1, 2, 5});
  Runtime runtime = make_pair_runtime(plan);
  std::size_t sent = 0;
  for (std::size_t r = 1; r <= 8; ++r) {
    send_one(runtime);
    ++sent;
    runtime.run_round();
    if (r >= 2 && r < 5) {
      EXPECT_TRUE(runtime.is_failed(1)) << "round " << r;
    } else {
      EXPECT_FALSE(runtime.is_failed(1)) << "round " << r;
    }
  }
  runtime.run_until_quiet();
  EXPECT_EQ(runtime.fault_crashes(), 1u);
  // Messages delivered or enqueued during the window are lost; the rest
  // arrive after the restart.
  EXPECT_LT(receiver(runtime).received, sent);
  EXPECT_GT(receiver(runtime).received, 0u);
  EXPECT_EQ(receiver(runtime).received + runtime.dropped_messages(), sent);
}

TEST(FaultRuntime, ManualRestoreReopensTraffic) {
  Runtime runtime = make_pair_runtime({});
  runtime.fail(1);
  send_one(runtime);
  runtime.run_until_quiet();
  EXPECT_EQ(receiver(runtime).received, 0u);
  runtime.restore(1);
  send_one(runtime);
  runtime.run_until_quiet();
  EXPECT_EQ(receiver(runtime).received, 1u);
}

// --- Hardened distributed gradient under faults ---

RuntimeOptions faulted(double drop, std::size_t delay, std::size_t threads) {
  RuntimeOptions options;
  options.num_threads = threads;
  options.serial_cutoff = 0;  // exercise the parallel path even when tiny
  options.faults.drop = drop;
  options.faults.delay_max = delay;
  options.faults.duplicate = 0.05;
  options.faults.seed = 2007;
  return options;
}

TEST(FaultGradient, BitIdenticalIteratesAcrossThreadCounts) {
  const auto net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  constexpr std::size_t kIters = 60;

  // Reference trajectory on one thread: utility snapshot every 10 iters.
  DistributedGradientSystem reference(xg, {}, faulted(0.2, 3, 1));
  std::vector<double> trajectory;
  for (std::size_t i = 0; i < kIters; ++i) {
    reference.iterate();
    if (i % 10 == 9) trajectory.push_back(reference.utility());
  }
  const auto routing = reference.routing_snapshot();

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    DistributedGradientSystem system(xg, {}, faulted(0.2, 3, threads));
    std::vector<double> got;
    for (std::size_t i = 0; i < kIters; ++i) {
      system.iterate();
      if (i % 10 == 9) got.push_back(system.utility());
    }
    // Bit-identical: same fault pattern, same iterates, same round count.
    EXPECT_EQ(got, trajectory) << threads << " threads";
    EXPECT_EQ(system.routing_snapshot().max_difference(routing), 0.0);
    EXPECT_EQ(system.runtime().rounds(), reference.runtime().rounds());
    EXPECT_EQ(system.runtime().fault_dropped_messages(),
              reference.runtime().fault_dropped_messages());
    // Link faults are drawn at the shard merge, so faulted runs shard too.
    EXPECT_GT(system.runtime().shard_count(), 1u) << threads << " threads";
  }
}

TEST(FaultGradient, ConvergesWithinOnePercentUnderAcceptanceFaults) {
  // The E16 acceptance bound: drop <= 0.2, delay <= 3 on the Figure-1
  // instance stays within 1% of the fault-free utility.
  const auto net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  constexpr std::size_t kIters = 300;

  DistributedGradientSystem clean(xg, {});
  clean.run(kIters);
  const double u_ref = clean.utility();

  DistributedGradientSystem noisy(xg, {}, faulted(0.2, 3, 1));
  noisy.run(kIters);
  EXPECT_TRUE(noisy.last_iteration_converged());
  EXPECT_GT(noisy.runtime().fault_dropped_messages(), 0u);
  EXPECT_LE(std::abs(noisy.utility() - u_ref), 0.01 * std::abs(u_ref));
}

TEST(FaultGradient, CrashedNodeResynchronizesAfterRestart) {
  const auto net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  constexpr std::size_t kIters = 300;

  DistributedGradientSystem clean(xg, {});
  clean.run(kIters);
  const double u_ref = clean.utility();
  const std::size_t rounds_per_iter =
      std::max<std::size_t>(1, clean.runtime().rounds() / kIters);

  // Busiest node by resource usage after a few clean iterations.
  std::size_t busiest = 0;
  double best = -1.0;
  for (ActorId id = 0; id < clean.runtime().actor_count(); ++id) {
    const auto& actor =
        static_cast<const maxutil::sim::NodeActor&>(clean.runtime().actor(id));
    if (actor.node_usage() > best) {
      best = actor.node_usage();
      busiest = id;
    }
  }

  RuntimeOptions options = faulted(0.05, 1, 1);
  options.faults.crashes.push_back(
      {busiest, 90 * rounds_per_iter, 150 * rounds_per_iter});
  DistributedGradientSystem system(xg, {}, options);
  system.run(kIters);
  EXPECT_EQ(system.runtime().fault_crashes(), 1u);
  EXPECT_FALSE(system.runtime().is_failed(busiest));
  // The restarted node resyncs via the wave sequence numbers and the final
  // allocation returns to the fault-free fixed point.
  EXPECT_LE(std::abs(system.utility() - u_ref), 0.01 * std::abs(u_ref));
}

TEST(FaultGradient, StalenessGuardHoldsUpdatesUnderExtremeLoss) {
  const auto net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  RuntimeOptions options;
  options.faults.drop = 0.3;
  options.faults.seed = 2007;
  // max_staleness = 0 tolerates no held-over inputs at all, so any dropped
  // message forces the guard to hold that node's Gamma update.
  DistributedGradientSystem system(xg, {}, options, /*max_staleness=*/0);
  system.run(50);
  EXPECT_GT(system.held_updates(), 0u);
  // Holding updates must not corrupt state: the system keeps iterating and
  // waves keep completing.
  EXPECT_TRUE(system.last_iteration_converged());
}

TEST(FaultGradient, FaultFreeRunsReportNoFaultActivity) {
  const auto net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  DistributedGradientSystem system(xg, {});
  system.run(20);
  EXPECT_EQ(system.runtime().fault_dropped_messages(), 0u);
  EXPECT_EQ(system.runtime().fault_duplicated_messages(), 0u);
  EXPECT_EQ(system.runtime().fault_delayed_messages(), 0u);
  EXPECT_EQ(system.held_updates(), 0u);
  EXPECT_EQ(system.max_input_staleness(), 0u);
}

}  // namespace
