// Tests for the parallel deterministic runtime: thread-pool semantics,
// inbox ordering, payload-pool recycling, and bit-identical results across
// thread counts and shard partitions.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "core/routing.hpp"
#include "gen/random_instance.hpp"
#include "sim/distributed_gradient.hpp"
#include "sim/runtime.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xform/extended_graph.hpp"

namespace {

using maxutil::sim::Actor;
using maxutil::sim::ActorId;
using maxutil::sim::DistributedGradientSystem;
using maxutil::sim::Message;
using maxutil::sim::Outbox;
using maxutil::sim::QuietResult;
using maxutil::sim::QuietStatus;
using maxutil::sim::Runtime;
using maxutil::sim::RuntimeOptions;
using maxutil::util::CheckError;
using maxutil::util::Rng;
using maxutil::util::ThreadPool;
using maxutil::xform::ExtendedGraph;

RuntimeOptions threaded(std::size_t threads) {
  RuntimeOptions options;
  options.num_threads = threads;
  options.serial_cutoff = 0;  // exercise the parallel path even when tiny
  return options;
}

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.run_chunks(hits.size(), [&](std::size_t worker, std::size_t chunk) {
    EXPECT_LT(worker, 4u);
    hits[chunk].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.run_chunks(7, [&](std::size_t, std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 7);
}

TEST(ThreadPool, SerialFallbackWithoutWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int sum = 0;  // no synchronization needed: everything runs inline
  pool.run_chunks(5, [&](std::size_t worker, std::size_t chunk) {
    EXPECT_EQ(worker, 0u);
    sum += static_cast<int>(chunk);
  });
  EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_chunks(32,
                      [&](std::size_t, std::size_t chunk) {
                        if (chunk % 2 == 0) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ok{0};
  pool.run_chunks(8, [&](std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

/// Sends `count` messages to a fixed target in the first round, tagged with
/// the send sequence number.
class Sprayer : public Actor {
 public:
  Sprayer(ActorId target, int count) : target_(target), count_(count) {}
  void on_round(Outbox& out, std::span<const Message> inbox) override {
    (void)inbox;
    if (sent_) return;
    sent_ = true;
    for (int i = 0; i < count_; ++i) {
      out.send(target_, i, 0, {static_cast<double>(i)});
    }
  }

 private:
  ActorId target_;
  int count_;
  bool sent_ = false;
};

/// Records the (from, tag) sequence of every message it ever receives.
class Collector : public Actor {
 public:
  void on_round(Outbox& out, std::span<const Message> inbox) override {
    (void)out;
    for (const Message& m : inbox) {
      seen_.emplace_back(m.from, m.tag);
      EXPECT_EQ(m.payload.size(), 1u);
      EXPECT_DOUBLE_EQ(m.payload[0], static_cast<double>(m.tag));
    }
  }
  const std::vector<std::pair<ActorId, int>>& seen() const { return seen_; }

 private:
  std::vector<std::pair<ActorId, int>> seen_;
};

/// The flat counting-sort inbox must deliver grouped by recipient in
/// (sender actor id, send order) sequence — for every thread count.
TEST(ParallelRuntime, InboxOrderedBySenderThenSendSequence) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Runtime rt(threaded(threads));
    constexpr int kSenders = 9;
    constexpr int kPerSender = 3;
    for (int s = 0; s < kSenders; ++s) {
      rt.add_actor(std::make_unique<Sprayer>(kSenders, kPerSender));
    }
    const ActorId sink = rt.add_actor(std::make_unique<Collector>());
    rt.run_round();  // sprayers emit
    rt.run_round();  // collector drains
    ASSERT_TRUE(rt.quiet());
    const auto& collector = dynamic_cast<const Collector&>(rt.actor(sink));
    ASSERT_EQ(collector.seen().size(),
              static_cast<std::size_t>(kSenders * kPerSender));
    std::size_t i = 0;
    for (ActorId s = 0; s < kSenders; ++s) {
      for (int k = 0; k < kPerSender; ++k, ++i) {
        EXPECT_EQ(collector.seen()[i].first, s) << "thread count " << threads;
        EXPECT_EQ(collector.seen()[i].second, k);
      }
    }
    EXPECT_EQ(rt.delivered_messages(),
              static_cast<std::size_t>(kSenders * kPerSender));
  }
}

/// An actor that never stops chattering to itself — run_until_quiet can
/// never succeed.
class Chatter : public Actor {
 public:
  void on_round(Outbox& out, std::span<const Message> inbox) override {
    (void)inbox;
    out.send(0, 0, 0, {1.0});
  }
};

TEST(ParallelRuntime, RunUntilQuietStrictnessKnob) {
  Runtime rt;
  rt.add_actor(std::make_unique<Chatter>());
  rt.run_round();
  // Non-strict: the budget is observable instead of fatal, and the result
  // names the failure mode instead of leaving quiet() inference to callers.
  const QuietResult result = rt.run_until_quiet(50, /*strict=*/false);
  EXPECT_EQ(result.rounds, 50u);
  EXPECT_EQ(result.status, QuietStatus::kRoundLimit);
  EXPECT_FALSE(result.quiet());
  EXPECT_FALSE(rt.quiet());
  // Strict (the default) aborts once the budget is exhausted.
  EXPECT_THROW(rt.run_until_quiet(50), CheckError);
}

/// Bit-identical allocations and utility trajectories across thread counts
/// (1, 2, 8) and several seeds — the determinism contract of the parallel
/// runtime.
TEST(ParallelRuntime, DeterministicAcrossThreadCountsAndSeeds) {
  constexpr std::size_t kIterations = 12;
  for (const std::uint64_t seed : {2007ull, 11ull, 42ull}) {
    Rng rng(seed);
    const auto net = maxutil::gen::random_instance({}, rng);
    const ExtendedGraph xg(net);

    // Serial reference trajectory: one shard, no thread pool.
    DistributedGradientSystem reference(xg);
    std::vector<double> reference_utilities;
    for (std::size_t i = 0; i < kIterations; ++i) {
      reference.iterate();
      reference_utilities.push_back(reference.utility());
    }
    const auto reference_routing = reference.routing_snapshot();
    EXPECT_EQ(reference.runtime().shard_count(), 1u);

    // Edge-cut shard partitions at both thread counts must replay the
    // serial trajectory exactly — the partition must be invisible in every
    // output.
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      DistributedGradientSystem parallel(xg, {}, threaded(threads));
      for (std::size_t i = 0; i < kIterations; ++i) {
        parallel.iterate();
        EXPECT_EQ(parallel.utility(), reference_utilities[i])
            << threads << " threads diverged at iteration " << i
            << ", seed " << seed;
      }
      EXPECT_EQ(parallel.routing_snapshot().max_difference(reference_routing),
                0.0)
          << threads << " threads, seed " << seed;
      EXPECT_EQ(parallel.runtime().delivered_messages(),
                reference.runtime().delivered_messages());
      EXPECT_EQ(parallel.runtime().delivered_payload_doubles(),
                reference.runtime().delivered_payload_doubles());
      EXPECT_GT(parallel.runtime().shard_count(), 1u)
          << threads << " threads must actually run sharded";
    }
  }
}

/// After warmup, every payload buffer must come from the recycle free list:
/// steady-state rounds perform zero per-message heap allocations — at every
/// thread count, not just serially. Cross-shard sends return each buffer to
/// the pool that issued it (exact conservation), so the shard path has no
/// warmup-resistant leak.
TEST(ParallelRuntime, PayloadPoolRecyclesInSteadyState) {
  Rng rng(2007);
  const auto net = maxutil::gen::random_instance({}, rng);
  const ExtendedGraph xg(net);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    maxutil::sim::RuntimeOptions options;
    options.num_threads = threads;
    DistributedGradientSystem system(xg, {}, options);
    system.run(4);  // warmup: free lists grow to the per-round working set

    const std::size_t allocations_after_warmup =
        system.runtime().payload_pool_allocations();
    const std::size_t reuses_after_warmup =
        system.runtime().payload_pool_reuses();
    EXPECT_GT(allocations_after_warmup, 0u);

    system.run(6);
    EXPECT_EQ(system.runtime().payload_pool_allocations(),
              allocations_after_warmup)
        << "steady-state iterations must not allocate payload buffers at "
        << threads << " thread(s)";
    EXPECT_GT(system.runtime().payload_pool_reuses(), reuses_after_warmup);
    // Every send was served by the pool: acquisitions == reuses +
    // allocations and the overwhelming majority are reuses by now.
    EXPECT_GT(system.runtime().payload_pool_reuses(),
              10 * allocations_after_warmup);
  }
}

/// The pool also recycles under threads, and failure drops recycle rather
/// than leak (exercised via counters staying consistent).
TEST(ParallelRuntime, PoolAndCountersConsistentUnderThreadsAndFailure) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Runtime rt(threaded(threads));
    constexpr int kSenders = 6;
    for (int s = 0; s < kSenders; ++s) {
      rt.add_actor(std::make_unique<Sprayer>(kSenders, 4));
    }
    rt.add_actor(std::make_unique<Collector>());
    rt.run_round();
    rt.fail(kSenders);  // kill the collector before delivery
    rt.run_until_quiet(10);
    EXPECT_TRUE(rt.quiet());
    EXPECT_EQ(rt.dropped_messages(), static_cast<std::size_t>(kSenders * 4));
    EXPECT_EQ(rt.delivered_messages(), 0u);
  }
}

/// Wall-time counters accumulate (values are host-dependent, presence and
/// monotonicity are not).
TEST(ParallelRuntime, RoundTimersAccumulate) {
  Runtime rt;
  rt.add_actor(std::make_unique<Chatter>());
  rt.run_round();
  const double after_one = rt.total_round_seconds();
  EXPECT_GE(after_one, 0.0);
  rt.run_round();
  EXPECT_GE(rt.total_round_seconds(), after_one);
  EXPECT_GE(rt.last_round_seconds(), 0.0);
}

}  // namespace
