#include "sim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "util/check.hpp"

namespace maxutil::sim {

using maxutil::util::ensure;

void Outbox::send(ActorId to, int tag, std::size_t commodity,
                  std::span<const double> payload) {
  runtime_->record_send(*this, to, tag, commodity, payload);
}

std::size_t Outbox::round() const { return runtime_->rounds(); }

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)),
      link_faults_(options_.faults.link_faults()),
      fault_rng_(options_.faults.seed) {
  ensure(options_.num_threads >= 1, "Runtime: num_threads must be >= 1");
  options_.faults.validate();
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
  }
  crash_fired_.assign(options_.faults.crashes.size(), 0);
  restart_fired_.assign(options_.faults.crashes.size(), 0);
  if (options_.observe && obs::kObsEnabled) {
    // One registry shard: parallel regions never touch the registry —
    // they stage events into per-shard rings (grown by set_partition)
    // drained at the serial merge points (obs_sync_counters), so reads stay
    // single-shard cheap.
    obs_ = std::make_unique<obs::Observability>(1);
    obs_register_metrics();
  }
}

void Runtime::obs_register_metrics() {
  obs::MetricsRegistry& m = obs_->metrics;
  obs_ids_.rounds = m.counter("rounds_total", "message rounds executed");
  obs_ids_.sent = m.counter("messages_sent",
                            "messages accepted at the serial merge point");
  obs_ids_.delivered = m.counter("messages_delivered",
                                 "messages handed to actor inboxes");
  obs_ids_.dropped =
      m.counter("messages_dropped", "messages lost (failed endpoints + faults)");
  obs_ids_.fault_dropped =
      m.counter("fault_messages_dropped", "drops due to fault injection");
  obs_ids_.fault_duplicated =
      m.counter("fault_messages_duplicated", "extra fault-injected copies");
  obs_ids_.fault_delayed =
      m.counter("fault_messages_delayed", "messages drawing extra fault delay");
  obs_ids_.fault_crashes =
      m.counter("fault_crashes", "crash windows triggered");
  obs_ids_.fault_restarts =
      m.counter("fault_restarts", "scheduled restarts triggered");
  obs_ids_.actor_steps = m.counter(
      "actor_steps_total",
      "live-actor invocations (staged in per-thread rings)");
  obs_ids_.queue_depth =
      m.gauge("queue_depth", "messages in flight after the last round");
  obs_ids_.round_delivered = m.histogram(
      "round_delivered_messages",
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384},
      "messages delivered per round");
  obs_ids_.round_us = m.histogram(
      "round_wall_us", {1, 10, 50, 100, 500, 1000, 10000, 100000, 1000000},
      "wall-clock microseconds per round");
  obs_->tracer.set_track_name(kObsRoundTrack, "runtime rounds");
  obs_->tracer.set_track_name(kObsFaultTrack, "fault events");
}

void Runtime::obs_sync_counters() {
  obs::MetricsRegistry& m = obs_->metrics;
  // Replay events staged by parallel workers/shards (exactly associative —
  // see obs/ring.hpp), then push the serial counter deltas.
  obs_->rings.drain(m);
  const auto push = [&m](obs::MetricId id, std::size_t current,
                         std::size_t& synced) {
    if (current != synced) {
      m.add(id, current - synced);
      synced = current;
    }
  };
  push(obs_ids_.rounds, rounds_, obs_synced_.rounds);
  push(obs_ids_.sent, sent_messages_, obs_synced_.sent);
  push(obs_ids_.delivered, delivered_messages_, obs_synced_.delivered);
  push(obs_ids_.dropped, dropped_messages_, obs_synced_.dropped);
  push(obs_ids_.fault_dropped, fault_dropped_, obs_synced_.fault_dropped);
  push(obs_ids_.fault_duplicated, fault_duplicated_,
       obs_synced_.fault_duplicated);
  push(obs_ids_.fault_delayed, fault_delayed_, obs_synced_.fault_delayed);
  push(obs_ids_.fault_crashes, fault_crashes_, obs_synced_.fault_crashes);
  push(obs_ids_.fault_restarts, fault_restarts_, obs_synced_.fault_restarts);
}

ActorId Runtime::add_actor(std::unique_ptr<Actor> actor) {
  ensure(actor != nullptr, "Runtime::add_actor: null actor");
  ensure(shards_.empty(),
         "Runtime::add_actor: all actors must exist before set_partition "
         "and the first round");
  actors_raw_.push_back(actor.get());
  actors_.push_back(std::move(actor));
  failed_.push_back(0);
  return actors_.size() - 1;
}

void Runtime::set_partition(std::vector<std::uint32_t> shard_of,
                            std::size_t shards) {
  ensure(shards >= 1, "Runtime::set_partition: shards must be >= 1");
  ensure(shard_of.size() == actors_.size(),
         "Runtime::set_partition: assignment size must match actor count");
  ensure(quiet(), "Runtime::set_partition: messages are in flight");
  for (const std::uint32_t s : shard_of) {
    ensure(s < shards, "Runtime::set_partition: shard id out of range");
  }
  const std::size_t n = actors_.size();
  shard_of_ = std::move(shard_of);
  shards_.assign(shards, Shard{});
  local_index_.resize(n);
  inbox_ptr_.assign(n, nullptr);
  inbox_len_.assign(n, 0);
  for (std::size_t si = 0; si < shards; ++si) {
    shards_[si].index = static_cast<std::uint32_t>(si);
  }
  for (ActorId id = 0; id < n; ++id) {
    Shard& s = shards_[shard_of_[id]];
    local_index_[id] = static_cast<std::uint32_t>(s.actors.size());
    s.actors.push_back(id);
  }
  // One payload pool and one metric staging ring per shard. Pools are
  // only ever added, so a re-partition keeps every pooled buffer.
  if (payload_shards_.size() < shards) payload_shards_.resize(shards);
  if (obs_) obs_->rings.grow(shards);
}

void Runtime::ensure_partition() {
  if (!shards_.empty()) return;
  // Contiguous actor-id blocks, one per pool thread (a single shard when
  // serial). Any assignment yields the same run, so this only has to be
  // balanced; callers that know the message graph install a better cut.
  const std::size_t n = actors_.size();
  const std::size_t shards = std::max<std::size_t>(
      1, std::min(pool_ ? pool_->thread_count() : 1, n));
  std::vector<std::uint32_t> shard_of(n);
  for (ActorId id = 0; id < n; ++id) {
    shard_of[id] = static_cast<std::uint32_t>(id * shards / n);
  }
  set_partition(std::move(shard_of), shards);
}

void Runtime::fail(ActorId id) {
  ensure(id < actors_.size(), "Runtime::fail: unknown actor");
  failed_[id] = 1;
}

void Runtime::restore(ActorId id) {
  ensure(id < actors_.size(), "Runtime::restore: unknown actor");
  failed_[id] = 0;
}

bool Runtime::is_failed(ActorId id) const {
  ensure(id < actors_.size(), "Runtime::is_failed: unknown actor");
  return failed_[id] != 0;
}

void Runtime::set_delay_model(
    std::function<std::size_t(ActorId, ActorId)> delay) {
  delay_ = std::move(delay);
}

std::size_t Runtime::payload_pool_reuses() const {
  std::size_t total = 0;
  for (const auto& shard : payload_shards_) total += shard.reuses;
  return total;
}

std::size_t Runtime::payload_pool_allocations() const {
  std::size_t total = 0;
  for (const auto& shard : payload_shards_) total += shard.allocations;
  return total;
}

std::vector<double> Runtime::acquire_payload(std::size_t shard_index,
                                             std::span<const double> data) {
  PayloadShard& shard = payload_shards_[shard_index];
  std::vector<double> buffer;
  if (!shard.free_list.empty()) {
    buffer = std::move(shard.free_list.back());
    shard.free_list.pop_back();
    ++shard.reuses;
  } else {
    ++shard.allocations;
  }
  buffer.assign(data.begin(), data.end());
  return buffer;
}

void Runtime::schedule(Message message, std::size_t base, std::size_t extra) {
  if (extra == 0) {
    shards_[shard_of_[message.to]].handoff.push_back(
        {rounds_ + base, epoch_, std::move(message)});
  } else {
    ++fault_delayed_;
    fault_deferred_.push_back(
        {rounds_ + base + extra, epoch_, std::move(message)});
  }
}

void Runtime::enqueue_now(Message message) {
  ++sent_messages_;
  PayloadShard& home = payload_shards_[shard_of_[message.from]];
  if (failed_[message.from] || failed_[message.to]) {
    ++dropped_messages_;
    home.free_list.push_back(std::move(message.payload));
    return;
  }
  const std::size_t base =
      delay_ ? std::max<std::size_t>(1, delay_(message.from, message.to)) : 1;
  if (!link_faults_) {
    schedule(std::move(message), base, 0);
    return;
  }
  // Fault injection. The per-message draw order is fixed — drop, extra
  // delay, duplicate, duplicate's extra delay — and this function only runs
  // on the serial merge path, so the RNG stream (and hence the fault
  // pattern) is identical for every thread count and partition.
  const FaultPlan& plan = options_.faults;
  if (fault_rng_.chance(plan.drop_for(message.from, message.to))) {
    ++dropped_messages_;
    ++fault_dropped_;
    home.free_list.push_back(std::move(message.payload));
    return;
  }
  std::size_t extra = 0;
  if (plan.delay_max > 0) {
    extra = static_cast<std::size_t>(
        fault_rng_.uniform_int(static_cast<std::int64_t>(plan.delay_min),
                               static_cast<std::int64_t>(plan.delay_max)));
  }
  Message copy;
  std::size_t copy_extra = 0;
  bool duplicated = false;
  if (plan.duplicate > 0.0 && fault_rng_.chance(plan.duplicate)) {
    duplicated = true;
    copy.from = message.from;
    copy.to = message.to;
    copy.tag = message.tag;
    copy.commodity = message.commodity;
    copy.payload = acquire_payload(shard_of_[message.from], message.payload);
    if (plan.delay_max > 0) {
      copy_extra = static_cast<std::size_t>(
          fault_rng_.uniform_int(static_cast<std::int64_t>(plan.delay_min),
                                 static_cast<std::int64_t>(plan.delay_max)));
    }
  }
  schedule(std::move(message), base, extra);
  if (duplicated) {
    ++fault_duplicated_;
    schedule(std::move(copy), base, copy_extra);
  }
}

void Runtime::record_send(const Outbox& outbox, ActorId to, int tag,
                          std::size_t commodity,
                          std::span<const double> payload) {
  ensure(to < actors_.size(), "Runtime: message to unknown actor");
  const std::size_t src_shard = outbox.shard_;
  Shard& s = shards_[src_shard];
  Message message;
  message.from = outbox.self_;
  message.to = to;
  message.tag = tag;
  message.commodity = commodity;
  message.payload = acquire_payload(src_shard, payload);
  if (link_faults_ || shard_of_[to] != src_shard) {
    // Cross-shard, or any send under link faults: fate (count, failure
    // filter, fault draws, due stamp) is decided at the serial merge so
    // the canonical global sender order is preserved.
    s.cross.push_back(std::move(message));
    return;
  }
  // Intra-shard: the whole send stays inside this shard's memory. failed_
  // is stable for the duration of a sweep (crash windows fire at round
  // start, fail()/restore() between rounds), so filtering here matches the
  // serial fate exactly.
  ++s.sent;
  if (failed_[message.from] || failed_[message.to]) {
    ++s.dropped;
    payload_shards_[src_shard].free_list.push_back(std::move(message.payload));
    return;
  }
  const std::size_t base =
      delay_ ? std::max<std::size_t>(1, delay_(message.from, message.to)) : 1;
  s.local.push_back({rounds_ + base, epoch_, std::move(message)});
}

void Runtime::release_payload(ActorId from, std::vector<double>&& payload,
                              Shard& s) {
  if (shard_of_[from] == s.index) {
    payload_shards_[s.index].free_list.push_back(std::move(payload));
  } else {
    s.returns.push_back({from, std::move(payload)});
  }
}

void Runtime::shard_deliver(Shard& s) {
  const std::size_t owned = s.actors.size();
  s.counts.assign(owned, 0);

  // Pass 1 (order-free): count deliverable messages per owned recipient.
  std::size_t total = 0;
  const auto count_queue = [&](const std::vector<Pending>& q) {
    for (const Pending& p : q) {
      if (p.due > rounds_) continue;
      if (failed_[p.message.from] || failed_[p.message.to]) continue;
      ++s.counts[local_index_[p.message.to]];
      ++total;
    }
  };
  count_queue(s.local);
  count_queue(s.handoff);

  s.inbox.resize(total);
  std::size_t acc = 0;
  for (std::size_t i = 0; i < owned; ++i) {
    const std::size_t c = s.counts[i];
    const ActorId id = s.actors[i];
    inbox_ptr_[id] = s.inbox.data() + acc;
    inbox_len_[id] = static_cast<std::uint32_t>(c);
    s.counts[i] = acc;  // becomes the scatter cursor
    acc += c;
  }

  // Pass 2: ordered two-queue merge on (epoch, sender). Both queues are
  // appended in that order, senders split by shard (so keys never tie
  // across queues), and the serial runtime enqueued in exactly this
  // sequence — hence each recipient sees the serial inbox, bit for bit.
  // Not-yet-due messages are compacted in place; failed-endpoint ones are
  // dropped here just as serial delivery would.
  const auto advance = [&](std::vector<Pending>& q, std::size_t& r,
                           std::size_t& w) -> bool {
    while (r < q.size()) {
      Pending& p = q[r];
      if (p.due > rounds_) {
        if (w != r) q[w] = std::move(p);
        ++w;
        ++r;
        continue;
      }
      if (failed_[p.message.from] || failed_[p.message.to]) {
        ++s.dropped;
        release_payload(p.message.from, std::move(p.message.payload), s);
        ++r;
        continue;
      }
      return true;
    }
    return false;
  };
  std::size_t lr = 0, lw = 0, hr = 0, hw = 0;
  bool lh = advance(s.local, lr, lw);
  bool hh = advance(s.handoff, hr, hw);
  while (lh || hh) {
    bool take_local;
    if (lh && hh) {
      const Pending& a = s.local[lr];
      const Pending& b = s.handoff[hr];
      take_local = a.epoch < b.epoch ||
                   (a.epoch == b.epoch && a.message.from < b.message.from);
    } else {
      take_local = lh;
    }
    Message& m = take_local ? s.local[lr].message : s.handoff[hr].message;
    s.delivered_payload += m.payload.size();
    s.inbox[s.counts[local_index_[m.to]]++] = std::move(m);
    if (take_local) {
      ++lr;
      lh = advance(s.local, lr, lw);
    } else {
      ++hr;
      hh = advance(s.handoff, hr, hw);
    }
  }
  s.local.resize(lw);
  s.handoff.resize(hw);
  s.delivered += total;
}

void Runtime::shard_step_round(Shard& s) {
  std::size_t steps = 0;
  for (const ActorId id : s.actors) {
    if (failed_[id]) continue;
    Outbox out(*this, id, s.index);
    actors_raw_[id]->on_round(
        out, std::span<const Message>(inbox_ptr_[id], inbox_len_[id]));
    ++steps;
  }
  // One staged event per shard sweep, not one registry write per actor.
  if (obs_ && steps != 0) obs_->rings.add(s.index, obs_ids_.actor_steps, steps);
}

void Runtime::shard_step_fn(
    Shard& s, const std::function<void(ActorId, Actor&, Outbox&)>& fn) {
  std::size_t steps = 0;
  for (const ActorId id : s.actors) {
    if (failed_[id]) continue;
    Outbox out(*this, id, s.index);
    fn(id, *actors_raw_[id], out);
    ++steps;
  }
  if (obs_ && steps != 0) obs_->rings.add(s.index, obs_ids_.actor_steps, steps);
}

void Runtime::shard_recycle(Shard& s) {
  for (Message& m : s.inbox) {
    release_payload(m.from, std::move(m.payload), s);
  }
  s.inbox.clear();
}

std::size_t Runtime::merge_cross_and_fold() {
  // K-way merge of the cross buffers in ascending global sender order.
  // Each buffer is already ascending (its shard stepped actors in id
  // order) and a sender lives in exactly one shard, so repeatedly taking
  // the minimal head replays the canonical serial enqueue order.
  for (Shard& s : shards_) s.cross_read = 0;
  for (;;) {
    Shard* src = nullptr;
    for (Shard& s : shards_) {
      if (s.cross_read >= s.cross.size()) continue;
      if (src == nullptr ||
          s.cross[s.cross_read].from < src->cross[src->cross_read].from) {
        src = &s;
      }
    }
    if (src == nullptr) break;
    enqueue_now(std::move(src->cross[src->cross_read++]));
  }

  // Route cross-delivered payloads back to their home pools (exact
  // conservation: every buffer returns to the pool that acquired it, so
  // steady-state rounds never allocate) and fold the per-shard tallies.
  std::size_t delivered = 0;
  for (Shard& s : shards_) {
    s.cross.clear();
    for (PayloadReturn& r : s.returns) {
      payload_shards_[shard_of_[r.from]].free_list.push_back(
          std::move(r.payload));
    }
    s.returns.clear();
    sent_messages_ += s.sent;
    dropped_messages_ += s.dropped;
    delivered += s.delivered;
    delivered_payload_ += s.delivered_payload;
    total_deliver_seconds_ += s.deliver_seconds;
    total_step_seconds_ += s.step_seconds;
    s.sent = 0;
    s.dropped = 0;
    s.delivered = 0;
    s.delivered_payload = 0;
    s.deliver_seconds = 0.0;
    s.step_seconds = 0.0;
  }
  delivered_messages_ += delivered;
  return delivered;
}

std::size_t Runtime::queued() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.local.size() + s.handoff.size();
  return total;
}

std::size_t Runtime::step_round() {
  const bool parallel = pool_ != nullptr && shards_.size() > 1 &&
                        queued() >= options_.serial_cutoff;
  ++epoch_;
  if (parallel) {
    pool_->run_chunks(shards_.size(), [this](std::size_t, std::size_t si) {
      Shard& s = shards_[si];
      if (obs_) {
        const auto t0 = std::chrono::steady_clock::now();
        shard_deliver(s);
        const auto t1 = std::chrono::steady_clock::now();
        shard_step_round(s);
        s.deliver_seconds += std::chrono::duration<double>(t1 - t0).count();
        s.step_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t1)
                              .count();
      } else {
        shard_deliver(s);
        shard_step_round(s);
      }
      shard_recycle(s);
    });
  } else {
    std::chrono::steady_clock::time_point t0, t1;
    if (obs_) t0 = std::chrono::steady_clock::now();
    for (Shard& s : shards_) shard_deliver(s);
    if (obs_) t1 = std::chrono::steady_clock::now();
    for (Shard& s : shards_) shard_step_round(s);
    if (obs_) {
      const auto t2 = std::chrono::steady_clock::now();
      total_deliver_seconds_ += std::chrono::duration<double>(t1 - t0).count();
      total_step_seconds_ += std::chrono::duration<double>(t2 - t1).count();
    }
    for (Shard& s : shards_) shard_recycle(s);
  }
  std::chrono::steady_clock::time_point merge_start;
  if (obs_) merge_start = std::chrono::steady_clock::now();
  const std::size_t delivered = merge_cross_and_fold();
  if (obs_) {
    total_merge_seconds_ += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - merge_start)
                                .count();
  }
  return delivered;
}

void Runtime::step_live_actors(
    const std::function<void(ActorId, Actor&, Outbox&)>& fn,
    std::size_t work_hint) {
  ensure_partition();
  ++epoch_;
  const bool parallel = pool_ != nullptr && shards_.size() > 1 &&
                        work_hint >= options_.serial_cutoff;
  if (parallel) {
    pool_->run_chunks(shards_.size(),
                      [this, &fn](std::size_t, std::size_t si) {
                        shard_step_fn(shards_[si], fn);
                      });
  } else {
    for (Shard& s : shards_) shard_step_fn(s, fn);
  }
  std::chrono::steady_clock::time_point merge_start;
  if (obs_) merge_start = std::chrono::steady_clock::now();
  merge_cross_and_fold();
  if (obs_) {
    total_merge_seconds_ += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - merge_start)
                                .count();
    obs_sync_counters();
  }
}

void Runtime::for_each_live_actor(
    const std::function<void(ActorId, Actor&, Outbox&)>& fn) {
  step_live_actors(fn, actors_.size());
}

void Runtime::release_fault_deferred() {
  if (fault_deferred_.empty()) return;
  std::size_t write = 0;
  for (std::size_t r = 0; r < fault_deferred_.size(); ++r) {
    Pending& p = fault_deferred_[r];
    if (p.due <= rounds_) {
      // Link faults are on, so `local` is empty and appending keeps each
      // handoff queue in serial enqueue order.
      shards_[shard_of_[p.message.to]].handoff.push_back(std::move(p));
    } else {
      if (write != r) fault_deferred_[write] = std::move(p);
      ++write;
    }
  }
  fault_deferred_.resize(write);
}

void Runtime::apply_crash_schedule() {
  const auto& crashes = options_.faults.crashes;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const CrashWindow& w = crashes[i];
    if (crash_fired_[i] == 0 && w.crash_round <= rounds_) {
      crash_fired_[i] = 1;
      ensure(w.node < actors_.size(),
             "FaultPlan: crash window names an unknown actor");
      if (!failed_[w.node]) {
        failed_[w.node] = true;
        ++fault_crashes_;
        if (obs_) {
          obs_->tracer.instant(
              "crash", "fault", kObsFaultTrack,
              {{"node", static_cast<double>(w.node)},
               {"round", static_cast<double>(rounds_)}});
        }
      }
    }
    if (restart_fired_[i] == 0 && w.restart_round > w.crash_round &&
        w.restart_round <= rounds_) {
      restart_fired_[i] = 1;
      restore(w.node);
      ++fault_restarts_;
      if (obs_) {
        obs_->tracer.instant("restart", "fault", kObsFaultTrack,
                             {{"node", static_cast<double>(w.node)},
                              {"round", static_cast<double>(rounds_)}});
      }
    }
  }
}

std::size_t Runtime::run_round() {
  const auto start = std::chrono::steady_clock::now();
  ++rounds_;
  const std::size_t span =
      obs_ ? obs_->tracer.begin_span("round", "runtime", kObsRoundTrack)
           : obs::Tracer::kDroppedSpan;
  ensure_partition();
  if (!options_.faults.crashes.empty()) apply_crash_schedule();
  release_fault_deferred();
  const std::size_t delivered = step_round();
  last_round_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  total_round_seconds_ += last_round_seconds_;
  if (obs_) {
    obs::MetricsRegistry& m = obs_->metrics;
    const std::size_t depth = in_flight_messages();
    m.set(obs_ids_.queue_depth, static_cast<double>(depth));
    m.observe(obs_ids_.round_delivered, static_cast<double>(delivered));
    m.observe(obs_ids_.round_us, last_round_seconds_ * 1e6);
    obs_sync_counters();
    obs_->tracer.end_span(span,
                          {{"round", static_cast<double>(rounds_)},
                           {"delivered", static_cast<double>(delivered)},
                           {"queue_depth", static_cast<double>(depth)}});
  }
  return delivered;
}

QuietResult Runtime::run_until_quiet(std::size_t max_rounds, bool strict) {
  std::size_t used = 0;
  while (!quiet() && used < max_rounds) {
    run_round();
    ++used;
  }
  if (strict) {
    ensure(quiet(), "Runtime::run_until_quiet: round budget exhausted");
  }
  return {used, quiet() ? QuietStatus::kQuiet : QuietStatus::kRoundLimit};
}

Actor& Runtime::actor(ActorId id) {
  ensure(id < actors_.size(), "Runtime::actor: unknown actor");
  return *actors_[id];
}

const Actor& Runtime::actor(ActorId id) const {
  ensure(id < actors_.size(), "Runtime::actor: unknown actor");
  return *actors_[id];
}

}  // namespace maxutil::sim
