#include "sim/distributed_gradient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/flow.hpp"
#include "graph/algorithms.hpp"
#include "graph/partition.hpp"
#include "util/check.hpp"

namespace maxutil::sim {

using maxutil::util::ensure;

NodeActor::NodeActor(const xform::ExtendedGraph& xg, NodeId self,
                     core::GammaOptions gamma)
    : xg_(&xg), self_(self), gamma_(gamma),
      commodities_(xg.commodity_count()) {
  const auto& g = xg.graph();
  const auto& idx = xg.index();
  // The node -> (commodity, local) transpose yields exactly the commodities
  // this node carries, in ascending order, with the local CSR ranges giving
  // this node's usable out/in slots directly.
  for (std::size_t k = idx.node_commodities_begin(self);
       k < idx.node_commodities_end(self); ++k) {
    const CommodityId j = idx.node_commodity(k);
    const std::size_t local = idx.node_commodity_local(k);
    PerCommodity s;
    s.is_sink = (local == idx.sink_local(j));
    if (local == idx.dummy_source_local(j)) s.input_rate = xg.lambda(j);
    for (std::size_t slot = idx.out_begin(local); slot < idx.out_end(local);
         ++slot) {
      s.out_edges.push_back(idx.edge(slot));
      s.out_heads.push_back(idx.node(idx.head_local(slot)));
    }
    for (std::size_t p = idx.in_begin(local); p < idx.in_end(local); ++p) {
      const EdgeId e = idx.edge(idx.in_slot(p));
      s.in_edges.push_back(e);
      s.in_tails.push_back(g.tail(e));
    }
    s.phi.assign(s.out_edges.size(), 0.0);
    s.f_edge.assign(s.out_edges.size(), 0.0);
    s.dr_head.assign(s.out_edges.size(), 0.0);
    s.kappa_head.assign(s.out_edges.size(), 0.0);
    s.head_tagged.assign(s.out_edges.size(), 0);
    s.head_received.assign(s.out_edges.size(), 0);
    s.head_seq.assign(s.out_edges.size(), 0);
    s.inflow.assign(s.in_edges.size(), 0.0);
    s.inflow_received.assign(s.in_edges.size(), 0);
    s.inflow_seq.assign(s.in_edges.size(), 0);
    commodities_[j] = std::move(s);
  }
}

NodeActor::PerCommodity& NodeActor::state(CommodityId j) {
  ensure(j < commodities_.size() && commodities_[j].has_value(),
         "NodeActor: node does not carry this commodity");
  return *commodities_[j];
}

const NodeActor::PerCommodity& NodeActor::state(CommodityId j) const {
  ensure(j < commodities_.size() && commodities_[j].has_value(),
         "NodeActor: node does not carry this commodity");
  return *commodities_[j];
}

double NodeActor::via(CommodityId j, const PerCommodity& s,
                      std::size_t idx) const {
  const EdgeId e = s.out_edges[idx];
  // All inputs are local: own usage f_node_, own per-edge usage, own cost
  // functions, and the downstream marginal received by message.
  const double dAi_dfe = xg_->edge_cost_derivative(e, s.f_edge[idx]) +
                         xg_->node_penalty_derivative(self_, f_node_);
  return dAi_dfe * xg_->cost_rate(j, e) +
         xg_->beta(j, e) * s.dr_head[idx];
}

double NodeActor::kappa_via(CommodityId j, const PerCommodity& s,
                            std::size_t idx) const {
  const EdgeId e = s.out_edges[idx];
  const double c = xg_->cost_rate(j, e);
  const double beta = xg_->beta(j, e);
  const double second =
      xg_->edge_cost_second_derivative(e, s.f_edge[idx]) +
      xg_->node_penalty_second_derivative(self_, f_node_);
  return c * c * second + beta * beta * s.kappa_head[idx];
}

void NodeActor::begin_marginal(Outbox& out, std::size_t seq) {
  cur_mseq_ = seq;
  marginal_done_round_ = kWaveOpen;
  // Reset every commodity before the first emission: emit_marginal stamps
  // the completion round via marginal_complete(), which must not see a
  // sibling commodity still carrying last wave's emitted flag.
  for (auto& slot : commodities_) {
    if (!slot.has_value()) continue;
    PerCommodity& s = *slot;
    std::fill(s.head_received.begin(), s.head_received.end(), 0);
    s.heads_received = 0;
    s.marginal_emitted = false;
    s.marginal_wait = 0;
  }
  // Sinks (no usable out-edges) start the upstream wave immediately.
  for (CommodityId j = 0; j < commodities_.size(); ++j) {
    if (!commodities_[j].has_value()) continue;
    if (commodities_[j]->out_edges.empty()) emit_marginal(out, j);
  }
}

void NodeActor::resync_marginal(std::size_t seq) {
  // A message from a newer wave than ours: we missed the kickoff (we were
  // crashed, or it was lost). Fast-forward and treat the wave as freshly
  // begun; patience re-emits whatever we would have sent at the kickoff.
  ++resyncs_;
  cur_mseq_ = seq;
  marginal_done_round_ = kWaveOpen;
  for (auto& slot : commodities_) {
    if (!slot.has_value()) continue;
    PerCommodity& s = *slot;
    std::fill(s.head_received.begin(), s.head_received.end(), 0);
    s.heads_received = 0;
    s.marginal_emitted = false;
    s.marginal_wait = 0;
  }
}

void NodeActor::emit_marginal(Outbox& out, CommodityId j) {
  PerCommodity& s = *commodities_[j];
  if (s.out_edges.empty()) {
    s.dr_self = 0.0;  // dA/dr at the destination is 0 (paper's convention)
    s.kappa_self = 0.0;
    s.tagged_self = false;
  } else {
    double dr = 0.0;
    double kappa = 0.0;
    for (std::size_t i = 0; i < s.out_edges.size(); ++i) {
      if (s.phi[i] > 0.0) {
        dr += s.phi[i] * via(j, s, i);
        kappa += s.phi[i] * s.phi[i] * kappa_via(j, s, i);
      }
    }
    s.dr_self = dr;
    s.kappa_self = kappa;
    // Blocking tag (eq. 18, shrinkage-scaled; see core/gamma.cpp): the tag
    // is set if any loaded out-link is improper or its head is tagged.
    s.tagged_self = false;
    for (std::size_t i = 0; i < s.out_edges.size(); ++i) {
      if (s.phi[i] <= 0.0) continue;
      if (s.head_tagged[i] != 0) {
        s.tagged_self = true;
        break;
      }
      if (dr <= xg_->beta(j, s.out_edges[i]) * s.dr_head[i] &&
          s.phi[i] * s.t >= gamma_.eta * (via(j, s, i) - dr)) {
        s.tagged_self = true;
        break;
      }
    }
  }
  s.marginal_emitted = true;
  // First round in which every carried commodity has emitted: stamp it
  // (corrective re-emissions keep the original completion round).
  if (marginal_done_round_ == kWaveOpen && marginal_complete()) {
    marginal_done_round_ = out.round();
  }
  // Broadcast upstream along every usable in-edge (the curvature rides in
  // the same message, so the second-derivative step costs no extra rounds).
  for (std::size_t i = 0; i < s.in_edges.size(); ++i) {
    out.send(s.in_tails[i], kMarginalTag, j,
             {static_cast<double>(s.in_edges[i]), s.dr_self,
              s.tagged_self ? 1.0 : 0.0, s.kappa_self,
              static_cast<double>(cur_mseq_)});
  }
}

void NodeActor::apply_update() {
  for (CommodityId j = 0; j < commodities_.size(); ++j) {
    if (!commodities_[j].has_value()) continue;
    PerCommodity& s = *commodities_[j];
    if (s.out_edges.empty()) continue;

    // Eligible = not in the blocked set B_i(j) (phi = 0 and head tagged).
    // The scratch vector is a member so steady-state iterations do not
    // re-allocate it (the runtime's zero-allocation budget extends here).
    std::vector<std::size_t>& eligible = eligible_scratch_;
    eligible.clear();
    for (std::size_t i = 0; i < s.out_edges.size(); ++i) {
      if (s.phi[i] == 0.0 && s.head_tagged[i] != 0) continue;
      eligible.push_back(i);
    }
    if (eligible.empty()) {
      // Unreachable fault-free (the tag protocol keeps one exit open); a
      // stale held-over tag can close every edge, so hold phi this wave.
      ++held_updates_;
      continue;
    }

    // Bounded-staleness guard: shifting phi toward a minimum computed from
    // inputs older than max_staleness_ waves risks chasing a gradient that
    // no longer exists; hold the routing until fresher values arrive.
    std::size_t stale = cur_fseq_ - s.t_seq;
    for (const std::size_t i : eligible) {
      stale = std::max(stale, cur_mseq_ - s.head_seq[i]);
    }
    if (stale > max_staleness_) {
      ++held_updates_;
      continue;
    }

    std::size_t best = eligible.front();
    double best_via = std::numeric_limits<double>::infinity();
    for (const std::size_t i : eligible) {
      const double v = via(j, s, i);
      if (v < best_via) {
        best_via = v;
        best = i;
      }
    }

    double shifted = 0.0;
    if (s.t <= gamma_.traffic_floor) {
      for (const std::size_t i : eligible) {
        if (i == best || s.phi[i] == 0.0) continue;
        shifted += s.phi[i];
        s.phi[i] = 0.0;
      }
    } else {
      const bool newton =
          gamma_.step_mode == core::StepMode::kCurvatureScaled;
      const double best_kappa = newton ? kappa_via(j, s, best) : 0.0;
      for (const std::size_t i : eligible) {
        if (i == best || s.phi[i] == 0.0) continue;
        const double a = via(j, s, i) - best_via;
        double step;
        if (newton) {
          const double kappa = std::max(kappa_via(j, s, i) + best_kappa,
                                        gamma_.curvature_floor);
          step = gamma_.eta * a / (s.t * kappa);
        } else {
          step = gamma_.eta * a / s.t;
        }
        const double delta = std::min(s.phi[i], step);
        if (delta <= 0.0) continue;
        shifted += delta;
        s.phi[i] -= delta;
      }
    }
    s.phi[best] += shifted;
  }
}

void NodeActor::begin_forecast(Outbox& out, std::size_t seq) {
  cur_fseq_ = seq;
  forecast_done_round_ = kWaveOpen;
  // Two passes for the same reason as begin_marginal: the completion stamp
  // in emit_forecast must see every commodity's flag already reset.
  for (auto& slot : commodities_) {
    if (!slot.has_value()) continue;
    PerCommodity& s = *slot;
    std::fill(s.inflow_received.begin(), s.inflow_received.end(), 0);
    s.inflows_received = 0;
    s.forecast_emitted = false;
    s.forecast_wait = 0;
  }
  // Roots of the wave: nodes with no usable in-edges (the dummy sources).
  for (CommodityId j = 0; j < commodities_.size(); ++j) {
    if (!commodities_[j].has_value()) continue;
    if (commodities_[j]->in_edges.empty()) emit_forecast(out, j);
  }
}

void NodeActor::resync_forecast(std::size_t seq) {
  ++resyncs_;
  cur_fseq_ = seq;
  forecast_done_round_ = kWaveOpen;
  for (auto& slot : commodities_) {
    if (!slot.has_value()) continue;
    PerCommodity& s = *slot;
    std::fill(s.inflow_received.begin(), s.inflow_received.end(), 0);
    s.inflows_received = 0;
    s.forecast_emitted = false;
    s.forecast_wait = 0;
  }
}

void NodeActor::refresh_node_usage() {
  // Commodity-index order keeps the sum well-defined when a faulted wave
  // refreshes only some commodities' f_comm.
  double total = 0.0;
  for (const auto& slot : commodities_) {
    if (slot.has_value()) total += slot->f_comm;
  }
  f_node_ = total;
}

void NodeActor::emit_forecast(Outbox& out, CommodityId j) {
  PerCommodity& s = *commodities_[j];
  double inflow_total = s.input_rate;
  for (const double x : s.inflow) inflow_total += x;
  s.t = inflow_total;
  s.t_seq = cur_fseq_;
  double f_comm = 0.0;
  for (std::size_t i = 0; i < s.out_edges.size(); ++i) {
    const EdgeId e = s.out_edges[i];
    const double y = s.t * s.phi[i];
    s.f_edge[i] = y * xg_->cost_rate(j, e);
    f_comm += s.f_edge[i];
    out.send(s.out_heads[i], kForecastTag, j,
             {static_cast<double>(e), y * xg_->beta(j, e),
              static_cast<double>(cur_fseq_)});
  }
  s.f_comm = f_comm;
  s.forecast_emitted = true;
  if (forecast_done_round_ == kWaveOpen && forecast_complete()) {
    forecast_done_round_ = out.round();
  }
  refresh_node_usage();
}

void NodeActor::tick_patience(Outbox& out) {
  if (patience_ == kNoPatience) return;
  for (CommodityId j = 0; j < commodities_.size(); ++j) {
    if (!commodities_[j].has_value()) continue;
    PerCommodity& s = *commodities_[j];
    // An open wave whose inputs are overdue: emit with the held-over
    // values. A late arrival that changes them triggers a corrective
    // re-emission (see on_round), so downstream self-heals.
    if (cur_mseq_ > 0 && !s.marginal_emitted &&
        ++s.marginal_wait >= patience_) {
      emit_marginal(out, j);
    }
    if (cur_fseq_ > 0 && !s.forecast_emitted &&
        ++s.forecast_wait >= patience_) {
      emit_forecast(out, j);
    }
  }
}

void NodeActor::on_round(Outbox& out, std::span<const Message> inbox) {
  for (const Message& m : inbox) {
    ensure(m.payload.size() >= 3, "NodeActor: malformed message");
    const auto edge = static_cast<EdgeId>(m.payload[0]);
    if (m.tag == kMarginalTag) {
      ensure(m.payload.size() >= 5, "NodeActor: malformed marginal");
      const auto seq = static_cast<std::size_t>(m.payload[4]);
      if (seq > cur_mseq_) resync_marginal(seq);
      PerCommodity& s = state(m.commodity);
      const auto it =
          std::find(s.out_edges.begin(), s.out_edges.end(), edge);
      ensure(it != s.out_edges.end(), "NodeActor: marginal for unknown edge");
      const auto idx = static_cast<std::size_t>(it - s.out_edges.begin());
      if (seq < s.head_seq[idx]) continue;  // straggler behind held value
      const double dr = m.payload[1];
      const bool tagged = m.payload[2] != 0.0;
      const double kappa = m.payload[3];
      const bool changed = dr != s.dr_head[idx] ||
                           tagged != (s.head_tagged[idx] != 0) ||
                           kappa != s.kappa_head[idx];
      s.dr_head[idx] = dr;
      s.head_tagged[idx] = tagged ? 1 : 0;
      s.kappa_head[idx] = kappa;
      s.head_seq[idx] = seq;
      if (!s.marginal_emitted) {
        // Duplicates re-deliver the same (edge, seq): head_received
        // dedupes them so the wave trigger fires exactly once.
        if (seq == cur_mseq_ && s.head_received[idx] == 0) {
          s.head_received[idx] = 1;
          ++s.heads_received;
        }
        if (s.heads_received == s.out_edges.size()) {
          emit_marginal(out, m.commodity);
        }
      } else if (changed) {
        emit_marginal(out, m.commodity);  // corrective re-emission
      }
    } else if (m.tag == kForecastTag) {
      const auto seq = static_cast<std::size_t>(m.payload[2]);
      if (seq > cur_fseq_) resync_forecast(seq);
      PerCommodity& s = state(m.commodity);
      const auto it = std::find(s.in_edges.begin(), s.in_edges.end(), edge);
      ensure(it != s.in_edges.end(), "NodeActor: forecast for unknown edge");
      const auto idx = static_cast<std::size_t>(it - s.in_edges.begin());
      if (seq < s.inflow_seq[idx]) continue;  // straggler behind held value
      const double flow = m.payload[1];
      const bool changed = flow != s.inflow[idx];
      s.inflow[idx] = flow;
      s.inflow_seq[idx] = seq;
      if (!s.forecast_emitted) {
        if (seq == cur_fseq_ && s.inflow_received[idx] == 0) {
          s.inflow_received[idx] = 1;
          ++s.inflows_received;
        }
        if (s.inflows_received == s.in_edges.size()) {
          emit_forecast(out, m.commodity);
        }
      } else if (changed) {
        emit_forecast(out, m.commodity);  // corrective re-emission
      }
    } else {
      ensure(false, "NodeActor: unknown message tag");
    }
  }
  tick_patience(out);
}

bool NodeActor::marginal_complete() const {
  for (const auto& slot : commodities_) {
    if (slot.has_value() && !slot->marginal_emitted) return false;
  }
  return true;
}

bool NodeActor::forecast_complete() const {
  for (const auto& slot : commodities_) {
    if (slot.has_value() && !slot->forecast_emitted) return false;
  }
  return true;
}

std::size_t NodeActor::max_input_staleness() const {
  std::size_t stale = 0;
  for (const auto& slot : commodities_) {
    if (!slot.has_value()) continue;
    const PerCommodity& s = *slot;
    stale = std::max(stale, cur_fseq_ - s.t_seq);
    for (const std::size_t seq : s.head_seq) {
      stale = std::max(stale, cur_mseq_ - seq);
    }
    for (const std::size_t seq : s.inflow_seq) {
      stale = std::max(stale, cur_fseq_ - seq);
    }
  }
  return stale;
}

double NodeActor::phi(CommodityId j, EdgeId e) const {
  const PerCommodity& s = state(j);
  const auto it = std::find(s.out_edges.begin(), s.out_edges.end(), e);
  ensure(it != s.out_edges.end(), "NodeActor::phi: unknown edge");
  return s.phi[static_cast<std::size_t>(it - s.out_edges.begin())];
}

void NodeActor::set_phi(CommodityId j, EdgeId e, double value) {
  PerCommodity& s = state(j);
  const auto it = std::find(s.out_edges.begin(), s.out_edges.end(), e);
  ensure(it != s.out_edges.end(), "NodeActor::set_phi: unknown edge");
  ensure(value >= 0.0, "NodeActor::set_phi: negative fraction");
  s.phi[static_cast<std::size_t>(it - s.out_edges.begin())] = value;
}

double NodeActor::traffic(CommodityId j) const { return state(j).t; }

double NodeActor::marginal(CommodityId j) const { return state(j).dr_self; }

// --- DistributedGradientSystem ---

DistributedGradientSystem::DistributedGradientSystem(
    const xform::ExtendedGraph& xg, core::GammaOptions gamma,
    RuntimeOptions runtime_options, std::size_t max_staleness)
    : DistributedGradientSystem(xg, core::RoutingState::initial(xg), gamma,
                                std::move(runtime_options), max_staleness) {}

DistributedGradientSystem::DistributedGradientSystem(
    const xform::ExtendedGraph& xg, const core::RoutingState& initial_routing,
    core::GammaOptions gamma, RuntimeOptions runtime_options,
    std::size_t max_staleness)
    : xg_(&xg), gamma_(gamma), runtime_(runtime_options) {
  ensure(initial_routing.is_valid(xg),
         "DistributedGradientSystem: invalid initial routing");
  actors_.reserve(xg.node_count());
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    auto actor = std::make_unique<NodeActor>(xg, v, gamma);
    actors_.push_back(actor.get());
    const ActorId id = runtime_.add_actor(std::move(actor));
    ensure(id == v, "DistributedGradientSystem: actor/node id mismatch");
  }
  if (runtime_.options().faults.enabled()) {
    // Patience = the rounds a fault-free wave needs to traverse the deepest
    // commodity DAG, plus the worst fault-delay there and back, plus slack.
    // A node that has not heard all inputs by then concludes they were
    // dropped and emits with held-over values.
    std::size_t depth = 0;
    for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
      depth = std::max(depth, xg.index().depth(j));
    }
    const std::size_t patience =
        depth + 2 * runtime_.options().faults.delay_max + 2;
    for (NodeActor* actor : actors_) actor->set_patience(patience);
  }
  for (NodeActor* actor : actors_) actor->set_max_staleness(max_staleness);
  install_partition();
  if (runtime_.observing()) obs_register_metrics();
  // Install the starting routing (the paper's all-rejected state unless the
  // caller warm-starts) and bootstrap t/f with one forecast wave so the
  // first marginal sweep has flows to differentiate.
  {
    const auto& idx = xg.index();
    for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
      for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
           ++local) {
        if (local == idx.sink_local(j)) continue;
        NodeActor* actor = actors_[idx.node(local)];
        for (std::size_t s = idx.out_begin(local); s < idx.out_end(local);
             ++s) {
          actor->set_phi(j, idx.edge(s), initial_routing.phi_slot(s));
        }
      }
    }
  }
  forecast_wave();
}

void DistributedGradientSystem::install_partition() {
  const RuntimeOptions& opts = runtime_.options();
  if (opts.num_threads <= 1) return;  // the runtime's default: one shard
  // Weight each extended edge by the commodities that can route over it —
  // per wave, a node forwards one message per commodity per usable edge, so
  // the weighted edge cut is exactly the cross-shard message rate the
  // serial merge will have to absorb.
  std::vector<double> weight(xg_->edge_count(), 0.0);
  const auto& idx = xg_->index();
  for (std::size_t s = 0; s < idx.slot_count(); ++s) weight[idx.edge(s)] += 1.0;
  graph::Partition part =
      graph::partition_bfs_grow(xg_->graph(), opts.num_threads, weight);
  runtime_.set_partition(std::move(part.shard_of), part.shards);
}

void DistributedGradientSystem::obs_register_metrics() {
  obs::MetricsRegistry& m = runtime_.observability()->metrics;
  obs_ids_.waves = m.counter("waves_total", "protocol waves driven");
  obs_ids_.wave_rounds =
      m.histogram("wave_rounds", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
                  "message rounds per wave");
  obs_ids_.node_latency = m.histogram(
      "wave_node_latency_rounds", {0, 1, 2, 4, 8, 16, 32, 64, 128, 256},
      "rounds from wave kickoff to a node's emission");
  obs_ids_.resyncs =
      m.counter("resync_events_total", "sequence-number resyncs across nodes");
  obs_ids_.iterations = m.counter("iterations_total", "gradient iterations");
  obs_ids_.held_updates =
      m.gauge("held_updates", "Gamma updates held by the staleness guard");
  obs_ids_.staleness =
      m.gauge("max_input_staleness", "oldest input age in waves");
  runtime_.observability()->tracer.set_track_name(Runtime::kObsWaveTrack,
                                                  "gradient waves");
}

bool DistributedGradientSystem::obs_record_wave_latencies(
    bool marginal, std::size_t wave_start) {
  obs::MetricsRegistry& m = runtime_.observability()->metrics;
  // Latencies are whole rounds in [0, span], so tally them into a dense
  // local histogram first and flush one observe_n per distinct value —
  // bit-identical to per-actor observes, without O(actors) registry writes.
  const std::size_t span = runtime_.rounds() - wave_start;
  obs_latency_tally_.assign(span + 1, 0);
  std::size_t live = 0;
  std::size_t fresh = 0;
  for (ActorId id = 0; id < actors_.size(); ++id) {
    if (runtime_.is_failed(id)) continue;
    ++live;
    const NodeActor& actor = *actors_[id];
    const std::size_t done = marginal ? actor.marginal_done_round()
                                      : actor.forecast_done_round();
    // kWaveOpen = the node never completed this wave (crash/drop stall); a
    // stamp before the kickoff is a stale wave a down node missed entirely.
    if (done == NodeActor::kWaveOpen || done < wave_start) continue;
    ++fresh;
    ++obs_latency_tally_[done - wave_start];
  }
  for (std::size_t latency = 0; latency <= span; ++latency) {
    m.observe_n(obs_ids_.node_latency, static_cast<double>(latency),
                obs_latency_tally_[latency]);
  }
  // A node's completion stamp is set the moment its last emission goes out
  // and cleared only by the next kickoff/resync, so "every live node carries
  // a fresh stamp" is exactly wave_complete() — computed here for free.
  return fresh == live;
}

void DistributedGradientSystem::obs_finish_wave(bool marginal,
                                                std::size_t wave_start,
                                                std::size_t span) {
  obs::Observability& obs = *runtime_.observability();
  const bool complete = obs_record_wave_latencies(marginal, wave_start);
  const std::size_t rounds = runtime_.rounds() - wave_start;
  obs.metrics.add(obs_ids_.waves);
  obs.metrics.observe(obs_ids_.wave_rounds, static_cast<double>(rounds));
  const std::size_t resyncs = resync_events();
  if (resyncs != obs_synced_resyncs_) {
    obs.metrics.add(obs_ids_.resyncs, resyncs - obs_synced_resyncs_);
    obs_synced_resyncs_ = resyncs;
  }
  obs.tracer.end_span(
      span,
      {{"rounds", static_cast<double>(rounds)},
       {"seq", static_cast<double>(marginal ? marginal_seq_ : forecast_seq_)},
       {"complete", complete ? 1.0 : 0.0}});
}

bool DistributedGradientSystem::wave_complete(bool marginal) const {
  for (ActorId id = 0; id < actors_.size(); ++id) {
    if (runtime_.is_failed(id)) continue;
    const NodeActor& actor = *actors_[id];
    if (marginal ? !actor.marginal_complete() : !actor.forecast_complete()) {
      return false;
    }
  }
  return true;
}

void DistributedGradientSystem::drive_wave(bool marginal) {
  obs::Observability* obs = runtime_.observability();
  const std::size_t wave_start = runtime_.rounds();
  std::size_t span = obs::Tracer::kDroppedSpan;
  if (obs) {
    span = obs->tracer.begin_span(
        marginal ? "marginal_wave" : "forecast_wave", "wave",
        Runtime::kObsWaveTrack);
  }
  // Per-node wave latencies come from the actors' completion-round stamps,
  // harvested once in obs_finish_wave — the round loops below are
  // observation-free, so observe-on adds nothing per round here.
  if (!runtime_.options().faults.enabled()) {
    // Fault-free the wave completes exactly when the network quiesces.
    std::size_t used = 0;
    while (!runtime_.quiet() && used < kWaveRoundBudget) {
      runtime_.run_round();
      ++used;
    }
    last_converged_ = last_converged_ && runtime_.quiet();
    if (obs) obs_finish_wave(marginal, wave_start, span);
    return;
  }
  // Under faults, quiet is not completion: dropped messages make the
  // network go silent while nodes still wait out their patience timers. Run
  // idle rounds (which advance the timers) until every live node emitted.
  std::size_t budget = kWaveRoundBudget;
  while (budget > 0) {
    while (!runtime_.quiet() && budget > 0) {
      runtime_.run_round();
      --budget;
    }
    if (!runtime_.quiet()) break;  // budget exhausted mid-flight
    if (wave_complete(marginal)) break;
    if (budget == 0) break;
    runtime_.run_round();
    --budget;
  }
  last_converged_ =
      last_converged_ && runtime_.quiet() && wave_complete(marginal);
  if (obs) obs_finish_wave(marginal, wave_start, span);
}

void DistributedGradientSystem::marginal_wave() {
  const std::size_t seq = ++marginal_seq_;
  runtime_.for_each_live_actor([seq](ActorId, Actor& actor, Outbox& out) {
    static_cast<NodeActor&>(actor).begin_marginal(out, seq);
  });
  drive_wave(/*marginal=*/true);
}

void DistributedGradientSystem::forecast_wave() {
  const std::size_t seq = ++forecast_seq_;
  runtime_.for_each_live_actor([seq](ActorId, Actor& actor, Outbox& out) {
    static_cast<NodeActor&>(actor).begin_forecast(out, seq);
  });
  drive_wave(/*marginal=*/false);
}

std::size_t DistributedGradientSystem::iterate() {
  const std::size_t rounds_before = runtime_.rounds();
  const std::size_t messages_before = runtime_.delivered_messages();
  last_converged_ = true;

  // Phase 1: marginal-cost wave (upstream, O(L) rounds).
  marginal_wave();

  // Phase 2: local Gamma updates (no messages, embarrassingly parallel).
  runtime_.for_each_live_actor([](ActorId, Actor& actor, Outbox&) {
    static_cast<NodeActor&>(actor).apply_update();
  });

  // Phase 3: forecast wave (downstream, O(L) rounds).
  forecast_wave();

  ++iterations_;
  last_rounds_ = runtime_.rounds() - rounds_before;
  last_messages_ = runtime_.delivered_messages() - messages_before;
  if (obs::Observability* obs = runtime_.observability()) {
    obs->metrics.add(obs_ids_.iterations);
    obs->metrics.set(obs_ids_.held_updates,
                     static_cast<double>(held_updates()));
    obs->metrics.set(obs_ids_.staleness,
                     static_cast<double>(max_input_staleness()));
    obs->tracer.instant(
        "iteration", "gradient", Runtime::kObsWaveTrack,
        {{"iteration", static_cast<double>(iterations_)},
         {"rounds", static_cast<double>(last_rounds_)},
         {"messages", static_cast<double>(last_messages_)},
         {"held_updates", static_cast<double>(held_updates())}});
  }
  return last_rounds_;
}

void DistributedGradientSystem::run(std::size_t iterations) {
  for (std::size_t i = 0; i < iterations; ++i) iterate();
}

core::RoutingState DistributedGradientSystem::routing_snapshot() const {
  core::RoutingState snapshot(*xg_);
  const auto& idx = xg_->index();
  for (CommodityId j = 0; j < xg_->commodity_count(); ++j) {
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;
      const NodeActor* actor = actors_[idx.node(local)];
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        snapshot.set_phi_slot(s, actor->phi(j, idx.edge(s)));
      }
    }
  }
  return snapshot;
}

double DistributedGradientSystem::utility() const {
  const auto flows = core::compute_flows(*xg_, routing_snapshot());
  return core::total_utility(*xg_, flows);
}

std::size_t DistributedGradientSystem::held_updates() const {
  std::size_t total = 0;
  for (const NodeActor* actor : actors_) total += actor->held_updates();
  return total;
}

std::size_t DistributedGradientSystem::resync_events() const {
  std::size_t total = 0;
  for (const NodeActor* actor : actors_) total += actor->resyncs();
  return total;
}

std::size_t DistributedGradientSystem::max_input_staleness() const {
  std::size_t stale = 0;
  for (const NodeActor* actor : actors_) {
    stale = std::max(stale, actor->max_input_staleness());
  }
  return stale;
}

}  // namespace maxutil::sim
