#include "ctrl/controller.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/flow.hpp"
#include "core/warm_start.hpp"
#include "util/check.hpp"
#include "util/hexfloat.hpp"
#include "util/table.hpp"
#include "xform/lp_reference.hpp"

namespace maxutil::ctrl {

using maxutil::util::ensure;
using maxutil::util::hex_double;
using maxutil::util::read_double;
using maxutil::util::read_size;

namespace {

/// Guard mirrored from GradientOptions::capacity_guard: interim points and
/// warm starts must sit strictly inside guard * C to be legal starts.
constexpr double kGuard = 0.999;

/// Degraded interim points are shed down to this fraction of capacity, not
/// to kGuard: a point shaved to sit exactly at the guard starts inside the
/// steep tail of the barrier, where damping shrinks every step and the
/// re-solve can be slower than a cold start. The 10% headroom is the
/// controller's use of the penalty's reserved-capacity margin (the paper's
/// "faster recovery" remark).
constexpr double kRepairHeadroom = 0.9;

bool within_guard(const xform::ExtendedGraph& xg,
                  const core::FlowState& flows, double guard) {
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    if (!xg.has_finite_capacity(v)) continue;
    if (flows.f_node[v] >= guard * xg.capacity(v)) return false;
  }
  return true;
}

/// Largest f_v - guard * C_v over finite-capacity nodes; <= 0 means the
/// routing is a strictly feasible optimizer start.
double guard_violation(const xform::ExtendedGraph& xg,
                       const core::FlowState& flows) {
  double worst = -std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    if (!xg.has_finite_capacity(v)) continue;
    worst = std::max(worst, flows.f_node[v] - kGuard * xg.capacity(v));
  }
  return worst;
}

/// The `priority` degradation policy: shed whole commodities highest-id
/// first (later arrivals are lower priority) until the point is strictly
/// feasible; all-rejected when even one survivor is too much.
core::RoutingState priority_shed(const xform::ExtendedGraph& xg,
                                 core::RoutingState routing, double target) {
  const core::RoutingState initial = core::RoutingState::initial(xg);
  for (stream::CommodityId j = xg.commodity_count(); j-- > 0;) {
    routing.assign_commodity(j, initial);
    if (within_guard(xg, core::compute_flows(xg, routing), target)) {
      return routing;
    }
  }
  return initial;
}

/// Error-message prefix of the export_state blob reader.
constexpr std::string_view kState = "ctrl state";

/// An entity given as a baseline name or a decimal baseline id (a name
/// wins); nullopt when neither matches.
template <typename NameOf>
std::optional<std::size_t> find_entity(const std::string& text,
                                       std::size_t count, NameOf name_of) {
  for (std::size_t i = 0; i < count; ++i) {
    if (name_of(i) == text) return i;
  }
  try {
    std::size_t used = 0;
    const unsigned long id = std::stoul(text, &used);
    if (used == text.size() && id < count) return id;
  } catch (...) {
  }
  return std::nullopt;
}

/// A cumulative churn factor that stream::rebuild can apply: finite,
/// positive and not subnormal. An overflowing or underflowing product is
/// rejected at staging instead of failing the rebuild at the batch flush.
bool normal_factor(double factor) {
  return std::isnormal(factor) && factor > 0.0;
}

/// A scaled resource budget that stream::rebuild can build and a live patch
/// can write: positive, and finite unless the baseline budget is +inf. A
/// product that overflows or underflows is rejected at staging.
bool budget_in_range(double baseline, double factor) {
  const double budget = baseline * factor;
  return budget > 0.0 && (std::isfinite(budget) || std::isinf(baseline));
}

std::string status_cell(const EventOutcome& outcome) {
  if (outcome.exact_restore) return "exact";
  std::string start = outcome.warm_started ? "warm" : "cold";
  if (outcome.watchdog_retry) start += "+retry";
  return start;
}

}  // namespace

const char* to_string(DegradationPolicy policy) {
  switch (policy) {
    case DegradationPolicy::kProportional: return "proportional";
    case DegradationPolicy::kPriority: return "priority";
    case DegradationPolicy::kFreeze: return "freeze";
  }
  return "?";
}

DegradationPolicy parse_policy(const std::string& text) {
  if (text == "proportional") return DegradationPolicy::kProportional;
  if (text == "priority") return DegradationPolicy::kPriority;
  if (text == "freeze") return DegradationPolicy::kFreeze;
  ensure(false, "unknown degradation policy '" + text +
                    "' (want proportional, priority, or freeze)");
  return DegradationPolicy::kProportional;
}

std::string EventOutcome::describe() const {
  return ChurnPlan{events}.describe();
}

std::string ChurnReport::summary() const {
  std::ostringstream out;
  util::Table table({"t", "event", "status", "start", "iters", "recovery",
                     "utility", "optimum"});
  for (const EventOutcome& o : events) {
    table.add_row(
        {std::to_string(o.events.front().time), o.describe(),
         solver::to_string(o.status), status_cell(o),
         std::to_string(o.iterations),
         o.recovery_iterations == kNotRecovered
             ? "never"
             : std::to_string(o.recovery_iterations),
         util::Table::cell(o.utility_after, 4),
         util::Table::cell(o.optimum, 4)});
  }
  table.print(out);
  out << "events " << events.size() << ": warm " << warm_starts << ", cold "
      << cold_starts << ", exact restores " << exact_restores << ", retries "
      << watchdog_retries << ", failures " << failures << "\n";
  out << "utility " << initial_utility << " -> " << final_utility << "\n";
  return out.str();
}

/// The rebuilt network + baseline->current maps and the solver Problem over
/// it. Problem points into surgery.network, so a State is pinned on the heap
/// and never moved once built.
struct Controller::State {
  stream::SurgeryResult surgery;
  std::optional<solver::Problem> problem;
};

Controller::Controller(const stream::StreamNetwork& baseline,
                       ControllerOptions options)
    : options_(std::move(options)),
      pipeline_(solver::Pipeline::parse(options_.pipeline)) {
  const solver::SolverInfo* last =
      solver::SolverRegistry::instance().find(pipeline_.stages().back());
  ensure(last != nullptr && last->emits_routing,
         "Controller: pipeline's last stage '" + pipeline_.stages().back() +
             "' does not emit a routing (needed to warm-start the next event)");
  if (options_.solve.tolerance <= 0.0) options_.solve.tolerance = 1e-7;

  // Normalize through an identity rebuild: every later topology is produced
  // by the same rebuild code path over this exact baseline, so re-applying a
  // configuration reproduces its network bit-for-bit (exact restores).
  baseline_ = stream::rebuild(baseline, stream::RebuildSpec{}).network;
  config_.node_down.assign(baseline_.node_count(), 0);
  config_.link_down.assign(baseline_.link_count(), 0);
  config_.commodity_absent.assign(baseline_.commodity_count(), 0);
  config_.cap_factor.assign(baseline_.node_count(), 1.0);
  config_.bw_factor.assign(baseline_.link_count(), 1.0);
  config_.lambda_factor.assign(baseline_.commodity_count(), 1.0);

  register_metrics();
  state_ = build_state(config_);

  const solver::SolveResult result =
      watchdogged_solve(*state_->problem, config_, std::nullopt);
  ensure(solver::is_usable(result.status),
         "Controller: initial solve failed: " +
             (result.message.empty() ? std::string(to_string(result.status))
                                     : result.message));
  ensure(result.routing.has_value(),
         "Controller: initial solve emitted no routing");
  routing_ = result.routing;
  admitted_ = result.admitted;
  utility_ = result.utility;
  report_.initial_utility = utility_;
  report_.final_utility = utility_;
  metrics_.set(m_utility_, utility_);
  metrics_.set(m_commodities_,
               static_cast<double>(network().commodity_count()));
}

Controller::~Controller() = default;

void Controller::register_metrics() {
  m_events_ = metrics_.counter("ctrl_events_total", "churn events applied");
  m_crashes_ = metrics_.counter("ctrl_crashes_total", "crash events");
  m_restores_ = metrics_.counter("ctrl_restores_total", "restore events");
  m_cap_scales_ = metrics_.counter("ctrl_cap_scales_total",
                                   "capacity scale events");
  m_bw_scales_ = metrics_.counter("ctrl_bw_scales_total",
                                  "bandwidth scale events");
  m_arrivals_ = metrics_.counter("ctrl_arrivals_total", "commodity arrivals");
  m_departures_ = metrics_.counter("ctrl_departures_total",
                                   "commodity departures");
  m_warm_starts_ = metrics_.counter(
      "ctrl_warm_starts_total", "re-solves warm-started from a remapped routing");
  m_cold_starts_ = metrics_.counter("ctrl_cold_starts_total",
                                    "re-solves started from all-rejected");
  m_lp_warm_bases_ = metrics_.counter(
      "ctrl_lp_warm_bases_total",
      "solves handed the stored simplex basis of their LP layout");
  m_exact_restores_ = metrics_.counter(
      "ctrl_exact_restores_total", "restores served from a snapshot (no solve)");
  m_retries_ = metrics_.counter("ctrl_watchdog_retries_total",
                                "re-solves retried at a safer step size");
  m_failures_ = metrics_.counter("ctrl_solve_failures_total",
                                 "events whose re-solve (and retry) failed");
  m_recovered_ = metrics_.counter(
      "ctrl_recovered_total", "events whose utility re-entered the band");
  m_utility_ = metrics_.gauge("ctrl_utility", "utility after the last event");
  m_commodities_ = metrics_.gauge("ctrl_commodities_active",
                                  "commodities in the current network");
  m_recovery_hist_ = metrics_.histogram(
      "ctrl_recovery_iterations",
      {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000},
      "iterations until utility re-entered the band (recovered events)");
  m_deficit_hist_ = metrics_.histogram(
      "ctrl_utility_deficit", {0, 0.1, 1, 10, 100, 1000, 1e4, 1e5},
      "per-event utility-deficit integral sum_i max(0, opt - u_i)");
}

std::unique_ptr<Controller::State> Controller::build_state(
    const Config& config) const {
  stream::RebuildSpec spec;
  for (NodeId n = 0; n < baseline_.node_count(); ++n) {
    if (config.node_down[n]) spec.removed_nodes.push_back(n);
    if (config.cap_factor[n] != 1.0) {
      spec.capacity_factors.emplace_back(n, config.cap_factor[n]);
    }
  }
  for (stream::LinkId l = 0; l < baseline_.link_count(); ++l) {
    if (config.link_down[l]) spec.removed_links.push_back(l);
    if (config.bw_factor[l] != 1.0) {
      spec.bandwidth_factors.emplace_back(l, config.bw_factor[l]);
    }
  }
  for (stream::CommodityId j = 0; j < baseline_.commodity_count(); ++j) {
    if (config.commodity_absent[j]) spec.removed_commodities.push_back(j);
    if (config.lambda_factor[j] != 1.0) {
      spec.lambda_factors.emplace_back(j, config.lambda_factor[j]);
    }
  }
  auto state = std::make_unique<State>();
  state->surgery = stream::rebuild(baseline_, spec);
  state->problem.emplace(state->surgery.network, options_.penalty);
  return state;
}

bool Controller::patchable(const Config& next) const {
  if (next.node_down != config_.node_down ||
      next.link_down != config_.link_down ||
      next.commodity_absent != config_.commodity_absent ||
      next.lambda_factor != config_.lambda_factor) {
    return false;
  }
  // finite_capacity_nodes() is fixed at the extended graph's build, so no
  // budget may cross +inf (possible only from an imported configuration).
  const auto keeps_finiteness = [](double base, double from, double to) {
    return from == to || std::isfinite(base * from) == std::isfinite(base * to);
  };
  for (NodeId n = 0; n < baseline_.node_count(); ++n) {
    if (!keeps_finiteness(baseline_.capacity(n), config_.cap_factor[n],
                          next.cap_factor[n])) {
      return false;
    }
  }
  for (stream::LinkId l = 0; l < baseline_.link_count(); ++l) {
    if (!keeps_finiteness(baseline_.bandwidth(l), config_.bw_factor[l],
                          next.bw_factor[l])) {
      return false;
    }
  }
  return true;
}

void Controller::patch_state(const Config& from, const Config& to) {
  const stream::SurgeryResult& surgery = state_->surgery;
  stream::StreamNetwork& network = state_->surgery.network;
  for (NodeId n = 0; n < baseline_.node_count(); ++n) {
    if (to.cap_factor[n] == from.cap_factor[n]) continue;
    const NodeId current = surgery.node_map[n];
    if (current == stream::kRemovedEntity) continue;
    network.set_capacity(current, baseline_.capacity(n) * to.cap_factor[n]);
  }
  for (stream::LinkId l = 0; l < baseline_.link_count(); ++l) {
    if (to.bw_factor[l] == from.bw_factor[l]) continue;
    const stream::LinkId current = surgery.link_map[l];
    if (current == stream::kRemovedEntity) continue;  // its endpoint is down
    network.set_bandwidth(current, baseline_.bandwidth(l) * to.bw_factor[l]);
  }
  state_->problem->refresh_capacities();
}

NodeId Controller::resolve_node(const std::string& text,
                                const char* what) const {
  const std::optional<std::size_t> n = find_entity(
      text, baseline_.node_count(),
      [this](std::size_t i) -> const std::string& {
        return baseline_.node_name(i);
      });
  if (n.has_value()) return static_cast<NodeId>(*n);
  ensure(false, std::string("churn ") + what + ": unknown node '" + text +
                    "' (baseline names or ids)");
  return 0;
}

std::optional<stream::CommodityId> Controller::find_commodity(
    const std::string& text, bool in_current) const {
  const std::optional<std::size_t> j = find_entity(
      text, baseline_.commodity_count(),
      [this](std::size_t i) -> const std::string& {
        return baseline_.commodity_name(i);
      });
  if (!j.has_value()) return std::nullopt;
  if (!in_current) return static_cast<stream::CommodityId>(*j);
  const stream::CommodityId current = state_->surgery.commodity_map[*j];
  if (current == stream::kRemovedEntity) return std::nullopt;
  return current;
}

stream::CommodityId Controller::resolve_commodity(const std::string& text,
                                                  const char* what) const {
  const std::optional<stream::CommodityId> j = find_commodity(text);
  if (j.has_value()) return *j;
  ensure(false, std::string("churn ") + what + ": unknown commodity '" + text +
                    "' (baseline names or ids)");
  return 0;
}

lp::SimplexBasis* Controller::lp_basis_for(const Config& config) {
  if (!options_.use_warm_start) return nullptr;
  std::vector<char> layout = config.node_down;
  layout.insert(layout.end(), config.link_down.begin(), config.link_down.end());
  layout.insert(layout.end(), config.commodity_absent.begin(),
                config.commodity_absent.end());
  if (lp_slots_[0].layout != layout) {
    // Returning to the layout before the last change (a denied admission
    // reverted, a departure re-arriving) reuses its basis; any other layout
    // evicts the older slot and starts cold.
    std::swap(lp_slots_[0], lp_slots_[1]);
    if (lp_slots_[0].layout != layout) {
      lp_slots_[0] = LpSlot{std::move(layout), {}};
    }
  }
  return &lp_slots_[0].basis;
}

solver::SolveResult Controller::watchdogged_solve(
    const solver::Problem& problem, const Config& config,
    std::optional<core::RoutingState> warm, bool* retried) {
  solver::SolveOptions so = options_.solve;
  so.lp_basis = lp_basis_for(config);
  if (so.lp_basis != nullptr && !so.lp_basis->empty()) {
    metrics_.add(m_lp_warm_bases_);
  }
  // The recovery SLOs read the utility trace; they run only against the
  // LP reference, so without it nothing reads the trace.
  so.record_history = options_.lp_reference;
  if (options_.watchdog_iterations > 0 &&
      (so.max_iterations == 0 ||
       so.max_iterations > options_.watchdog_iterations)) {
    so.max_iterations = options_.watchdog_iterations;
  }
  so.warm_start = std::move(warm);

  solver::SolveResult result = pipeline_.run(problem, so);
  const bool tripped =
      !solver::is_usable(result.status) ||
      (options_.watchdog_wall_seconds > 0.0 &&
       result.wall_seconds > options_.watchdog_wall_seconds);
  if (retried != nullptr) *retried = tripped;
  if (tripped) {
    metrics_.add(m_retries_);
    solver::SolveOptions retry = so;
    const double base_eta =
        so.eta > 0.0 ? so.eta : (so.curvature_scaled ? 1.0 : 0.04);
    retry.eta = base_eta * options_.retry_eta_factor;
    const std::size_t first_iterations = result.iterations;
    const double first_wall = result.wall_seconds;
    result = pipeline_.run(problem, retry);
    result.iterations += first_iterations;
    result.wall_seconds += first_wall;
  }
  return result;
}

std::optional<std::pair<char, std::size_t>> Controller::stage_event(
    const ChurnEvent& event, Config& config) const {
  std::optional<std::pair<char, std::size_t>> key;
  switch (event.kind) {
    case ChurnEventKind::kCrash: {
      const NodeId u = resolve_node(event.node, "crash");
      ensure(!config.node_down[u],
             "churn crash: node '" + event.node + "' is already down");
      config.node_down[u] = 1;
      key = {'n', u};
      break;
    }
    case ChurnEventKind::kRestore: {
      const NodeId u = resolve_node(event.node, "restore");
      ensure(config.node_down[u],
             "churn restore: node '" + event.node + "' is not down");
      config.node_down[u] = 0;
      key = {'n', u};
      break;
    }
    case ChurnEventKind::kCapScale: {
      const NodeId u = resolve_node(event.node, "cap");
      ensure(!baseline_.is_sink(u),
             "churn cap: sink '" + event.node + "' has no computing power");
      ensure(!config.node_down[u],
             "churn cap: node '" + event.node + "' is down");
      config.cap_factor[u] *= event.factor;
      ensure(normal_factor(config.cap_factor[u]),
             "churn cap: node '" + event.node +
                 "' capacity factor leaves the normal positive range");
      ensure(budget_in_range(baseline_.capacity(u), config.cap_factor[u]),
             "churn cap: node '" + event.node +
                 "' capacity leaves the positive finite range");
      break;
    }
    case ChurnEventKind::kBwScale: {
      const NodeId from = resolve_node(event.from, "bw");
      const NodeId to = resolve_node(event.to, "bw");
      bool any = false;
      const auto& g = baseline_.graph();
      for (stream::LinkId l = 0; l < baseline_.link_count(); ++l) {
        if (g.tail(l) != from || g.head(l) != to) continue;
        config.bw_factor[l] *= event.factor;
        ensure(normal_factor(config.bw_factor[l]),
               "churn bw: link " + event.from + "-" + event.to +
                   " bandwidth factor leaves the normal positive range");
        ensure(budget_in_range(baseline_.bandwidth(l), config.bw_factor[l]),
               "churn bw: link " + event.from + "-" + event.to +
                   " bandwidth leaves the positive finite range");
        any = true;
      }
      ensure(any, "churn bw: no baseline link " + event.from + "-" + event.to);
      break;
    }
    case ChurnEventKind::kArrive: {
      const stream::CommodityId j = resolve_commodity(event.commodity, "arrive");
      ensure(config.commodity_absent[j], "churn arrive: commodity '" +
                                             event.commodity +
                                             "' is already present");
      config.commodity_absent[j] = 0;
      config.lambda_factor[j] *= event.factor;
      ensure(normal_factor(config.lambda_factor[j]),
             "churn arrive: commodity '" + event.commodity +
                 "' rate factor leaves the normal positive range");
      key = {'c', j};
      break;
    }
    case ChurnEventKind::kDepart: {
      const stream::CommodityId j = resolve_commodity(event.commodity, "depart");
      ensure(!config.commodity_absent[j],
             "churn depart: commodity '" + event.commodity + "' is absent");
      config.commodity_absent[j] = 1;
      key = {'c', j};
      break;
    }
  }
  return key;
}

obs::MetricId Controller::kind_metric(ChurnEventKind kind) const {
  switch (kind) {
    case ChurnEventKind::kCrash: return m_crashes_;
    case ChurnEventKind::kRestore: return m_restores_;
    case ChurnEventKind::kCapScale: return m_cap_scales_;
    case ChurnEventKind::kBwScale: return m_bw_scales_;
    case ChurnEventKind::kArrive: return m_arrivals_;
    case ChurnEventKind::kDepart: return m_departures_;
  }
  return m_events_;
}

std::string Controller::check_event(
    const ChurnEvent& event, const std::vector<ChurnEvent>& staged) const {
  try {
    Config scratch = config_;
    for (const ChurnEvent& prior : staged) stage_event(prior, scratch);
    stage_event(event, scratch);
  } catch (const util::CheckError& e) {
    // Callers embed the reason in operator-facing decision logs.
    return util::strip_check_preamble(e.what());
  }
  return {};
}

EventOutcome Controller::apply(const ChurnEvent& event) {
  const EventOutcome outcome = apply_batch({event});
  report_.events.push_back(outcome);
  if (outcome.exact_restore) report_.exact_restores += 1;
  if (outcome.warm_started) report_.warm_starts += 1;
  if (outcome.cold_started) report_.cold_starts += 1;
  if (outcome.watchdog_retry) report_.watchdog_retries += 1;
  return outcome;
}

EventOutcome Controller::apply_batch(const std::vector<ChurnEvent>& events) {
  ensure(routing_.has_value(), "Controller: not initialized");
  ensure(!events.empty(), "Controller::apply_batch: empty batch");
  EventOutcome outcome;
  outcome.events = events;

  // Validate and stage every delta before touching any state: either the
  // whole batch applies, or nothing does.
  Config next = config_;
  std::optional<std::pair<char, std::size_t>> key;
  for (const ChurnEvent& event : events) key = stage_event(event, next);

  // A single crash or departure is reversible: snapshot the pre-event state
  // so a restore (or re-arrival) that returns the configuration exactly here
  // is served from the snapshot, with no re-solve. Multi-event batches take
  // no snapshot and are never served as an exact restore. The snapshot is
  // filed only once the batch has applied.
  std::optional<Snapshot> snapshot;
  auto exact = snapshots_.end();
  if (events.size() == 1 && key.has_value()) {
    const ChurnEventKind kind = events.front().kind;
    if (kind == ChurnEventKind::kCrash || kind == ChurnEventKind::kDepart) {
      snapshot = Snapshot{config_, *routing_, admitted_, utility_};
    } else {
      exact = snapshots_.find(*key);
      if (exact != snapshots_.end() && exact->second.config != next) {
        exact = snapshots_.end();
      }
    }
  }
  for (const ChurnEvent& event : events) {
    metrics_.add(kind_metric(event.kind));
    metrics_.add(m_events_);
  }
  const std::size_t event_index = events_applied_;

  // A batch that moves only capacity and bandwidth factors keeps every
  // entity: the live network and extended graph are patched in place with
  // the values rebuild would compute. Any other batch rebuilds from the
  // baseline. Either way the live network is rebuild(baseline, spec(next)).
  const bool patch = patchable(next);
  std::unique_ptr<State> next_state;
  solver::SolveResult result;
  try {
    if (patch) {
      patch_state(config_, next);
    } else {
      next_state = build_state(next);
    }
    State& target = next_state != nullptr ? *next_state : *state_;
    const xform::ExtendedGraph& new_xg = target.problem->extended();
    if (exact != snapshots_.end()) {
      // Exact restore: the configuration returned to the snapshot taken at
      // the crash (or departure), so the deterministic rebuild reproduces
      // the pre-event network bit-for-bit and the snapshot routing is
      // reinstated without a solve.
      ensure(exact->second.routing.is_valid(new_xg, 1e-9),
             "churn exact restore: snapshot routing invalid on the rebuilt "
             "network");
      routing_ = exact->second.routing;
      admitted_ = exact->second.admitted;
      utility_ = exact->second.utility;
      snapshots_.erase(exact);
      outcome.exact_restore = true;
      outcome.status = solver::Status::kConverged;
      outcome.utility_before = utility_;
      metrics_.add(m_exact_restores_);
    } else {
      // Warm start: remap the previous routing across the surgery maps, then
      // shape the interim operating point with the degradation policy.
      // Whatever sheds here is only the transient — the re-solve
      // redistributes optimally.
      std::optional<core::RoutingState> warm;
      if (options_.use_warm_start) {
        const stream::EntityMaps maps = stream::compose_maps(
            static_cast<const stream::EntityMaps&>(state_->surgery),
            static_cast<const stream::EntityMaps&>(target.surgery));
        warm = core::remap_routing(state_->problem->extended(), *routing_,
                                   new_xg, maps, kGuard, /*repair=*/false);
      }
      // A carry-over that is already a legal start is used untouched; the
      // policy only decides what to shed when the point violates the guard.
      if (warm.has_value() &&
          guard_violation(new_xg, core::compute_flows(new_xg, *warm)) >= 0.0) {
        switch (options_.policy) {
          case DegradationPolicy::kProportional:
            warm = core::repair_capacity_feasibility(new_xg, std::move(*warm),
                                                     kRepairHeadroom);
            break;
          case DegradationPolicy::kPriority:
            warm = priority_shed(new_xg, std::move(*warm), kRepairHeadroom);
            break;
          case DegradationPolicy::kFreeze:
            // Freeze sheds nothing, so an infeasible carry-over cannot seed
            // the optimizer: fall back to a cold start and flag it.
            outcome.degraded_infeasible = true;
            warm.reset();
            break;
        }
      }
      const core::RoutingState interim =
          warm.has_value() ? *warm : core::RoutingState::initial(new_xg);
      const core::FlowState interim_flows =
          core::compute_flows(new_xg, interim);
      outcome.utility_before = core::total_utility(new_xg, interim_flows);
      if (warm.has_value()) {
        outcome.warm_start_violation = guard_violation(new_xg, interim_flows);
      }
      outcome.warm_started = warm.has_value();
      outcome.cold_started = !warm.has_value();
      metrics_.add(outcome.warm_started ? m_warm_starts_ : m_cold_starts_);

      result = watchdogged_solve(*target.problem, next, std::move(warm),
                                 &outcome.watchdog_retry);
      outcome.status = result.status;
      outcome.message = util::strip_check_preamble(result.message);
      outcome.iterations = result.iterations;
      outcome.wall_seconds = result.wall_seconds;
      if (solver::is_usable(result.status)) {
        ensure(result.routing.has_value(),
               "Controller: pipeline emitted no routing");
        routing_ = result.routing;
        admitted_ = result.admitted;
        utility_ = result.utility;
      } else {
        // The topology change stands regardless; keep operating on the
        // degraded interim point until a later event's re-solve succeeds.
        routing_ = interim;
        admitted_.assign(new_xg.commodity_count(), 0.0);
        for (stream::CommodityId j = 0; j < new_xg.commodity_count(); ++j) {
          admitted_[j] = core::admitted_rate(new_xg, interim_flows, j);
        }
        utility_ = core::total_utility(new_xg, interim_flows);
        metrics_.add(m_failures_);
        report_.failures += 1;
      }
    }
  } catch (...) {
    // Nothing committed: write the pre-batch values back over the patch,
    // so the live network is rebuild(baseline, spec(config_)) again.
    if (patch) patch_state(next, config_);
    throw;
  }
  // The batch commits here. A throw before this point (a rebuild, a patch
  // or a pipeline stage) leaves the configuration, the live network, the
  // snapshots and the event count as they were.
  if (next_state != nullptr) state_ = std::move(next_state);
  config_ = std::move(next);
  if (snapshot.has_value()) {
    snapshots_.insert_or_assign(*key, std::move(*snapshot));
  }
  events_applied_ += events.size();
  outcome.utility_after = utility_;
  report_.final_utility = utility_;

  // Recovery SLOs against the post-event optimum; an exact restore is back
  // in the band at iteration 0.
  outcome.recovery_iterations = outcome.exact_restore ? 0 : kNotRecovered;
  if (options_.lp_reference) {
    outcome.optimum =
        xform::solve_reference(state_->problem->extended()).optimal_utility;
    if (!outcome.exact_restore) record_recovery(result, outcome);
  }
  if (outcome.recovery_iterations != kNotRecovered) {
    metrics_.add(m_recovered_);
    metrics_.observe(m_recovery_hist_,
                     static_cast<double>(outcome.recovery_iterations));
  }
  metrics_.observe(m_deficit_hist_, outcome.utility_deficit);
  metrics_.set(m_utility_, utility_);
  metrics_.set(m_commodities_,
               static_cast<double>(network().commodity_count()));
  if (options_.record_trace) {
    std::vector<obs::TraceArg> args = {
        {"iterations", static_cast<double>(outcome.iterations)},
        {"utility", utility_}};
    if (!outcome.exact_restore) {
      args.push_back({"optimum", outcome.optimum});
      args.push_back({"deficit", outcome.utility_deficit});
    }
    if (events.size() > 1) {
      args.push_back({"events", static_cast<double>(events.size())});
    }
    tracer_.complete(
        events.size() == 1 ? events.front().describe()
                           : "batch[" + std::to_string(events.size()) + "]",
        "churn", 0,
        1000.0 * static_cast<double>(events.front().time) +
            static_cast<double>(event_index),
        std::max(1.0, static_cast<double>(outcome.iterations)),
        std::move(args));
  }
  return outcome;
}

void Controller::record_recovery(const solver::SolveResult& result,
                                 EventOutcome& outcome) const {
  const double threshold =
      outcome.optimum -
      options_.recovery_band * std::max(1.0, std::abs(outcome.optimum));
  if (solver::is_usable(result.status) && result.history.has_value() &&
      result.history->rows() > 0) {
    try {
      const std::vector<double>& u = result.history->column("utility");
      const std::vector<double>& it = result.history->column("iteration");
      outcome.utility_deficit = 0.0;
      for (std::size_t row = 0; row < u.size(); ++row) {
        outcome.utility_deficit += std::max(0.0, outcome.optimum - u[row]);
        if (outcome.recovery_iterations == kNotRecovered &&
            u[row] >= threshold) {
          outcome.recovery_iterations = static_cast<std::size_t>(it[row]);
        }
      }
      return;
    } catch (const util::CheckError&) {
      // backend history without a utility column: fall through
    }
  }
  outcome.recovery_iterations =
      utility_ >= threshold ? outcome.iterations : kNotRecovered;
  outcome.utility_deficit =
      std::max(0.0, outcome.optimum - utility_) *
      static_cast<double>(std::max<std::size_t>(1, outcome.iterations));
}

void Controller::export_state(std::ostream& out) const {
  ensure(routing_.has_value(), "Controller: not initialized");
  const auto write_config = [&out](const Config& config) {
    for (const char v : config.node_down) out << static_cast<int>(v) << ' ';
    out << '\n';
    for (const char v : config.link_down) out << static_cast<int>(v) << ' ';
    out << '\n';
    for (const char v : config.commodity_absent) {
      out << static_cast<int>(v) << ' ';
    }
    out << '\n';
    for (const double v : config.cap_factor) out << hex_double(v) << ' ';
    out << '\n';
    for (const double v : config.bw_factor) out << hex_double(v) << ' ';
    out << '\n';
    for (const double v : config.lambda_factor) out << hex_double(v) << ' ';
    out << '\n';
  };
  const auto write_routing = [&out](const core::RoutingState& routing) {
    out << routing.slot_count() << '\n';
    for (std::size_t s = 0; s < routing.slot_count(); ++s) {
      out << hex_double(routing.phi_slot(s)) << ' ';
    }
    out << '\n';
  };
  const auto write_admitted = [&out](const std::vector<double>& admitted) {
    out << admitted.size() << '\n';
    for (const double v : admitted) out << hex_double(v) << ' ';
    out << '\n';
  };

  out << "maxutil-ctrl-state 2\n";
  out << baseline_.node_count() << ' ' << baseline_.link_count() << ' '
      << baseline_.commodity_count() << '\n';
  write_config(config_);
  write_routing(*routing_);
  write_admitted(admitted_);
  out << hex_double(utility_) << '\n';
  out << events_applied_ << '\n';
  out << snapshots_.size() << '\n';
  for (const auto& [key, snapshot] : snapshots_) {
    out << key.first << ' ' << key.second << ' '
        << hex_double(snapshot.utility) << '\n';
    write_config(snapshot.config);
    write_routing(snapshot.routing);
    write_admitted(snapshot.admitted);
  }
  // Version 2: the LP basis slots, each a layout line and a basis line of
  // "<length> <digits>" (length 0 and no digits for an empty one).
  const auto write_digits = [&out](const auto& digits) {
    out << digits.size();
    if (!digits.empty()) {
      out << ' ';
      for (const auto d : digits) {
        out << static_cast<char>('0' + static_cast<int>(d));
      }
    }
    out << '\n';
  };
  out << "lp-bases " << lp_slots_.size() << '\n';
  for (const LpSlot& slot : lp_slots_) {
    write_digits(slot.layout);
    write_digits(slot.basis.status);
  }
  out << "end\n";
}

void Controller::import_state(std::istream& in) {
  std::string magic;
  ensure(static_cast<bool>(in >> magic) && magic == "maxutil-ctrl-state",
         "ctrl state: bad magic (not an export_state blob)");
  const std::size_t version = read_size(in, kState);
  ensure(version == 1 || version == 2, "ctrl state: unsupported version");
  ensure(read_size(in, kState) == baseline_.node_count() &&
             read_size(in, kState) == baseline_.link_count() &&
             read_size(in, kState) == baseline_.commodity_count(),
         "ctrl state: baseline shape mismatch (the blob was exported against "
         "a different network)");

  const auto read_config = [&in, this]() {
    Config config;
    config.node_down.resize(baseline_.node_count());
    config.link_down.resize(baseline_.link_count());
    config.commodity_absent.resize(baseline_.commodity_count());
    config.cap_factor.resize(baseline_.node_count());
    config.bw_factor.resize(baseline_.link_count());
    config.lambda_factor.resize(baseline_.commodity_count());
    for (char& v : config.node_down) v = read_size(in, kState) != 0 ? 1 : 0;
    for (char& v : config.link_down) v = read_size(in, kState) != 0 ? 1 : 0;
    for (char& v : config.commodity_absent) v = read_size(in, kState) != 0 ? 1 : 0;
    for (double& v : config.cap_factor) v = read_double(in, kState);
    for (double& v : config.bw_factor) v = read_double(in, kState);
    for (double& v : config.lambda_factor) v = read_double(in, kState);
    return config;
  };
  const auto read_routing = [&in](const xform::ExtendedGraph& xg) {
    core::RoutingState routing(xg);
    const std::size_t slots = read_size(in, kState);
    ensure(slots == routing.slot_count(),
           "ctrl state: routing slot count mismatch (blob " +
               std::to_string(slots) + ", rebuilt graph " +
               std::to_string(routing.slot_count()) + ")");
    for (std::size_t s = 0; s < slots; ++s) {
      routing.set_phi_slot(s, read_double(in, kState));
    }
    return routing;
  };
  const auto read_admitted = [&in]() {
    std::vector<double> admitted(read_size(in, kState));
    for (double& v : admitted) v = read_double(in, kState);
    return admitted;
  };

  // Parse the whole blob into scratch state first; commit only when every
  // section validated, so a torn or corrupt blob leaves the controller
  // untouched.
  Config config = read_config();
  std::unique_ptr<State> state = build_state(config);
  core::RoutingState routing = read_routing(state->problem->extended());
  ensure(routing.is_valid(state->problem->extended(), 1e-9),
         "ctrl state: restored routing violates invariants");
  std::vector<double> admitted = read_admitted();
  const double utility = read_double(in, kState);
  const std::size_t applied = read_size(in, kState);
  const std::size_t snapshot_count = read_size(in, kState);
  std::map<std::pair<char, std::size_t>, Snapshot> snapshots;
  for (std::size_t i = 0; i < snapshot_count; ++i) {
    char kind = 0;
    ensure(static_cast<bool>(in >> kind) && (kind == 'n' || kind == 'c'),
           "ctrl state: bad snapshot key");
    const std::size_t id = read_size(in, kState);
    const double snap_utility = read_double(in, kState);
    Config snap_config = read_config();
    // Each pending exact-restore snapshot carries a routing over its *own*
    // configuration's extended graph — rebuild it to recover the index.
    std::unique_ptr<State> snap_state = build_state(snap_config);
    core::RoutingState snap_routing =
        read_routing(snap_state->problem->extended());
    std::vector<double> snap_admitted = read_admitted();
    snapshots.emplace(
        std::pair<char, std::size_t>{kind, id},
        Snapshot{std::move(snap_config), std::move(snap_routing),
                 std::move(snap_admitted), snap_utility});
  }
  // A "<length> <digits>" line whose digits are each at most `max_digit`.
  const auto read_digits = [&in](int max_digit, const char* what) {
    const std::size_t length = read_size(in, kState);
    std::string digits;
    if (length > 0) {
      ensure(static_cast<bool>(in >> digits) && digits.size() == length,
             std::string("ctrl state: ") + what + " line length mismatch");
    }
    for (const char c : digits) {
      ensure(c >= '0' && c - '0' <= max_digit,
             std::string("ctrl state: bad digit in ") + what + " line");
    }
    return digits;
  };
  // Version-1 blobs predate the basis slots: they load with both empty, so
  // the next solve of each layout starts cold.
  std::array<LpSlot, 2> lp_slots;
  if (version >= 2) {
    std::string label;
    ensure(static_cast<bool>(in >> label) && label == "lp-bases" &&
               read_size(in, kState) == lp_slots.size(),
           "ctrl state: bad lp-bases section");
    const std::size_t layout_length = baseline_.node_count() +
                                      baseline_.link_count() +
                                      baseline_.commodity_count();
    for (LpSlot& slot : lp_slots) {
      const std::string layout = read_digits(1, "layout");
      ensure(layout.empty() || layout.size() == layout_length,
             "ctrl state: layout length " + std::to_string(layout.size()) +
                 " differs from the baseline's " +
                 std::to_string(layout_length) + " entities");
      const std::string basis =
          read_digits(static_cast<int>(lp::BasisStatus::kFree), "basis");
      ensure(basis.empty() || !layout.empty(),
             "ctrl state: basis line without a layout");
      for (const char c : layout) slot.layout.push_back(c == '1' ? 1 : 0);
      for (const char c : basis) {
        slot.basis.status.push_back(static_cast<lp::BasisStatus>(c - '0'));
      }
    }
  }
  std::string trailer;
  ensure(static_cast<bool>(in >> trailer) && trailer == "end",
         "ctrl state: missing trailer (truncated blob)");

  config_ = std::move(config);
  state_ = std::move(state);
  routing_ = std::move(routing);
  admitted_ = std::move(admitted);
  utility_ = utility;
  events_applied_ = applied;
  snapshots_ = std::move(snapshots);
  lp_slots_ = std::move(lp_slots);
  report_.final_utility = utility_;
  metrics_.set(m_utility_, utility_);
  metrics_.set(m_commodities_,
               static_cast<double>(network().commodity_count()));
}

ChurnReport Controller::run(const ChurnPlan& plan) {
  for (const ChurnEvent& event : plan.events) apply(event);
  return report_;
}

const stream::StreamNetwork& Controller::network() const {
  return state_->surgery.network;
}

const xform::ExtendedGraph& Controller::extended() const {
  return state_->problem->extended();
}

const core::RoutingState& Controller::routing() const {
  ensure(routing_.has_value(), "Controller: not initialized");
  return *routing_;
}

}  // namespace maxutil::ctrl
