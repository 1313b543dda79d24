#include "ctrl/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/flow.hpp"
#include "core/warm_start.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "xform/lp_reference.hpp"

namespace maxutil::ctrl {

using maxutil::util::ensure;

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

/// Bit-exact double rendering for export_state: C hexfloats survive a text
/// round trip without rounding, unlike any decimal precision.
std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// strtod parses hexfloats (std::istream's num_get does not); the token must
/// be consumed whole.
double parse_double(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  ensure(end != nullptr && end != token.c_str() && *end == '\0',
         "ctrl state: malformed number '" + token + "'");
  return v;
}

double read_double(std::istream& in) {
  std::string token;
  ensure(static_cast<bool>(in >> token), "ctrl state: truncated blob");
  return parse_double(token);
}

std::size_t read_size(std::istream& in) {
  std::size_t v = 0;
  ensure(static_cast<bool>(in >> v), "ctrl state: truncated blob");
  return v;
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

std::string ChurnReport::summary() const {
  std::ostringstream out;
  util::Table table({"t", "event", "status", "start", "iters", "recovery",
                     "utility", "optimum"});
  for (const EventOutcome& o : events) {
    table.add_row(
        {std::to_string(o.event.time), o.event.describe(),
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

  EventOutcome boot;
  const solver::SolveResult result =
      watchdogged_solve(*state_->problem, config_, std::nullopt, boot);
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

NodeId Controller::resolve_node(const std::string& text,
                                const char* what) const {
  for (NodeId n = 0; n < baseline_.node_count(); ++n) {
    if (baseline_.node_name(n) == text) return n;
  }
  try {
    std::size_t used = 0;
    const unsigned long id = std::stoul(text, &used);
    if (used == text.size() && id < baseline_.node_count()) {
      return static_cast<NodeId>(id);
    }
  } catch (...) {
  }
  ensure(false, std::string("churn ") + what + ": unknown node '" + text +
                    "' (baseline names or ids)");
  return 0;
}

stream::CommodityId Controller::resolve_commodity(const std::string& text,
                                                  const char* what) const {
  for (stream::CommodityId j = 0; j < baseline_.commodity_count(); ++j) {
    if (baseline_.commodity_name(j) == text) return j;
  }
  try {
    std::size_t used = 0;
    const unsigned long id = std::stoul(text, &used);
    if (used == text.size() && id < baseline_.commodity_count()) {
      return static_cast<stream::CommodityId>(id);
    }
  } catch (...) {
  }
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
    std::optional<core::RoutingState> warm, EventOutcome& outcome) {
  solver::SolveOptions so = options_.solve;
  so.lp_basis = lp_basis_for(config);
  if (so.lp_basis != nullptr && !so.lp_basis->empty()) {
    metrics_.add(m_lp_warm_bases_);
  }
  so.record_history = true;  // the recovery SLOs read the utility trace
  if (options_.watchdog_iterations > 0 &&
      (so.max_iterations == 0 ||
       so.max_iterations > options_.watchdog_iterations)) {
    so.max_iterations = options_.watchdog_iterations;
  }
  so.warm_start = std::move(warm);

  solver::SolveResult result = pipeline_.run(problem, so);
  outcome.iterations = result.iterations;
  outcome.wall_seconds = result.wall_seconds;
  const bool tripped =
      !solver::is_usable(result.status) ||
      (options_.watchdog_wall_seconds > 0.0 &&
       result.wall_seconds > options_.watchdog_wall_seconds);
  if (tripped) {
    outcome.watchdog_retry = true;
    metrics_.add(m_retries_);
    solver::SolveOptions retry = so;
    const double base_eta =
        so.eta > 0.0 ? so.eta : (so.curvature_scaled ? 1.0 : 0.04);
    retry.eta = base_eta * options_.retry_eta_factor;
    result = pipeline_.run(problem, retry);
    outcome.iterations += result.iterations;
    outcome.wall_seconds += result.wall_seconds;
  }
  outcome.status = result.status;
  outcome.message = result.message;
  return result;
}

std::optional<std::pair<char, std::size_t>> Controller::stage_event(
    const ChurnEvent& event, Config& config) const {
  std::optional<std::pair<char, std::size_t>> restore_key;
  switch (event.kind) {
    case ChurnEventKind::kCrash: {
      const NodeId u = resolve_node(event.node, "crash");
      ensure(!config.node_down[u],
             "churn crash: node '" + event.node + "' is already down");
      config.node_down[u] = 1;
      break;
    }
    case ChurnEventKind::kRestore: {
      const NodeId u = resolve_node(event.node, "restore");
      ensure(config.node_down[u],
             "churn restore: node '" + event.node + "' is not down");
      config.node_down[u] = 0;
      restore_key = {'n', u};
      break;
    }
    case ChurnEventKind::kCapScale: {
      const NodeId u = resolve_node(event.node, "cap");
      ensure(!baseline_.is_sink(u),
             "churn cap: sink '" + event.node + "' has no computing power");
      ensure(!config.node_down[u],
             "churn cap: node '" + event.node + "' is down");
      config.cap_factor[u] *= event.factor;
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
      restore_key = {'c', j};
      break;
    }
    case ChurnEventKind::kDepart: {
      const stream::CommodityId j = resolve_commodity(event.commodity, "depart");
      ensure(!config.commodity_absent[j],
             "churn depart: commodity '" + event.commodity + "' is absent");
      config.commodity_absent[j] = 1;
      break;
    }
  }
  return restore_key;
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
    // Strip the "<file>:<line>: check failed: " preamble — callers embed
    // the reason in operator-facing decision logs that must not depend on
    // the build tree's absolute paths.
    std::string message = e.what();
    const std::string marker = "check failed: ";
    const std::size_t at = message.find(marker);
    if (at != std::string::npos) message.erase(0, at + marker.size());
    return message;
  }
  return {};
}

EventOutcome Controller::apply(const ChurnEvent& event) {
  const EventOutcome outcome = apply_event(event);
  report_.events.push_back(outcome);
  if (outcome.exact_restore) report_.exact_restores += 1;
  if (outcome.warm_started) report_.warm_starts += 1;
  if (outcome.cold_started) report_.cold_starts += 1;
  if (outcome.watchdog_retry) report_.watchdog_retries += 1;
  if (!solver::is_usable(outcome.status)) report_.failures += 1;
  report_.final_utility = utility_;
  return outcome;
}

EventOutcome Controller::apply_event(const ChurnEvent& event) {
  ensure(routing_.has_value(), "Controller: not initialized");
  EventOutcome outcome;
  outcome.event = event;
  Config next = config_;
  const std::optional<std::pair<char, std::size_t>> restore_key =
      stage_event(event, next);
  // Crashes and departures are reversible: snapshot the pre-event state so
  // a restore (or re-arrival) that returns the configuration exactly here
  // is served from the snapshot, with no re-solve.
  if (event.kind == ChurnEventKind::kCrash) {
    snapshots_.insert_or_assign(
        {'n', resolve_node(event.node, "crash")},
        Snapshot{config_, *routing_, admitted_, utility_});
  } else if (event.kind == ChurnEventKind::kDepart) {
    snapshots_.insert_or_assign(
        {'c', resolve_commodity(event.commodity, "depart")},
        Snapshot{config_, *routing_, admitted_, utility_});
  }
  metrics_.add(kind_metric(event.kind));
  metrics_.add(m_events_);
  const std::size_t event_index = events_applied_++;

  // Exact restore: the configuration returned to the snapshot taken at the
  // crash (or departure), so the deterministic rebuild reproduces the
  // pre-event network bit-for-bit and the snapshot routing is reinstated
  // without a solve.
  if (restore_key.has_value()) {
    const auto it = snapshots_.find(*restore_key);
    if (it != snapshots_.end() && it->second.config == next) {
      std::unique_ptr<State> next_state = build_state(next);
      ensure(it->second.routing.is_valid(next_state->problem->extended(), 1e-9),
             "churn exact restore: snapshot routing invalid on the rebuilt "
             "network");
      state_ = std::move(next_state);
      config_ = std::move(next);
      routing_ = it->second.routing;
      admitted_ = it->second.admitted;
      utility_ = it->second.utility;
      snapshots_.erase(it);

      outcome.exact_restore = true;
      outcome.status = solver::Status::kConverged;
      outcome.recovery_iterations = 0;
      outcome.utility_before = utility_;
      outcome.utility_after = utility_;
      if (options_.lp_reference) {
        outcome.optimum =
            xform::solve_reference(state_->problem->extended()).optimal_utility;
      }
      metrics_.add(m_exact_restores_);
      metrics_.add(m_recovered_);
      metrics_.observe(m_recovery_hist_, 0.0);
      metrics_.observe(m_deficit_hist_, 0.0);
      metrics_.set(m_utility_, utility_);
      metrics_.set(m_commodities_,
                   static_cast<double>(network().commodity_count()));
      if (options_.record_trace) {
        tracer_.complete(event.describe(), "churn", 0,
                         1000.0 * static_cast<double>(event.time) +
                             static_cast<double>(event_index),
                         1.0, {{"iterations", 0.0}, {"utility", utility_}});
      }
      return outcome;
    }
  }

  std::unique_ptr<State> next_state = build_state(next);
  const xform::ExtendedGraph& new_xg = next_state->problem->extended();
  const stream::EntityMaps maps = stream::compose_maps(
      static_cast<const stream::EntityMaps&>(state_->surgery),
      static_cast<const stream::EntityMaps&>(next_state->surgery));

  // Warm start: remap the previous routing across the surgery maps, then
  // shape the interim operating point with the degradation policy. Whatever
  // sheds here is only the transient — the re-solve redistributes optimally.
  std::optional<core::RoutingState> warm;
  if (options_.use_warm_start) {
    warm = core::remap_routing(state_->problem->extended(), *routing_, new_xg,
                               maps, kGuard, /*repair=*/false);
  }
  if (warm.has_value()) {
    const core::FlowState raw_flows = core::compute_flows(new_xg, *warm);
    const double raw_violation = guard_violation(new_xg, raw_flows);
    // A carry-over that is already a legal start is used untouched; the
    // policy only decides what to shed when the point violates the guard.
    switch (options_.policy) {
      case DegradationPolicy::kProportional:
        if (raw_violation >= 0.0) {
          warm = core::repair_capacity_feasibility(new_xg, std::move(*warm),
                                                   kRepairHeadroom);
        }
        break;
      case DegradationPolicy::kPriority:
        if (raw_violation >= 0.0) {
          warm = priority_shed(new_xg, std::move(*warm), kRepairHeadroom);
        }
        break;
      case DegradationPolicy::kFreeze:
        if (raw_violation >= 0.0) {
          // Freeze sheds nothing, so an infeasible carry-over cannot seed
          // the optimizer: fall back to a cold start and say so.
          outcome.degraded_infeasible = true;
          outcome.message = "freeze policy: carried-over point violates "
                            "capacity; cold start";
          warm.reset();
        }
        break;
    }
  }
  if (warm.has_value()) {
    const core::FlowState warm_flows = core::compute_flows(new_xg, *warm);
    outcome.warm_start_violation = guard_violation(new_xg, warm_flows);
    outcome.utility_before = core::total_utility(new_xg, warm_flows);
    outcome.warm_started = true;
  } else {
    const core::RoutingState initial = core::RoutingState::initial(new_xg);
    outcome.utility_before =
        core::total_utility(new_xg, core::compute_flows(new_xg, initial));
    outcome.cold_started = true;
  }
  metrics_.add(outcome.warm_started ? m_warm_starts_ : m_cold_starts_);

  const core::RoutingState interim =
      warm.has_value() ? *warm : core::RoutingState::initial(new_xg);
  const solver::SolveResult result =
      watchdogged_solve(*next_state->problem, next, warm, outcome);

  const bool usable = solver::is_usable(result.status);
  state_ = std::move(next_state);
  config_ = std::move(next);
  if (usable) {
    ensure(result.routing.has_value(),
           "Controller: pipeline emitted no routing");
    routing_ = result.routing;
    admitted_ = result.admitted;
    utility_ = result.utility;
  } else {
    // The topology change stands regardless; keep operating on the degraded
    // interim point until a later event's re-solve succeeds.
    routing_ = interim;
    const core::FlowState flows = core::compute_flows(new_xg, interim);
    admitted_.assign(new_xg.commodity_count(), 0.0);
    for (stream::CommodityId j = 0; j < new_xg.commodity_count(); ++j) {
      admitted_[j] = core::admitted_rate(new_xg, flows, j);
    }
    utility_ = core::total_utility(new_xg, flows);
    metrics_.add(m_failures_);
  }
  outcome.utility_after = utility_;

  // Recovery SLOs against the post-event optimum.
  outcome.recovery_iterations = kNotRecovered;
  if (options_.lp_reference) {
    outcome.optimum =
        xform::solve_reference(state_->problem->extended()).optimal_utility;
    const double threshold =
        outcome.optimum -
        options_.recovery_band * std::max(1.0, std::abs(outcome.optimum));
    bool from_history = false;
    if (usable && result.history.has_value() && result.history->rows() > 0) {
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
        from_history = true;
      } catch (const util::CheckError&) {
        from_history = false;  // backend history without a utility column
      }
    }
    if (!from_history) {
      outcome.recovery_iterations =
          utility_ >= threshold ? outcome.iterations : kNotRecovered;
      outcome.utility_deficit = std::max(0.0, outcome.optimum - utility_) *
                                static_cast<double>(std::max<std::size_t>(
                                    1, outcome.iterations));
    }
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
    tracer_.complete(
        event.describe(), "churn", 0,
        1000.0 * static_cast<double>(event.time) +
            static_cast<double>(event_index),
        std::max(1.0, static_cast<double>(outcome.iterations)),
        {{"iterations", static_cast<double>(outcome.iterations)},
         {"utility", utility_},
         {"optimum", outcome.optimum},
         {"deficit", outcome.utility_deficit}});
  }
  return outcome;
}

BatchOutcome Controller::apply_batch(const std::vector<ChurnEvent>& events) {
  ensure(routing_.has_value(), "Controller: not initialized");
  ensure(!events.empty(), "Controller::apply_batch: empty batch");

  // A singleton batch goes through the full per-event path — snapshots,
  // exact restores, recovery SLOs — so batching degenerates gracefully. Its
  // outcome is not kept in report().events: a serving daemon decides one
  // request after another for as long as it runs.
  if (events.size() == 1) {
    const EventOutcome one = apply_event(events.front());
    if (!solver::is_usable(one.status)) report_.failures += 1;
    report_.final_utility = utility_;
    BatchOutcome outcome;
    outcome.events = events;
    outcome.status = one.status;
    outcome.warm_started = one.warm_started;
    outcome.cold_started = one.cold_started;
    outcome.exact_restore = one.exact_restore;
    outcome.watchdog_retry = one.watchdog_retry;
    outcome.degraded_infeasible = one.degraded_infeasible;
    outcome.iterations = one.iterations;
    outcome.utility_before = one.utility_before;
    outcome.utility_after = one.utility_after;
    outcome.warm_start_violation = one.warm_start_violation;
    outcome.wall_seconds = one.wall_seconds;
    outcome.message = one.message;
    return outcome;
  }

  BatchOutcome outcome;
  outcome.events = events;

  // Validate and stage every delta before touching any state: either the
  // whole batch applies, or nothing does.
  Config next = config_;
  for (const ChurnEvent& event : events) stage_event(event, next);
  for (const ChurnEvent& event : events) {
    metrics_.add(kind_metric(event.kind));
    metrics_.add(m_events_);
  }
  const std::size_t event_index = events_applied_;
  events_applied_ += events.size();

  std::unique_ptr<State> next_state = build_state(next);
  const xform::ExtendedGraph& new_xg = next_state->problem->extended();
  const stream::EntityMaps maps = stream::compose_maps(
      static_cast<const stream::EntityMaps&>(state_->surgery),
      static_cast<const stream::EntityMaps&>(next_state->surgery));

  // Same warm-start + degradation shaping as the per-event path, applied
  // once across the combined surgery.
  std::optional<core::RoutingState> warm;
  if (options_.use_warm_start) {
    warm = core::remap_routing(state_->problem->extended(), *routing_, new_xg,
                               maps, kGuard, /*repair=*/false);
  }
  if (warm.has_value()) {
    const core::FlowState raw_flows = core::compute_flows(new_xg, *warm);
    const double raw_violation = guard_violation(new_xg, raw_flows);
    switch (options_.policy) {
      case DegradationPolicy::kProportional:
        if (raw_violation >= 0.0) {
          warm = core::repair_capacity_feasibility(new_xg, std::move(*warm),
                                                   kRepairHeadroom);
        }
        break;
      case DegradationPolicy::kPriority:
        if (raw_violation >= 0.0) {
          warm = priority_shed(new_xg, std::move(*warm), kRepairHeadroom);
        }
        break;
      case DegradationPolicy::kFreeze:
        if (raw_violation >= 0.0) {
          outcome.degraded_infeasible = true;
          outcome.message = "freeze policy: carried-over point violates "
                            "capacity; cold start";
          warm.reset();
        }
        break;
    }
  }
  if (warm.has_value()) {
    const core::FlowState warm_flows = core::compute_flows(new_xg, *warm);
    outcome.warm_start_violation = guard_violation(new_xg, warm_flows);
    outcome.utility_before = core::total_utility(new_xg, warm_flows);
    outcome.warm_started = true;
  } else {
    const core::RoutingState initial = core::RoutingState::initial(new_xg);
    outcome.utility_before =
        core::total_utility(new_xg, core::compute_flows(new_xg, initial));
    outcome.cold_started = true;
  }
  metrics_.add(outcome.warm_started ? m_warm_starts_ : m_cold_starts_);

  EventOutcome solve_fields;  // watchdogged_solve reports through this shape
  const core::RoutingState interim =
      warm.has_value() ? *warm : core::RoutingState::initial(new_xg);
  const solver::SolveResult result =
      watchdogged_solve(*next_state->problem, next, warm, solve_fields);
  outcome.status = solve_fields.status;
  outcome.watchdog_retry = solve_fields.watchdog_retry;
  outcome.iterations = solve_fields.iterations;
  outcome.wall_seconds = solve_fields.wall_seconds;
  if (outcome.message.empty()) outcome.message = solve_fields.message;

  const bool usable = solver::is_usable(result.status);
  state_ = std::move(next_state);
  config_ = std::move(next);
  if (usable) {
    ensure(result.routing.has_value(),
           "Controller: pipeline emitted no routing");
    routing_ = result.routing;
    admitted_ = result.admitted;
    utility_ = result.utility;
  } else {
    routing_ = interim;
    const core::FlowState flows = core::compute_flows(new_xg, interim);
    admitted_.assign(new_xg.commodity_count(), 0.0);
    for (stream::CommodityId j = 0; j < new_xg.commodity_count(); ++j) {
      admitted_[j] = core::admitted_rate(new_xg, flows, j);
    }
    utility_ = core::total_utility(new_xg, flows);
    metrics_.add(m_failures_);
  }
  outcome.utility_after = utility_;

  metrics_.set(m_utility_, utility_);
  metrics_.set(m_commodities_,
               static_cast<double>(network().commodity_count()));
  if (options_.record_trace) {
    tracer_.complete(
        "batch[" + std::to_string(events.size()) + "]", "churn", 0,
        1000.0 * static_cast<double>(events.front().time) +
            static_cast<double>(event_index),
        std::max(1.0, static_cast<double>(outcome.iterations)),
        {{"events", static_cast<double>(events.size())},
         {"iterations", static_cast<double>(outcome.iterations)},
         {"utility", utility_}});
  }
  if (!usable) report_.failures += 1;
  report_.final_utility = utility_;
  return outcome;
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
  const std::size_t version = read_size(in);
  ensure(version == 1 || version == 2, "ctrl state: unsupported version");
  ensure(read_size(in) == baseline_.node_count() &&
             read_size(in) == baseline_.link_count() &&
             read_size(in) == baseline_.commodity_count(),
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
    for (char& v : config.node_down) v = read_size(in) != 0 ? 1 : 0;
    for (char& v : config.link_down) v = read_size(in) != 0 ? 1 : 0;
    for (char& v : config.commodity_absent) v = read_size(in) != 0 ? 1 : 0;
    for (double& v : config.cap_factor) v = read_double(in);
    for (double& v : config.bw_factor) v = read_double(in);
    for (double& v : config.lambda_factor) v = read_double(in);
    return config;
  };
  const auto read_routing = [&in](const xform::ExtendedGraph& xg) {
    core::RoutingState routing(xg);
    const std::size_t slots = read_size(in);
    ensure(slots == routing.slot_count(),
           "ctrl state: routing slot count mismatch (blob " +
               std::to_string(slots) + ", rebuilt graph " +
               std::to_string(routing.slot_count()) + ")");
    for (std::size_t s = 0; s < slots; ++s) {
      routing.set_phi_slot(s, read_double(in));
    }
    return routing;
  };
  const auto read_admitted = [&in]() {
    std::vector<double> admitted(read_size(in));
    for (double& v : admitted) v = read_double(in);
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
  const double utility = read_double(in);
  const std::size_t applied = read_size(in);
  const std::size_t snapshot_count = read_size(in);
  std::map<std::pair<char, std::size_t>, Snapshot> snapshots;
  for (std::size_t i = 0; i < snapshot_count; ++i) {
    char kind = 0;
    ensure(static_cast<bool>(in >> kind) && (kind == 'n' || kind == 'c'),
           "ctrl state: bad snapshot key");
    const std::size_t id = read_size(in);
    const double snap_utility = read_double(in);
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
    const std::size_t length = read_size(in);
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
               read_size(in) == lp_slots.size(),
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
