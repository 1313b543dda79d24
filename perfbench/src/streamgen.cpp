// `perfbench_serve gen`: writes a workload's instance and a seeded request
// stream into a run directory, together with the reference answers.
//
// The generator serves every request it emits through a file-mode Daemon
// (submit per request, then finish — what Daemon::run does), so it always
// knows the topology it has produced: a departed tenant is re-admitted, a
// present one departs, a browned-out server is repaired, and an admit's
// outcome (admitted, degraded, or denied and reverted) is known before that
// tenant's next request. The stream therefore holds only requests that are
// valid where they land. The same pass writes the reference decision log
// the timed passes are compared against, and the settled utility (plus a
// sampled exact LP optimum) of every batch.
//
// Files: stream.txt, ref.log, batches.tsv (and scenario.txt).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <tuple>

#include "common.hpp"
#include "gen/trace.hpp"
#include "serve/protocol.hpp"
#include "solver/registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using maxutil::util::ensure;
using maxutil::util::Rng;

struct Tenant {
  bool present = true;
  bool busy = false;     // an admit is waiting for its decision
  double factor = 1.0;   // the controller's cumulative lambda factor
  maxutil::gen::DemandTrace trace = maxutil::gen::DemandTrace::constant(1.0);
};

/// Each tenant follows one demand shape (sine diurnal, on/off flash crowd,
/// random walk), read in units of its baseline lambda.
maxutil::gen::DemandTrace tenant_trace(std::size_t j, Rng& rng) {
  const auto period = static_cast<std::size_t>(rng.uniform_int(40, 160));
  switch (j % 3) {
    case 0:
      return maxutil::gen::DemandTrace::sine(0.9, 0.45, period);
    case 1:
      return maxutil::gen::DemandTrace::on_off(1.2, 0.4, period, period / 3);
    default:
      return maxutil::gen::DemandTrace::random_walk(0.8, 0.2, rng());
  }
}

/// Rounds to four significant digits, the precision the request text
/// carries exactly (Request::describe prints six).
double round_factor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", f);
  return std::stod(buf);
}

std::string fmt(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", f);
  return buf;
}

/// Entities a brownout or dip can touch: servers and server pairs that some
/// commodity routes over (events elsewhere would not move the plan).
struct Targets {
  std::vector<std::string> servers;
  std::vector<std::pair<std::string, std::string>> links;
};

Targets find_targets(const stream::StreamNetwork& net) {
  std::set<stream::NodeId> servers;
  std::set<std::pair<stream::NodeId, stream::NodeId>> pairs;
  for (stream::CommodityId j = 0; j < net.commodity_count(); ++j) {
    for (const stream::LinkId l : net.enabled_links(j)) {
      const auto tail = net.graph().tail(l);
      const auto head = net.graph().head(l);
      servers.insert(tail);
      if (!net.is_sink(head)) servers.insert(head);
      pairs.insert({tail, head});
    }
  }
  Targets t;
  for (const auto n : servers) t.servers.push_back(net.node_name(n));
  for (const auto& [a, b] : pairs) {
    t.links.emplace_back(net.node_name(a), net.node_name(b));
  }
  return t;
}

/// Brownouts (or dips) in rotation: new ones walk a seed-shuffled cycle of
/// the candidates, repairs undo the oldest first by the inverse factor, and
/// about `target` entities are degraded at any time. Every seed then sees
/// the same kind of state, on different entities.
template <typename Key>
struct Rotation {
  std::vector<Key> order;
  std::size_t next = 0;
  std::deque<std::pair<Key, double>> degraded;  // oldest first
  std::size_t target = 1;

  Rotation(std::vector<Key> candidates, Rng& rng)
      : order(std::move(candidates)) {
    rng.shuffle(order);
    target = std::max<std::size_t>(1, order.size() / 16);
  }

  /// The entity and factor of the next event, and whether it is a repair.
  std::tuple<Key, double, bool> step(Rng& rng) {
    if (degraded.size() >= target) {
      auto [key, f] = degraded.front();
      degraded.pop_front();
      return {key, 1.0 / f, true};
    }
    for (;;) {
      const Key& key = order[next++ % order.size()];
      const bool busy =
          std::any_of(degraded.begin(), degraded.end(),
                      [&](const auto& d) { return d.first == key; });
      if (busy) continue;
      const double f = rng.chance(0.5) ? 0.5 : 0.25;
      degraded.emplace_back(key, f);
      return {key, f, false};
    }
  }
};

}  // namespace

int cmd_gen(const std::map<std::string, std::string>& args) {
  const Workload& w = find_workload(arg(args, "workload"));
  const auto seed = static_cast<std::uint64_t>(std::stoull(arg(args, "seed")));
  const double seconds = std::stod(arg(args, "seconds"));
  const std::string dir = arg(args, "dir");

  write_instance(w, dir);
  // Serve from the written file, exactly as the timed passes load it.
  const stream::StreamNetwork net = load_instance(dir);

  const serve::ServeOptions options = serve_options(w);
  serve::Daemon daemon(net, options);
  const auto& lp =
      *maxutil::solver::SolverRegistry::instance().find("lp-sparse");

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL);
  std::vector<Tenant> tenants(net.commodity_count());
  std::map<std::string, std::size_t> tenant_of;
  for (std::size_t j = 0; j < tenants.size(); ++j) {
    tenants[j].trace = tenant_trace(j, rng);
    tenant_of[net.commodity_name(static_cast<stream::CommodityId>(j))] = j;
  }
  // Tenant moves also rotate, through a seed-shuffled order.
  std::vector<std::size_t> tenant_order(tenants.size());
  for (std::size_t j = 0; j < tenants.size(); ++j) tenant_order[j] = j;
  rng.shuffle(tenant_order);
  std::size_t tenant_next = 0;
  const std::size_t min_present = (tenants.size() + 1) / 2;
  Targets targets = find_targets(net);
  Rotation<std::string> browned(std::move(targets.servers), rng);
  Rotation<std::pair<std::string, std::string>> dipped(
      std::move(targets.links), rng);

  std::ofstream stream_out(dir + "/stream.txt");
  std::ofstream batches_out(dir + "/batches.tsv");
  ensure(stream_out.good() && batches_out.good(), "gen: cannot write " + dir);
  batches_out << "batch\tdecisions\tutility\tlp_optimum\n";

  enum Kind { kTenant, kCap, kBw, kQuery };
  std::vector<Kind> deck;
  std::size_t dealt = 0;
  std::size_t time = 0;
  std::size_t seen = 0;      // decisions already inspected
  std::size_t batches = 0;   // batch rows already written
  std::size_t requests = 0;
  std::size_t lp_samples = 0;
  std::map<std::string, std::size_t> kinds;
  double lp_seconds = 0.0;
  const std::int64_t start = now_ns();

  // Settles newly decided records: admits resolve tenant presence, and each
  // finished batch gets its settled utility (and, sampled, the LP optimum
  // of the settled topology — still the current one, since a request that
  // flushed a batch has only opened the next).
  const auto settle = [&]() {
    const auto& decisions = daemon.report().decisions;
    for (; seen < decisions.size(); ++seen) {
      const serve::DecisionRecord& d = decisions[seen];
      ensure(d.outcome != serve::Outcome::kRejected,
             "gen: the daemon rejected a request the generator believed "
             "valid: " + d.line());
      if (d.request.kind == serve::RequestKind::kAdmit) {
        Tenant& t = tenants[tenant_of.at(d.request.commodity())];
        t.busy = false;
        t.present = d.outcome == serve::Outcome::kAdmit ||
                    d.outcome == serve::Outcome::kDegrade;
      }
      // A flush appends its whole batch at once, so the newest decision
      // always closes a batch.
      const bool last_of_batch = seen + 1 == decisions.size() ||
                                 decisions[seen + 1].batch != d.batch;
      if (!last_of_batch) continue;
      double optimum = -1.0;
      if (d.batch % w.lp_stride == 0) {
        const std::int64_t t0 = now_ns();
        const maxutil::solver::Problem problem(daemon.controller().network(),
                                               options.controller.penalty);
        const auto result = lp.solve(problem, {});
        ensure(maxutil::solver::is_usable(result.status),
               "gen: LP optimum failed: " + result.message);
        optimum = result.utility;
        ++lp_samples;
        lp_seconds += static_cast<double>(now_ns() - t0) * 1e-9;
      }
      batches_out << d.batch << '\t' << seen + 1 << '\t';
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g\t%.17g\n", d.utility, optimum);
      batches_out << buf;
      ++batches;
    }
  };

  const auto next_line = [&]() -> std::string {
    if (dealt == deck.size()) {
      deck.clear();
      deck.insert(deck.end(), w.n_tenant, kTenant);
      deck.insert(deck.end(), w.n_cap, kCap);
      deck.insert(deck.end(), w.n_bw, kBw);
      deck.insert(deck.end(), w.n_query, kQuery);
      rng.shuffle(deck);
      dealt = 0;
    }
    const Kind kind = deck[dealt++];
    const std::string at = "@" + std::to_string(time);
    if (kind == kTenant) {
      std::size_t present = 0;
      for (const Tenant& t : tenants) present += t.present ? 1 : 0;
      // The next tenant in rotation that can move: a present one departs
      // (while more than half are present), an absent one is re-admitted.
      for (std::size_t k = 0; k < tenants.size(); ++k) {
        const std::size_t j = tenant_order[(tenant_next + k) % tenants.size()];
        Tenant& t = tenants[j];
        if (t.busy || (t.present && present <= min_present)) continue;
        tenant_next += k + 1;
        const std::string name =
            net.commodity_name(static_cast<stream::CommodityId>(j));
        if (t.present) {
          t.present = false;
          ++kinds["depart"];
          return "depart=" + name + at;
        }
        // Re-admit at the demand trace's current level (1/8 steps).
        const double level =
            std::clamp(std::round(t.trace.at(time) * 8.0) / 8.0, 0.25, 1.5);
        const double f = round_factor(level / t.factor);
        t.factor *= f;
        t.busy = true;
        ++kinds["admit"];
        return "admit=" + name + "*" + fmt(f) + at;
      }
    } else if (kind == kCap) {
      const auto [server, f, repair] = browned.step(rng);
      ++kinds[repair ? "repair" : "brownout"];
      return "cap=" + server + "*" + fmt(f) + at;
    } else if (kind == kBw) {
      const auto [link, f, repair] = dipped.step(rng);
      ++kinds[repair ? "bw_repair" : "bw_dip"];
      return "bw=" + link.first + "-" + link.second + "*" + fmt(f) + at;
    }
    // Queries, and the fallback when no tenant can move.
    ++kinds["query"];
    return "query=" +
           net.commodity_name(static_cast<stream::CommodityId>(rng.uniform_int(
               0, static_cast<std::int64_t>(net.commodity_count()) - 1))) +
           at;
  };

  const double budget = w.gen_share * seconds;
  while (static_cast<double>(now_ns() - start) * 1e-9 - lp_seconds < budget) {
    const std::string line = next_line();
    daemon.submit(serve::parse_request(line));
    stream_out << line << '\n';
    ++requests;
    settle();
    time += w.max_gap == 0
                ? 1
                : static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(w.max_gap)));
  }
  daemon.finish();
  settle();
  write_file(dir + "/ref.log", daemon.report().decision_log());

  JsonLine out;
  out.num("requests", static_cast<double>(requests))
      .num("batches", static_cast<double>(batches))
      .num("lp_samples", static_cast<double>(lp_samples))
      .num("gen_seconds", static_cast<double>(now_ns() - start) * 1e-9);
  for (const auto& [kind, count] : kinds) {
    out.num("kind_" + kind, static_cast<double>(count));
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace perfbench
