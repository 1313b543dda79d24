// maxutil command-line interface: validate, solve, visualize, and generate
// stream-processing scenarios in the text format of src/scenario.
//
//   maxutil_cli validate <file>
//   maxutil_cli solve <file> [--algo NAME[,NAME...]|help] [--compare]
//                            [--eta X] [--eps X] [--iters N] [--tol X]
//   maxutil_cli churn <file> --plan SPEC [--algo NAME[,...]] [--policy P]
//                            [--budget N] [--report] [--trace FILE]
//                            [--metrics FILE]
//   maxutil_cli serve <file> [--input FILE|-|--listen SOCKET] [--window W]
//                            [--admit-share X] [--deny-share X] [...solver
//                            flags...] [--decisions FILE] [--json FILE]
//   maxutil_cli dot <file> [--extended]
//   maxutil_cli generate [--servers N] [--commodities J] [--stages K]
//                        [--lambda X] [--seed S]
//   maxutil_cli help | --help
//
// `serve` runs the online admission-serving loop (docs/SERVE.md): a stream
// of admit=/query= requests and topology events, coalesced into batches of
// at most one warm-started re-solve (plus one revert solve for denials),
// answered admit/deny/degrade from the updated plan. Deterministic replay:
// the decision log depends only on the input stream.
//
// `churn` replays a scripted topology-churn plan (docs/CONTROLLER.md) through
// ctrl::Controller, re-optimizing after every event with warm-started
// re-solves, and reports per-event recovery SLOs. Exit 1 when any event's
// re-solve failed.
//
// `solve` dispatches every algorithm through solver::SolverRegistry —
// `--algo help` prints the live backend list (gradient, distributed,
// backpressure, lp, fw, plus anything registered later), a comma-separated
// spec runs a warm-start solver::Pipeline, and `--compare` races every
// registered backend on the same scenario.
//
// Exit code 0 on success; 1 on a usage error, parse failure, failed solve,
// or (for `validate`) validation errors.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ctrl/churn_plan.hpp"
#include "ctrl/controller.hpp"
#include "serve/acceptor.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "gen/random_instance.hpp"
#include "scenario/scenario.hpp"
#include "solver/pipeline.hpp"
#include "solver/registry.hpp"
#include "stream/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xform/extended_graph.hpp"

namespace {

using namespace maxutil;

int usage_to(std::FILE* out) {
  std::fprintf(
      out,
      "usage: maxutil_cli validate <file>\n"
      "       maxutil_cli solve <file> [--algo NAME[,NAME...]|help]"
      " [--compare] [--compare-json FILE]\n"
      "                            [--eta X] [--eps X] [--iters N] [--tol X]"
      " [--threads T]\n"
      "                            [--faults SPEC] [--newton] [--report]"
      " [--metrics FILE] [--trace FILE]"
      " [--metrics-report]\n"
      "         (--algo: a registered solver — one of %s —\n"
      "          or a comma-separated warm-start pipeline such as"
      " 'lp,gradient'; 'help' lists the registry)\n"
      "         (--compare: run every registered solver on the scenario and"
      " tabulate utility/iterations/wall time;\n"
      "          --compare-json FILE additionally writes the table as JSON)\n"
      "         (--threads: actor-runtime workers for solvers with a"
      " parallel engine; 0 = all hardware threads)\n"
      "         (--faults: inject message faults into the distributed"
      " runtime; SPEC is a comma list of drop=P, delay=A-B,\n"
      "          dup=P, seed=S, crash=NODE@BEGIN-END, link=FROM-TO@P)\n"
      "         (--metrics: write the metric registry as CSV; --trace:"
      " write a chrome://tracing JSON (or CSV if FILE ends\n"
      "          in .csv); --metrics-report: print the metric catalog —"
      " all three imply observation)\n"
      "       maxutil_cli churn <file> --plan SPEC [--algo NAME[,...]]"
      " [--policy proportional|priority|freeze]\n"
      "                            [--eps X] [--eta X] [--iters N] [--tol X]"
      " [--threads T] [--budget N] [--report]\n"
      "                            [--trace FILE] [--metrics FILE]\n"
      "         (--plan: comma list of crash=NODE@T, restore=NODE@T,"
      " cap=NODE*F@T, bw=FROM-TO*F@T,\n"
      "          arrive=COMMODITY[*F]@T, depart=COMMODITY@T — scripted"
      " topology churn replayed in time order\n"
      "          with a warm-started re-solve per event; --budget caps"
      " iterations per re-solve; --policy picks the\n"
      "          admission-degradation transient; see docs/CONTROLLER.md)\n"
      "       maxutil_cli serve <file> [--input FILE|-] [--listen SOCKET]"
      " [--window W]\n"
      "                            [--algo NAME[,...]] [--policy P] [--eps X]"
      " [--eta X] [--iters N] [--tol X]\n"
      "                            [--threads T] [--budget N]\n"
      "                            [--admit-share X] [--deny-share X]"
      " [--max-pending N] [--decisions FILE]\n"
      "                            [--json FILE] [--report] [--metrics FILE]"
      " [--trace FILE]\n"
      "                            [--wal DIR|--recover DIR]"
      " [--snapshot-every N] [--flush-ms MS] [--stamp]\n"
      "         (online admission serving, docs/SERVE.md: reads one request"
      " per line — admit=COMMODITY[*F]@T,\n"
      "          query=COMMODITY@T, or any churn event — from --input"
      " (default '-' = stdin) or a Unix-domain\n"
      "          socket via --listen (multi-client, poll-driven; ends when"
      " the last client leaves); coalesces\n"
      "          requests within --window virtual time units into one"
      " re-solve; answers admit/degrade/deny at\n"
      "          thresholds --admit-share/--deny-share on the admitted share;"
      " --max-pending denies arrivals\n"
      "          beyond N pending with a retryable overload error;"
      " --decisions writes the deterministic decision\n"
      "          log ('-' = stdout), --json a machine-readable summary with"
      " p50/p99 decision latency and\n"
      "          decisions/sec)\n"
      "         (--wal DIR: durable serving — every request is write-ahead"
      " logged under DIR before it enters a\n"
      "          batch, with periodic snapshots every --snapshot-every"
      " flushes; restarting over the same DIR\n"
      "          recovers snapshot + WAL tail bit-identically and bumps the"
      " fencing epoch; --recover DIR is the\n"
      "          same but fails when DIR holds no prior state; see"
      " docs/SERVE.md §8)\n"
      "         (--flush-ms: wall-clock deadline for socket mode — an open"
      " batch flushes at most MS milliseconds\n"
      "          after it opens even if no request arrives; --stamp replaces"
      " client timestamps with boundary\n"
      "          arrival ordinals, the multi-client total order of"
      " docs/SERVE.md §9)\n"
      "       maxutil_cli dot <file> [--extended]\n"
      "       maxutil_cli generate [--servers N] [--commodities J]"
      " [--stages K] [--lambda X] [--seed S]\n"
      "       maxutil_cli help   (this text; also --help)\n",
      solver::SolverRegistry::instance().names_joined().c_str());
  return out == stdout ? 0 : 1;
}

int usage() { return usage_to(stderr); }

/// Flags that take no value.
const std::set<std::string> kSwitches = {
    "extended", "report", "newton", "metrics-report", "compare", "stamp"};

/// Every flag each subcommand reads; anything else is an error rather than
/// being silently ignored (a typo like --iter would run the default budget).
const std::set<std::string> kSolveFlags = {
    "algo", "compare", "compare-json", "eta", "eps", "iters", "tol",
    "threads", "faults", "newton", "report", "metrics", "trace",
    "metrics-report"};
const std::set<std::string> kChurnFlags = {
    "plan", "algo", "policy", "eps", "eta", "iters", "tol", "threads",
    "budget", "report", "trace", "metrics"};
const std::set<std::string> kServeFlags = {
    "input", "listen", "window", "algo", "policy", "eps", "eta", "iters",
    "tol", "threads", "budget", "admit-share", "deny-share", "max-pending",
    "decisions", "json", "report", "metrics", "trace", "wal", "recover",
    "snapshot-every", "flush-ms", "stamp"};
const std::set<std::string> kDotFlags = {"extended"};
const std::set<std::string> kGenerateFlags = {"servers", "commodities",
                                              "stages", "lambda", "seed"};

/// Parses "--key value" pairs after the subcommand/file arguments; `known`
/// is the subcommand's flag set.
std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int first, const std::set<std::string>& known) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw util::CheckError("unexpected argument '" + key + "'");
    }
    key = key.substr(2);
    if (known.count(key) == 0) {
      throw util::CheckError("unknown flag --" + key);
    }
    if (kSwitches.count(key) != 0) {
      flags[key] = "1";
    } else {
      if (i + 1 >= argc) {
        throw util::CheckError("flag --" + key + " needs a value");
      }
      flags[key] = argv[++i];
    }
  }
  return flags;
}

double flag_number(const std::map<std::string, std::string>& flags,
                   const std::string& key, double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

int cmd_validate(const std::string& path) {
  const auto net = scenario::load_file(path);
  const auto report = stream::validate(net);
  std::fputs(report.to_string().c_str(), stdout);
  std::printf("%zu nodes, %zu links, %zu commodities: %s\n", net.node_count(),
              net.link_count(), net.commodity_count(),
              report.ok() ? "OK" : "INVALID");
  return report.ok() ? 0 : 1;
}

/// `--algo help`: the live registry, with capabilities and defaults.
int print_solver_help() {
  const auto& registry = solver::SolverRegistry::instance();
  util::Table table({"solver", "default iters", "capabilities", "description"});
  for (const solver::SolverInfo& info : registry.solvers()) {
    std::string caps;
    const auto tag = [&caps](bool on, const char* name) {
      if (!on) return;
      if (!caps.empty()) caps += " ";
      caps += name;
    };
    tag(info.supports_warm_start, "warm-start");
    tag(info.supports_threads, "threads");
    tag(info.supports_observation, "observe");
    tag(info.emits_routing, "routing");
    table.add_row({info.name,
                   info.default_iterations == 0
                       ? std::string("-")
                       : util::Table::cell(static_cast<long long>(
                             info.default_iterations)),
                   caps.empty() ? "-" : caps, info.description});
  }
  table.print(std::cout);
  std::printf(
      "\npipelines: --algo A,B,... chains solvers left to right, warm-"
      "starting each stage\nfrom the previous stage's routing when supported"
      " (e.g. --algo lp,gradient).\nSee docs/SOLVERS.md for the contract.\n");
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// `--compare`: every registered solver on the same Problem; console table
/// plus optional machine-readable JSON.
int run_compare(const solver::Problem& problem,
                const solver::SolveOptions& options, const std::string& path,
                const std::map<std::string, std::string>& flags) {
  const auto& registry = solver::SolverRegistry::instance();
  util::Table table({"solver", "status", "utility", "iterations", "wall s"});
  std::vector<std::pair<std::string, solver::SolveResult>> results;
  for (const solver::SolverInfo& info : registry.solvers()) {
    auto result = registry.solve(info.name, problem, options);
    table.add_row(
        {info.name, solver::to_string(result.status),
         util::Table::cell(result.utility, 6),
         util::Table::cell(static_cast<long long>(result.iterations)),
         util::Table::cell(result.wall_seconds, 4)});
    results.emplace_back(info.name, std::move(result));
  }
  table.print(std::cout);

  if (flags.count("compare-json") != 0) {
    const std::string& file = flags.at("compare-json");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --compare-json file " + file);
    char buf[64];
    out << "{\n  \"scenario\": \"" << json_escape(path) << "\",\n"
        << "  \"epsilon\": "
        << (std::snprintf(buf, sizeof(buf), "%.10g",
                          problem.extended().penalty_config().epsilon),
            buf)
        << ",\n  \"solvers\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& [name, r] = results[i];
      out << "    {\"name\": \"" << name << "\", \"status\": \""
          << solver::to_string(r.status) << "\", ";
      std::snprintf(buf, sizeof(buf), "%.10g", r.utility);
      out << "\"utility\": " << buf << ", \"iterations\": " << r.iterations
          << ", ";
      std::snprintf(buf, sizeof(buf), "%.6g", r.wall_seconds);
      out << "\"wall_seconds\": " << buf << ", \"admitted\": [";
      for (std::size_t j = 0; j < r.admitted.size(); ++j) {
        std::snprintf(buf, sizeof(buf), "%.10g", r.admitted[j]);
        out << (j == 0 ? "" : ", ") << buf;
      }
      out << "], \"metrics\": {";
      for (std::size_t j = 0; j < r.metrics.size(); ++j) {
        std::snprintf(buf, sizeof(buf), "%.10g", r.metrics[j].second);
        out << (j == 0 ? "" : ", ") << "\"" << json_escape(r.metrics[j].first)
            << "\": " << buf;
      }
      out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    util::ensure(out.good(), "write to --compare-json file failed: " + file);
    std::fprintf(stderr, "wrote solver comparison JSON to %s\n", file.c_str());
  }
  return 0;
}

int cmd_solve(const std::string& path,
              const std::map<std::string, std::string>& flags) {
  const std::string algo =
      flags.count("algo") != 0 ? flags.at("algo") : "gradient";
  if (algo == "help") return print_solver_help();

  const auto net = scenario::load_file(path);
  stream::validate_or_throw(net);
  xform::PenaltyConfig penalty;
  penalty.epsilon = flag_number(flags, "eps", 0.1);
  const solver::Problem problem(net, penalty);

  const bool want_obs = flags.count("metrics") != 0 ||
                        flags.count("trace") != 0 ||
                        flags.count("metrics-report") != 0;
  solver::SolveOptions options;
  options.eta =
      flag_number(flags, "eta", flags.count("newton") != 0 ? 1.0 : 0.05);
  options.max_iterations =
      static_cast<std::size_t>(flag_number(flags, "iters", 0));
  options.tolerance = flag_number(flags, "tol", 0.0);
  options.curvature_scaled = flags.count("newton") != 0;
  const double threads = flag_number(flags, "threads", 1);
  options.threads =
      threads <= 0 ? 0 : static_cast<std::size_t>(threads);
  options.report = flags.count("report") != 0;
  options.observe = want_obs;
  if (flags.count("faults") != 0) options.extra["faults"] = flags.at("faults");

  if (flags.count("compare") != 0 || flags.count("compare-json") != 0) {
    return run_compare(problem, options, path, flags);
  }

  const auto pipeline = solver::Pipeline::parse(algo);
  if (want_obs &&
      !pipeline.any_stage(&solver::SolverInfo::supports_observation)) {
    std::fprintf(stderr,
                 "warning: --metrics/--trace/--metrics-report instrument the "
                 "actor runtime and require a solver with the observe "
                 "capability (see --algo help); ignored\n");
  }
  const auto result = pipeline.run(problem, options);

  for (const std::string& warning : result.warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  if (!solver::is_usable(result.status)) {
    std::fprintf(stderr, "%s\n",
                 result.message.empty() ? "solve failed" : result.message.c_str());
    return 1;
  }

  if (!result.report.empty()) {
    std::fputs(result.report.c_str(), stdout);
    std::printf("\n");
  }

  if (result.obs.has_value()) {
    const solver::ObsSnapshot& obs = *result.obs;
    if (flags.count("metrics") != 0) {
      const std::string& file = flags.at("metrics");
      std::ofstream out(file);
      util::ensure(out.good(), "cannot open --metrics file " + file);
      out << obs.metrics_csv;
      std::fprintf(stderr, "wrote metrics CSV to %s\n", file.c_str());
    }
    if (flags.count("trace") != 0) {
      const std::string& file = flags.at("trace");
      std::ofstream out(file);
      util::ensure(out.good(), "cannot open --trace file " + file);
      const bool csv =
          file.size() >= 4 && file.compare(file.size() - 4, 4, ".csv") == 0;
      out << (csv ? obs.trace_csv : obs.trace_chrome_json);
      std::fprintf(stderr, "wrote %s trace (%zu events) to %s\n",
                   csv ? "CSV" : "chrome://tracing", obs.trace_events,
                   file.c_str());
    }
    if (flags.count("metrics-report") != 0) {
      std::printf("metric catalog:\n%s\n", obs.metrics_report.c_str());
    }
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }

  if (result.stages.size() > 1) {
    std::printf("pipeline stages:\n");
    util::Table stages({"stage", "status", "utility", "iterations", "wall s"});
    for (const solver::StageSummary& stage : result.stages) {
      stages.add_row(
          {stage.solver, solver::to_string(stage.status),
           util::Table::cell(stage.utility, 6),
           util::Table::cell(static_cast<long long>(stage.iterations)),
           util::Table::cell(stage.wall_seconds, 4)});
    }
    stages.print(std::cout);
    std::printf("\n");
  }

  util::Table table({"commodity", "offered", "admitted", "share"});
  for (stream::CommodityId j = 0; j < net.commodity_count(); ++j) {
    table.add_row({net.commodity_name(j), util::Table::cell(net.lambda(j)),
                   util::Table::cell(result.admitted[j]),
                   util::Table::cell(100.0 * result.admitted[j] / net.lambda(j),
                                     1) +
                       "%"});
  }
  table.print(std::cout);
  std::printf("total utility (%s): %.6f\n", pipeline.spec().c_str(),
              result.utility);
  return 0;
}

int cmd_churn(const std::string& path,
              const std::map<std::string, std::string>& flags) {
  util::ensure(flags.count("plan") != 0,
               "churn needs --plan SPEC (see docs/CONTROLLER.md)");
  const ctrl::ChurnPlan plan = ctrl::parse_churn_plan(flags.at("plan"));
  const auto net = scenario::load_file(path);
  stream::validate_or_throw(net);

  ctrl::ControllerOptions options;
  options.pipeline = flags.count("algo") != 0 ? flags.at("algo") : "gradient";
  if (flags.count("policy") != 0) {
    options.policy = ctrl::parse_policy(flags.at("policy"));
  }
  options.penalty.epsilon = flag_number(flags, "eps", 0.1);
  options.solve.eta = flag_number(flags, "eta", 0.0);
  options.solve.max_iterations =
      static_cast<std::size_t>(flag_number(flags, "iters", 0));
  options.solve.tolerance = flag_number(flags, "tol", 0.0);
  const double threads = flag_number(flags, "threads", 1);
  options.solve.threads = threads <= 0 ? 0 : static_cast<std::size_t>(threads);
  options.watchdog_iterations =
      static_cast<std::size_t>(flag_number(flags, "budget", 4000));
  options.record_trace = flags.count("trace") != 0;

  ctrl::Controller controller(net, options);
  const ctrl::ChurnReport report = controller.run(plan);

  for (const ctrl::EventOutcome& outcome : report.events) {
    if (!solver::is_usable(outcome.status)) {
      std::fprintf(stderr, "warning: event '%s' failed: %s\n",
                   outcome.describe().c_str(),
                   outcome.message.empty() ? solver::to_string(outcome.status)
                                           : outcome.message.c_str());
    }
  }
  if (flags.count("report") != 0) {
    std::fputs(report.summary().c_str(), stdout);
  } else {
    std::printf("%zu events: %zu warm, %zu cold, %zu exact restores, "
                "%zu retries, %zu failures\n",
                report.events.size(), report.warm_starts, report.cold_starts,
                report.exact_restores, report.watchdog_retries,
                report.failures);
    std::printf("utility %.6f -> %.6f\n", report.initial_utility,
                report.final_utility);
  }
  if (flags.count("metrics") != 0) {
    const std::string& file = flags.at("metrics");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --metrics file " + file);
    controller.metrics().write_csv(out);
    std::fprintf(stderr, "wrote churn metrics CSV to %s\n", file.c_str());
  }
  if (flags.count("trace") != 0) {
    const std::string& file = flags.at("trace");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --trace file " + file);
    const bool csv =
        file.size() >= 4 && file.compare(file.size() - 4, 4, ".csv") == 0;
    if (csv) {
      controller.tracer().write_csv(out);
    } else {
      controller.tracer().write_chrome_json(out);
    }
    std::fprintf(stderr, "wrote churn %s trace (%zu events) to %s\n",
                 csv ? "CSV" : "chrome://tracing",
                 controller.tracer().events().size(), file.c_str());
  }
  return report.failures > 0 ? 1 : 0;
}

int cmd_serve(const std::string& path,
              const std::map<std::string, std::string>& flags) {
  const auto net = scenario::load_file(path);
  stream::validate_or_throw(net);

  serve::ServeOptions options;
  options.controller.pipeline =
      flags.count("algo") != 0 ? flags.at("algo") : "gradient";
  if (flags.count("policy") != 0) {
    options.controller.policy = ctrl::parse_policy(flags.at("policy"));
  }
  options.controller.penalty.epsilon = flag_number(flags, "eps", 0.1);
  options.controller.solve.eta = flag_number(flags, "eta", 0.0);
  options.controller.solve.max_iterations =
      static_cast<std::size_t>(flag_number(flags, "iters", 0));
  options.controller.solve.tolerance = flag_number(flags, "tol", 0.0);
  const double threads = flag_number(flags, "threads", 1);
  options.controller.solve.threads =
      threads <= 0 ? 0 : static_cast<std::size_t>(threads);
  options.controller.watchdog_iterations =
      static_cast<std::size_t>(flag_number(flags, "budget", 4000));
  options.window = static_cast<std::size_t>(flag_number(flags, "window", 0));
  options.admit_share = flag_number(flags, "admit-share", 0.95);
  options.deny_share = flag_number(flags, "deny-share", 0.05);
  options.max_pending =
      static_cast<std::size_t>(flag_number(flags, "max-pending", 0));
  options.record_trace = flags.count("trace") != 0;

  serve::Daemon daemon(net, options);

  // Durability: --wal DIR serves with a write-ahead log rooted at DIR
  // (recovering automatically when the directory holds prior state);
  // --recover DIR is the same but fails fast when there is nothing to
  // recover — the restart path of docs/SERVE.md §8.
  util::ensure(flags.count("wal") == 0 || flags.count("recover") == 0,
               "--wal and --recover name the same directory role; pass one");
  std::string wal_dir;
  if (flags.count("wal") != 0) wal_dir = flags.at("wal");
  if (flags.count("recover") != 0) wal_dir = flags.at("recover");
  std::unique_ptr<serve::Durable> durable;
  if (!wal_dir.empty()) {
    serve::DurableOptions durable_options;
    durable_options.dir = wal_dir;
    durable_options.snapshot_every =
        static_cast<std::size_t>(flag_number(flags, "snapshot-every", 8));
    durable = std::make_unique<serve::Durable>(daemon, durable_options);
    util::ensure(flags.count("recover") == 0 || durable->recovered(),
                 "--recover " + wal_dir + ": no prior state to recover");
    if (durable->recovered()) {
      std::fprintf(stderr, "recovered epoch %llu: replayed %llu records\n",
                   static_cast<unsigned long long>(durable->epoch()),
                   static_cast<unsigned long long>(durable->replayed()));
    }
  }
  serve::DaemonSink plain(daemon);
  serve::ServeSink& sink =
      durable ? static_cast<serve::ServeSink&>(*durable) : plain;

  if (flags.count("listen") != 0) {
    serve::AcceptorOptions acceptor_options;
    acceptor_options.flush_ms =
        static_cast<std::size_t>(flag_number(flags, "flush-ms", 0));
    acceptor_options.stamp_arrival = flags.count("stamp") != 0;
    serve::Acceptor acceptor(sink, acceptor_options);
    acceptor.run(flags.at("listen"));
  } else {
    const std::string input =
        flags.count("input") != 0 ? flags.at("input") : "-";
    // Stream request by request, not parse-to-EOF-then-replay: a pipe or
    // FIFO source is served live, and under --wal each request hits the
    // write-ahead log as it arrives — a kill mid-stream loses nothing
    // already read (docs/SERVE.md §7).
    const auto feed = [&sink](serve::Request&& request) {
      sink.submit(request);
    };
    if (input == "-") {
      serve::for_each_request(std::cin, feed);
    } else {
      std::ifstream in(input);
      util::ensure(in.good(), "cannot open --input file " + input);
      serve::for_each_request(in, feed);
    }
  }
  const serve::ServeReport& report =
      durable ? durable->finish() : daemon.finish();
  const std::string decision_log =
      durable ? durable->full_decision_log() : report.decision_log();

  if (flags.count("decisions") != 0 && flags.at("decisions") != "-") {
    const std::string& file = flags.at("decisions");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --decisions file " + file);
    out << decision_log;
    std::fprintf(stderr, "wrote decision log to %s\n", file.c_str());
  } else {
    std::fputs(decision_log.c_str(), stdout);
  }
  if (flags.count("report") != 0) {
    std::fputs(report.summary().c_str(), stdout);
  } else {
    std::printf("%zu decisions, %zu batches, utility %.6f -> %.6f\n",
                report.decisions.size(), report.batches,
                report.initial_utility, report.final_utility);
  }
  if (flags.count("json") != 0) {
    const std::string& file = flags.at("json");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --json file " + file);
    report.write_json(out);
    std::fprintf(stderr, "wrote serve summary JSON to %s\n", file.c_str());
  }
  if (flags.count("metrics") != 0) {
    const std::string& file = flags.at("metrics");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --metrics file " + file);
    daemon.controller().metrics().write_csv(out);
    std::fprintf(stderr, "wrote serve metrics CSV to %s\n", file.c_str());
  }
  if (flags.count("trace") != 0) {
    const std::string& file = flags.at("trace");
    std::ofstream out(file);
    util::ensure(out.good(), "cannot open --trace file " + file);
    const bool csv =
        file.size() >= 4 && file.compare(file.size() - 4, 4, ".csv") == 0;
    if (csv) {
      daemon.controller().tracer().write_csv(out);
    } else {
      daemon.controller().tracer().write_chrome_json(out);
    }
    std::fprintf(stderr, "wrote serve %s trace (%zu events) to %s\n",
                 csv ? "CSV" : "chrome://tracing",
                 daemon.controller().tracer().events().size(), file.c_str());
  }
  for (const serve::DecisionRecord& record : report.decisions) {
    if (record.reason.rfind("re-solve failed", 0) == 0) return 1;
  }
  return 0;
}

int cmd_dot(const std::string& path,
            const std::map<std::string, std::string>& flags) {
  const auto net = scenario::load_file(path);
  if (flags.count("extended") != 0) {
    const xform::ExtendedGraph xg(net);
    std::vector<std::string> labels;
    labels.reserve(xg.node_count());
    for (stream::NodeId v = 0; v < xg.node_count(); ++v) {
      labels.push_back(xg.node_label(v));
    }
    std::fputs(xg.graph().to_dot(labels).c_str(), stdout);
  } else {
    std::vector<std::string> labels;
    labels.reserve(net.node_count());
    for (stream::NodeId n = 0; n < net.node_count(); ++n) {
      labels.push_back(net.node_name(n));
    }
    std::fputs(net.graph().to_dot(labels).c_str(), stdout);
  }
  return 0;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  gen::RandomInstanceParams p;
  p.servers = static_cast<std::size_t>(flag_number(flags, "servers", 40));
  p.commodities =
      static_cast<std::size_t>(flag_number(flags, "commodities", 3));
  p.stages = static_cast<std::size_t>(flag_number(flags, "stages", 5));
  p.lambda = flag_number(flags, "lambda", 100.0);
  util::Rng rng(static_cast<std::uint64_t>(flag_number(flags, "seed", 2007)));
  const auto net = gen::random_instance(p, rng);
  scenario::write(net, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "validate" && argc >= 3) {
      return cmd_validate(argv[2]);
    }
    if (command == "solve" && argc >= 3) {
      return cmd_solve(argv[2], parse_flags(argc, argv, 3, kSolveFlags));
    }
    if (command == "churn" && argc >= 3) {
      return cmd_churn(argv[2], parse_flags(argc, argv, 3, kChurnFlags));
    }
    if (command == "serve" && argc >= 3) {
      return cmd_serve(argv[2], parse_flags(argc, argv, 3, kServeFlags));
    }
    if (command == "help" || command == "--help") {
      return usage_to(stdout);
    }
    if (command == "dot" && argc >= 3) {
      return cmd_dot(argv[2], parse_flags(argc, argv, 3, kDotFlags));
    }
    if (command == "generate") {
      return cmd_generate(parse_flags(argc, argv, 2, kGenerateFlags));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
