#include "common.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "gen/random_instance.hpp"
#include "scenario/scenario.hpp"
#include "stream/validate.hpp"
#include "util/check.hpp"

namespace perfbench {

FsyncTally g_fsync[2];
int g_fsync_bucket = kFsyncPath;

namespace {

// name, servers, commodities, stages, instance seed, engine, iters, window,
// driving, mix per deck of 20 (tenant, cap, bw, query), max_gap, gen_share,
// lp_stride.
const Workload kWorkloads[] = {
    {"lp-churn", 500, 20, 5, 7, "lp-sparse", 0, 0, Driving::kClosed,
     6, 7, 5, 2, 0, 1.1, 32},
    {"gradient-batched", 40, 4, 5, 7, "gradient", 0, 8, Driving::kPipelined,
     5, 6, 5, 4, 2, 1.1, 4},
    {"distributed-1t", 40, 3, 5, 2007, "distributed", 500, 0,
     Driving::kClosed, 6, 7, 5, 2, 0, 1.1, 8},
};

/// The highest percentile with at least ten samples beyond it; the maximum
/// with fewer than 11 samples.
double tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    if (percentile != nullptr) *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t k = n > 10 ? n - 11 : n - 1;
  if (percentile != nullptr) {
    *percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                               static_cast<double>(n)
                         : 100.0;
  }
  return values[k];
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw maxutil::util::CheckError("unknown workload '" + name + "'");
}

serve::ServeOptions serve_options(const Workload& w,
                                  const std::string& pipeline) {
  serve::ServeOptions o;
  o.controller.pipeline = pipeline.empty() ? w.pipeline : pipeline;
  o.controller.penalty.epsilon = 0.1;
  o.controller.solve.max_iterations = w.iters;
  o.controller.solve.threads = 1;
  o.controller.watchdog_iterations = 4000;
  o.window = w.window;
  return o;
}

void write_instance(const Workload& w, const std::string& dir) {
  maxutil::gen::RandomInstanceParams params;
  params.servers = w.servers;
  params.commodities = w.commodities;
  params.stages = w.stages;
  maxutil::util::Rng rng(w.instance_seed);
  write_file(dir + "/scenario.txt",
             maxutil::scenario::write_string(
                 maxutil::gen::random_instance(params, rng)));
}

stream::StreamNetwork load_instance(const std::string& dir) {
  stream::StreamNetwork net =
      maxutil::scenario::load_file(dir + "/scenario.txt");
  stream::validate_or_throw(net);
  return net;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double segmented_tail(const std::vector<double>& in_order, double* pct,
                      std::size_t* segments) {
  const std::size_t k = std::clamp<std::size_t>(in_order.size() / 200, 1, 5);
  const std::size_t m = in_order.size() / k;
  std::vector<double> tails;
  for (std::size_t s = 0; s < k; ++s) {
    const auto first = in_order.begin() + static_cast<long>(s * m);
    const auto last =
        s + 1 == k ? in_order.end() : first + static_cast<long>(m);
    tails.push_back(tail(std::vector<double>(first, last), pct));
  }
  if (segments != nullptr) *segments = k;
  return median(tails);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

JsonLine& JsonLine::num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

std::string JsonLine::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  maxutil::util::ensure(in.good(), "cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  maxutil::util::ensure(out.good(), "cannot write " + path);
  out << body;
}

bool is_error_line(const std::string& line) {
  return line.rfind("error", 0) == 0 ||
         line.find("-> rejected") != std::string::npos ||
         line.find("re-solve failed") != std::string::npos ||
         line.find("overloaded") != std::string::npos;
}

std::map<std::string, std::string> parse_args(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    maxutil::util::ensure(key.rfind("--", 0) == 0 && i + 1 < argc,
                          "expected --key value pairs, got '" + key + "'");
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string arg(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  if (it != args.end()) return it->second;
  maxutil::util::ensure(!fallback.empty(), "missing --" + key);
  return fallback;
}

}  // namespace perfbench

// The serving library calls fsync() at WAL flush points and for snapshots.
// This definition in the benchmark executable takes precedence over libc's,
// so every fsync the library makes is counted and timed (the serve.wal
// layer's fsync metrics) without touching the library.
extern "C" int fsync(int fd) {
  const std::int64_t start = perfbench::now_ns();
  const int rc = static_cast<int>(::syscall(SYS_fsync, fd));
  perfbench::FsyncTally& tally = perfbench::g_fsync[perfbench::g_fsync_bucket];
  tally.calls += 1;
  tally.ns += perfbench::now_ns() - start;
  return rc;
}
