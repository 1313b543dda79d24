#pragma once

// Shared pieces of the served-decision benchmark binary: the workload table,
// serve options that mirror `maxutil_cli serve`'s defaults, clocks, order
// statistics, a one-line JSON writer, and the fsync tap.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/daemon.hpp"
#include "stream/model.hpp"

namespace perfbench {

namespace serve = maxutil::serve;
namespace stream = maxutil::stream;

/// How the benchmark client drives the serving stack.
enum class Driving {
  kClosed,     // one client: feed, flush, read, then the next request
  kPipelined,  // back to back in virtual-time order; answers arrive per batch
};

/// One workload: instance, engine, window, request mix and driving.
/// README.md explains why each exists.
struct Workload {
  const char* name;
  // Instance: gen::random_instance with these sizes and this seed (the
  // defaults 40/3/5 with seed 2007 are the paper's Section-6 instance).
  std::size_t servers;
  std::size_t commodities;
  std::size_t stages;
  std::uint64_t instance_seed;
  // Engine.
  const char* pipeline;
  std::size_t iters;   // --iters (0 = engine default, capped by --budget)
  std::size_t window;  // --window
  Driving driving;
  // Request mix per deck of 20 consecutive requests (each deck is a fresh
  // shuffle, so every seed gets the same mix): tenant departure or
  // re-admission, capacity brownout or repair, bandwidth dip or repair,
  // query.
  std::size_t n_tenant;
  std::size_t n_cap;
  std::size_t n_bw;
  std::size_t n_query;
  // Virtual-time gap between consecutive requests, drawn from
  // [0, max_gap]; 0 means a fixed gap of 1.
  std::size_t max_gap;
  // Generation time budget as a share of --seconds (the timed pass must
  // never run out of stream before its time is up).
  double gen_share;
  std::size_t lp_stride;  // LP optimum computed on every lp_stride-th batch
};

/// The workload table; throws on an unknown name.
const Workload& find_workload(const std::string& name);

/// ServeOptions equal to what `maxutil_cli serve` builds from the workload's
/// flags (eps 0.1, --budget 4000, --threads 1, default admit/deny shares).
/// `pipeline` overrides the engine name (the traced run's timing wrapper).
serve::ServeOptions serve_options(const Workload& w,
                                  const std::string& pipeline = "");

/// Writes the workload's instance (gen::random_instance) as `scenario.txt`
/// in a run directory; the same file every time.
void write_instance(const Workload& w, const std::string& dir);

/// Loads `scenario.txt` from a run directory and validates it.
stream::StreamNetwork load_instance(const std::string& dir);

// ---- Clock ----
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Order statistics ----
double median(std::vector<double> values);
/// The reported tail of a run: the samples, in the order they were taken,
/// split into up to five equal consecutive segments of at least 200 samples
/// each; the median over segments of each segment's highest percentile with
/// at least ten samples beyond it (the (m-10)-th order statistic of m). One
/// host hiccup then moves one segment, not the run's figure. `percentile`
/// receives the segments' percentile, 100*(m-10)/m, and `segments` their
/// count.
double segmented_tail(const std::vector<double>& in_order, double* percentile,
                      std::size_t* segments);
/// Nearest-rank percentile p in [0, 100].
double percentile(std::vector<double> values, double p);

// ---- Output ----
/// One flat JSON object printed on a single line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::vector<std::string> read_lines(const std::string& path);
void write_file(const std::string& path, const std::string& body);

/// True when a decision line reports a failed request: rejected,
/// overload-denied, a failed re-solve, or an acceptor error line. A policy
/// deny is a correct answer and is not counted.
bool is_error_line(const std::string& line);

/// Whole fsync() calls made by this process (the WAL and snapshot paths),
/// tallied by the interposed fsync in common.cpp into the current bucket.
struct FsyncTally {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
};
enum FsyncBucket { kFsyncPath = 0, kFsyncRetime = 1 };
extern FsyncTally g_fsync[2];
extern int g_fsync_bucket;

/// Named command-line flags after the subcommand ("--key value" pairs).
std::map<std::string, std::string> parse_args(int argc, char** argv, int first);
std::string arg(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "");

int cmd_gen(const std::map<std::string, std::string>& args);
int cmd_serve(const std::map<std::string, std::string>& args);
int cmd_boots(const std::map<std::string, std::string>& args);
int cmd_trace(const std::map<std::string, std::string>& args);

}  // namespace perfbench
