// perfbench_serve: the served-decision benchmark's binary. run.py
// (the benchmark entry point) calls its subcommands:
//
//   gen     --workload W --seed N --seconds S --dir D   instance + stream
//   serve   --workload W --seconds S --dir D            timed in-process pass
//   boots   --workload W --seconds S --dir D            set-up, recovery check
//   trace   --workload W --count N --dir D              traced in-process pass
//   hostref                                             host speed reference
//
// Each prints one JSON object on its last stdout line.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

/// A fixed CPU-bound loop (xorshift, 10^8 steps). Its time tells host
/// drift apart from a code change; it never scales a metric.
int cmd_hostref() {
  const std::int64_t start = perfbench::now_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < 100'000'000ULL; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  const double ms = static_cast<double>(perfbench::now_ns() - start) * 1e-6;
  perfbench::JsonLine out;
  out.num("ref_ms", ms).num(
      "nproc", static_cast<double>(std::thread::hardware_concurrency()));
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_serve "
                 "gen|serve|boots|trace|hostref --key value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const auto args = perfbench::parse_args(argc, argv, 2);
    if (command == "gen") return perfbench::cmd_gen(args);
    if (command == "serve") return perfbench::cmd_serve(args);
    if (command == "boots") return perfbench::cmd_boots(args);
    if (command == "trace") return perfbench::cmd_trace(args);
    if (command == "hostref") return cmd_hostref();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_serve: unknown command '%s'\n",
               command.c_str());
  return 2;
}
