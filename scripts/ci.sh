#!/usr/bin/env bash
# CI entry point. Phase 1: default-preset build + the full ctest suite
# (unit + integration + cli_smoke + docs_lint). Phase 2: ThreadSanitizer
# pass over the two concurrency-sensitive binaries — the parallel runtime
# tests and the fault-injection tests (faulted runs exercise the
# deterministic merge path under threads). Phase 3: AddressSanitizer pass
# over the observability suites (metric shards + trace buffers are raw slot
# arrays; ASan guards the indexing) plus the LP differential harness (the
# sparse revised simplex indexes CSC/LU/eta arrays by hand; ASan guards
# every pivot). Phase 4: solver-parity leg — the
# unified solver layer's registry/adapter/pipeline suite re-run in
# isolation, so a parity break is named in the CI log even when earlier
# phases fail for unrelated reasons. Phase 5: churn-controller leg — the
# ctrl/churn suites re-run in isolation, plus a bench_churn smoke run whose
# JSON artifact must parse. Phase 6: perf-smoke leg — bench_runtime_scaling
# --smoke, whose shape checks gate the runtime's determinism and zero
# steady-state-allocation contracts at threads 1/2/4. Phase 7: the CLI's
# --trace and --compare-json exports must be valid JSON — checked with
# python's strict parser when available. Phase 8: serve leg — `maxutil_cli
# serve` replays the canned demo stream (its --json summary must parse as
# strict JSON), then bench_serve --smoke gates the serve determinism and
# batching shape checks. Phase 9: recovery leg — a durable serve is
# SIGKILLed mid-stream and recovered over the same WAL directory; the
# recovered decision log must be byte-identical to an uninterrupted replay
# and the fencing epoch must have advanced; the leg runs once with the
# default engine and once with --algo lp-sparse, whose snapshots carry the
# controller's simplex bases. Sanitizers exit non-zero on any
# report, which set -e turns into a CI failure.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

cmake --preset default
cmake --build --preset default -j"${jobs}"
ctest --preset default

cmake --preset tsan
cmake --build --preset tsan -j"${jobs}" \
  --target runtime_parallel_test fault_test ctrl_test serve_test \
  partition_test
./build-tsan/tests/runtime_parallel_test
# Re-run the cross-thread determinism contract by name: the CommodityIndex-
# backed routing snapshots must stay bit-identical at 1/2/8 threads, and a
# race there should be called out in the CI log even if an unrelated
# runtime test breaks first.
./build-tsan/tests/runtime_parallel_test \
  --gtest_filter='ParallelRuntime.DeterministicAcrossThreadCountsAndSeeds'
./build-tsan/tests/fault_test
# The churn controller drives the threaded distributed pipeline per event.
./build-tsan/tests/ctrl_test
# The serve daemon batches requests into threaded re-solves.
./build-tsan/tests/serve_test
# The partitioner itself is serial, but its assignments gate every
# cross-shard handoff the runtime tests race-check above.
./build-tsan/tests/partition_test

cmake --preset asan
cmake --build --preset asan -j"${jobs}" --target obs_test property_test \
  lp_diff_test index_test
./build-asan/tests/obs_test
./build-asan/tests/property_test
# The sparse LP backend under ASan: differential vs dense on ~300 cases.
./build-asan/tests/lp_diff_test
# The CommodityIndex CSR/transpose/hash arrays are hand-indexed slot math;
# ASan guards every lookup while the differential + golden parity tests run.
./build-asan/tests/index_test

# Solver parity: every registry adapter bit-identical to its optimizer,
# every backend within tolerance of the LP optimum (tests/solver_test.cpp).
ctest --preset default -R "AdapterParity|CrossSolverParity|Pipeline"

# LP-parity leg: the dense-vs-sparse differential harness and duality/
# warm-start property suites in isolation (a simplex regression is named in
# the CI log even when earlier phases fail for unrelated reasons), then the
# E19 scaling bench in smoke mode — its shape checks gate backend agreement
# on every rung and its JSON artifact must parse.
ctest --preset default -R "LpDiff|LpDuality|LpWarmStart"
cmake --build --preset default -j"${jobs}" --target bench_lp_scaling
lp_dir=$(mktemp -d /tmp/maxutil_lp.XXXXXX)
MAXUTIL_RESULTS_DIR="${lp_dir}" ./build/bench/bench_lp_scaling --smoke
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${lp_dir}/BENCH_lp_scaling.json" >/dev/null
  echo "ci.sh: BENCH_lp_scaling.json parses as strict JSON"
fi
rm -rf "${lp_dir}"

# Churn-controller leg: the plan/controller suites in isolation, then the
# E17 smoke bench — its shape checks fail the run and its JSON must parse.
ctest --preset default -R "ChurnPlan|Controller"
cmake --build --preset default -j"${jobs}" --target bench_churn
churn_dir=$(mktemp -d /tmp/maxutil_churn.XXXXXX)
MAXUTIL_RESULTS_DIR="${churn_dir}" ./build/bench/bench_churn --smoke
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${churn_dir}/BENCH_churn.json" >/dev/null
  echo "ci.sh: BENCH_churn.json parses as strict JSON"
fi
rm -rf "${churn_dir}"

# Perf-smoke leg: the E15 runtime-scaling bench in smoke mode. Its shape
# checks fail the run on any correctness regression (bit-identity across
# modes and thread counts, zero steady-state payload allocations, the shard
# path actually engaging); wall-clock checks are skipped in smoke mode so
# this stays green on loaded single-core CI hosts. The artifact must parse.
cmake --build --preset default -j"${jobs}" --target bench_runtime_scaling
scaling_dir=$(mktemp -d /tmp/maxutil_scaling.XXXXXX)
MAXUTIL_RESULTS_DIR="${scaling_dir}" ./build/bench/bench_runtime_scaling --smoke
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${scaling_dir}/BENCH_runtime_scaling.json" >/dev/null
  echo "ci.sh: BENCH_runtime_scaling.json parses as strict JSON"
fi
rm -rf "${scaling_dir}"

if command -v python3 >/dev/null 2>&1; then
  trace_file=$(mktemp /tmp/maxutil_trace.XXXXXX.json)
  ./build/tools/maxutil_cli solve examples/scenarios/fair_share.maxutil \
    --algo distributed --iters 20 --trace "${trace_file}" >/dev/null
  python3 -m json.tool "${trace_file}" >/dev/null
  rm -f "${trace_file}"
  echo "ci.sh: --trace export parses as strict JSON"

  compare_file=$(mktemp /tmp/maxutil_compare.XXXXXX.json)
  ./build/tools/maxutil_cli solve examples/scenarios/fair_share.maxutil \
    --compare-json "${compare_file}" --iters 200 >/dev/null
  python3 -m json.tool "${compare_file}" >/dev/null
  rm -f "${compare_file}"
  echo "ci.sh: --compare-json export parses as strict JSON"
else
  echo "ci.sh: python3 not found; skipping --trace/--compare-json JSON checks"
fi

# Serve leg: replay the canned demo stream through the admission-serving
# daemon (the decision log is deterministic; a failed re-solve exits
# non-zero), json.tool-check its --json metrics export, then the E18 smoke
# bench — its shape checks gate replay determinism across 1/2/8 threads.
serve_json=$(mktemp /tmp/maxutil_serve.XXXXXX.json)
./build/tools/maxutil_cli serve examples/scenarios/fair_share.maxutil \
  --input examples/serve_demo.events --window 2 --json "${serve_json}" \
  >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${serve_json}" >/dev/null
  echo "ci.sh: serve --json export parses as strict JSON"
fi
rm -f "${serve_json}"
cmake --build --preset default -j"${jobs}" --target bench_serve
serve_dir=$(mktemp -d /tmp/maxutil_serve.XXXXXX)
MAXUTIL_RESULTS_DIR="${serve_dir}" ./build/bench/bench_serve --smoke
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${serve_dir}/BENCH_serve.json" >/dev/null
  echo "ci.sh: BENCH_serve.json parses as strict JSON"
fi
rm -rf "${serve_dir}"

# Recovery leg: durable serving must survive SIGKILL. Feed the demo stream's
# first six requests to a --wal server through a FIFO, SIGKILL it mid-stream
# once the WAL holds every delivered record, then --recover over the same
# directory and feed the rest. The recovered server's full decision log must
# be byte-identical to an uninterrupted replay of the whole stream, and the
# fencing epoch must have advanced to 2 (one bump per start). Extra
# arguments go to every serve invocation.
recovery_leg() {
  local label="${*:-default engine}"
  local wal_dir ref_log rec_log clean_events part1 part2 fifo serve_pid
  wal_dir=$(mktemp -d /tmp/maxutil_wal.XXXXXX)
  ref_log=$(mktemp /tmp/maxutil_serveref.XXXXXX.log)
  rec_log=$(mktemp /tmp/maxutil_serverec.XXXXXX.log)
  clean_events=$(mktemp /tmp/maxutil_events.XXXXXX)
  part1=$(mktemp /tmp/maxutil_part1.XXXXXX)
  part2=$(mktemp /tmp/maxutil_part2.XXXXXX)
  grep -v '^[[:space:]]*#' examples/serve_demo.events \
    | grep -v '^[[:space:]]*$' > "${clean_events}"
  local split_at=6
  head -n "${split_at}" "${clean_events}" > "${part1}"
  tail -n +"$((split_at + 1))" "${clean_events}" > "${part2}"
  ./build/tools/maxutil_cli serve examples/scenarios/fair_share.maxutil \
    --input "${clean_events}" --window 2 --decisions "${ref_log}" "$@" \
    >/dev/null
  fifo="${wal_dir}.fifo"
  mkfifo "${fifo}"
  ./build/tools/maxutil_cli serve examples/scenarios/fair_share.maxutil \
    --input "${fifo}" --window 2 --wal "${wal_dir}" --snapshot-every 2 \
    --decisions /dev/null "$@" >/dev/null 2>&1 &
  serve_pid=$!
  exec 3>"${fifo}"
  cat "${part1}" >&3
  local wal_count
  for _ in $(seq 1 100); do
    wal_count=$(grep -c '^r ' "${wal_dir}/wal.log" 2>/dev/null || true)
    [ "${wal_count:-0}" -eq "${split_at}" ] && break
    sleep 0.1
  done
  kill -9 "${serve_pid}" 2>/dev/null || true
  wait "${serve_pid}" 2>/dev/null || true
  exec 3>&-
  rm -f "${fifo}"
  ./build/tools/maxutil_cli serve examples/scenarios/fair_share.maxutil \
    --input "${part2}" --window 2 --recover "${wal_dir}" --snapshot-every 2 \
    --decisions "${rec_log}" "$@" >/dev/null
  cmp "${ref_log}" "${rec_log}"
  echo "ci.sh: SIGKILL mid-stream recovery (${label}) reproduced the" \
    "decision log byte-identically"
  local recovered_epoch
  recovered_epoch=$(cat "${wal_dir}/epoch")
  if [ "${recovered_epoch}" != "2" ]; then
    echo "ci.sh: expected fencing epoch 2 after one restart (${label}), got" \
      "${recovered_epoch}" >&2
    exit 1
  fi
  echo "ci.sh: fencing epoch advanced to ${recovered_epoch} across the" \
    "restart (${label})"
  rm -rf "${wal_dir}" "${ref_log}" "${rec_log}" "${clean_events}" \
    "${part1}" "${part2}"
}
recovery_leg
# The exact engine's snapshots carry the controller's simplex bases; a
# recovery that dropped them could re-solve onto a different optimal vertex.
recovery_leg --algo lp-sparse

echo "ci.sh: all checks passed"
