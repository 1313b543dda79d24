#!/usr/bin/env python3
"""Served-decision benchmark: one run of one workload.

    python3 perfbench/run.py --workload lp-churn --seed 1 --seconds 15 --trace 0

Builds maxutil (perfbench/CMakeLists.txt) into .bench_build on first use,
generates the workload's instance and seeded request stream, serves it, checks
every answer against the reference replay, and prints one JSON object as the
last line of stdout: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Exits non-zero when a correctness check fails. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 150

# The traced run's independently measured spans must add up to the typical
# (median) decision's latency within this share.
LAYER_SUM_TOLERANCE = 0.05
# Set-up samples take this share of a run.
BOOTS_SHARE = 0.2


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json at the repository root: the workloads and the names
    and units of the metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    """Configures once, then (re)builds the benchmark binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no maxutil sources next to perfbench/; nothing to build")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_serve",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(step))
            sys.exit(2)
    return os.path.join(BUILD, "perfbench_serve")


class ChildFailed(Exception):
    pass


def child(args, cwd):
    """Runs a perfbench_serve subcommand; returns (its JSON result, peak RSS
    in MB). A subcommand that hangs is killed with everything it spawned."""
    out_path = os.path.join(cwd, "child.out")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=sys.stderr,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed("%s exited with %d" % (" ".join(args[1:3]), proc.returncode))
    with open(out_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().split(b"\n")[:-1]


def prefix_matches(path, reference, what, problems):
    """The log at `path` must equal the reference log's first lines."""
    lines = read_lines(path)
    if not lines or lines != reference[:len(lines)]:
        problems.append("%s differs from the reference replay" % what)
    return len(lines)


def batch_quality(work, decisions):
    """Mean settled utility and mean utility / LP optimum over the batches
    the served prefix settled (the generator's per-batch record)."""
    utilities, ratios = [], []
    with open(os.path.join(work, "batches.tsv")) as f:
        next(f)
        for row in f:
            _, end, utility, optimum = row.split("\t")
            if int(end) > decisions:
                break
            utilities.append(float(utility))
            if float(optimum) > 0:
                ratios.append(float(utility) / float(optimum))
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return mean(utilities), mean(ratios)


def boot_medians(work):
    """Medians of the samples every boots step appended to boots.tsv."""
    samples = {}
    with open(os.path.join(work, "boots.tsv")) as f:
        for row in f:
            name, value = row.split("\t")
            samples.setdefault(name, []).append(float(value))
    return {name: statistics.median(values) for name, values in samples.items()}


def served(result, answers, log, problems):
    """Every request answered exactly once, with its own decision line."""
    if result["unanswered"] or result["duplicates"]:
        problems.append("%d requests unanswered, %d extra answers"
                        % (result["unanswered"], result["duplicates"]))
    if read_lines(answers) != read_lines(log)[:int(result["requests"])]:
        problems.append("the answers clients got differ from the decision log")
    return int(result["requests"]), int(result["errors"] + result["unanswered"])


def run(opts, spec):
    end_to_end = metric_units(spec, "end_to_end")
    per_layer = metric_units(spec, "per_layer")
    bench = build()
    work = os.path.join(WORK, "%s-%d-%d" % (opts.workload, opts.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", opts.workload, "--dir", work]
    problems = []
    try:
        host_before, _ = child([bench, "hostref"], work)
        # The traced run serves half a run untraced, then the same requests
        # traced, so it generates for half a run too.
        seconds = opts.seconds / 2.0 if opts.trace else float(opts.seconds)
        # Set-up samples (untraced runs only), a third before the stream is
        # generated, a third before the timed pass, a third after it. The
        # first boots step also checks crash recovery.
        boots = [bench, "boots", "--seconds", str(BOOTS_SHARE / 3 * seconds)] + common
        boot_results = []
        if not opts.trace:
            boot_results.append(child(boots, work)[0])
        gen, _ = child([bench, "gen", "--seed", str(opts.seed), "--seconds",
                        str(seconds)] + common, work)
        reference = read_lines(os.path.join(work, "ref.log"))

        if not opts.trace:
            boot_results.append(child(boots, work)[0])
        res, rss = child([bench, "serve", "--seconds", str(seconds)] + common, work)
        if not opts.trace:
            boot_results.append(child(boots, work)[0])
        if not all(b["recovered_ok"] for b in boot_results):
            problems.append("the recovered decision log differs from "
                            "the uninterrupted replay")
        served_log = os.path.join(work, "serve.log")
        answers = os.path.join(work, "serve.answers")
        attempted, failed = served(res, answers, served_log, problems)
        logged = prefix_matches(served_log, reference, "the served decision log", problems)
        if logged != attempted:
            problems.append("%d requests served but %d decisions logged" % (attempted, logged))

        metrics = {}
        if opts.trace:
            traced, _ = child([bench, "trace", "--count", str(attempted)] + common, work)
            served(traced, os.path.join(work, "trace.answers"),
                   os.path.join(work, "trace.log"), problems)
            if read_lines(os.path.join(work, "trace.log")) != read_lines(served_log):
                problems.append("the traced decision log differs from the untraced one")
            if traced["trace.layer_sum_miss_p50"] > LAYER_SUM_TOLERANCE:
                problems.append("the measured layers miss the median decision's "
                                "latency by %.1f%%" % (100 * traced["trace.layer_sum_miss_p50"]))
            host_after, _ = child([bench, "hostref"], work)
            values = dict(traced)
            values["client.sent"] = attempted
            values["client.answered"] = res["answered"]
            values["host.ref_ms"] = (host_before["ref_ms"] + host_after["ref_ms"]) / 2
            values["host.nproc"] = host_before["nproc"]
            values["trace.overhead_ms"] = traced["traced_p50_ms"] - res["decision_p50_ms"]
            for name, unit in per_layer.items():
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            host_after, _ = child([bench, "hostref"], work)
            values = dict(res)
            values.update(boot_medians(work))
            values["utility_mean"], values["optimality_ratio"] = batch_quality(work, logged)
            values["peak_rss_mb"] = rss
            for name, unit in end_to_end.items():
                metrics[name] = {"value": values[name], "unit": unit}
        # Diagnostics beside the result (not part of it): the tail's rank and
        # sample count, the stream's shape, and the host-drift reference.
        log("diagnostics:", json.dumps({
            "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
            "requests": attempted, "tail_percentile": res.get("tail_percentile"),
            "tail_segments": res.get("tail_segments"),
            "tail_samples": res.get("tail_samples"),
            "generated": gen,
            "host.ref_ms": [host_before["ref_ms"], host_after["ref_ms"]],
            "nproc": host_before["nproc"]}))
    except ChildFailed as e:
        log(str(e))
        return 1
    finally:
        if not opts.keep:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK)
            except OSError:
                pass
    for problem in problems:
        log("check failed:", problem)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = load_spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the run directory under .bench_work")
    sys.exit(run(parser.parse_args(), spec))


if __name__ == "__main__":
    main()
