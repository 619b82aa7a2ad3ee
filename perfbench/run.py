#!/usr/bin/env python3
"""The smtbalance benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench_driver (perfbench/CMakeLists.txt) in .bench_build/. Every run
works in a fresh directory under .bench_run/ and removes it at the end;
a traced run keeps its spans as .bench_run/spans-<workload>.jsonl.

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric. The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; details go to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("sweep-cold", "horizon-warm", "service-openloop")
GOLDEN_SEED = 1
# Every driver process must end well inside the benchmark's own limit.
PROCESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(len(os.sched_getaffinity(0))),
         "--target", "perfbench_driver"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(workload, args, workdir, seconds=None):
    """Runs one driver process in `workdir` and returns its JSON line."""
    command = [DRIVER, workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    done = subprocess.run(command, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, check=True,
                          timeout=PROCESS_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_json(name):
    with open(os.path.join(BENCH_DIR, "data", name)) as handle:
        return json.load(handle)


def paper_err_pct(digests):
    """Mean |simulated - paper| relative execution time, in points."""
    reference = load_json("paper_reference.json")
    exec_time = {d[0]: d[5] for d in digests if d[0].startswith("paper/")}
    errors = []
    for label, paper_rel in reference["relative_exec_time"].items():
        table, case = label.rsplit("/", 1)
        if case == reference["reference_case"]:
            continue
        base = exec_time[table + "/" + reference["reference_case"]]
        errors.append(abs(exec_time[label] / base - paper_rel))
    return 100.0 * statistics.fmean(errors)


def golden_mismatches(workload, seed, digests):
    """Runs whose exact outputs differ from data/golden.json.

    The paper cases and horizon-warm's fixed corpus are checked for every
    seed; the seed-driven corpora only for the seed the golden was
    recorded with.
    """
    golden = load_json("golden.json")
    expected = dict(golden["paper"])
    if seed == golden["seed"] or workload == "horizon-warm":
        expected.update(golden["workloads"].get(workload, {}))
    seen = {d[0]: [d[2], d[3], d[4]] for d in digests}
    return [label for label, value in expected.items()
            if seen.get(label) != value]


def check(workload, seed, outputs):
    """Lists failed runs: errors, cross-pass mismatches, golden misses."""
    digests = [d for out in outputs for d in out["digests"]]
    problems = ["golden: " + g
                for g in golden_mismatches(workload, seed, digests)]
    for out in outputs:
        problems += ["failure: " + f for f in out["failures"]]
        problems += ["mismatch: " + m for m in out["mismatches"]]
        if workload == "horizon-warm" and out.get("cold_measurements", 0):
            problems.append("timed part made %d cold measurements"
                            % out["cold_measurements"])
        if "layers" in out and workload == "horizon-warm" and \
                out["layers"]["smt.cold_measurements"]:
            problems.append("traced warm pass made cold measurements")
    return problems


def attempted(outputs):
    """Runs and requests the workload made, timed passes included."""
    return sum(out.get("requests", 0) + len(out["digests"]) +
               out.get("runs", 0) * len(out.get("pass_wall_s", []))
               for out in outputs)


def end_to_end(workload, outputs, problems):
    """Aggregates the untraced driver outputs into the end-to-end metrics.

    A service that answered no request of its nominal phase is added to
    `problems`.
    """
    if workload == "sweep-cold":
        runs_per_s = [o["runs"] / o["wall_s"] for o in outputs]
        cpu_per_run = [o["cpu_s"] / o["runs"] for o in outputs]
    elif workload == "horizon-warm":
        out = outputs[0]
        runs_per_s = [out["runs"] / w for w in out["pass_wall_s"]]
        cpu_per_run = [c / out["runs"] for c in out["pass_cpu_s"]]
    else:
        runs_per_s = [r for o in outputs for r in o["burst_per_s"]]
        cpu_per_run = [c / o["burst_requests"]
                       for o in outputs for c in o["burst_cpu_s"]]
        if not all(o["served"] for o in outputs):
            problems.append("the service answered no request of the nominal phase")
    return {
        "setup_s": statistics.median(o["setup_s"] for o in outputs),
        "runs_per_s": statistics.median(runs_per_s),
        "cpu_s_per_run": statistics.median(cpu_per_run),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outputs),
    }


def measure(args, workdir):
    """Runs the workload's driver processes; returns their outputs."""
    if args.trace or args.workload != "sweep-cold":
        return [run_driver(args.workload, args, workdir, args.seconds)]
    # sweep-cold: every pass is a fresh process in an empty directory, so
    # every sampler cache (and anything else process-wide) starts cold.
    outputs = []
    start = time.monotonic()
    while not outputs or time.monotonic() - start < args.seconds:
        passdir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
        outputs.append(run_driver(args.workload, args, passdir))
    return outputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=RUN_DIR)
    try:
        outputs = measure(args, workdir)
        checked = list(outputs)
        if args.workload != "sweep-cold":
            # The paper cases are not in this workload's own corpus.
            checked.append(run_driver("paper", args, workdir))
        if args.trace:
            shutil.copyfile(os.path.join(workdir, "spans.jsonl"),
                            os.path.join(RUN_DIR,
                                         "spans-%s.jsonl" % args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = check(args.workload, args.seed, checked)
    if args.trace:
        values = outputs[0]["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args.workload, outputs, problems)
        values["paper_err_pct"] = paper_err_pct(
            [d for out in checked for d in out["digests"]])
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        if value is None:  # the driver prints a non-finite number as null
            problems.append("%s is not a finite number" % metric["name"])
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for problem in problems:
        log(problem)
    count = attempted(checked)
    result = {
        "correct": not problems,
        "attempted": count,
        "failed": min(len(problems), count),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into an exception, so that subprocess.run kills the
    # running driver before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as error:
        log("perfbench: %s" % error)
        sys.exit(2)
