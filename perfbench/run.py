"""geoilqr benchmark: planning-trial throughput and latency, fit latency, and
per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grasp2d-stepwise --seed 1 --seconds 36
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload boxopen2d-dense --trace 1

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. The line before
it is a report: environment, sample count, p50 latency, p90 latency when at
least 100 samples exist, warning counts and any failed checks. The exit code
is 1 when an output check fails and 2 when the program is missing. README.md
in this directory explains the workloads and metrics.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()   # set-up is timed from before numpy is imported

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("grasp2d-stepwise", "boxopen2d-dense", "grasppose3d-fit",
             "grasp2d-jobs2")
SETUP_SAMPLES = 3          # the main process plus two fresh interpreters
CHILD_TIMEOUT_S = 170
WARNING_CATEGORIES = ("DegenerateComponent", "LineSearchFailed",
                      "NoConvergence")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics of a traced run")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)   # one set-up sample, see setup_s
    return p.parse_args(argv)


def require_program():
    """Import geoilqr from this checkout's src, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "geoilqr", "__init__.py")):
        print(f"perfbench: no geoilqr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import geoilqr
    if not os.path.abspath(geoilqr.__file__).startswith(SRC + os.sep):
        print(f"perfbench: geoilqr imported from {geoilqr.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        b = config["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')}"

    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "numpy_blas": blas(numpy.show_config(mode="dicts")),
           "scipy_blas": blas(scipy.show_config(mode="dicts")),
           "seed": seed, "git_commit": git_commit()}
    env.update({v: os.environ.get(v, "unset") for v in THREAD_VARS})
    return env


def one_round(workload, tally, i: int) -> float:
    """Run round i; returns its wall seconds."""
    start = time.perf_counter()
    workload.round(i, tally)
    return time.perf_counter() - start


def timed_rounds(workload, tally, seconds: float) -> int:
    """Run rounds until `seconds` have passed; returns the rounds run."""
    start = time.perf_counter()
    i = 0
    while True:
        one_round(workload, tally, i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return i


def traced_rounds(workload, tally, traced_tally, tracer, caught,
                  seconds: float):
    """Run each round untraced, then again traced, until `seconds` have
    passed. Pairing the rounds keeps drift in machine speed out of the
    tracing overhead. Returns the rounds, the untraced and traced wall
    seconds, and the warnings raised in the traced rounds."""
    from workloads import warning_counts

    untraced = traced = 0.0
    warned = warning_counts([])
    i = 0
    while untraced + traced < seconds:
        untraced += one_round(workload, tally, i)
        seen = len(caught)
        tracer.install()
        try:
            traced += one_round(workload, traced_tally, i)
        finally:
            tracer.uninstall()
        warned += warning_counts(caught[seen:])
        i += 1
    return i, untraced, traced, warned


def setup_sample(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.splitlines()[-1])


def percentile_report(latencies) -> dict:
    """Median and sample count; p90 only with at least 10 samples beyond it."""
    ms = sorted(1000.0 * x for x in latencies)
    rep = {"samples": len(ms)}
    if ms:
        rep["latency_ms_p50"] = statistics.median(ms)
    if len(ms) >= 100:
        rep["latency_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return rep


def end_to_end(tally, setups, rss_mb) -> dict:
    busy = sum(tally.latencies)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (tally.work / busy if busy else 0.0, "1/s"),
        "latency_ms_p50": (1000.0 * statistics.median(tally.latencies)
                           if tally.latencies else 0.0, "ms"),
        "success_rate": (tally.successes / tally.attempted, "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, times, tally, wall_s, untraced_wall_s, warned) -> dict:
    from tracing import TRACED_NAMES
    values = {}
    wall_ns = wall_s * 1e9
    for name in TRACED_NAMES:
        calls, incl_ns, self_ns = times[name]
        values[f"{name}.calls"] = (calls, "count")
        values[f"{name}.us_per_call"] = (incl_ns / calls / 1e3 if calls
                                         else 0.0, "us")
        values[f"{name}.self_share"] = (self_ns / wall_ns, "fraction")
    for cat in WARNING_CATEGORIES:
        values[f"warnings.{cat}"] = (warned.get(cat, 0), "count")
    its = tally.iterations
    cost_calls = times["planner.cost"][0]
    gn_calls = times["planner.gauss_newton_step"][0]
    values["planner.iterations_per_solve"] = (
        statistics.fmean(its) if its else 0.0, "count")
    values["planner.line_search.accept_ratio"] = (
        tally.accepted_steps / cost_calls if cost_calls else 0.0, "fraction")
    values["planner.gauss_newton_step.gflop_computed"] = (
        tracer.gn_flops / gn_calls / 1e9 if gn_calls else 0.0, "GFLOP")
    values["planner.gauss_newton_step.mbytes_computed"] = (
        tracer.gn_bytes / gn_calls / 1e6 if gn_calls else 0.0, "MB")
    values["trace_overhead"] = (wall_s / untraced_wall_s, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def solve_shares(times) -> dict:
    """Shares of planner.solve time taken by the dense-step layers and by the
    residual layers, to check each workload's rationale."""
    solve_ns = times["planner.solve"][1]
    if not solve_ns:
        return {}

    def share(*names):
        return sum(times[n][1] for n in names) / solve_ns

    return {"gauss_newton_step+batch_dynamics":
            share("planner.gauss_newton_step", "kinematics.batch_dynamics"),
            "residuals_and_jacobian+cost":
            share("planner.residuals_and_jacobian", "planner.cost")}


def run_workload(args) -> int:
    import workloads
    from tracing import Tracer

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")   # count every warning, not the first
            workload = workloads.make(args.workload, args.seed, workdir)
            setup_s = time.perf_counter() - T0
            if args.setup_only:
                print(repr(setup_s))
                return 0
            workload.warm_up()
            tally = workloads.Tally()
            report = {"workload": args.workload, "env": environment(args.seed)}
            if args.trace:
                tracer = Tracer()
                traced_tally = workloads.Tally()
                rounds, untraced, traced, warned = traced_rounds(
                    workload, tally, traced_tally, tracer, caught,
                    args.seconds)
                times = tracer.layer_times()
                metrics = per_layer(tracer, times, traced_tally, traced,
                                    untraced, warned)
                report["solve_time_shares"] = solve_shares(times)
                tally.add_outcomes(traced_tally)
            else:
                rounds = timed_rounds(workload, tally, args.seconds)
            workload.finish(tally)
        report["rounds"] = rounds
        report.update(percentile_report(tally.latencies))
        report["warnings"] = dict(workloads.warning_counts(caught))
        report["check_failures"] = tally.check_failures
        report["errors"] = tally.errors
        if not args.trace:
            # Pool workers are the only children so far; set-up samples run
            # after this. Each worker counts at its own peak, so shared
            # copy-on-write pages are counted once per process.
            kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + workloads.JOBS * resource.getrusage(
                      resource.RUSAGE_CHILDREN).ru_maxrss)
            setups = [setup_s] + [setup_sample(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            report["setup_samples_s"] = setups
            metrics = end_to_end(tally, setups, kb / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.bad_checks == 0
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process so that set-up and memory are
    its own; the last line merges the results under workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result (exit "
                  f"{proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
