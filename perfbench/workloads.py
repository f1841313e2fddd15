"""The benchmark workloads: inputs made from the seed, one timed round, and
the output checks.

Every workload is a closed loop with one caller: the next round starts when
the previous one has returned. A planning trial is one ``planner.solve`` plus
one ``tasks.evaluate_trial``, built exactly as ``tasks.run_experiment`` builds
it, so serial and parallel trials of one seed are the same trials.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import shutil
import time
from collections import Counter

import numpy as np

from geoilqr import charts, cli, phases, planner, tasks

ARM = tasks.DEFAULT_ARM
ACTIVATION = 20
CONTROL_WEIGHT = 1e-2
POOL = 50            # initial states per seed; rounds cycle through them
BATCH = 6            # trials per run_experiment call on grasp2d-jobs2
JOBS = 2
FIT_SEEDS = 3        # grasppose3d-fit plans nothing; it fits 3 seeds x 2 symmetries
STRATEGIES = (charts.CARTESIAN_2D, charts.POLAR_2D, "optimal")
SYMMETRY_CHART = {"cylindrical": charts.CYLINDRICAL_3D,
                  "spherical": charts.SPHERICAL_3D}
MAX_REPORTED = 20


class Tally:
    """What the timed rounds produced: latencies, outcomes and check failures."""

    def __init__(self):
        self.latencies: list[float] = []   # seconds per operation
        self.work = 0                      # trials or fit calls finished
        self.attempted = 0
        self.failed = 0
        self.successes = 0
        self.iterations: list[int] = []
        self.accepted_steps = 0
        self.bad_checks = 0
        self.check_failures: list[str] = []   # the first few, for the report
        self.errors: list[str] = []

    def check(self, ok: bool, what: str):
        if not ok:
            self.bad_checks += 1
            if len(self.check_failures) < MAX_REPORTED:
                self.check_failures.append(what)

    def fail(self, what: str):
        """An operation that raised or exited non-zero."""
        self.failed += 1
        if len(self.errors) < MAX_REPORTED:
            self.errors.append(what)

    def add_outcomes(self, other: "Tally"):
        """Count another tally's operations and check failures in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.bad_checks += other.bad_checks
        self.check_failures += other.check_failures
        self.errors += other.errors


def check_plan(tally: Tally, result, what: str):
    """Cost history non-increasing, and every state, control and cost finite."""
    hist = np.asarray(result.cost_history, dtype=float)
    traj = result.trajectory
    tally.check(bool(np.all(np.diff(hist) <= 0.0)),
                f"{what}: cost history increases")
    tally.check(bool(np.all(np.isfinite(hist))
                     and np.all(np.isfinite(traj.states))
                     and np.all(np.isfinite(traj.controls))),
                f"{what}: non-finite state, control or cost")


class Planning:
    """Serial planning trials: a round plans one initial state with each
    strategy in turn, like ``evaluate --jobs 1``."""

    def __init__(self, kind: str, seed: int, horizon: int):
        self.spec = tasks.default_spec(kind, seed=seed, horizon=horizon)
        self.demos, _, self.model = tasks.fit_task_model(self.spec)
        rng = np.random.default_rng(self.spec.seed + 1)
        self.q0s = tasks.sample_initial_states(self.demos, ARM, POOL, rng)
        mode = tasks.plan_mode(kind)
        self.refs = [tasks.build_references(self.model, s, horizon,
                                            ACTIVATION, mode)
                     for s in STRATEGIES]

    def trial(self, q0, refs):
        """(result, success) of one trial, as ``tasks._run_trial`` runs it."""
        spec = self.spec
        problem = planner.PlanProblem(ARM, q0, spec.horizon, spec.dt,
                                      spec.object_frame, list(refs),
                                      CONTROL_WEIGHT, ACTIVATION)
        result = planner.solve(problem)
        ok, _ = tasks.evaluate_trial(result, spec, ARM, ACTIVATION)
        return result, bool(ok)

    def warm_up(self):
        self.trial(self.q0s[0], self.refs[-1])

    def round(self, i: int, tally: Tally):
        q0 = self.q0s[i % POOL]
        for name, refs in zip(STRATEGIES, self.refs):
            what = f"trial {i % POOL} strategy {name}"
            tally.attempted += 1
            start = time.perf_counter()
            try:
                result, ok = self.trial(q0, refs)
            except Exception as exc:  # a failed trial is data, not a crash
                tally.fail(f"{what}: {type(exc).__name__}: {exc}")
                continue
            tally.latencies.append(time.perf_counter() - start)
            tally.work += 1
            tally.successes += ok
            tally.iterations.append(result.iterations)
            tally.accepted_steps += len(result.cost_history) - 1
            check_plan(tally, result, what)

    def finish(self, tally: Tally):
        pass


class Parallel(Planning):
    """The grasp2d-stepwise trials sent through
    ``tasks.run_experiment(..., jobs=2)``; a round is one batch per strategy.
    The latency samples are whole batches, because trials run in workers."""

    def __init__(self, seed: int):
        super().__init__(tasks.GRASP2D, seed, 100)
        self.outcomes = {}   # strategy index -> trial entries of the batches

    def warm_up(self):
        self.batch(STRATEGIES[-1], 2)

    def batch(self, strategy, n: int):
        return tasks.run_experiment(self.spec, strategy, n, ARM,
                                    CONTROL_WEIGHT, ACTIVATION,
                                    model=self.model, demos=self.demos,
                                    jobs=JOBS)

    def round(self, i: int, tally: Tally):
        for k, strategy in enumerate(STRATEGIES):
            tally.attempted += BATCH
            start = time.perf_counter()
            try:
                report = self.batch(strategy, BATCH)
            except Exception as exc:
                for _ in range(BATCH):
                    tally.fail(f"batch {k}: {type(exc).__name__}: {exc}")
                continue
            tally.latencies.append(time.perf_counter() - start)
            for entry in report.trials:
                if entry["reason"].startswith("error:"):
                    tally.fail(f"strategy {k} trial {entry['index']}: "
                               f"{entry['reason']}")
                    continue
                tally.work += 1
                tally.successes += entry["success"]
                tally.iterations.append(entry["iterations"])
                tally.check(bool(np.isfinite(entry["final_cost"])),
                            f"strategy {k} trial {entry['index']}: "
                            "non-finite final cost")
            self.outcomes.setdefault(k, []).append(report.trials)

    def finish(self, tally: Tally):
        """Every batch must match the same trials planned serially."""
        for k, batches in self.outcomes.items():
            serial = []
            for j in range(BATCH):
                result, ok = self.trial(self.q0s[j], self.refs[k])
                check_plan(tally, result, f"serial strategy {k} trial {j}")
                serial.append((ok, result.cost_history[-1], self.q0s[j]))
            for trials in batches:
                for entry, (ok, final_cost, q0) in zip(trials, serial):
                    what = f"strategy {k} trial {entry['index']}"
                    tally.check(np.array_equal(entry["q0"], q0),
                                f"{what}: initial state differs from serial")
                    tally.check(entry["success"] == ok,
                                f"{what}: outcome differs from serial")
                    tally.check(bool(np.isclose(entry.get("final_cost", np.nan),
                                                final_cost, rtol=1e-9,
                                                atol=0.0)),
                                f"{what}: final cost differs from serial")


class Fit:
    """In-process ``geoilqr fit`` calls; a round fits one seed's cylindrical
    and spherical demonstrations. Demos are written during set-up.

    Each call writes into a new output directory, as the first fit of a data
    set does, and the directory is removed once its model.json is checked.
    Fitting again into the same directory would replace model.json by
    rename, which ext4 (auto_da_alloc) answers by flushing the new file to
    disk: about 0.46 MB per fit, so the timing would follow the shared disk
    rather than the fit. In a new directory nothing reaches the disk."""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.fits = 0
        self.cases = []   # per seed: [(symmetry, config path, demos path)]
        for s in range(seed, seed + FIT_SEEDS):
            pair = []
            for sym in SYMMETRY_CHART:
                out = os.path.join(workdir, f"{s}-{sym}")
                os.makedirs(out)
                config = os.path.join(out, "config.json")
                with open(config, "w") as fh:
                    json.dump({"task": {"kind": tasks.GRASPPOSE3D,
                                        "symmetry": sym},
                               "seed": s, "out_dir": out}, fh)
                rc = self.call(["demo-gen", "--config", config])
                if rc != 0:
                    raise RuntimeError(f"demo-gen exited {rc} for {out}")
                pair.append((sym, config, os.path.join(out, "demos.json")))
            self.cases.append(pair)

    @staticmethod
    def call(argv) -> int:
        with contextlib.redirect_stdout(stdio.StringIO()):
            return cli.main(argv)

    def fit_argv(self, config: str, demos: str) -> tuple[list, str]:
        """The ``fit`` arguments for a new output directory, and the directory."""
        self.fits += 1
        out = os.path.join(self.workdir, f"fit-{self.fits}")
        return ["fit", "--config", config, "--demos", demos, "--out", out], out

    def warm_up(self):
        _, config, demos = self.cases[0][0]
        argv, out = self.fit_argv(config, demos)
        self.call(argv)
        shutil.rmtree(out, ignore_errors=True)

    def round(self, i: int, tally: Tally):
        for sym, config, demos in self.cases[i % FIT_SEEDS]:
            argv, out = self.fit_argv(config, demos)
            try:
                self.timed_fit(tally, sym, argv, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

    def timed_fit(self, tally: Tally, sym: str, argv: list, out: str):
        what = f"fit {argv[2]}"
        tally.attempted += 1
        start = time.perf_counter()
        rc = self.call(argv)
        elapsed = time.perf_counter() - start
        if rc != 0:
            tally.fail(f"{what}: exit code {rc}")
            tally.check(False, f"{what}: exit code {rc}")
            return
        tally.latencies.append(elapsed)
        tally.work += 1
        try:
            with open(os.path.join(out, "model.json")) as fh:
                model = phases.phase_model_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            tally.check(False, f"{what}: model.json unreadable: {exc}")
            return
        # A fit counts by the share of its phases in which the symmetry's
        # chart wins: a few seeds lose one phase, and counting them as whole
        # failures would make the rate follow the seed more than the code.
        dets = model.phase_dets()
        phase_count = len(model.phases)
        won = sum(min(dets, key=lambda c: (dets[c][k], c.index))
                  == SYMMETRY_CHART[sym] for k in range(phase_count))
        tally.successes += won / phase_count

    def finish(self, tally: Tally):
        pass


def make(name: str, seed: int, workdir: str):
    if name == "grasp2d-stepwise":
        return Planning(tasks.GRASP2D, seed, 100)
    if name == "boxopen2d-dense":
        return Planning(tasks.BOXOPEN2D, seed, 80)
    if name == "grasppose3d-fit":
        return Fit(seed, workdir)
    if name == "grasp2d-jobs2":
        return Parallel(seed)
    raise ValueError(f"unknown workload {name!r}")


def warning_counts(records) -> Counter:
    return Counter(type(r.message).__name__ for r in records)
