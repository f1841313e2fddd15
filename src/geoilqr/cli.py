"""Command-line front end: demo generation, fitting, planning, evaluation.

Subcommands: demo-gen, fit, plan, evaluate. A single strict JSON config
drives every command; --seed (or GEOILQR_SEED) overrides the config seed.
Exit codes: 0 ok, 2 config error, 3 fit error, 4 plan error, 5 evaluate
error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np

from .charts import CARTESIAN_2D, chart_spec, charts_for
from .io import (SCHEMA_VERSION, atomic_write_text, demos_from_dict,
                 demos_to_csv, demos_to_dict, write_json)
from .kinematics import ArmModel, link_positions, link_rows
from .manifolds import exp_rows
from .phases import (build_phase_model, fit_time_gmm, phase_model_from_dict,
                     phase_model_to_dict)
from .planner import PlanProblem, result_to_dict, solve
from .tasks import (ACTIVATION_START, CONTROL_WEIGHT, DEFAULT_ARM, TaskSpec,
                    build_references, default_spec, evaluate_trial,
                    fit_task_model, generate_demos, plan_mode, run_experiments,
                    sample_initial_states)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_PLAN = 4
EXIT_EVALUATE = 5

# each config key with the annotation that names the JSON type of its value
_TASK_KEYS = {f.name: f.type for f in fields(TaskSpec)
              if f.name != "object_frame"} | {"object_position": "tuple"}
_ARM_KEYS = {f.name: f.type for f in fields(ArmModel)}
_TOP_KEYS = {"task": "object", "arm": "object", "control_weight": "float",
             "activation_start": "int", "trials": "int",
             "strategies": "names", "seed": "int", "out_dir": "str"}
# per annotation: the JSON types of a value and of its items, in words
_NUMBERS = ((list,), (int, float), "a list of numbers")
_JSON_TYPES = {"str": ((str,), (), "a string"), "tuple": _NUMBERS,
               "int": ((int,), (), "an integer"), "np.ndarray": _NUMBERS,
               "float": ((int, float), (), "a number"),
               "names": ((list,), (str,), "a list of names"),
               "object": ((dict,), (), "an object")}


class ConfigError(ValueError):
    pass


class Settings(NamedTuple):
    """A checked config, and the raw dict that the outputs snapshot."""
    config: dict
    seed: int
    spec: TaskSpec
    arm: ArmModel
    control_weight: float
    activation_start: int


def _check_types(d: dict, types: dict, where: str):
    """ConfigError unless each key of d is in types and each value has the
    JSON type that types names for its key."""
    if unknown := sorted(d.keys() - types):
        raise ConfigError(f"unknown key(s) in {where}: {unknown}")
    for key, value in d.items():
        kinds, items, name = _JSON_TYPES[types[key]]
        if type(value) not in kinds or items and any(type(v) not in items
                                                     for v in value):
            raise ConfigError(f"{where}: {key!r} must be {name}, "
                              f"got {value!r}")


def load_settings(path: str, cli_seed: int | None) -> Settings:
    """The checked config: an unknown key, a value of another JSON type, a
    negative seed, a strategy that names no chart of the task's space, an
    activation_start at or past the task's horizon, or a value that TaskSpec
    or ArmModel rejects raises ConfigError. Seed: cli_seed, else
    GEOILQR_SEED, else the config seed, else the task's, else 0."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    _check_types(raw, _TOP_KEYS, "config")
    task, arm = dict(raw.get("task", {})), raw.get("arm", {})
    if "kind" not in task:
        raise ConfigError("config: 'task' must be an object with a 'kind'")
    _check_types(task, _TASK_KEYS, "task")
    _check_types(arm, _ARM_KEYS, "arm")
    weight = raw.get("control_weight", CONTROL_WEIGHT)
    if not 0.0 < weight < np.inf:
        raise ConfigError("config: 'control_weight' must be finite and > 0")
    for key, low in (("activation_start", 0), ("trials", 1)):
        if raw.get(key, low) < low:
            raise ConfigError(f"config: {key!r} must be an integer >= {low}")

    config_seed = raw.get("seed", task.pop("seed", 0))
    env = os.environ.get("GEOILQR_SEED")
    source, seed = (("--seed", cli_seed) if cli_seed is not None
                    else ("GEOILQR_SEED", env) if env is not None
                    else ("seed", config_seed))
    try:  # only the environment's string can fail
        seed = int(seed)
    except ValueError:
        raise ConfigError(f"GEOILQR_SEED must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"{source} must be an integer >= 0, got {seed}")
    kind, pos = task.pop("kind"), task.pop("object_position", None)
    try:
        spec = default_spec(kind, seed=seed, **{
            k: tuple(v) if _TASK_KEYS[k] == "tuple" else v
            for k, v in task.items()})
        if pos is not None:
            try:
                frame = type(spec.object_frame)(pos)
            except ValueError as exc:
                raise ValueError(f"object_position {pos} for {kind}: "
                                 f"{exc}") from None
            spec = replace(spec, object_frame=frame)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"task: {exc}") from exc
    known = [c.name for c in charts_for(spec.space)] + ["optimal"]
    if unknown := [n for n in raw.get("strategies", []) if n not in known]:
        raise ConfigError(f"config: 'strategies' names {unknown}, not one of "
                          f"{known}")
    activation = raw.get("activation_start", ACTIVATION_START)
    if activation >= spec.horizon:
        raise ConfigError(f"config: 'activation_start' {activation} must be "
                          f"< the task horizon {spec.horizon}")
    try:
        arm = replace(DEFAULT_ARM, **arm)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"arm: {exc}") from exc
    return Settings(raw, seed, spec, arm, float(weight), activation)


def _snapshot(settings: Settings) -> dict:
    return {**settings.config, "seed": settings.seed}


def _resolve_strategy(name: str, space: str):
    if space != "2d":  # the arm is planar
        raise ConfigError("planning needs a 2D task kind (grasp2d, boxopen2d)")
    by_name = {c.name: c for c in charts_for(space)} | {"optimal": "optimal"}
    if name not in by_name:
        raise ConfigError(f"unknown strategy {name!r} for space {space}")
    return by_name[name]


# --- subcommands ------------------------------------------------------------

def cmd_demo_gen(args, settings: Settings, out: str) -> int:
    spec = settings.spec
    demos = generate_demos(spec)
    payload = demos_to_dict(demos)
    payload["config"] = _snapshot(settings)
    write_json(os.path.join(out, "demos.json"), payload)
    atomic_write_text(os.path.join(out, "demos.csv"), demos_to_csv(demos))
    frames = sum(len(d) for d in demos)
    print(f"wrote {len(demos)} demos ({frames} frames) to {out}; "
          f"noise: radial={spec.radial_sigma} orientation="
          f"{spec.orientation_sigma} seed={settings.seed}")
    return EXIT_OK


def cmd_fit(args, settings: Settings, out: str) -> int:
    spec = settings.spec
    demos_path = args.demos or os.path.join(out, "demos.json")
    if not os.path.exists(demos_path):
        raise ConfigError(f"demos file not found: {demos_path}")
    with open(demos_path) as fh:
        demos = demos_from_dict(json.load(fh), spec.space)
    charts = charts_for(spec.space)
    gmm = fit_time_gmm(demos, spec.phase_count)
    model = build_phase_model(demos, gmm, charts, horizon=spec.horizon)
    payload = phase_model_to_dict(model)
    payload["config"] = _snapshot(settings)
    write_json(os.path.join(out, "model.json"), payload)

    dets, winners = model.phase_dets(), model.phase_winners
    rows = ["chart,phase,determinant,winner"]
    print(f"{'chart':<12}" + "".join(f"phase {k+1:<12}"
                                     for k in range(spec.phase_count)))
    for chart in charts:
        cells = []
        for k in range(spec.phase_count):
            mark = " *" if winners[k] == chart else ""
            cells.append(f"{dets[chart][k]:<12.3e}{mark:<5}")
            rows.append(f"{chart.name},{k + 1},{dets[chart][k]:.6e},"
                        f"{int(winners[k] == chart)}")
        print(f"{chart.name:<12}" + "".join(cells))
    atomic_write_text(os.path.join(out, "determinants.csv"),
                      "\n".join(rows) + "\n")
    print("winner per phase: " + ", ".join(w.name for w in winners))
    return EXIT_OK


def _reference_contour(chart, mean, precision, frame) -> np.ndarray:
    """World-frame 1-standard-deviation contour of the position marginal of
    a reference row, mapped through the chart. The circle is scaled by the
    Cholesky factor, which, unlike eigenvectors, moves continuously with the
    covariance, also where its eigenvalues are equal."""
    L = np.linalg.cholesky(np.linalg.inv(precision)[:2, :2])
    a = np.linspace(0.0, 2.0 * np.pi, 60)
    V = np.zeros((len(a), 3))
    V[:, :2] = np.stack([np.cos(a), np.sin(a)], axis=1) @ L.T
    X = exp_rows(chart_spec(chart), mean[None], V)
    # object-frame positions: (x, y), or the radius times the azimuth
    return frame.to_world(X[:, :2] if chart == CARTESIAN_2D
                          else X[:, 2:3] * X[:, :2])


def _scene_svg(arm: ArmModel, result, problem, frame) -> str:
    """Planar scene: arm snapshots in gray shades, end-effector path, and
    1-sigma reference contours."""
    T = problem.horizon
    world = link_rows(arm, result.trajectory.states)[0]
    pts = [world]
    snaps = []
    for i, t in enumerate(np.linspace(0, T - 1, 6).astype(int)):
        snaps.append((link_positions(arm, result.trajectory.states[t]),
                      0.8 - 0.6 * i / 5))
        pts.append(snaps[-1][0])
    refs = problem.references
    means = {c: iter(M) for c, M in refs.means.items()}  # rows in row order
    contours = [_reference_contour(c, next(means[c]), P, frame)
                for c, P in zip(refs.charts, refs.precisions)]
    pts.extend(contours)
    allp = np.vstack(pts)
    lo, hi = allp.min(axis=0) - 0.3, allp.max(axis=0) + 0.3
    scale = 400.0 / max(hi - lo)

    def xy(p):
        return ((p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale)

    def poly(arr, stroke, width, fill="none", dash=""):
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in map(xy, arr))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline points="{coords}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="{width}"{extra}/>')

    w = (hi[0] - lo[0]) * scale
    h = (hi[1] - lo[1]) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">']
    for c in contours[:: max(1, len(contours) // 12)]:
        parts.append(poly(c, "#2a7", 1.0, dash="3,3"))
    for links, shade in snaps:
        g = int(255 * shade)
        parts.append(poly(links, f"rgb({g},{g},{g})", 4.0))
    parts.append(poly(world, "#c33", 2.0))
    ox, oy = xy(frame.translation)
    parts.append(f'<circle cx="{ox:.1f}" cy="{oy:.1f}" r="5" fill="#33c"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plan(args, settings: Settings, out: str) -> int:
    _, seed, spec, arm, weight, activation = settings
    strategy = _resolve_strategy(args.strategy, spec.space)
    model_path = args.model or os.path.join(out, "model.json")
    if not os.path.exists(model_path):
        raise ConfigError(f"model file not found: {model_path}")
    with open(model_path) as fh:
        try:
            model = phase_model_from_dict(json.load(fh), spec.horizon)
        except ValueError as exc:
            raise ConfigError(f"{model_path}: {exc}") from exc
    names = [str(c) for c in model.charts]
    if strategy == "optimal" and any(c.space != spec.space
                                     for c in model.charts):
        raise ConfigError(f"{model_path}: strategy 'optimal' needs "
                          f"{spec.space} charts, not the model charts {names}")
    if strategy != "optimal" and strategy not in model.charts:
        raise ConfigError(f"{model_path}: strategy {args.strategy!r} needs "
                          f"chart {strategy}, not in the model charts {names}")
    refs = build_references(model, strategy, spec.horizon, activation,
                            plan_mode(spec.kind))
    if args.initial:
        try:
            q0 = np.array([float(x) for x in args.initial.split(",")])
        except ValueError:  # an entry that is not a number
            q0 = np.array([np.nan])
        if q0.shape != (arm.dof,) or not np.all(np.isfinite(q0)):
            raise ConfigError(f"--initial needs {arm.dof} finite joint "
                              f"angles, got {args.initial!r}")
    else:
        rng = np.random.default_rng(seed + 1)
        q0 = sample_initial_states(generate_demos(spec), arm, 1, rng)[0]
    problem = PlanProblem(arm, q0, spec.horizon, spec.dt, spec.object_frame,
                          refs, weight, activation)
    result = solve(problem)
    payload = result_to_dict(result)
    payload["config"] = _snapshot(settings)
    write_json(os.path.join(out, "trajectory.json"), payload)

    rows = ["t,q,x,y,heading,chart,residual_norm"]
    names = dict(zip(refs.ts.tolist(), (c.name for c in refs.charts)))
    P, headings, _ = link_rows(arm, result.trajectory.states)
    headings = np.arctan2(headings.imag, headings.real)
    for t, (q, (x, y), h) in enumerate(zip(result.trajectory.states, P,
                                          headings)):
        chart = names.get(t, "")
        res = result.residual_norms.get(t, "")
        qs = " ".join(f"{v:.6f}" for v in q)
        rows.append(f"{t},{qs},{x:.6f},{y:.6f},{h:.6f},{chart},{res}")
    atomic_write_text(os.path.join(out, "path.csv"), "\n".join(rows) + "\n")
    if args.svg:
        atomic_write_text(os.path.join(out, "scene.svg"),
                          _scene_svg(arm, result, problem, spec.object_frame))
    ok, reason = evaluate_trial(result, spec, arm, activation)
    print(f"plan: converged={result.converged} iterations={result.iterations}"
          f" final_cost={result.cost_history[-1]:.4e} outcome="
          f"{'success' if ok else 'failure'} ({reason})")
    return EXIT_OK if result.converged else EXIT_PLAN


def cmd_evaluate(args, settings: Settings, out: str) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    config, _, spec, arm, weight, activation = settings
    names = config.get("strategies",
                       [c.name for c in charts_for(spec.space)] + ["optimal"])
    strategies = [_resolve_strategy(n, spec.space) for n in names]
    demos, _, model = fit_task_model(spec)
    reports = run_experiments(spec, strategies, config.get("trials", 50), arm,
                              weight, activation, model=model, demos=demos,
                              jobs=args.jobs)
    payload = {"schema_version": SCHEMA_VERSION,
               "config": _snapshot(settings),
               "reports": [r.to_dict() for r in reports]}
    write_json(os.path.join(out, "report.json"), payload)
    rows = ["strategy,successes,trials,rate"]
    print(f"{'strategy':<16}{'successes':<12}{'rate':<8}")
    for r in reports:
        rate = r.successes / r.total
        rows.append(f"{r.strategy},{r.successes},{r.total},{rate:.3f}")
        print(f"{r.strategy:<16}{r.successes}/{r.total:<10}{rate:<8.2%}")
    atomic_write_text(os.path.join(out, "report.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


# --- entry point ------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="override config seed")
    p.add_argument("--out", default=None, help="output directory")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoilqr",
        description="Coordinate-system selection and planning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-gen", help="generate synthetic demonstrations")
    _add_common(p)
    p.set_defaults(func=cmd_demo_gen, fail_code=EXIT_CONFIG)

    p = sub.add_parser("fit", help="fit phase model and chart statistics")
    _add_common(p)
    p.add_argument("--demos", default=None, help="demos JSON path")
    p.set_defaults(func=cmd_fit, fail_code=EXIT_FIT)

    p = sub.add_parser("plan", help="plan one reproduction trajectory")
    _add_common(p)
    p.add_argument("--model", default=None, help="phase-model JSON path")
    p.add_argument("--strategy", default="optimal",
                   help="chart name or 'optimal'")
    p.add_argument("--initial", default=None,
                   help="comma-separated initial joint angles")
    p.add_argument("--svg", action="store_true",
                   help="also write a scene SVG")
    p.set_defaults(func=cmd_plan, fail_code=EXIT_PLAN)

    p = sub.add_parser("evaluate", help="run trial batches per strategy")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for trial execution")
    p.set_defaults(func=cmd_evaluate, fail_code=EXIT_EVALUATE)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        settings = load_settings(args.config, args.seed)
        out = args.out or settings.config.get("out_dir", ".")
        os.makedirs(out, exist_ok=True)
        return args.func(args, settings, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.fail_code


if __name__ == "__main__":
    sys.exit(main())
