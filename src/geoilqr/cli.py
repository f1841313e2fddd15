"""Command-line front end: demo generation, fitting, planning, evaluation.

Subcommands: demo-gen, fit, plan, evaluate. A single strict JSON config
drives every command; --seed (or GEOILQR_SEED) overrides the config seed.
Exit codes: 0 ok, 2 config error, 3 fit error, 4 plan error, 5 evaluate
error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .charts import (ChartPose, charts_for, from_chart, orientation_spec,
                     position_spec)
from .io import (atomic_write_text, demos_from_dict, demos_to_csv,
                 demos_to_dict, write_json)
from .kinematics import ArmModel, forward_kinematics, kinematics_rows
from .manifolds import ManifoldPoint, exp_rows
from .phases import (build_phase_model, fit_time_gmm, phase_model_from_dict,
                     phase_model_to_dict)
from .planner import PlanProblem, result_to_dict, solve
from .stats import select_winner
from .tasks import (DEFAULT_ARM, TaskSpec, build_references, default_spec,
                    evaluate_trial, plan_mode, run_experiment,
                    sample_initial_states)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_PLAN = 4
EXIT_EVALUATE = 5

SCHEMA_VERSION = 1

_TASK_KEYS = {"kind", "seed", "phase_count", "demo_count", "horizon", "dt",
              "radial_sigma", "angular_spread", "orientation_sigma",
              "phase_radii", "arc_radius", "arc_start", "arc_sweep",
              "symmetry", "phase_heights", "object_position"}
_ARM_KEYS = {"link_lengths", "base_position", "base_angle"}
_TOP_KEYS = {"task", "arm", "control_weight", "activation_start", "trials",
             "strategies", "seed", "out_dir"}


class ConfigError(ValueError):
    pass


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    """Parse and validate the experiment config (strict: unknown keys are
    errors)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    _check_keys(raw, _TOP_KEYS, "config")
    task = raw.get("task", {})
    if not isinstance(task, dict) or "kind" not in task:
        raise ConfigError("config: 'task' must be an object with a 'kind'")
    _check_keys(task, _TASK_KEYS, "task")
    arm = raw.get("arm", {})
    _check_keys(arm if isinstance(arm, dict) else {}, _ARM_KEYS, "arm")
    return raw


def resolve_seed(config: dict, cli_seed) -> int:
    """Precedence: --seed flag, then GEOILQR_SEED, then config, then 0."""
    if cli_seed is not None:
        return int(cli_seed)
    env = os.environ.get("GEOILQR_SEED")
    if env is not None:
        return int(env)
    return int(config.get("seed", config.get("task", {}).get("seed", 0)))


def build_task(config: dict, seed: int) -> TaskSpec:
    task = dict(config["task"])
    kind = task.pop("kind")
    task.pop("seed", None)
    pos = task.pop("object_position", None)
    for key in ("phase_radii", "phase_heights"):
        if key in task:
            task[key] = tuple(task[key])
    spec = default_spec(kind, seed=seed, **task)
    if pos is not None:
        from dataclasses import replace
        frame = type(spec.object_frame)(np.asarray(pos, dtype=float))
        spec = replace(spec, object_frame=frame)
    return spec


def build_arm(config: dict) -> ArmModel:
    arm = config.get("arm")
    if not arm:
        return DEFAULT_ARM
    return ArmModel(np.asarray(arm.get("link_lengths", [1.5, 1.5, 1.0])),
                    np.asarray(arm.get("base_position", [0.0, 0.0])),
                    float(arm.get("base_angle", 0.0)))


def _out_dir(args, config: dict) -> str:
    out = args.out or config.get("out_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _snapshot(config: dict, seed: int) -> dict:
    snap = dict(config)
    snap["seed"] = seed
    return snap


def _resolve_strategy(name: str, space: str):
    if space != "2d":  # the arm is planar
        raise ConfigError("planning needs a 2D task kind (grasp2d, boxopen2d)")
    if name == "optimal":
        return "optimal"
    for chart in charts_for(space):
        if chart.name == name:
            return chart
    raise ConfigError(f"unknown strategy {name!r} for space {space}")


def _task_space(spec: TaskSpec) -> str:
    return "2d" if spec.object_frame.translation.shape[0] == 2 else "3d"


# --- subcommands ------------------------------------------------------------

def cmd_demo_gen(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(config, args.seed)
    spec = build_task(config, seed)
    from .tasks import generate_demos
    demos = generate_demos(spec)
    out = _out_dir(args, config)
    payload = demos_to_dict(demos)
    payload["config"] = _snapshot(config, seed)
    write_json(os.path.join(out, "demos.json"), payload)
    atomic_write_text(os.path.join(out, "demos.csv"), demos_to_csv(demos))
    frames = sum(len(d) for d in demos)
    print(f"wrote {len(demos)} demos ({frames} frames) to {out}; "
          f"noise: radial={spec.radial_sigma} orientation="
          f"{spec.orientation_sigma} seed={seed}")
    return EXIT_OK


def cmd_fit(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(config, args.seed)
    spec = build_task(config, seed)
    out = _out_dir(args, config)
    demos_path = args.demos or os.path.join(out, "demos.json")
    if not os.path.exists(demos_path):
        raise ConfigError(f"demos file not found: {demos_path}")
    with open(demos_path) as fh:
        demos = demos_from_dict(json.load(fh))
    charts = charts_for(_task_space(spec))
    gmm = fit_time_gmm(demos, spec.phase_count)
    model = build_phase_model(demos, gmm, charts, horizon=spec.horizon)
    payload = phase_model_to_dict(model)
    payload["config"] = _snapshot(config, seed)
    write_json(os.path.join(out, "model.json"), payload)

    dets = model.phase_dets()
    rows = ["chart,phase,determinant,winner"]
    print(f"{'chart':<12}" + "".join(f"phase {k+1:<12}"
                                     for k in range(spec.phase_count)))
    winners = [select_winner(phase) for phase in model.phases]
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


def _reference_contour(ref, frame, n: int = 60) -> np.ndarray:
    """World-frame 1-standard-deviation contour of a reference's position
    marginal, mapped through the chart. The circle is scaled by the Cholesky
    factor, which, unlike eigenvectors, moves continuously with the
    covariance, also where its eigenvalues are equal."""
    L = np.linalg.cholesky(np.linalg.inv(ref.precision)[:2, :2])
    a = np.linspace(0.0, 2.0 * np.pi, n)
    V = np.zeros((n, ref.mean.spec.tangent_dim))
    V[:, :2] = np.stack([np.cos(a), np.sin(a)], axis=1) @ L.T
    pos, k = position_spec(ref.chart), position_spec(ref.chart).ambient_dim
    return np.array([from_chart(ChartPose(
        ref.chart, ManifoldPoint(pos, x[:k]),
        ManifoldPoint(orientation_spec(ref.chart), x[k:])), frame).position
        for x in exp_rows(ref.mean.spec, ref.mean.coords[None], V)])


def _scene_svg(arm: ArmModel, result, problem, frame) -> str:
    """Planar scene: arm snapshots in gray shades, end-effector path, and
    1-sigma reference contours."""
    from .kinematics import link_positions
    T = problem.horizon
    world = kinematics_rows(arm, result.trajectory.states)[0]
    pts = [world]
    snaps = []
    for i, t in enumerate(np.linspace(0, T - 1, 6).astype(int)):
        snaps.append((link_positions(arm, result.trajectory.states[t]),
                      0.8 - 0.6 * i / 5))
        pts.append(snaps[-1][0])
    contours = []
    for ref in problem.references:
        if ref is None:
            continue
        try:
            contours.append(_reference_contour(ref, frame))
        except Exception:
            continue
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


def cmd_plan(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(config, args.seed)
    spec = build_task(config, seed)
    arm = build_arm(config)
    out = _out_dir(args, config)
    strategy = _resolve_strategy(args.strategy, _task_space(spec))
    model_path = args.model or os.path.join(out, "model.json")
    if not os.path.exists(model_path):
        raise ConfigError(f"model file not found: {model_path}")
    with open(model_path) as fh:
        model = phase_model_from_dict(json.load(fh))
    activation = int(config.get("activation_start", 20))
    refs = build_references(model, strategy, spec.horizon, activation,
                            plan_mode(spec.kind))
    if args.initial:
        q0 = np.array([float(x) for x in args.initial.split(",")])
        if q0.shape[0] != arm.dof:
            raise ConfigError(f"initial state needs {arm.dof} joints")
    else:
        from .tasks import generate_demos
        rng = np.random.default_rng(seed + 1)
        q0 = sample_initial_states(generate_demos(spec), arm, 1, rng)[0]
    problem = PlanProblem(arm, q0, spec.horizon, spec.dt, spec.object_frame,
                          refs, float(config.get("control_weight", 1e-2)),
                          activation)
    result = solve(problem)
    payload = result_to_dict(result)
    payload["config"] = _snapshot(config, seed)
    write_json(os.path.join(out, "trajectory.json"), payload)

    rows = ["t,q,x,y,heading,chart,residual_norm"]
    for t, q in enumerate(result.trajectory.states):
        pose = forward_kinematics(arm, q)
        chart = refs[t].chart.name if refs[t] is not None else ""
        res = result.residual_norms.get(t, "")
        qs = " ".join(f"{v:.6f}" for v in q)
        rows.append(f"{t},{qs},{pose.position[0]:.6f},{pose.position[1]:.6f},"
                    f"{pose.heading_angle:.6f},{chart},{res}")
    atomic_write_text(os.path.join(out, "path.csv"), "\n".join(rows) + "\n")
    if args.svg:
        atomic_write_text(os.path.join(out, "scene.svg"),
                          _scene_svg(arm, result, problem, spec.object_frame))
    ok, reason = evaluate_trial(result, spec, arm, activation)
    print(f"plan: converged={result.converged} iterations={result.iterations}"
          f" final_cost={result.cost_history[-1]:.4e} outcome="
          f"{'success' if ok else 'failure'} ({reason})")
    if not result.converged:
        return EXIT_PLAN
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(config, args.seed)
    spec = build_task(config, seed)
    arm = build_arm(config)
    out = _out_dir(args, config)
    space = _task_space(spec)
    names = config.get("strategies",
                       [c.name for c in charts_for(space)] + ["optimal"])
    strategies = [_resolve_strategy(n, space) for n in names]
    trials = int(config.get("trials", 50))
    from .tasks import fit_task_model
    demos, _, model = fit_task_model(spec)
    reports = []
    for strat in strategies:
        reports.append(run_experiment(
            spec, strat, trials, arm,
            float(config.get("control_weight", 1e-2)),
            int(config.get("activation_start", 20)),
            model=model, demos=demos, jobs=args.jobs))
    payload = {"schema_version": SCHEMA_VERSION,
               "config": _snapshot(config, seed),
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
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for trial execution")


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
    p.set_defaults(func=cmd_evaluate, fail_code=EXIT_EVALUATE)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.fail_code


if __name__ == "__main__":
    sys.exit(main())
