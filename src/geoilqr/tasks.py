"""Synthetic demonstrations for the simulated tasks, and trial scoring.

Grasp2D approaches an object along a shrinking radius with the heading
pointing at the object and the approach azimuth free per demonstration.
BoxOpen2D sweeps a constant-radius arc around a hinge. GraspPose3D produces
3D pose trajectories with either cylindrical or spherical symmetry to
exercise the 3D chart selection (no 3D arm is planned).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .charts import (THREE_D, TWO_D, CartesianPose, Frame2D, Frame3D,
                     azimuth_quat, charts_for, pole_quat, quat_from_axis_angle,
                     quat_mul, quat_normalize)
from .io import SCHEMA_VERSION
from .kinematics import (ArmModel, forward_kinematics, inverse_kinematics,
                         link_rows, planar_ik_3link)
from .phases import (Demonstration, PhaseModel, build_phase_model,
                     fit_time_gmm)
from .planner import (PlanProblem, PlanResult, References, banded_solver,
                      solve)

GRASP2D = "grasp2d"
BOXOPEN2D = "boxopen2d"
GRASPPOSE3D = "grasppose3d"


class HorizonMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    object_frame: object
    phase_count: int
    demo_count: int
    horizon: int = 100
    dt: float = 0.01
    radial_sigma: float = 0.01
    angular_spread: float = 4.0 * np.pi / 3.0
    orientation_sigma: float = 0.02
    seed: int = 0
    # grasp2d / grasppose3d
    phase_radii: tuple = (1.5, 0.8, 0.2)
    # boxopen2d
    arc_radius: float = 0.3
    arc_start: float = 3.0 * np.pi / 4.0
    arc_sweep: float = -np.pi / 2.0
    # grasppose3d
    symmetry: str = "cylindrical"
    phase_heights: tuple = (0.45, 0.3, 0.15)

    def __post_init__(self):
        if self.kind not in (GRASP2D, BOXOPEN2D, GRASPPOSE3D):
            raise ValueError(f"unknown task kind {self.kind}")
        if self.demo_count < 1:
            raise ValueError("demo_count must be >= 1")
        if self.phase_count < 1:
            raise ValueError("phase_count must be >= 1")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be finite and > 0")
        if self.symmetry not in ("cylindrical", "spherical"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if not (len(self.phase_radii) and len(self.phase_heights)):
            raise ValueError("phase_radii and phase_heights must not be empty")
        for name in ("radial_sigma", "orientation_sigma"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("angular_spread", "arc_start", "arc_sweep",
                     "phase_radii", "phase_heights"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.arc_radius < np.inf:
            raise ValueError("arc_radius must be finite and > 0")

    @property
    def space(self) -> str:
        """The chart space of the task: the planar kinds are 2D."""
        return TWO_D if self.kind in (GRASP2D, BOXOPEN2D) else THREE_D


def default_spec(kind: str, seed: int = 0, **overrides) -> TaskSpec:
    if kind == GRASP2D:
        base = TaskSpec(GRASP2D, Frame2D(np.array([0.7, 0.0])), 3, 6, seed=seed)
    elif kind == BOXOPEN2D:
        base = TaskSpec(BOXOPEN2D, Frame2D(np.array([1.5, 0.0])), 3, 1,
                        seed=seed, radial_sigma=1e-3, orientation_sigma=1e-3)
    elif kind == GRASPPOSE3D:
        base = TaskSpec(GRASPPOSE3D, Frame3D(np.array([0.4, 0.2, 0.1])), 3, 8,
                        seed=seed, phase_radii=(0.5, 0.35, 0.2))
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return replace(base, **overrides) if overrides else base


RAMP_FRACTION = 0.2


def _radius_profile(phase_values, T: int, n_phases: int) -> np.ndarray:
    """Plateau at each phase value with a smooth ramp in the last 20% of the
    phase window, so per-phase variance stays dominated by the plateau."""
    out = np.empty(T)
    bounds = np.linspace(0, T, n_phases + 1).astype(int)
    for p in range(n_phases):
        a, b = bounds[p], bounds[p + 1]
        w = b - a
        ramp_at = a + int((1.0 - RAMP_FRACTION) * w)
        out[a:ramp_at] = phase_values[p]
        if p + 1 < n_phases:
            s = np.linspace(0.0, 1.0, b - ramp_at, endpoint=False)
            blend = 0.5 - 0.5 * np.cos(np.pi * s)
            out[ramp_at:b] = (1 - blend) * phase_values[p] + blend * phase_values[p + 1]
        else:
            out[ramp_at:b] = phase_values[p]
    return out


def generate_demos(spec: TaskSpec) -> list[Demonstration]:
    """Deterministic per seed; same seed reproduces identical demonstrations."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == GRASP2D:
        return _generate_grasp2d(spec, rng)
    if spec.kind == BOXOPEN2D:
        return _generate_boxopen2d(spec, rng)
    return _generate_grasppose3d(spec, rng)


def _generate_grasp2d(spec: TaskSpec, rng) -> list[Demonstration]:
    T = spec.horizon
    radii = _radius_profile(spec.phase_radii, T, len(spec.phase_radii))
    demos = []
    for i in range(spec.demo_count):
        # approach corridor centered on the direction back toward the arm
        # base; stratified so a small demo set still covers the spread
        slot = (i + 0.5) / spec.demo_count - 0.5
        psi = (np.pi + spec.angular_spread * slot
               + rng.normal(0.0, 0.02 * spec.angular_spread))
        r = radii + rng.normal(0.0, spec.radial_sigma, T)
        az = psi + rng.normal(0.0, 0.01, T)
        heading = az + np.pi + rng.normal(0.0, spec.orientation_sigma, T)
        demos.append(_planar_demo(spec, f"grasp2d-{i}", r, az, heading))
    return demos


def _generate_boxopen2d(spec: TaskSpec, rng) -> list[Demonstration]:
    T = spec.horizon
    demos = []
    for i in range(spec.demo_count):
        sweep = spec.arc_start + spec.arc_sweep * np.arange(T) / (T - 1)
        r = spec.arc_radius + rng.normal(0.0, spec.radial_sigma, T)
        heading = sweep - np.pi / 2 + rng.normal(0.0, spec.orientation_sigma, T)
        demos.append(_planar_demo(spec, f"boxopen2d-{i}", r, sweep, heading))
    return demos


def _planar_demo(spec: TaskSpec, name: str, r, az, heading) -> Demonstration:
    """Demonstration through object-frame polar points and headings."""
    frame = spec.object_frame
    positions = frame.to_world(
        r[:, None] * np.column_stack([np.cos(az), np.sin(az)]))
    h = heading + frame.angle
    return Demonstration(name, spec.dt, np.arange(len(r)), positions,
                         np.column_stack([np.cos(h), np.sin(h)]), frame)


def _generate_grasppose3d(spec: TaskSpec, rng) -> list[Demonstration]:
    T = spec.horizon
    frame = spec.object_frame
    q_grip = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.7)
    rad = _radius_profile(spec.phase_radii, T, len(spec.phase_radii))
    height = _radius_profile(spec.phase_heights, T, len(spec.phase_heights))
    demos = []
    for i in range(spec.demo_count):
        psi = rng.uniform(-0.5, 0.5) * spec.angular_spread
        if spec.symmetry == "spherical":
            polar = rng.uniform(np.pi / 6, np.pi / 2.2)
        # per frame: radial jitter, jitter axis (3), jitter angle
        z = rng.standard_normal((T, 5))
        r = rad + spec.radial_sigma * z[:, 0]
        if spec.symmetry == "cylindrical":
            p_obj = np.column_stack([r * np.cos(psi), r * np.sin(psi), height])
            q_f = azimuth_quat(psi)
        else:
            u = np.array([np.sin(polar) * np.cos(psi),
                          np.sin(polar) * np.sin(psi), np.cos(polar)])
            p_obj = r[:, None] * u
            q_f = pole_quat(u)
        jit = quat_from_axis_angle(z[:, 1:4], spec.orientation_sigma * z[:, 4])
        q_obj = quat_normalize(quat_mul(quat_mul(q_f, q_grip), jit))
        q_w = quat_normalize(quat_mul(frame.quaternion, q_obj))
        demos.append(Demonstration(f"grasppose3d-{i}", spec.dt, np.arange(T),
                                   frame.to_world(p_obj), q_w, frame))
    return demos


# --- reference construction and evaluation ----------------------------------

DEFAULT_ARM = ArmModel(np.array([1.5, 1.5, 1.0]))
CONTROL_WEIGHT = 1e-2       # the planning defaults of the library and the CLI
ACTIVATION_START = 20


PRECISION_CAP = 1e4


def build_references(model: PhaseModel, selector, T: int,
                     activation_start: int, mode: str) -> References:
    """References for a plan of T = model.horizon steps: 'stepwise' places
    one viapoint per phase at the end of its dominance window; 'dense'
    activates the blended reference at every timestep after the warm-up.
    selector is a ChartId or 'optimal'. The covariance eigenvalues are
    floored at 1 / PRECISION_CAP, so near-noiseless demonstrations do not
    give an ill-conditioned cost."""
    if T != model.horizon:
        raise ValueError(f"plan horizon {T} differs from the model horizon "
                         f"{model.horizon}")
    if mode == "dense":
        ts = idx = np.arange(activation_start, T)   # rows of the blend
        source, winners = model.references, model.winners
    else:
        dominant = np.argmax(model.weights[activation_start:T], axis=1)
        # the last timestep of each phase's dominance window, in time order
        ts, idx = np.array(sorted(
            (activation_start + np.flatnonzero(dominant == k)[-1], k)
            for k in set(dominant.tolist())), dtype=int).reshape(-1, 2).T
        source, winners = model.phase_gaussians, model.phase_winners
    charts = ([winners[i] for i in idx] if selector == "optimal"
              else [selector] * len(ts))
    means, covs = {}, np.empty((len(ts), 3, 3))
    for chart in dict.fromkeys(charts):
        rows = np.array([c == chart for c in charts])
        means[chart] = source[chart].means[idx[rows]]
        covs[rows] = source[chart].covariances[idx[rows]]
    vals, vecs = np.linalg.eigh(covs)
    vals = np.maximum(vals, 1.0 / PRECISION_CAP)[:, None]
    return References(ts, charts, means,
                      (vecs / vals) @ np.swapaxes(vecs, 1, 2))


# trial success thresholds
GRASP_RADIUS_TOL = 0.05                 # meters
GRASP_HEADING_TOL = np.deg2rad(10.0)
ARC_RADIUS_REL_TOL = 0.02
ARC_SWEEP_FRACTION = 0.95


def _wrap(a: float) -> float:
    return float(np.arctan2(np.sin(a), np.cos(a)))


def evaluate_trial(plan: PlanResult, spec: TaskSpec, arm: ArmModel = DEFAULT_ARM,
                   activation_start: int = ACTIVATION_START):
    """(success, reason) for one reproduction attempt."""
    if plan.trajectory.horizon != spec.horizon:
        raise HorizonMismatch(
            f"plan horizon {plan.trajectory.horizon} != spec {spec.horizon}")
    if spec.kind == GRASP2D:
        final = forward_kinematics(arm, plan.trajectory.states[-1])
        p_obj = spec.object_frame.to_object(final.position)
        radius_err = abs(np.linalg.norm(p_obj) - spec.phase_radii[-1])
        aim = np.arctan2(-p_obj[1], -p_obj[0]) + spec.object_frame.angle
        heading_err = abs(_wrap(final.heading_angle - aim))
        if radius_err > GRASP_RADIUS_TOL:
            return False, f"radius error {radius_err:.3f} m"
        if heading_err > GRASP_HEADING_TOL:
            return False, f"heading error {np.degrees(heading_err):.1f} deg"
        return True, "ok"
    if spec.kind == BOXOPEN2D:
        p_obj, dev = _active_arc(plan, spec, arm, activation_start)
        if dev > ARC_RADIUS_REL_TOL:
            return False, f"radius deviation {100 * dev:.1f}%"
        az = np.unwrap(np.arctan2(p_obj[:, 1], p_obj[:, 0]))
        swept = abs(az[-1] - az[0])
        target = abs(spec.arc_sweep) * (len(az) - 1) / (spec.horizon - 1)
        if swept < ARC_SWEEP_FRACTION * target:
            return False, f"swept {np.degrees(swept):.1f} deg of " \
                          f"{np.degrees(target):.1f}"
        return True, "ok"
    raise ValueError(f"no trial evaluation for task kind {spec.kind}")


def _active_arc(plan: PlanResult, spec: TaskSpec, arm: ArmModel, start: int):
    """Object-frame end-effector positions from timestep start on, and
    their max relative deviation from the arc radius."""
    states = plan.trajectory.states[start:]
    p_obj = spec.object_frame.to_object(link_rows(arm, states)[0])
    dev = np.abs(np.linalg.norm(p_obj, axis=1) - spec.arc_radius).max()
    return p_obj, float(dev / spec.arc_radius)


def arc_radius_deviation(plan: PlanResult, spec: TaskSpec,
                         arm: ArmModel = DEFAULT_ARM,
                         activation_start: int = ACTIVATION_START) -> float:
    """Max relative radius deviation over the active arc (BoxOpen2D)."""
    return _active_arc(plan, spec, arm, activation_start)[1]


# --- experiment harness -----------------------------------------------------

@dataclass
class TrialReport:
    strategy: str
    trials: list                    # dict per trial
    winners_per_phase: list

    @property
    def successes(self) -> int:
        return sum(1 for t in self.trials if t["success"])

    @property
    def total(self) -> int:
        return len(self.trials)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "strategy": self.strategy,
            "successes": self.successes,
            "total": self.total,
            "winners_per_phase": [str(c) for c in self.winners_per_phase],
            "trials": self.trials,
        }


def fit_task_model(spec: TaskSpec):
    """Demos, GMM and phase model for a task; shared across strategies."""
    demos = generate_demos(spec)
    gmm = fit_time_gmm(demos, spec.phase_count)
    model = build_phase_model(demos, gmm, charts_for(spec.space),
                              spec.horizon)
    return demos, gmm, model


def sample_initial_states(demos: list[Demonstration], arm: ArmModel,
                          n: int, rng) -> np.ndarray:
    """Gaussian over the IK solutions of the demonstrations' starting poses,
    floored so a single demonstration still yields diverse trials."""
    qs = []
    for demo in demos:
        start = CartesianPose(demo.positions[0], demo.orientations[0])
        if arm.dof == 3:
            q, ok = planar_ik_3link(arm, start)
        else:
            q, ok = inverse_kinematics(arm, start, 0.3 * np.ones(arm.dof))
        if not ok:
            raise RuntimeError(f"IK failed for {demo.id} initial pose")
        qs.append(q)
    qs = np.array(qs)
    mean = qs.mean(axis=0)
    cov = np.cov(qs.T, bias=True) if len(qs) > 1 else np.zeros((arm.dof,) * 2)
    cov = cov + 1e-3 * np.eye(arm.dof)
    return rng.multivariate_normal(mean, cov, size=n)


def plan_mode(kind: str) -> str:
    """Stepwise viapoints for reaching tasks, dense references for path
    shapes that must be maintained between phases."""
    return "dense" if kind == BOXOPEN2D else "stepwise"


def _run_trial(args):
    """One planning trial; module-level so trials can run in worker
    processes."""
    i, q0, spec, arm, refs, control_weight, activation_start = args
    entry = {"index": i, "q0": q0.tolist()}
    try:
        problem = PlanProblem(arm, q0, spec.horizon, spec.dt,
                              spec.object_frame, refs, control_weight,
                              activation_start)
        result = solve(problem)
        ok, reason = evaluate_trial(result, spec, arm, activation_start)
        entry.update(success=bool(ok), reason=reason,
                     iterations=result.iterations,
                     final_cost=result.cost_history[-1],
                     forward_passes=result.forward_passes)
    except Exception as exc:  # solver failures are recorded per trial
        entry.update(success=False, reason=f"error: {exc}")
    return entry


def run_experiment(spec: TaskSpec, strategy, n_trials: int = 50,
                   arm: ArmModel = DEFAULT_ARM,
                   control_weight: float = CONTROL_WEIGHT,
                   activation_start: int = ACTIVATION_START,
                   model: PhaseModel | None = None,
                   demos: list | None = None, jobs: int = 1) -> TrialReport:
    """run_experiments for one strategy."""
    return run_experiments(spec, [strategy], n_trials, arm, control_weight,
                           activation_start, model, demos, jobs)[0]


def run_experiments(spec, strategies, n_trials, arm, control_weight,
                    activation_start, model=None, demos=None, jobs=1):
    """Full loop: demos -> phase model -> per-trial solve -> scoring, one
    report per strategy, a ChartId (fixed chart) or the string 'optimal'.

    Failed trials are data, not errors. Each initial state is planned under
    every strategy in turn, so strategies with equal references meet in
    solve's last result. jobs > 1 runs each initial state's trials as one
    task of a worker process.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if model is None or demos is None:
        demos, _, model = fit_task_model(spec)
    rng = np.random.default_rng(spec.seed + 1)
    q0s = sample_initial_states(demos, arm, n_trials, rng)
    refs = [build_references(model, s, spec.horizon, activation_start,
                             plan_mode(spec.kind)) for s in strategies]
    work = [(i, q0s[i], spec, arm, r, control_weight, activation_start)
            for i in range(n_trials) for r in refs]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        banded_solver()   # loaded once here, and inherited by each fork
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            trials = list(pool.map(_run_trial, work, chunksize=len(refs)))
    else:
        trials = [_run_trial(w) for w in work]
    return [TrialReport(s if isinstance(s, str) else f"fixed-{s.index}",
                        trials[k::len(refs)], model.phase_winners)
            for k, s in enumerate(strategies)]
