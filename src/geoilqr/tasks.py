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

from .charts import (CartesianPose, Frame2D, Frame3D, azimuth_quat, chart_spec,
                     charts_for, pole_quat, quat_from_axis_angle, quat_mul,
                     quat_normalize)
from .kinematics import (ArmModel, forward_kinematics, inverse_kinematics,
                         kinematics_rows, planar_ik_3link)
from .manifolds import ManifoldPoint
from .phases import (Demonstration, PhaseModel, build_phase_model,
                     fit_time_gmm)
from .planner import PlanProblem, PlanResult, Reference, solve
from .stats import select_winner

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
        for v in (self.radial_sigma, self.orientation_sigma):
            if v < 0.0:
                raise ValueError("noise levels must be >= 0")


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
    poses = [CartesianPose.from_angle(
        *spec.object_frame.to_world(ri * np.array([np.cos(a), np.sin(a)])),
        h + spec.object_frame.angle) for ri, a, h in zip(r, az, heading)]
    return Demonstration(name, spec.dt, np.arange(len(poses)), poses,
                         spec.object_frame)


def _generate_grasppose3d(spec: TaskSpec, rng) -> list[Demonstration]:
    T = spec.horizon
    q_grip = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.7)
    demos = []
    for i in range(spec.demo_count):
        psi = rng.uniform(-0.5, 0.5) * spec.angular_spread
        if spec.symmetry == "cylindrical":
            rho = _radius_profile(spec.phase_radii, T, len(spec.phase_radii))
            height = _radius_profile(spec.phase_heights, T, len(spec.phase_heights))
        else:
            polar = rng.uniform(np.pi / 6, np.pi / 2.2)
            rad = _radius_profile(spec.phase_radii, T, len(spec.phase_radii))
        poses = []
        for t in range(T):
            jr = rng.normal(0.0, spec.radial_sigma)
            if spec.symmetry == "cylindrical":
                p_obj = np.array([(rho[t] + jr) * np.cos(psi),
                                  (rho[t] + jr) * np.sin(psi), height[t]])
                q_f = azimuth_quat(psi)
            else:
                u = np.array([np.sin(polar) * np.cos(psi),
                              np.sin(polar) * np.sin(psi), np.cos(polar)])
                p_obj = (rad[t] + jr) * u
                q_f = pole_quat(u)
            jit = quat_from_axis_angle(rng.standard_normal(3),
                                       rng.normal(0.0, spec.orientation_sigma))
            q_obj = quat_normalize(quat_mul(quat_mul(q_f, q_grip), jit))
            q_w = quat_normalize(quat_mul(spec.object_frame.quaternion, q_obj))
            poses.append(CartesianPose(spec.object_frame.to_world(p_obj), q_w))
        demos.append(Demonstration(f"grasppose3d-{i}", spec.dt, np.arange(T),
                                   poses, spec.object_frame))
    return demos


# --- reference construction and evaluation ----------------------------------

DEFAULT_ARM = ArmModel(np.array([1.5, 1.5, 1.0]))


PRECISION_CAP = 1e4


def _capped_precision(covariance: np.ndarray) -> np.ndarray:
    """Precision of a covariance whose eigenvalues are floored at
    1 / PRECISION_CAP, so near-noiseless demonstrations do not produce an
    ill-conditioned tracking cost."""
    vals, vecs = np.linalg.eigh(covariance)
    return (vecs / np.maximum(vals, 1.0 / PRECISION_CAP)) @ vecs.T


def build_references(model: PhaseModel, selector, T: int,
                     activation_start: int, mode: str) -> list:
    """References for a plan: 'stepwise' places one viapoint per phase at the
    end of its dominance window; 'dense' activates the blended reference at
    every timestep after the warm-up. selector is a ChartId or 'optimal'."""
    refs = [None] * T
    if mode == "dense":
        for t in range(activation_start, T):
            chart = model.winners[t] if selector == "optimal" else selector
            r = model.references[chart]
            refs[t] = Reference(chart, ManifoldPoint(chart_spec(chart),
                                                     r.means[t]),
                                _capped_precision(r.covariances[t]))
        return refs
    K = model.weights.shape[1]
    dominant = np.argmax(model.weights, axis=1)
    for k in range(K):
        ts = [t for t in range(activation_start, T) if dominant[t] == k]
        if not ts:
            continue
        t_k = ts[-1]
        chart = (select_winner(model.phases[k]) if selector == "optimal"
                 else selector)
        g = model.phases[k][chart]
        refs[t_k] = Reference(chart, g.mean, _capped_precision(g.covariance))
    return refs


@dataclass(frozen=True)
class SuccessThresholds:
    grasp_radius_tol: float = 0.05      # meters
    grasp_heading_tol: float = np.deg2rad(10.0)
    arc_radius_rel_tol: float = 0.02
    arc_sweep_fraction: float = 0.95


def _wrap(a: float) -> float:
    return float(np.arctan2(np.sin(a), np.cos(a)))


def evaluate_trial(plan: PlanResult, spec: TaskSpec, arm: ArmModel = DEFAULT_ARM,
                   activation_start: int = 20,
                   thresholds: SuccessThresholds = SuccessThresholds()):
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
        if radius_err > thresholds.grasp_radius_tol:
            return False, f"radius error {radius_err:.3f} m"
        if heading_err > thresholds.grasp_heading_tol:
            return False, f"heading error {np.degrees(heading_err):.1f} deg"
        return True, "ok"
    if spec.kind == BOXOPEN2D:
        dev = arc_radius_deviation(plan, spec, arm, activation_start)
        if dev > thresholds.arc_radius_rel_tol:
            return False, f"radius deviation {100 * dev:.1f}%"
        p_obj = _active_object_positions(plan, spec, arm, activation_start)
        az = np.unwrap(np.arctan2(p_obj[:, 1], p_obj[:, 0]))
        swept = abs(az[-1] - az[0])
        target = abs(spec.arc_sweep) * (len(az) - 1) / (spec.horizon - 1)
        if swept < thresholds.arc_sweep_fraction * target:
            return False, f"swept {np.degrees(swept):.1f} deg of " \
                          f"{np.degrees(target):.1f}"
        return True, "ok"
    raise ValueError(f"no trial evaluation for task kind {spec.kind}")


def _active_object_positions(plan: PlanResult, spec: TaskSpec, arm: ArmModel,
                             activation_start: int) -> np.ndarray:
    """Object-frame end-effector positions from activation_start on."""
    states = plan.trajectory.states[activation_start:]
    return spec.object_frame.to_object(kinematics_rows(arm, states)[0])


def arc_radius_deviation(plan: PlanResult, spec: TaskSpec,
                         arm: ArmModel = DEFAULT_ARM,
                         activation_start: int = 20) -> float:
    """Max relative radius deviation over the active arc (BoxOpen2D)."""
    p_obj = _active_object_positions(plan, spec, arm, activation_start)
    radii = np.linalg.norm(p_obj, axis=1)
    return float(np.max(np.abs(radii - spec.arc_radius)) / spec.arc_radius)


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
            "schema_version": 1,
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
    space = "2d" if spec.kind in (GRASP2D, BOXOPEN2D) else "3d"
    model = build_phase_model(demos, gmm, charts_for(space),
                              horizon=spec.horizon)
    return demos, gmm, model


def demo_initial_joint_states(demos: list[Demonstration],
                              arm: ArmModel) -> np.ndarray:
    """IK solutions for every demonstration's starting pose."""
    qs = []
    for demo in demos:
        if arm.dof == 3:
            q, ok = planar_ik_3link(arm, demo.poses[0])
        else:
            q, ok = inverse_kinematics(arm, demo.poses[0],
                                       0.3 * np.ones(arm.dof))
        if not ok:
            raise RuntimeError(f"IK failed for {demo.id} initial pose")
        qs.append(q)
    return np.array(qs)


def sample_initial_states(demos: list[Demonstration], arm: ArmModel,
                          n: int, rng, floor: float = 1e-3) -> np.ndarray:
    """Gaussian over the demonstrated initial joint states, floored so a
    single demonstration still yields diverse trials."""
    qs = demo_initial_joint_states(demos, arm)
    mean = qs.mean(axis=0)
    cov = np.cov(qs.T, bias=True) if len(qs) > 1 else np.zeros((arm.dof,) * 2)
    cov = cov + floor * np.eye(arm.dof)
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
                              spec.object_frame, list(refs),
                              control_weight, activation_start)
        result = solve(problem)
        ok, reason = evaluate_trial(result, spec, arm, activation_start)
        entry.update(success=bool(ok), reason=reason,
                     iterations=result.iterations,
                     final_cost=result.cost_history[-1])
    except Exception as exc:  # solver failures are recorded per trial
        entry.update(success=False, reason=f"error: {exc}")
    return entry


def run_experiment(spec: TaskSpec, strategy, n_trials: int = 50,
                   arm: ArmModel = DEFAULT_ARM, control_weight: float = 1e-2,
                   activation_start: int = 20,
                   model: PhaseModel | None = None,
                   demos: list | None = None, jobs: int = 1) -> TrialReport:
    """Full loop: demos -> phase model -> per-trial solve -> scoring.

    strategy is a ChartId (fixed chart) or the string 'optimal'. Failed
    trials are data, not errors. jobs > 1 runs trials in worker processes.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if model is None or demos is None:
        demos, _, model = fit_task_model(spec)
    rng = np.random.default_rng(spec.seed + 1)
    q0s = sample_initial_states(demos, arm, n_trials, rng)
    refs = build_references(model, strategy, spec.horizon, activation_start,
                            plan_mode(spec.kind))
    winners_per_phase = [select_winner(phase) for phase in model.phases]
    work = [(i, q0s[i], spec, arm, refs, control_weight, activation_start)
            for i in range(n_trials)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            trials = list(pool.map(_run_trial, work))
    else:
        trials = [_run_trial(w) for w in work]
    name = strategy if isinstance(strategy, str) else f"fixed-{strategy.index}"
    return TrialReport(name, trials, winners_per_phase)
