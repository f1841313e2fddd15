"""Batch iLQR with Gauss-Newton updates and backtracking line search.

The problem is open loop: the joint states are the running sum of the
velocity commands, the state cost is a precision-weighted squared geodesic
residual in the selected chart at each active timestep, and each iteration
solves the regularized normal equations for the full horizon as a band in
the moves of the states q_2..q_T. u_T moves no state; its step is -u_T.

Each line-search candidate costs one forward pass (cost, residuals and the
joint states of the active timesteps). The candidate that is accepted keeps
its pass, and the Jacobian pass linearizes it once, on those states.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import solveh_banded

from .charts import (TWO_D, OriginSingularity, chart_rows_2d, chart_spec,
                     charts_for)
from .kinematics import ArmModel, JointTrajectory, kinematics_rows, rollout
from .manifolds import (AntipodalPoint, Sphere, leaves, log_jacobian_rows,
                        log_rows)

LINE_SEARCH_MIN_STEP = 1e-4
STEP_TOL = 1e-9
COST_TOL = 1e-9
MAX_ITER = 100
PLANAR_CHARTS = frozenset(charts_for(TWO_D))


class LineSearchFailed(RuntimeWarning):
    pass


class References(NamedTuple):
    """The active references of a plan as rows: the n active timesteps ts
    (increasing), the chart of each row, each chart's means (n_c x ambient,
    in row order) and the tangent precisions at the means (n x 3 x 3)."""
    ts: np.ndarray
    charts: list
    means: dict
    precisions: np.ndarray


def _checked(refs: References, T: int, start: int):
    """The rows of refs at or after start, and each chart's row indices among
    them; ValueError on rows that are not the references of a T-step plan."""
    def need(ok, what: str):
        if not ok:
            raise ValueError(f"references need {what}")

    ts, charts, means, precisions = refs
    ts, precisions = np.asarray(ts), np.asarray(precisions, dtype=float)
    need(ts.ndim == 1 and ts.dtype.kind in "iu" and (ts[1:] > ts[:-1]).all()
         and (not ts.size or 0 <= ts[0] and ts[-1] < T),
         f"ts increasing integers in [0, {T})")
    need(len(charts) == len(ts) and set(charts) <= PLANAR_CHARTS,
         "one 2D chart per row")
    need(precisions.shape == (len(ts), 3, 3) and np.isfinite(precisions).all(),
         f"{len(ts)} finite 3 x 3 precisions")
    need(set(means) == set(charts), "one means block per chart")
    keep = ts >= start
    need(keep.any(), f"a row at or after activation_start {start}")
    blocks, rows = {}, {}
    for chart, M in means.items():
        mask = np.array([c == chart for c in charts])
        spec, M = chart_spec(chart), np.asarray(M, dtype=float)
        n, width = mask.sum(), spec.ambient_dim
        # finite rows of the chart's width that pass the ManifoldPoint test
        need(M.shape == (n, width) and np.isfinite(M).all() and all(
            (abs(np.sqrt(np.vecdot(M[:, a], M[:, a])) - 1) <= 1e-9).all()
            for leaf, a, _ in leaves(spec) if isinstance(leaf, Sphere)),
            f"{n} means of {chart}, finite rows of {width} with unit sphere "
            "blocks")
        if keep[mask].any():
            blocks[chart] = M[keep[mask]]
            rows[chart] = np.flatnonzero(mask[keep])
    return (References(ts[keep], [c for c, k in zip(charts, keep) if k],
                       blocks, precisions[keep]), rows)


@dataclass
class PlanProblem:
    arm: ArmModel
    q0: np.ndarray
    horizon: int
    dt: float
    frame: object                           # object frame the charts live in
    references: References                  # kept: rows >= activation_start
    control_weight: float = 1e-2
    activation_start: int = 0

    def __post_init__(self):
        self.q0 = np.asarray(self.q0, dtype=float)
        if self.horizon < 1 or not (self.dt > 0 and self.control_weight > 0):
            raise ValueError("need horizon >= 1, dt > 0, control_weight > 0")
        if (self.q0.shape != (self.arm.dof,)
                or not np.all(np.isfinite(self.q0))):
            raise ValueError(f"q0 must be {self.arm.dof} finite joint angles")
        self.references, self._rows = _checked(
            References(*self.references), self.horizon, self.activation_start)


@dataclass
class PlanResult:
    trajectory: JointTrajectory
    cost_history: list
    converged: bool
    iterations: int
    residual_norms: dict = field(default_factory=dict)  # timestep -> norm


def _forward(problem: PlanProblem, u: np.ndarray):
    """Cost at the controls u, and the residuals F (n x 3) and joint states
    Q (n x D) of the n active timesteps. A chart singularity raises naming
    the first offending timestep."""
    refs, ts = problem.references, problem.references.ts
    Q = rollout(problem.q0, u.reshape(-1, problem.arm.dof), problem.dt)[ts]
    P, H, _ = kinematics_rows(problem.arm, Q)
    F = np.empty((len(ts), 3))
    failures = []
    for chart, rows in problem._rows.items():
        means = refs.means[chart]
        try:
            X, _ = chart_rows_2d(chart, problem.frame, P[rows], H[rows])
        except OriginSingularity as exc:
            failures.append((rows[exc.row], exc))
            # the log map may still fail on a row before the singular one
            rows, means = rows[:exc.row], means[:exc.row]
            X, _ = chart_rows_2d(chart, problem.frame, P[rows], H[rows])
        try:
            F[rows] = log_rows(chart_spec(chart), means, X)
        except AntipodalPoint as exc:
            failures.append((rows[exc.row], exc))
    if failures:
        row, exc = min(failures, key=lambda f: f[0])
        raise type(exc)(f"timestep {ts[row]}: {exc}") from exc
    c = (problem.control_weight * float(u @ u)
         + float(np.einsum("ni,nij,nj->", F, refs.precisions, F)))
    return c, F, Q


def _candidate(problem: PlanProblem, u: np.ndarray):
    """_forward, except that poses in a chart singularity make the candidate
    infeasible (infinite cost), so the line search rejects such steps."""
    try:
        return _forward(problem, u)
    except (OriginSingularity, AntipodalPoint):
        return np.inf, None, None


def _jacobian(problem: PlanProblem, Q: np.ndarray) -> np.ndarray:
    """Jacobian rows (3n x D) of the active residuals w.r.t. their joint
    states Q (n x D), which a forward pass has found free of singularities."""
    P, H, Jk = kinematics_rows(problem.arm, Q, jacobian=True)
    J = np.empty((len(Q), 3, problem.arm.dof))
    for chart, rows in problem._rows.items():
        X, Jc = chart_rows_2d(chart, problem.frame, P[rows], H[rows], True)
        M = problem.references.means[chart]
        J[rows] = log_jacobian_rows(chart_spec(chart), M, X) @ Jc @ Jk[rows]
    return J.reshape(-1, problem.arm.dof)


def _norms(problem: PlanProblem, F: np.ndarray) -> dict:
    return dict(zip(problem.references.ts.tolist(),
                    np.linalg.norm(F, axis=1).tolist()))


def residuals_and_jacobian(problem: PlanProblem, u: np.ndarray):
    """Stacked residual f (3n) of the n active timesteps, its Jacobian rows
    (3n x D) w.r.t. the state at each row's own timestep, and the norms."""
    _, F, Q = _forward(problem, u)
    return F.ravel(), _jacobian(problem, Q), _norms(problem, F)


def cost(problem: PlanProblem, u: np.ndarray) -> float:
    """True cost: precision-weighted squared residuals plus control effort,
    infinite where a pose falls into a chart singularity."""
    return _candidate(problem, u)[0]


def gauss_newton_step(problem: PlanProblem, u: np.ndarray, f: np.ndarray,
                      J: np.ndarray) -> np.ndarray:
    """Regularized Gauss-Newton update of the stacked controls, solved in the
    state moves x_t (x_1 = 0, du_t = (x_{t+1} - x_t)/dt), where the normal
    matrix (r/dt²)·(K ⊗ I_D) + blockdiag(JₜᵀQₜJₜ) has half-bandwidth D, with
    K = tridiag(-1, 2, -1) but 1 in the last entry. u_T moves no state, so
    its step is -u_T."""
    D, T, refs = problem.arm.dof, problem.horizon, problem.references
    r, dt, U, ts = problem.control_weight, problem.dt, u.reshape(T, D), refs.ts
    Jr = J.reshape(-1, 3, D)
    JtQ = Jr.transpose(0, 2, 1) @ refs.precisions
    # control term r/dt (u_t - u_{t-1}) at state t, u_T left out; row 0 unused
    g = (r / dt) * np.diff(U[:-1], axis=0, prepend=0.0, append=0.0)
    g[ts] -= np.einsum("nai,ni->na", JtQ, f.reshape(-1, 3))
    # lower band storage, a column per state: band[d, t, a] = A[tD+a+d, tD+a]
    band = np.zeros((D + 1, T, D))
    a, b = np.tril_indices(D)
    band[a - b, ts[:, None], b] = (JtQ @ Jr)[:, a, b]
    band[0, 1:] += 2.0 * r / dt ** 2
    band[0, -1] -= r / dt ** 2
    band[D, 1:-1] = -r / dt ** 2
    x = solveh_banded(band[:, 1:].reshape(D + 1, -1), g[1:].ravel(),
                      lower=True)
    dX = np.diff(x.reshape(T - 1, D), axis=0, prepend=0.0) / dt
    return np.concatenate([dX.ravel(), -U[-1]])


def solve(problem: PlanProblem) -> PlanResult:
    """Gauss-Newton iterations from zero controls: each accepted iterate is
    linearized once, on the states of the forward pass that accepted it."""
    D, T = problem.arm.dof, problem.horizon
    u = np.zeros(D * T)
    c, F, Q = _forward(problem, u)
    history = [c]
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        du = gauss_newton_step(problem, u, F.ravel(), _jacobian(problem, Q))
        if np.linalg.norm(du) < STEP_TOL:
            converged = True
            break
        alpha = 1.0
        while alpha >= LINE_SEARCH_MIN_STEP:
            c_new, F_new, Q_new = _candidate(problem, u + alpha * du)
            if c_new < c:
                break
            alpha *= 0.5
        else:
            # no descent: a stationary point up to rounding if even the last
            # candidate moves the cost by less than the tolerance
            converged = c_new - c < COST_TOL * max(abs(c), 1.0)
            if not converged:
                import warnings
                warnings.warn("no descent step found; returning best iterate",
                              LineSearchFailed)
            break
        u = u + alpha * du
        improvement = c - c_new
        c, F, Q = c_new, F_new, Q_new
        history.append(c)
        if improvement < COST_TOL * max(abs(c), 1.0):
            converged = True
            break
    traj = JointTrajectory(problem.dt, rollout(problem.q0, u.reshape(T, D),
                                               problem.dt), u.reshape(T, D))
    return PlanResult(traj, history, converged, it, _norms(problem, F))


# --- JSON round trip --------------------------------------------------------

def result_to_dict(result: PlanResult) -> dict:
    return {
        "schema_version": 1,
        "dt": result.trajectory.dt,
        "states": result.trajectory.states.tolist(),
        "controls": result.trajectory.controls.tolist(),
        "cost_history": list(result.cost_history),
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norms": {str(t): v for t, v in result.residual_norms.items()},
    }


def result_from_dict(d: dict) -> PlanResult:
    traj = JointTrajectory(float(d["dt"]), np.array(d["states"]),
                           np.array(d["controls"]))
    return PlanResult(traj, list(d["cost_history"]), bool(d["converged"]),
                      int(d["iterations"]),
                      {int(t): v for t, v in d["residual_norms"].items()})
