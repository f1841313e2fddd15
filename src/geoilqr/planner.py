"""Batch iLQR with Gauss-Newton updates and backtracking line search.

The problem is open loop: the joint states are the running sum of the
velocity commands, the state cost is a precision-weighted squared geodesic
residual in the selected chart at each active timestep, and each iteration
solves the regularized normal equations for the full horizon as a band in
the moves of the states q_2..q_T with LAPACK's dpbsv; u_T moves no state.

Both planar charts are products of R and S¹ factors, so one closed-form
pass per line-search candidate evaluates all active rows; the Jacobian pass
linearizes the accepted one once, from that pass's intermediates.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .charts import (CARTESIAN_2D, POLAR_2D, RADIUS_EPS, OriginSingularity,
                     planar_jacobian, planar_rows)
from .io import SCHEMA_VERSION
from .kinematics import ArmModel, JointTrajectory, kinematics_rows, rollout
from .manifolds import ANTIPODAL_TOL, AntipodalPoint, _s1_signs

LINE_SEARCH_MIN_STEP = 1e-4
STEP_TOL = 1e-9
COST_TOL = 1e-9
MAX_ITER = 100
PLANAR_CHARTS = {CARTESIAN_2D: False, POLAR_2D: True}   # chart -> is polar


class LineSearchFailed(RuntimeWarning):
    pass


@functools.cache
def banded_solver():
    """LAPACK's dpbsv, the Cholesky band solve under scipy.linalg's
    solveh_banded, imported by the first call: loading scipy.linalg takes
    most of the package's import time, and only planning needs it."""
    from scipy.linalg.lapack import dpbsv
    return dpbsv


class References(NamedTuple):
    """The active references of a plan as rows: the n active timesteps ts
    (increasing), the chart of each row, each chart's means (n_c x ambient,
    in row order) and the tangent precisions at the means (n x 3 x 3)."""
    ts: np.ndarray
    charts: list
    means: dict
    precisions: np.ndarray


def _checked(refs: References, T: int, start: int):
    """The rows of refs at or after start, their polar masks, S¹ means and
    offsets; ValueError on rows that are not the references of a T-step plan."""
    def need(ok, what: str):
        if not ok:
            raise ValueError(f"references need {what}")

    ts, charts, means, precisions = refs
    ts, precisions = np.asarray(ts), np.asarray(precisions, dtype=float)
    need(ts.ndim == 1 and ts.dtype.kind in "iu" and (ts[1:] > ts[:-1]).all()
         and (not ts.size or 0 <= ts[0] and ts[-1] < T),
         f"ts increasing integers in [0, {T})")
    is_polar = [PLANAR_CHARTS.get(c) for c in charts]
    need(len(charts) == len(ts) and None not in is_polar,
         "one 2D chart per row")
    need(precisions.shape == (len(ts), 3, 3) and np.isfinite(precisions).all(),
         f"{len(ts)} finite 3 x 3 precisions")
    tol = 1e-9 * np.abs(precisions).max(axis=(1, 2), keepdims=True,
                                        initial=np.finfo(float).tiny)
    try:  # P + tol·I has a Cholesky factor iff no eigenvalue is below -tol
        np.linalg.cholesky(precisions + tol * np.eye(3))
        psd = (abs(precisions - precisions.swapaxes(1, 2)) <= tol).all()
    except LinAlgError:
        psd = False
    need(psd, "symmetric positive semidefinite precisions, within 1e-9 of "
         "each one's largest entry")
    need(set(means) == {(CARTESIAN_2D, POLAR_2D)[f] for f in set(is_polar)},
         "one means block per chart")
    kept = int(np.searchsorted(ts, start))   # the rows kept are a suffix
    need(kept < len(ts), f"a row at or after activation_start {start}")
    polar = np.array(is_polar, dtype=bool)
    blocks, S, offset = {}, np.zeros((len(ts), 2, 2)), np.zeros((len(ts), 3))
    for chart, M in means.items():
        mask = polar if chart == POLAR_2D else ~polar
        n, width, M = mask.sum(), 4 + (chart == POLAR_2D), np.asarray(M, float)
        need(M.shape == (n, width) and np.isfinite(M).all(),
             f"{n} means of {chart}, finite rows of {width}")
        S[mask, 0], S[mask, 1] = (chart == POLAR_2D) * M[:, :2], M[:, -2:]
        offset[mask, :2] = (M[:, :2] if chart == CARTESIAN_2D
                            else (0.0, 1.0) * M[:, 2:3])   # (x, y) or radius
        if (dropped := mask[:kept].sum()) < n:
            blocks[chart] = M[dropped:]
    off = np.abs(np.sqrt(np.vecdot(S, S)) - 1) > 1e-9  # the ManifoldPoint test
    need(not (off[:, 1] | polar & off[:, 0]).any(), "means with unit sphere blocks")
    return (References(ts[kept:], charts[kept:], blocks, precisions[kept:]),
            polar[kept:], S[kept:], offset[kept:])


@dataclass(frozen=True)
class PlanProblem:
    """A plan's inputs, frozen as __post_init__ derives constants from them."""
    arm: ArmModel
    q0: np.ndarray
    horizon: int
    dt: float
    frame: object                           # object frame the charts live in
    references: References                  # kept: rows >= activation_start
    control_weight: float = 1e-2
    activation_start: int = 0

    def __post_init__(self):
        q0 = np.asarray(self.q0, dtype=float)
        if self.horizon < 1 or not (self.dt > 0 and self.control_weight > 0):
            raise ValueError("need horizon >= 1, dt > 0, control_weight > 0")
        if q0.shape != (self.arm.dof,) or not np.all(np.isfinite(q0)):
            raise ValueError(f"q0 must be {self.arm.dof} finite joint angles")
        references, polar, S, offset = _checked(
            References(*self.references), self.horizon, self.activation_start)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "references", references)
        # the planar pass's per-row constants, with the S¹ means' basis signs
        object.__setattr__(self, "_planar", (polar, S, _s1_signs(S), offset))
        # the step puts JᵀQJ[i, j], i >= j (flat iD + j), in band[t, j, i - j]
        D, k = self.arm.dof, np.flatnonzero(np.tri(self.arm.dof, dtype=bool))
        object.__setattr__(self, "_band_scatter", (k, k % D * D + k // D))


@dataclass
class PlanResult:
    trajectory: JointTrajectory
    cost_history: list
    converged: bool
    iterations: int
    residual_norms: dict = field(default_factory=dict)  # timestep -> norm


def _forward(problem: PlanProblem, u: np.ndarray):
    """Cost at the controls u, the residuals F (n x 3) of the n active
    timesteps, and their linearization's inputs: the kinematic Jacobians, unit
    azimuths and radii (p and 1 on a Cartesian row). A chart or log map
    singularity raises naming the first offending timestep."""
    (polar, S, s, offset), ts = problem._planar, problem.references.ts
    Q = rollout(problem.q0, u.reshape(-1, problem.arm.dof), problem.dt)[ts]
    P, H, Jk = kinematics_rows(problem.arm, Q, jacobian=True)
    X, r = planar_rows(problem.frame, P, H, polar)    # azimuth, heading
    dots = np.vecdot(S, X)                  # 0 at a Cartesian row's azimuth
    # the first row whose chart or S¹ log map is undefined, the chart first
    singular = r < RADIUS_EPS
    bad = singular | (dots <= -1.0 + ANTIPODAL_TOL).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if singular[row]:
            raise OriginSingularity(f"timestep {ts[row]}: polar radius "
                                    f"{r[row]} below {RADIUS_EPS}")
        raise AntipodalPoint(f"timestep {ts[row]}: log map undefined for "
                             "antipodal sphere points")
    cross = S[..., 0] * X[..., 1] - S[..., 1] * X[..., 0]
    angle = s * np.arctan2(cross, dots)       # (azimuth, heading) residuals
    F = np.empty((len(ts), 3))    # polar (angle, radius) or Cartesian x, y
    F[:, 0], F[:, 1], F[:, 2] = (np.where(polar, angle[:, 0], X[:, 0, 0]),
                                 np.where(polar, r, X[:, 0, 1]), angle[:, 1])
    F -= offset
    c = (problem.control_weight * float(u @ u) + float(np.einsum(
        "ni,nij,nj->", F, problem.references.precisions, F)))
    return c, F, (Jk, X[:, 0], r)


def _candidate(problem: PlanProblem, u: np.ndarray):
    """_forward, except that poses in a chart singularity make the candidate
    infeasible (infinite cost), so the line search rejects such steps."""
    try:
        return _forward(problem, u)
    except (OriginSingularity, AntipodalPoint):
        return np.inf, None, None


def _jacobian(problem: PlanProblem, lin) -> np.ndarray:
    """Jacobian rows (3n x D) of the active residuals w.r.t. their joint
    states, from a forward pass free of singularities: an S¹ log
    differential s_m·s(x) times a chart row s(x)·c is s_m·c, the chart
    Jacobian with the means' signs."""
    (polar, _, s, _), (Jk, a, r) = problem._planar, lin
    C = planar_jacobian(problem.frame.world_to_object, a, r, polar, s)
    return (C @ Jk).reshape(-1, problem.arm.dof)


def _norms(problem: PlanProblem, F: np.ndarray) -> dict:
    return dict(zip(problem.references.ts.tolist(),
                    np.linalg.norm(F, axis=1).tolist()))


def residuals_and_jacobian(problem: PlanProblem, u: np.ndarray):
    """Stacked residual f (3n) of the n active timesteps, its Jacobian rows
    (3n x D) w.r.t. the state at each row's own timestep, and the norms."""
    _, F, lin = _forward(problem, u)
    return F.ravel(), _jacobian(problem, lin), _norms(problem, F)


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
    g = np.concatenate([U[:-1], np.zeros((1, D))])
    g[1:] = (r / dt) * (g[1:] - g[:-1])
    g[ts] -= np.einsum("nai,ni->na", JtQ, f.reshape(-1, 3))
    # lower band storage, Fortran order: band[t, a, d] = A[tD+a+d, tD+a]
    band, (k, at) = np.zeros((T, D, D + 1)), problem._band_scatter
    band.reshape(-1)[ts[:, None] * (D * D + D) + at] = (
        JtQ @ Jr).reshape(len(ts), -1)[:, k]
    band[1:, :, 0] += 2.0 * r / dt ** 2
    band[-1, :, 0] -= r / dt ** 2
    band[1:-1, :, D] = -r / dt ** 2
    ab, b = band[1:].reshape(-1, D + 1).T, g[1:].reshape(-1)
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, x, info = banded_solver()(ab, b, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    g[0], g[1:] = 0.0, x.reshape(T - 1, D)     # the moves, x_1 = 0
    return np.concatenate([((g[1:] - g[:-1]) / dt).ravel(), -U[-1]])


def solve(problem: PlanProblem) -> PlanResult:
    """Gauss-Newton iterations from zero controls: each accepted iterate is
    linearized once, on the states of the forward pass that accepted it."""
    D, T = problem.arm.dof, problem.horizon
    u = np.zeros(D * T)
    c, F, lin = _forward(problem, u)
    history = [c]
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        du = gauss_newton_step(problem, u, F.ravel(), _jacobian(problem, lin))
        if np.linalg.norm(du) < STEP_TOL:
            converged = True
            break
        alpha = 1.0
        while alpha >= LINE_SEARCH_MIN_STEP:
            c_new, F_new, lin_new = _candidate(problem, u_new := u + alpha * du)
            if c_new < c:
                break
            alpha *= 0.5
        else:
            # no descent: a stationary point up to rounding if even the last
            # candidate moves the cost by less than the tolerance
            converged = c_new - c < COST_TOL * max(abs(c), 1.0)
            if not converged:
                warnings.warn("no descent step found; returning best iterate",
                              LineSearchFailed)
            break
        improvement = c - c_new
        u, c, F, lin = u_new, c_new, F_new, lin_new
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
        "schema_version": SCHEMA_VERSION,
        "dt": result.trajectory.dt,
        "states": result.trajectory.states.tolist(),
        "controls": result.trajectory.controls.tolist(),
        "cost_history": list(result.cost_history),
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norms": {str(t): v for t, v in result.residual_norms.items()},
    }
