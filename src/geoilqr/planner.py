"""Batch iLQR with Gauss-Newton updates and backtracking line search.

The problem is open loop: the joint states are the running sum of the
velocity commands, and the state cost is a precision-weighted squared
geodesic residual in the selected chart at each of the n active timesteps
ts. Segment k holds the L_k controls from the previous active timestep (0
for the first) up to ts[k]. Its least-effort controls for the state
increment E_k are E_k/(dt·L_k) each, at effort w_k‖E_k‖², w_k = r/(dt²·L_k),
so the iterations run on E (n x D). Each solves the regularized normal
equations as a band of n blocks of D in the moves of the states at the
active rows with LAPACK's dpbsv, in O(n·D³), loaded from scipy's _flapack
extension without the scipy.linalg package. A row at t = 0 is a constant
of the plan: its state is q0, and L, E and w are 0 there.

Both planar charts are products of R and S¹ factors, worked in complex
numbers, so one closed-form pass per line-search candidate evaluates all
active rows, with the row factors of _constants in place of np.where; the
Jacobian pass fills the step's [J | F] buffer once, for the accepted one.

solve returns a copy of its last result, forward_passes included, for a
problem equal in content, unless that solve raised or warned; planning each
initial state under every strategy in turn meets equal problems this way.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.util
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .charts import (CARTESIAN_2D, POLAR_2D, RADIUS_EPS, OriginSingularity,
                     planar_factors, planar_jacobian, planar_rows)
from .io import SCHEMA_VERSION
from .kinematics import ArmModel, JointTrajectory, levers, link_rows, rollout
from .manifolds import ANTIPODAL_TOL, AntipodalPoint, _s1_signs

LINE_SEARCH_MIN_STEP = 1e-4
STEP_TOL = 1e-9
COST_TOL = 1e-9
MAX_ITER = 100
PLANAR_CHARTS = {(c.space, c.index): c for c in (CARTESIAN_2D, POLAR_2D)}
_last_solve = None, None  # last solve's (_key, result) unless it raised or warned


class LineSearchFailed(RuntimeWarning):
    pass


@functools.cache
def banded_solver():
    """LAPACK's dpbsv, the Cholesky band solve under scipy.linalg's
    solveh_banded, loaded by the first call from scipy's one _flapack
    extension file as scipy.linalg._flapack, which a later import of
    scipy.linalg shares: importing scipy.linalg itself would take most of
    a plan's time. Without exactly one such file, or when it fails to load,
    the same routine comes from scipy.linalg.lapack."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        origin = importlib.util.find_spec("scipy").origin  # imports nothing
        stem = os.path.join(os.path.dirname(origin), "linalg", "_flapack")
        files = [stem + s for s in EXTENSION_SUFFIXES
                 if os.path.isfile(stem + s)]
        if len(files) == 1:
            spec = importlib.util.spec_from_file_location(name, files[0])
            with contextlib.suppress(ImportError, OSError):  # fall back below
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
    if name not in sys.modules:
        from scipy.linalg.lapack import dpbsv
        return dpbsv
    return sys.modules[name].dpbsv


class References(NamedTuple):
    """The active references of a plan as rows: the n active timesteps ts
    (increasing), the chart of each row, each chart's means (n_c x ambient,
    in row order) and the tangent precisions at the means (n x 3 x 3)."""
    ts: np.ndarray
    charts: list
    means: dict
    precisions: np.ndarray


def _content(a) -> tuple:
    """The dtype, shape and bytes of an array: a hashable copy of it."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@functools.lru_cache(maxsize=64)
def _constants(ts, codes, means, precisions, T, start, dt, r, D):
    """The rows of the references at or after start, checked, and the
    planar pass's and the step's constants; ValueError on rows that are not
    the references of a T-step plan. The arrays come as _content, the charts
    as (space, index), so the trials of one set of references share them."""
    def need(ok, what: str):
        if not ok:
            raise ValueError(f"references need {what}")

    def array(content):
        return np.frombuffer(content[2], content[0]).reshape(content[1])

    ts, precisions = array(ts), array(precisions).astype(float, copy=False)
    means = {chart: array(M) for chart, M in means}
    need(ts.ndim == 1 and ts.dtype.kind in "iu" and (ts[1:] > ts[:-1]).all()
         and (not ts.size or 0 <= ts[0] and ts[-1] < T),
         f"ts increasing integers in [0, {T})")
    charts = [PLANAR_CHARTS.get(c) for c in codes]
    need(len(charts) == len(ts) and None not in charts, "one 2D chart per row")
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
    need(set(means) == set(charts), "one means block per chart")
    kept = int(np.searchsorted(ts, start))   # the rows kept are a suffix
    need(kept < len(ts), f"a row at or after activation_start {start}")
    polar = np.array([c is POLAR_2D for c in charts], dtype=bool)
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
    refs = References(ts[kept:], charts[kept:], blocks, precisions[kept:])
    polar, S, offset = polar[kept:], S[kept:], offset[kept:]
    ts, k0 = refs.ts, int(refs.ts[0] == 0)
    L, w = ts.copy(), np.zeros(len(ts))
    L[1:] -= ts[:-1]
    w[k0:] = r / (dt ** 2 * L[k0:])
    # the step's band over the rows k0..: (w_k + w_{k+1})·I on row k's
    # diagonal block and -w_{k+1}·I below it; JₖᵀQₖJₖ[i, j], i >= j (flat
    # iD + j of block k), goes to band[k, j, i - j]
    band = np.zeros((len(ts) - k0, D, D + 1))
    band[:, :, 0] = w[k0:, None]
    band[:-1, :, 0] += w[k0 + 1:, None]
    band[:-1, :, D] = -w[k0 + 1:, None]
    k, rows = np.flatnonzero(np.tri(D, dtype=bool)), np.arange(len(band))
    # the conjugated means, 0 at a Cartesian row's azimuth
    planar, segments = (S.view(complex)[..., 0].conj(), s := _s1_signs(S),
                        offset, *planar_factors(polar, s)), (
        L, w, band, rows[:, None] * (D * D + D) + k % D * D + k // D,
        rows[:, None] * (D * D + D) + k + k // D)
    for a in (refs.ts, refs.precisions, *blocks.values(), *planar, *segments):
        a.setflags(write=False)     # every problem of these references
    return refs, planar, (k0, *segments)


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
        for name, kind, low, what in (
                ("horizon", numbers.Integral, 0, "an int >= 1"),
                ("dt", numbers.Real, 0, "finite and > 0"),
                ("control_weight", numbers.Real, 0, "finite and > 0"),
                ("activation_start", numbers.Integral, -1, "an int >= 0")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not low < value < np.inf):
                raise ValueError(f"{name} {value!r} must be {what}")
        q0 = np.array(self.q0, dtype=float)     # its own, as _key holds it
        if q0.shape != (self.arm.dof,) or not np.all(np.isfinite(q0)):
            raise ValueError(f"q0 must be {self.arm.dof} finite joint angles")
        ts, charts, means, precisions = self.references
        key = (_content(ts), tuple([(c.space, c.index) for c in charts]),
               tuple((c, _content(M)) for c, M in means.items()),
               _content(precisions), self.horizon, self.activation_start,
               self.dt, self.control_weight, self.arm.dof)
        references, planar, segments = _constants(*key)
        object.__setattr__(self, "_key", key + tuple(map(_content, (
            q0, self.arm.link_lengths, self.arm.base_position,
            self.arm.base_angle, self.frame.translation, self.frame.angle))))
        object.__setattr__(self, "q0", q0)
        # its own containers around the shared, read-only arrays
        object.__setattr__(self, "references", references._replace(
            charts=list(references.charts), means=dict(references.means)))
        object.__setattr__(self, "_planar", planar)
        object.__setattr__(self, "_segments", segments)


@dataclass
class PlanResult:
    trajectory: JointTrajectory
    cost_history: list
    converged: bool
    iterations: int
    residual_norms: dict = field(default_factory=dict)  # timestep -> norm
    forward_passes: int = 0     # rejected line-search candidates included


def _controls(problem: PlanProblem, E: np.ndarray) -> np.ndarray:
    """The least-effort controls (T x D) of the increments E."""
    k0, L = problem._segments[:2]
    U = np.zeros((problem.horizon, problem.arm.dof))
    U[:L.sum()] = np.repeat(E[k0:] / (problem.dt * L[k0:, None]), L[k0:], 0)
    return U


def _forward(problem: PlanProblem, Q: np.ndarray, effort: float):
    """Cost of the joint states Q (n x D) of the n active timesteps plus the
    control effort, their residuals F (n x 3), and their linearization's
    inputs: the link vectors, azimuths and radii (p and 1 on a Cartesian
    row). A chart or log map singularity raises naming the first offending
    timestep."""
    (S, s, offset, cart, *_), ts = problem._planar, problem.references.ts
    P, heading, links = link_rows(problem.arm, Q)
    X, r = planar_rows(problem.frame, P, heading, cart)  # azimuth, heading
    W = S * X           # conj(mean)·x: (cos, sin) of the S¹ residual angle
    if r.min() < RADIUS_EPS or W.real.min() <= -1.0 + ANTIPODAL_TOL:
        # the first row whose chart or S¹ log map is undefined, the chart first
        singular, antipodal = r < RADIUS_EPS, W.real <= -1.0 + ANTIPODAL_TOL
        row = int(np.argmax(singular | antipodal.any(axis=1)))
        if singular[row]:
            raise OriginSingularity(f"timestep {ts[row]}: polar radius "
                                    f"{r[row]} below {RADIUS_EPS}")
        raise AntipodalPoint(f"timestep {ts[row]}: log map undefined for "
                             "antipodal sphere points")
    F = np.empty((len(ts), 3))    # polar (angle, radius) or Cartesian x, y
    F[:, ::2], F[:, 1] = s * np.arctan2(W.imag, W.real), r   # S¹ residuals
    np.copyto(F[:, :2], X[:, :1].view(float), where=cart[:, None])
    F -= offset
    c = effort + float(np.einsum("ni,nij,nj->", F,
                                 problem.references.precisions, F))
    return c, F, (links, X[:, 0], r)


def _at_controls(problem: PlanProblem, u: np.ndarray):
    """_forward's states and effort at the stacked controls u."""
    Q = rollout(problem.q0, u.reshape(-1, problem.arm.dof), problem.dt)
    return Q[problem.references.ts], problem.control_weight * float(u @ u)


def _candidate(problem: PlanProblem, Q: np.ndarray, effort: float):
    """_forward, except that poses in a chart singularity make the candidate
    infeasible (infinite cost), so the line search rejects such steps."""
    try:
        return _forward(problem, Q, effort)
    except (OriginSingularity, AntipodalPoint):
        return np.inf, None, None


def _jacobian(problem: PlanProblem, F: np.ndarray, lin) -> np.ndarray:
    """[J | F] (n x 3 x (D + 1)): the Jacobian rows w.r.t. their joint states
    of the residuals F of a forward pass free of singularities, and F: joint
    k turns the heading at rate 1 and moves the end effector at i times its
    lever. An S¹ log differential s_m·s(x) by a chart row s(x)·c is s_m·c."""
    (links, a, r), D = lin, problem.arm.dof
    JF = np.empty((len(F), 3, D + 1))
    JF[..., D] = F
    planar_jacobian(problem.frame.world_to_object, levers(links), 1.0, a, r,
                    problem._planar[3:], JF[..., :D])
    return JF


def _norms(problem: PlanProblem, F: np.ndarray) -> dict:
    return dict(zip(problem.references.ts.tolist(),
                    np.linalg.norm(F, axis=1).tolist()))


def residuals_and_jacobian(problem: PlanProblem, u: np.ndarray):
    """Stacked residual f (3n) of the n active timesteps, its Jacobian rows
    (3n x D) w.r.t. the state at each row's own timestep, and the norms."""
    _, F, lin = _forward(problem, *_at_controls(problem, u))
    J = _jacobian(problem, F, lin)[..., :-1].reshape(-1, problem.arm.dof)
    return F.ravel(), J, _norms(problem, F)


def cost(problem: PlanProblem, u: np.ndarray) -> float:
    """True cost: precision-weighted squared residuals plus control effort,
    infinite where a pose falls into a chart singularity."""
    return _candidate(problem, *_at_controls(problem, u))[0]


def _step(problem: PlanProblem, E: np.ndarray, JF: np.ndarray) -> np.ndarray:
    """Regularized Gauss-Newton move dE of the increments E, at the
    linearization [J | F] of _jacobian, solved in the moves x of the states
    at the rows k0.. (dE_k = x_k - x_{k-1}), whose normal matrix is the
    band of half-width D that _constants starts, plus blockdiag(JₖᵀQₖJₖ)."""
    (k0, _, w, band, dst, src), D = problem._segments, problem.arm.dof
    H = (JF[k0:, :, :D].transpose(0, 2, 1)     # [JᵀQJ | JᵀQF]
         @ problem.references.precisions[k0:] @ JF[k0:])
    g, wE = H[..., D], w[k0:, None] * E[k0:]    # g: JᵀQF, then the gradient
    g += wE
    g[:-1] -= wE[1:]
    if not np.isfinite(H).all():
        raise ValueError("array must not contain infs or NaNs")
    band = band.copy()
    band.reshape(-1)[dst] += H.reshape(-1)[src]
    ab, b = band.reshape(-1, D + 1).T, np.negative(g).ravel()  # column-major
    _, x, info = banded_solver()(ab, b, 1, D + 1, 1, 1)  # lower, overwritten
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    dE, x = np.zeros(E.shape), x.reshape(-1, D)
    dE[k0:] = x
    dE[k0 + 1:] -= x[:-1]
    return dE


def gauss_newton_step(problem: PlanProblem, u: np.ndarray, f: np.ndarray,
                      J: np.ndarray) -> np.ndarray:
    """Regularized Gauss-Newton update of the stacked controls u: _step on
    u's segment increments. The new controls are the least-effort ones, so
    those from the last active timestep on, u_T included, step by -u."""
    E = np.diff(_at_controls(problem, u)[0], axis=0, prepend=problem.q0[None])
    E += _step(problem, E, np.concatenate([J.reshape(-1, 3, problem.arm.dof),
                                           f.reshape(-1, 3, 1)], axis=2))
    return _controls(problem, E).ravel() - u


def solve(problem: PlanProblem) -> PlanResult:
    """Gauss-Newton iterations on the increments E from zero controls: each
    accepted iterate is linearized once, on the states of the forward pass
    that accepted it, or a copy of the last result (see the module)."""
    global _last_solve
    if problem._key == _last_solve[0]:
        return _copy(_last_solve[1])
    _last_solve, key = (None, None), problem._key
    q0, w, r = problem.q0, problem._segments[2], problem.control_weight
    E = np.zeros((len(w), problem.arm.dof))
    c, F, lin = _forward(problem, q0 + E, 0.0)
    history, passes, converged, it = [c], 1, False, 0
    for it in range(1, MAX_ITER + 1):
        dE = _step(problem, E, _jacobian(problem, F, lin))
        if w @ np.vecdot(dE, dE) < r * STEP_TOL ** 2:   # r‖du‖² below r·tol²
            converged = True
            break
        alpha, step = 1.0, dE   # step = alpha·dE, exactly: alpha halves
        while alpha >= LINE_SEARCH_MIN_STEP:
            E_new = E + step            # effort Σ w_k‖E_k‖², which is r‖u‖²
            c_new, F_new, lin_new = _candidate(problem, q0 + np.add.accumulate(
                E_new), float(w @ np.vecdot(E_new, E_new)))
            passes += 1
            if c_new < c:
                break
            alpha, step = 0.5 * alpha, 0.5 * step
        else:
            # no descent: a stationary point up to rounding if even the last
            # candidate moves the cost by less than the tolerance
            converged = c_new - c < COST_TOL * max(abs(c), 1.0)
            if not converged:
                warnings.warn("no descent step found; returning best iterate",
                              LineSearchFailed)
                key = None
            break
        improvement = c - c_new
        E, c, F, lin = E_new, c_new, F_new, lin_new
        history.append(c)
        if improvement < COST_TOL * max(abs(c), 1.0):
            converged = True
            break
    U = _controls(problem, E)
    traj = JointTrajectory(problem.dt, rollout(problem.q0, U, problem.dt), U)
    result = PlanResult(traj, history, converged, it, _norms(problem, F), passes)
    _last_solve = key, _copy(result)    # no key after a warning
    return result


def _copy(r: PlanResult) -> PlanResult:
    """A copy of r that shares no mutable part with it."""
    t = r.trajectory
    t = JointTrajectory(t.dt, t.states.copy(), t.controls.copy())
    return PlanResult(t, list(r.cost_history), r.converged, r.iterations,
                      dict(r.residual_norms), r.forward_passes)


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
        "forward_passes": result.forward_passes,
    }
