"""Batch Gauss-Newton planner: residuals, steps, convergence, round trips."""
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import block_diag, cho_factor, cho_solve, lapack

import geoilqr
from geoilqr import planner
from geoilqr.charts import (CARTESIAN_2D, CARTESIAN_3D, POLAR_2D, RADIUS_EPS,
                            ChartId, Frame2D, OriginSingularity,
                            chart_rows_2d, chart_spec, planar_factors,
                            planar_jacobian, rot2, to_chart)
from geoilqr.kinematics import (ArmModel, JointTrajectory, batch_dynamics,
                                forward_kinematics, levers, link_rows, rollout)
from geoilqr.manifolds import (AntipodalPoint, _s1_signs, log_jacobian_rows,
                               log_rows)
from geoilqr.planner import (LineSearchFailed, PlanProblem, PlanResult,
                             References, cost, gauss_newton_step,
                             residuals_and_jacobian, result_to_dict, solve)
from geoilqr.tasks import (ACTIVATION_START, CONTROL_WEIGHT, DEFAULT_ARM,
                           build_references, default_spec, fit_task_model,
                           plan_mode, sample_initial_states)

RNG = np.random.default_rng(4)
ARM = ArmModel(np.array([1.0, 1.0, 1.0]))
FRAME = Frame2D(np.zeros(2), 0.0)


def _reference_at(q, chart, precision_scale=100.0):
    """Reference row (chart, mean, precision) whose mean is the chart image
    of the arm pose at q."""
    pose = forward_kinematics(ARM, q)
    mean = to_chart(pose, chart, FRAME).coords
    d = chart_spec(chart).tangent_dim
    return chart, mean, precision_scale * np.eye(d)


def _references(rows):
    """References of a dict timestep -> (chart, mean, precision)."""
    ts = sorted(rows)
    charts = [rows[t][0] for t in ts]
    means = {c: np.array([rows[t][1] for t in ts if rows[t][0] == c])
             for c in dict.fromkeys(charts)}
    return References(np.array(ts, dtype=int), charts, means,
                      np.array([rows[t][2] for t in ts]).reshape(-1, 3, 3))


def _viapoint_problem(chart, T=30, seed=0, q0=None):
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.2, 0.8, size=3) if q0 is None else q0
    q_goal = q0 + rng.uniform(-0.5, 0.5, size=3)
    refs = _references({T // 2: _reference_at(q_goal + 0.1, chart),
                        T - 1: _reference_at(q_goal, chart)})
    return PlanProblem(ARM, q0, T, 0.1, FRAME, refs, 1e-3)


def _dense_jacobian(p, J):
    """Scatter the per-timestep Jacobian rows (3n x D) into the Jacobian
    w.r.t. all stacked states (3n x T·D)."""
    ts = p.references.ts
    D = J.shape[1]
    dense = np.zeros((len(ts), 3, p.horizon, D))
    dense[np.arange(len(ts)), :, ts, :] = J.reshape(-1, 3, D)
    return dense.reshape(3 * len(ts), p.horizon * D)


def _dense_step(p, u, f, J):
    """Oracle: the Gauss-Newton step solved in the stacked controls, with the
    dense transfer matrix S_u and a dense (T·D)² Cholesky factorization."""
    _, S_u = batch_dynamics(p.arm.dof, p.horizon, p.dt)
    JS = _dense_jacobian(p, J) @ S_u
    Q = block_diag(*p.references.precisions)
    H = JS.T @ Q @ JS
    H[np.diag_indices_from(H)] += p.control_weight
    return cho_solve(cho_factor(H), -JS.T @ (Q @ f) - p.control_weight * u)


def _two_rows():
    """References at timesteps 2 (Cartesian) and 8 (polar)."""
    return _references({2: _reference_at(np.array([0.3, 0.4, 0.5]),
                                         CARTESIAN_2D),
                        8: _reference_at(np.array([0.5, 0.4, 0.3]),
                                         POLAR_2D)})


def _bad_means(chart, edit):
    """An edit of references that applies edit to a copy of chart's means."""
    def apply(refs):
        means = dict(refs.means)
        means[chart] = edit(means[chart].copy())
        return refs._replace(means=means)
    return apply


def _unit_s1_off(M):
    M[:, -2:] *= 1.0 + 1e-8     # the heading block, 1e-8 off the unit circle
    return M


NO_ACTIVE_ROW = "a row at or after activation_start"


# (edit of _two_rows(), expected message): unsorted, repeated, past the
# horizon, negative and float timesteps; precisions 2 x 2, NaN, negative
# definite, not symmetric, and negative definite beside a far larger
# precision; means too narrow, with extra rows, off the unit
# circle and NaN; a 3D chart, a chart count short, a means block missing; no
# rows at all
BAD_REFERENCES = [
    (lambda r: r._replace(ts=np.array([8, 2])), "ts increasing integers"),
    (lambda r: r._replace(ts=np.array([2, 2])), "ts increasing integers"),
    (lambda r: r._replace(ts=np.array([2, 10])), r"in \[0, 10\)"),
    (lambda r: r._replace(ts=np.array([-1, 8])), r"in \[0, 10\)"),
    (lambda r: r._replace(ts=np.array([2.0, 8.0])), "integers"),
    (lambda r: r._replace(precisions=r.precisions[:, :2, :2]), "3 x 3"),
    (lambda r: r._replace(precisions=np.where(np.eye(3), np.nan, 0.0)
                          * np.ones((2, 1, 1))), "finite 3 x 3 precisions"),
    (lambda r: r._replace(precisions=-np.ones((2, 1, 1)) * np.eye(3)),
     "symmetric positive semidefinite precisions"),
    (lambda r: r._replace(precisions=r.precisions + np.triu(np.ones(3), 1)),
     "symmetric positive semidefinite precisions"),
    (lambda r: r._replace(precisions=np.array([1e6, -1e-4])[:, None, None]
                          * np.eye(3)),
     "symmetric positive semidefinite precisions"),
    (_bad_means(POLAR_2D, lambda M: M[:, :4]), "finite rows of 5"),
    (_bad_means(CARTESIAN_2D, lambda M: np.vstack([M, M])),
     "1 means of cartesian-2d"),
    (_bad_means(POLAR_2D, _unit_s1_off), "unit sphere blocks"),
    (_bad_means(CARTESIAN_2D, lambda M: M * np.nan), "finite rows"),
    (lambda r: r._replace(charts=[CARTESIAN_3D, POLAR_2D],
                          means={CARTESIAN_3D: np.zeros((1, 7)),
                                 POLAR_2D: r.means[POLAR_2D]}), "2D chart"),
    (lambda r: r._replace(charts=[POLAR_2D]), "one 2D chart per row"),
    (lambda r: r._replace(means={POLAR_2D: r.means[POLAR_2D]}),
     "one means block per chart"),
    (lambda r: References(np.zeros(0, int), [], {}, np.zeros((0, 3, 3))),
     NO_ACTIVE_ROW),
]


def test_problem_validation():
    PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, _two_rows())
    for edit, match in BAD_REFERENCES:
        with pytest.raises(ValueError, match=match):
            PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, edit(_two_rows()))


def test_problem_accepts_semidefinite_and_rounded_precisions():
    # zero and rank-one precisions are semidefinite; an asymmetry or a
    # negative eigenvalue at the level of rounding is not a fault
    v = np.array([0.3, -1.0, 2.0])
    A = RNG.standard_normal((3, 3))
    rounded = A @ A.T + 1e-15 * np.abs(A @ A.T).max() * np.triu(np.ones(3), 1)
    for precision in (np.zeros((3, 3)), np.outer(v, v), rounded,
                      np.outer(v, v) - 1e-16 * np.eye(3)):
        refs = _two_rows()._replace(precisions=np.stack([precision,
                                                         np.eye(3)]))
        PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, refs)


def test_step_rejects_what_the_band_solver_cannot_take():
    p = _viapoint_problem(POLAR_2D)
    u = 0.05 * RNG.standard_normal(3 * p.horizon)
    f, J, _ = residuals_and_jacobian(p, u)
    for bad_f, bad_J in ((np.where(f == f[0], np.nan, f), J),
                         (f, np.where(J == J[0, 0], np.nan, J))):
        with pytest.raises(ValueError, match="infs or NaNs"):
            gauss_newton_step(p, u, bad_f, bad_J)
    # a checked problem is frozen, so only a deliberate bypass replaces its
    # references
    with pytest.raises(FrozenInstanceError):
        p.references = p.references
    # a negative definite precision, past the problem's checks, leaves a
    # normal matrix that is not positive definite, down to the smallest
    # band: the one block of a two-step plan
    small = _viapoint_problem(POLAR_2D, T=2)
    for p, u in ((p, u), (small, np.full(6, 0.05))):
        f, J, _ = residuals_and_jacobian(p, u)
        object.__setattr__(p, "references", p.references._replace(
            precisions=-1e9 * p.references.precisions))
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            gauss_newton_step(p, u, f, J)


@pytest.mark.parametrize("q0", [[1.0, 2.0], [0.0, np.nan, 0.0],
                                [np.inf, 0.0, 0.0], np.zeros((1, 3))],
                         ids=["short", "nan", "inf", "row"])
def test_problem_rejects_bad_initial_state(q0):
    row = _reference_at(np.array([0.3, 0.4, 0.5]), CARTESIAN_2D)
    refs = _references(dict.fromkeys(range(3), row))
    with pytest.raises(ValueError, match="q0 must be 3 finite joint angles"):
        PlanProblem(ARM, q0, 3, 0.1, FRAME, refs)


# (horizon, dt, control_weight, activation_start, the field named); the
# cases with a good activation_start keep the ids of their three numbers
@pytest.mark.parametrize("horizon, dt, control_weight, start, name", [
    *(pytest.param(*case, 0, name, id="-".join(map(str, case)))
      for *case, name in [(0, 0.1, 1e-2, "horizon"), (3, 0.0, 1e-2, "dt"),
                          (3, -0.1, 1e-2, "dt"),
                          (3, 0.1, 0.0, "control_weight"),
                          (3, 0.1, -1e-2, "control_weight"),
                          (3, 0.1, np.nan, "control_weight")]),
    (100.0, 0.1, 1e-2, 0, "horizon"), (True, 0.1, 1e-2, 0, "horizon"),
    (3, np.inf, 1e-2, 0, "dt"), (3, 0.1, np.inf, 0, "control_weight"),
    (3, 0.1, 1e-2, -5, "activation_start"),
    (3, 0.1, 1e-2, 2.5, "activation_start"),
    (3, 0.1, 1e-2, True, "activation_start")])
def test_problem_rejects_bad_planning_numbers(horizon, dt, control_weight,
                                              start, name):
    row = _reference_at(np.array([0.3, 0.4, 0.5]), CARTESIAN_2D)
    refs = _references(dict.fromkeys(range(3), row))
    with pytest.raises(ValueError, match=f"^{name} "):
        PlanProblem(ARM, np.zeros(3), horizon, dt, FRAME, refs,
                    control_weight, start)


def test_activation_window():
    refs = _two_rows()
    for start, active in ((0, [2, 8]), (5, [8]), (8, [8])):
        p = PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, list(refs),
                        activation_start=start)
        kept = [t in active for t in refs.ts]
        assert p.references.ts.tolist() == active
        assert p.references.charts == [c for c, k in zip(refs.charts, kept)
                                       if k]
        np.testing.assert_array_equal(p.references.precisions,
                                      refs.precisions[kept])
        for chart, M in p.references.means.items():
            rows = [k for c, k in zip(refs.charts, kept) if c == chart]
            np.testing.assert_array_equal(M, refs.means[chart][rows])
    with pytest.raises(ValueError, match=NO_ACTIVE_ROW):
        PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, refs,
                    activation_start=9)


def _planar_arrays(p) -> list:
    """The planar pass's per-references arrays of a problem: the conjugated
    means, the S¹ signs, the offsets and the planar_factors."""
    return list(p._planar)


def test_problems_share_the_checked_rows_of_equal_references():
    # the check runs once per distinct content, also for charts equal to but
    # not the same objects as the CHART_IDS entries, and a problem's rows and
    # planar factors are read-only copies that the caller's later edits do
    # not reach
    refs = _two_rows()
    a = PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, refs)
    equal = {c: ChartId(c.space, c.index) for c in refs.means}
    assert all(e == c and e is not c for c, e in equal.items())
    b = PlanProblem(ARM, np.ones(3), 10, 0.01, FRAME, References(
        refs.ts.copy(), [equal[c] for c in refs.charts],
        {equal[c]: M.copy() for c, M in refs.means.items()},
        refs.precisions.copy()))
    assert b.references.precisions is a.references.precisions
    assert len(_planar_arrays(a)) == 7
    for x, y in zip(_planar_arrays(a), _planar_arrays(b), strict=True):
        assert x is y and not x.flags.writeable
    kept = [x.copy() for x in _planar_arrays(a)]
    refs.precisions[:] *= 2.0
    refs.means[POLAR_2D][:, :2] = (0.0, -1.0)   # another unit azimuth
    c = PlanProblem(ARM, np.zeros(3), 10, 0.01, FRAME, refs)
    np.testing.assert_array_equal(c.references.precisions,
                                  2.0 * a.references.precisions)
    assert not all(np.array_equal(x, y) for x, y in zip(
        _planar_arrays(c), kept))
    for x, y in zip(_planar_arrays(a), kept):
        np.testing.assert_array_equal(x, y)
    with pytest.raises(ValueError, match="read-only"):
        a.references.precisions[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        a._planar[5][0] = 0.0


def test_residual_zero_at_reference():
    q0 = np.array([0.3, 0.5, 0.2])
    refs = _references({0: _reference_at(q0, CARTESIAN_2D)})
    p = PlanProblem(ARM, q0, 5, 0.01, FRAME, refs)
    f, J, norms = residuals_and_jacobian(p, np.zeros(15))
    assert np.allclose(f[:3], 0.0, atol=1e-9)
    assert norms[0] < 1e-9


def test_cartesian_residual_is_position_difference():
    q0 = np.array([0.3, 0.5, 0.2])
    target = np.array([0.4, 0.6, 0.1])
    refs = _references({2: _reference_at(target, CARTESIAN_2D)})
    p = PlanProblem(ARM, q0, 3, 0.01, FRAME, refs)
    f, _, _ = residuals_and_jacobian(p, np.zeros(9))
    pose0 = forward_kinematics(ARM, q0)
    pose1 = forward_kinematics(ARM, target)
    assert np.allclose(f[:2], pose0.position - pose1.position, atol=1e-12)


def _mixed_chart_problem(seed, T=30):
    """Viapoints on every third step from T // 3 on, alternating between the
    Cartesian and the polar chart."""
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.2, 0.8, size=3)
    q_goal = q0 + rng.uniform(-0.5, 0.5, size=3)
    refs = _references({t: _reference_at(q_goal + 0.02 * k,
                                         (CARTESIAN_2D, POLAR_2D)[k % 2])
                        for k, t in enumerate(range(T // 3, T, 3))})
    return PlanProblem(ARM, q0, T, 0.1, FRAME, refs, 1e-3)


@pytest.mark.parametrize("chart", [CARTESIAN_2D, POLAR_2D, "mixed"],
                         ids=lambda c: getattr(c, "name", c))
def test_jacobian_vs_finite_differences(chart):
    h = 1e-6
    for seed in range(5):
        p = (_mixed_chart_problem(seed) if chart == "mixed"
             else _viapoint_problem(chart, seed=seed))
        D, T = 3, p.horizon
        _, S_u = batch_dynamics(D, T, p.dt)
        u = 0.1 * np.random.default_rng(seed).standard_normal(D * T)
        f, J, _ = residuals_and_jacobian(p, u)
        Ju = _dense_jacobian(p, J) @ S_u
        num = np.zeros_like(Ju)
        for j in range(D * T):
            e = np.zeros(D * T)
            e[j] = h
            fp, _, _ = residuals_and_jacobian(p, u + e)
            fm, _, _ = residuals_and_jacobian(p, u - e)
            num[:, j] = (fp - fm) / (2 * h)
        rel = np.abs(Ju - num).max() / max(np.abs(num).max(), 1.0)
        assert rel < 1e-4


def _chart_points(chart, frame, P, H):
    """Oracle chart points of planar poses, straight from each chart's
    definition, and the azimuths and radii planar_jacobian takes there (the
    object-frame position and 1 on a Cartesian row), azimuths as N x 2."""
    p, phi = frame.to_object(P), H - frame.angle
    if chart == CARTESIAN_2D:
        X = np.column_stack([p, np.cos(phi), np.sin(phi)])
        return X, p, np.ones(len(p))
    r = np.sqrt((p * p).sum(axis=1))
    if (r < RADIUS_EPS).any():
        raise OriginSingularity("polar radius below RADIUS_EPS")
    a, phi = p / r[:, None], phi - np.arctan2(p[:, 1], p[:, 0])
    return np.column_stack([a, r, np.cos(phi), np.sin(phi)]), a, r


def _generic_pass(p, u):
    """Oracle: the residuals and Jacobian rows of p at u through the chart
    map and the S¹/R log kernels of each chart, or the exception type and
    timestep of the first row whose chart map or log map raises."""
    refs, D = p.references, p.arm.dof
    Q = rollout(p.q0, u.reshape(-1, D), p.dt)[refs.ts]
    P, E, links = link_rows(p.arm, Q)
    H = np.angle(E)
    seen = dict.fromkeys(refs.means, 0)
    for i, (t, chart) in enumerate(zip(refs.ts, refs.charts)):
        mean = refs.means[chart][seen[chart]][None]
        seen[chart] += 1
        try:
            X, _, _ = _chart_points(chart, p.frame, P[i:i + 1], H[i:i + 1])
            log_rows(chart_spec(chart), mean, X)
        except (OriginSingularity, AntipodalPoint) as exc:
            return type(exc), t
    F, J = np.empty((len(Q), 3)), np.empty((len(Q), 3, D))
    for chart, M in refs.means.items():
        rows = np.array([c == chart for c in refs.charts])
        spec = chart_spec(chart)
        # the chart map of all rows at once, as the planar pass runs it,
        # with the other chart's rows moved off the object origin; the
        # chart Jacobian of the joint motions with the point's own S¹ signs
        X, a, r = _chart_points(chart, p.frame,
                                np.where(rows[:, None], P, P + 1.0), H)
        signs = _s1_signs(np.stack([X[:, :2], X[:, -2:]], 1))
        Jc = planar_jacobian(p.frame.world_to_object, levers(links), 1.0,
                             a.view(complex)[:, 0], r, planar_factors(
                                 np.full(len(r), chart == POLAR_2D), signs),
                             np.empty((len(r), 3, D)))
        F[rows] = log_rows(spec, M, X[rows])
        J[rows] = log_jacobian_rows(spec, M, X[rows]) @ Jc[rows]
    return F.ravel(), J.reshape(-1, D)


# edits of one row of a planar case: none; a mean 1e-3 short of the antipode
# of the pose; a polar row 1.5 RADIUS_EPS from the object origin; a Cartesian
# row exactly at it; and the singular and antipodal candidates
PLANAR_EDITS = ["none", "near-antipode", "near-origin", "cartesian-origin",
                "origin", "antipode"]


@st.composite
def _planar_cases(draw):
    """A seed for the arm, frame, states, means and precisions; the arm's
    dof; the chart of each row; an edit and the row it applies to."""
    charts = draw(st.sampled_from(["cartesian", "polar", "mixed"]))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.sampled_from([CARTESIAN_2D, POLAR_2D]),
                         min_size=n, max_size=n))
    rows = {"cartesian": [CARTESIAN_2D] * n, "polar": [POLAR_2D] * n,
            "mixed": rows}[charts]
    return (draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 4)), rows,
            draw(st.sampled_from(PLANAR_EDITS)), draw(st.integers(0, 7)))


def _planar_problem(seed, dof, charts, edit, at):
    """PlanProblem and controls of a planar case: means near the poses the
    controls reach, the edit applied to row at (mod the row count)."""
    rng = np.random.default_rng(seed)
    arm = ArmModel(rng.uniform(0.5, 1.5, dof), rng.uniform(-1, 1, 2),
                   rng.uniform(-np.pi, np.pi))
    n, i = len(charts), at % len(charts)
    T = n + int(rng.integers(0, 4))
    ts = np.sort(rng.choice(T, n, replace=False))
    q0, u = rng.uniform(-np.pi, np.pi, dof), rng.standard_normal(T * dof)
    P, E, _ = link_rows(arm, rollout(q0, u.reshape(T, dof), 0.1)[ts])
    H = np.angle(E)
    translation, angle = rng.uniform(-2, 2, 2), rng.uniform(-np.pi, np.pi)
    if edit in ("near-origin", "cartesian-origin", "origin"):
        charts = list(charts)
        charts[i] = CARTESIAN_2D if edit == "cartesian-origin" else POLAR_2D
        away = 1.5e-6 * rot2(rng.uniform(-np.pi, np.pi))[0] * (
            edit == "near-origin")
        translation = P[i] + away
    frame = Frame2D(translation, angle)
    means = [chart_rows_2d(c, frame, P[j:j + 1] + rng.uniform(-.5, .5, 2),
                           H[j:j + 1] + rng.uniform(-1, 1))[0]
             for j, c in enumerate(charts)]
    if edit in ("near-antipode", "antipode"):
        # the azimuth of a polar row, the heading of a Cartesian one
        x = chart_rows_2d(charts[i], frame, P[i:i + 1], H[i:i + 1])[0]
        block = slice(0, 2) if charts[i] == POLAR_2D else slice(2, 4)
        turn = np.pi - 1e-3 * (edit == "near-antipode")
        means[i][block] = rot2(turn) @ x[block]
    A = rng.standard_normal((n, 3, 3))
    refs = _references({t: (c, m, A[j] @ A[j].T + 0.1 * np.eye(3))
                        for j, (t, c, m) in enumerate(zip(ts, charts, means))})
    return PlanProblem(arm, q0, T, 0.1, frame, refs), u


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_planar_cases())
@example((5, 3, [CARTESIAN_2D, POLAR_2D, POLAR_2D], "near-antipode", 1))
@example((6, 3, [POLAR_2D, CARTESIAN_2D], "near-antipode", 1))
@example((7, 2, [CARTESIAN_2D, POLAR_2D], "near-origin", 0))
@example((8, 3, [POLAR_2D, CARTESIAN_2D, POLAR_2D], "cartesian-origin", 1))
@example((9, 3, [POLAR_2D, POLAR_2D, CARTESIAN_2D], "origin", 1))
@example((10, 4, [CARTESIAN_2D, POLAR_2D, POLAR_2D], "antipode", 2))
@example((11, 3, [CARTESIAN_2D, POLAR_2D], "antipode", 0))
def test_planar_pass_matches_generic_kernels(case):
    p, u = _planar_problem(*case)
    expect = _generic_pass(p, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expect[0], type):
            with pytest.raises(expect[0], match=f"timestep {expect[1]}:"):
                residuals_and_jacobian(p, u)
            assert cost(p, u) == np.inf
            return
        f, J, _ = residuals_and_jacobian(p, u)
    assert case[3] not in ("origin", "antipode")
    assert np.abs(f - expect[0]).max() <= 1e-12
    assert np.array_equal(J, expect[1])


def test_chart_singularity_names_first_timestep():
    # the arm tip sits on the object origin at t = 6, where the polar chart
    # is singular; a reference opposite in azimuth at t = 3 fails earlier
    T, u = 10, 0.5 * np.random.default_rng(3).standard_normal(30)
    states = rollout(np.array([0.3, 0.4, 0.5]), u.reshape(T, 3), 0.1)
    frame = Frame2D(forward_kinematics(ARM, states[6]).position, 0.3)
    rows = {}
    for t in range(2, T):
        pose = forward_kinematics(ARM, states[t] + 0.05)
        rows[t] = (POLAR_2D, to_chart(pose, POLAR_2D, frame).coords,
                   np.eye(3))
    x3 = to_chart(forward_kinematics(ARM, states[3]), POLAR_2D, frame)
    opposite = np.concatenate([-x3.coords[:2], rows[3][1][2:]])
    for t_bad, exc, mean3 in ((6, OriginSingularity, rows[3][1]),
                              (3, AntipodalPoint, opposite)):
        rows[3] = (POLAR_2D, mean3, np.eye(3))
        p = PlanProblem(ARM, states[0], T, 0.1, frame, _references(rows))
        with pytest.raises(exc, match=f"timestep {t_bad}:"):
            residuals_and_jacobian(p, u)
        assert cost(p, u) == np.inf
    # from zero controls every state is the one with the tip on the origin
    with pytest.raises(OriginSingularity, match="timestep 2:"):
        solve(PlanProblem(ARM, states[6], T, 0.1, frame, _references(rows)))


def test_step_zero_at_stationary_point():
    q0 = np.array([0.3, 0.5, 0.2])
    refs = _references({0: _reference_at(q0, CARTESIAN_2D)})
    p = PlanProblem(ARM, q0, 5, 0.01, FRAME, refs, control_weight=1e-2)
    u = np.zeros(15)
    f, J, _ = residuals_and_jacobian(p, u)
    f[:] = 0.0
    du = gauss_newton_step(p, u, f, J)
    assert np.allclose(du, 0.0, atol=1e-12)


def test_step_scale_invariance():
    p = _viapoint_problem(CARTESIAN_2D)
    u = 0.05 * RNG.standard_normal(3 * p.horizon)
    f, J, _ = residuals_and_jacobian(p, u)
    du1 = gauss_newton_step(p, u, f, J)
    refs = p.references._replace(precisions=7.0 * p.references.precisions)
    scaled = PlanProblem(ARM, p.q0, p.horizon, p.dt, FRAME, refs,
                         7.0 * p.control_weight)
    du2 = gauss_newton_step(scaled, u, f, J)
    assert np.allclose(du1, du2, atol=1e-9)


FAR_FRAME = Frame2D(np.array([4.0, 1.0]), 0.3)   # beyond the arm's reach


@st.composite
def _step_cases(draw):
    """Horizon, active mask, activation start, dt, log10 control weight,
    chart per timestep and a seed for the poses, iterate and precisions."""
    T = draw(st.integers(1, 40))
    active = draw(st.lists(st.booleans(), min_size=T, max_size=T).filter(any))
    start = draw(st.integers(0, max(np.flatnonzero(active))))
    charts = draw(st.lists(st.sampled_from([CARTESIAN_2D, POLAR_2D]),
                           min_size=T, max_size=T))
    return (T, active, start, draw(st.floats(0.02, 0.2)),
            draw(st.floats(-3.0, 0.0)), charts, draw(st.integers(0, 2 ** 16)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_step_cases())
@example((1, [True], 0, 0.1, -2.0, [POLAR_2D], 0))
@example((2, [True, True], 0, 0.05, -1.0, [CARTESIAN_2D, POLAR_2D], 1))
@example((7, [True, False, False, True, False, True, False], 0, 0.1, -2.0,
          [POLAR_2D] * 7, 2))                   # a t = 0 row, then a gap
@example((5, [False] * 4 + [True], 0, 0.05, -1.0, [CARTESIAN_2D] * 5, 3))
def test_banded_step_matches_dense_oracle(case):
    T, active, start, dt, log_r, charts, seed = case
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.2, 0.8, size=3)
    u = 0.3 * rng.standard_normal(3 * T)
    states = rollout(q0, u.reshape(T, 3), dt)
    rows = {}
    for t in np.flatnonzero(active):
        pose = forward_kinematics(ARM, states[t] + 0.1 * rng.standard_normal(3))
        A = rng.standard_normal((3, 3))
        mean = to_chart(pose, charts[t], FAR_FRAME).coords
        rows[t] = (charts[t], mean, 10.0 * (A @ A.T + 0.1 * np.eye(3)))
    p = PlanProblem(ARM, q0, T, dt, FAR_FRAME, _references(rows),
                    10.0 ** log_r, start)
    f, J, _ = residuals_and_jacobian(p, u)
    du, oracle = gauss_newton_step(p, u, f, J), _dense_step(p, u, f, J)
    assert np.abs(du - oracle).max() <= 1e-9 * np.abs(oracle).max()


def _off_segments(p, U):
    """How far the controls U (T x D) are from constant on each segment and
    zero from the last active timestep on, over their largest entry."""
    ts = p.references.ts
    spread = [np.abs(U[a:b] - U[a]).max()
              for a, b in zip(np.r_[0, ts[:-1]], ts) if b > a]
    return max(spread + [np.abs(U[ts[-1]:]).max()]) / np.abs(U).max()


def _task_problem(kind):
    """The problem of the first evaluate trial of kind at seed 0, with the
    optimal strategy: stepwise viapoints on grasp2d, dense on boxopen2d."""
    spec = default_spec(kind, seed=0)
    demos, _, model = fit_task_model(spec)
    q0 = sample_initial_states(demos, DEFAULT_ARM, 1,
                               np.random.default_rng(spec.seed + 1))[0]
    refs = build_references(model, "optimal", spec.horizon, ACTIVATION_START,
                            plan_mode(kind))
    return PlanProblem(DEFAULT_ARM, q0, spec.horizon, spec.dt,
                       spec.object_frame, refs, CONTROL_WEIGHT,
                       ACTIVATION_START)


@pytest.mark.parametrize("kind", ["grasp2d", "boxopen2d"])
def test_solve_controls_are_constant_on_each_segment(kind):
    # the least-effort controls between two active timesteps are constant
    p = _task_problem(kind)
    assert _off_segments(p, solve(p).trajectory.controls) <= 1e-12


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_step_cases())
def test_solve_controls_are_constant_on_segments_of_any_mask(case):
    T, active, start, dt, log_r, charts, seed = case
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.2, 0.8, size=3)
    rows = {}
    for t in np.flatnonzero(active):
        pose = forward_kinematics(ARM, q0 + 0.5 * rng.standard_normal(3))
        rows[t] = (charts[t], to_chart(pose, charts[t], FAR_FRAME).coords,
                   10.0 * np.eye(3))
    p = PlanProblem(ARM, q0, T, dt, FAR_FRAME, _references(rows),
                    10.0 ** log_r, start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LineSearchFailed)
        U = solve(p).trajectory.controls
    assert not U.any() or _off_segments(p, U) <= 1e-12


@pytest.fixture
def empty_slot(monkeypatch):
    """solve's last result emptied, so that every solve of the test runs."""
    monkeypatch.setattr(planner, "_last_solve", (None, None))


def test_step_band_has_a_block_per_active_row_past_t0(monkeypatch, empty_slot):
    # dpbsv gets a (D + 1) x D·m band, m the active rows at t > 0
    shapes, dpbsv = [], planner.banded_solver()

    def spy(ab, b, *args, **kwargs):
        shapes.append(ab.shape)
        return dpbsv(ab, b, *args, **kwargs)

    monkeypatch.setattr(planner, "banded_solver", lambda: spy)
    q0 = np.array([0.3, 0.5, 0.2])
    rows = {t: _reference_at(q0 + 0.05 * t, POLAR_2D) for t in (0, 4, 9)}
    for p, m in ((_viapoint_problem(POLAR_2D), 2),
                 (_mixed_chart_problem(1), 7),
                 (PlanProblem(ARM, q0, 12, 0.1, FRAME, _references(rows)), 2),
                 (_task_problem("grasp2d"), 3)):
        shapes.clear()
        result = solve(p)
        u = result.trajectory.controls.ravel()
        gauss_newton_step(p, u, *residuals_and_jacobian(p, u)[:2])
        assert shapes == [(4, 3 * m)] * (result.iterations + 1)


FLAPACK = "scipy.linalg._flapack"


@pytest.fixture
def unloaded_solver(monkeypatch):
    """banded_solver's cache emptied and scipy's _flapack module out of
    sys.modules for the test; both come back after it."""
    monkeypatch.delitem(sys.modules, FLAPACK)
    planner.banded_solver.cache_clear()
    yield
    planner.banded_solver.cache_clear()


def _assert_falls_back_to_scipy_linalg():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert planner.banded_solver() is lapack.dpbsv
    assert caught == []
    assert FLAPACK not in sys.modules


@pytest.mark.parametrize("copies", [0, 2], ids=["no-file", "two-files"])
def test_banded_solver_needs_exactly_one_extension_file(copies, monkeypatch,
                                                        unloaded_solver,
                                                        tmp_path):
    # each copy is the real extension, so loading either one would work
    (tmp_path / "linalg").mkdir()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES[:copies]:
        os.symlink(lapack._flapack.__file__,
                   tmp_path / "linalg" / f"_flapack{suffix}")
    fake = importlib.machinery.ModuleSpec(
        "scipy", None, origin=str(tmp_path / "__init__.py"))
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        fake if name == "scipy" else find_spec(name, *args)))
    _assert_falls_back_to_scipy_linalg()


@pytest.mark.parametrize("error", [ImportError, OSError])
def test_banded_solver_falls_back_when_the_extension_fails_to_load(
        error, monkeypatch, unloaded_solver):
    def create_module(self, spec):
        raise error(f"cannot load {spec.name}")

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader,
                        "create_module", create_module)
    _assert_falls_back_to_scipy_linalg()


def test_both_solver_loads_solve_bands_bit_for_bit(monkeypatch, empty_slot,
                                                   tmp_path):
    # a band of a real boxopen2d solve with 60 active rows past t = 0, and
    # that band with a negative pivot; the extension loaded on its own runs
    # in a fresh interpreter, as this one has imported scipy.linalg
    bands, dpbsv = [], planner.banded_solver()

    def spy(ab, b, *args):
        bands.append((ab.copy(), b.copy()))
        return dpbsv(ab, b, *args)

    monkeypatch.setattr(planner, "banded_solver", lambda: spy)
    p = _task_problem("boxopen2d")
    solve(PlanProblem(p.arm, p.q0, p.horizon, p.dt, p.frame, p.references,
                      p.control_weight, p.horizon - 60))
    ab, b = bands[0]
    assert ab.shape == (4, 3 * 60)
    bad = ab.copy()
    bad[0, 100] = -1.0
    np.savez(tmp_path / "bands.npz", ab=ab, bad=bad, b=b)
    code = ("import sys\n"
            "import numpy as np\n"
            "from geoilqr.planner import banded_solver\n"
            "dpbsv = banded_solver()\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            f"assert {FLAPACK!r} in sys.modules\n"
            f"d = np.load({str(tmp_path / 'bands.npz')!r})\n"
            "x, info = dpbsv(d['ab'], d['b'], 1, 4, 1, 1)[1:]\n"
            "y, bad_info = dpbsv(d['bad'], d['b'], 1, 4, 1, 1)[1:]\n"
            f"np.savez({str(tmp_path / 'out.npz')!r}, x=x, info=info, y=y, "
            "bad_info=bad_info)")
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(
        os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            geoilqr.__file__))))
    out = np.load(tmp_path / "out.npz")
    _, x, info = lapack.dpbsv(ab.copy(), b.copy(), 1, 4, 1, 1)
    _, y, bad_info = lapack.dpbsv(bad.copy(), b.copy(), 1, 4, 1, 1)
    assert info == out["info"] == 0 and np.array_equal(x, out["x"])
    assert bad_info == out["bad_info"] > 0 and np.array_equal(y, out["y"])


def test_forward_passes_count_every_candidate(monkeypatch, empty_slot):
    # the initial pass and every line-search candidate, rejected ones too
    passes, forward = [], planner._forward

    def spy(*args):
        passes.append(args)
        return forward(*args)

    monkeypatch.setattr(planner, "_forward", spy)
    for p in (_viapoint_problem(POLAR_2D, seed=3),
              _viapoint_problem(CARTESIAN_2D, seed=9)):
        passes.clear()
        result = solve(p)
        assert result.forward_passes == len(passes) >= len(
            result.cost_history)
        assert result_to_dict(result)["forward_passes"] == len(passes)
    # the Cartesian plan rejects candidates that raise its cost
    assert len(passes) > len(result.cost_history)


def test_solver_converges_and_descends():
    for chart in (CARTESIAN_2D, POLAR_2D):
        p = _viapoint_problem(chart, seed=7)
        result = solve(p)
        assert result.converged
        diffs = np.diff(result.cost_history)
        assert np.all(diffs <= 0.0)
        assert result.cost_history[-1] < result.cost_history[0]


def test_solver_immediate_convergence_at_solution():
    q0 = np.array([0.3, 0.5, 0.2])
    refs = _references({0: _reference_at(q0, CARTESIAN_2D)})
    p = PlanProblem(ARM, q0, 5, 0.01, FRAME, refs, control_weight=1e-2)
    result = solve(p)
    assert result.converged and result.iterations <= 1
    assert np.allclose(result.trajectory.controls, 0.0, atol=1e-9)


def test_one_step_horizon_solves():
    # a one-step plan has no state to move: its only step zeroes u_1
    q0 = np.array([0.3, 0.5, 0.2])
    for chart in (CARTESIAN_2D, POLAR_2D):
        refs = _references({0: _reference_at(q0 + 0.1, chart)})
        p = PlanProblem(ARM, q0, 1, 0.1, FRAME, refs)
        assert np.array_equal(gauss_newton_step(p, np.ones(3), *(
            residuals_and_jacobian(p, np.ones(3))[:2])), -np.ones(3))
        result = solve(p)
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.trajectory.controls, np.zeros((1, 3)))


def test_quadratic_problem_one_step_optimum():
    # with only final-position rows the residual is nonlinear through the
    # arm, so instead verify a second Gauss-Newton step after convergence
    # on a fine tolerance is negligible
    p = _viapoint_problem(CARTESIAN_2D, seed=1)
    result = solve(p)
    u = result.trajectory.controls.ravel()
    f, J, _ = residuals_and_jacobian(p, u)
    du = gauss_newton_step(p, u, f, J)
    assert np.linalg.norm(du) < 1e-6


def test_solve_linearizes_each_iterate_as_residuals_and_jacobian(monkeypatch,
                                                                 empty_slot):
    # solve linearizes an accepted iterate from the line search's forward
    # pass; that must equal a fresh evaluation at the controls the iterate's
    # increments stand for
    steps, step = [], planner._step

    def spy(problem, E, JF):
        steps.append((planner._controls(problem, E).ravel(),
                      JF[..., -1].ravel(),
                      JF[..., :-1].reshape(-1, problem.arm.dof)))
        return step(problem, E, JF)

    monkeypatch.setattr(planner, "_step", spy)
    for p in (_viapoint_problem(POLAR_2D, seed=3), _mixed_chart_problem(2)):
        steps.clear()
        result = solve(p)
        assert len(steps) == result.iterations > 2
        for u, f, J in steps:
            f_ref, J_ref, _ = residuals_and_jacobian(p, u)
            assert np.abs(f - f_ref).max() <= 1e-12
            assert np.abs(J - J_ref).max() <= 1e-12
        _, _, norms = residuals_and_jacobian(
            p, result.trajectory.controls.ravel())
        assert result.residual_norms == pytest.approx(norms, rel=1e-12)


MEMO_REFS = _references({15: _reference_at(np.array([0.7, 0.1, 0.4]),
                                           POLAR_2D),
                          29: _reference_at(np.array([0.4, 0.2, 0.9]),
                                            POLAR_2D)})


def _memo_problem(**change):
    """A two-viapoint problem built from fresh arrays, with change applied."""
    ts, charts, means, precisions = MEMO_REFS
    inputs = dict(arm=ArmModel(np.ones(3)), q0=np.array([0.3, 0.5, 0.2]),
                  horizon=30, dt=0.1, frame=Frame2D(np.zeros(2), 0.0),
                  references=References(ts.copy(), list(charts), {
                      c: M.copy() for c, M in means.items()},
                      precisions.copy()), control_weight=1e-3,
                  activation_start=0)
    return PlanProblem(**(inputs | change))


def _spy_forward(monkeypatch) -> list:
    """The arguments of every _forward call from now on."""
    passes, forward = [], planner._forward
    monkeypatch.setattr(planner, "_forward",
                        lambda *args: passes.append(args) or forward(*args))
    return passes


def test_an_equal_problem_gets_the_last_result_again(monkeypatch, empty_slot):
    first = result_to_dict(solve(_memo_problem()))
    passes = _spy_forward(monkeypatch)
    again = solve(_memo_problem())
    assert passes == []
    assert result_to_dict(again) == first
    assert again.forward_passes == first["forward_passes"] > 1


def test_changing_a_result_leaves_the_next_one_unchanged(empty_slot):
    p = _memo_problem()
    results = [solve(p)]
    expected = result_to_dict(results[0])
    for _ in range(2):
        r = results[-1]
        r.trajectory.states[:] = r.trajectory.controls[:] = 0.0
        r.cost_history.append(1.0)
        r.residual_norms.clear()
        results.append(solve(p))
        assert result_to_dict(results[-1]) == expected


def _precision_entry_changed():
    precisions = MEMO_REFS.precisions.copy()
    precisions[1, 2, 2] += 1.0
    return MEMO_REFS._replace(precisions=precisions)


ONE_FIELD_CHANGES = {
    "q0-one-ulp": dict(q0=np.array([np.nextafter(0.3, 1.0), 0.5, 0.2])),
    "dt": dict(dt=0.11),
    "control_weight": dict(control_weight=2e-3),
    "horizon": dict(horizon=31),
    "activation_start": dict(activation_start=1),
    "precision-entry": dict(references=_precision_entry_changed()),
    "frame-translation": dict(frame=Frame2D(np.array([0.0, 1e-3]), 0.0)),
    "frame-angle": dict(frame=Frame2D(np.zeros(2), 1e-3)),
    "link-length": dict(arm=ArmModel(np.array([1.0, 1.0, 1.001]))),
}


@pytest.mark.parametrize("change", ONE_FIELD_CHANGES.values(),
                         ids=ONE_FIELD_CHANGES)
def test_a_one_field_change_is_solved_again(change, monkeypatch, empty_slot):
    solve(_memo_problem())
    passes = _spy_forward(monkeypatch)
    solve(_memo_problem(**change))
    assert passes


def test_a_raising_problem_raises_again(monkeypatch, empty_slot):
    # the end effector at q0 sits on the polar chart's origin
    q0 = np.array([0.3, 0.5, 0.2])
    bad = _memo_problem(frame=Frame2D(forward_kinematics(ARM, q0).position))
    solve(_memo_problem())
    for _ in range(2):
        with pytest.raises(OriginSingularity, match="timestep 15"):
            solve(bad)
    passes = _spy_forward(monkeypatch)
    solve(_memo_problem())      # the raise emptied the slot
    assert passes


def test_a_problem_that_warns_warns_again(monkeypatch, empty_slot):
    # every line-search candidate infeasible: no descent step is found
    p = _memo_problem()
    monkeypatch.setattr(planner, "_candidate", lambda *args: (np.inf, None,
                                                              None))
    results = []
    for _ in range(2):
        with pytest.warns(LineSearchFailed):
            results.append(result_to_dict(solve(p)))
    assert results[0] == results[1]


def test_solution_reaches_viapoints():
    p = _viapoint_problem(POLAR_2D, seed=3)
    result = solve(p)
    assert result.residual_norms[p.horizon - 1] < 0.05


def test_rollout_matches_trajectory():
    p = _viapoint_problem(CARTESIAN_2D, seed=2)
    result = solve(p)
    states = rollout(p.q0, result.trajectory.controls, p.dt)
    assert np.allclose(states, result.trajectory.states, atol=1e-12)


def _result_from_dict(d: dict) -> PlanResult:
    """The PlanResult a trajectory.json dict holds."""
    traj = JointTrajectory(float(d["dt"]), np.array(d["states"]),
                           np.array(d["controls"]))
    return PlanResult(traj, list(d["cost_history"]), bool(d["converged"]),
                      int(d["iterations"]),
                      {int(t): v for t, v in d["residual_norms"].items()})


def test_result_json_round_trip():
    p = _viapoint_problem(CARTESIAN_2D, seed=6)
    result = solve(p)
    back = _result_from_dict(result_to_dict(result))
    assert np.allclose(back.trajectory.states, result.trajectory.states)
    assert np.allclose(back.cost_history, result.cost_history)
    assert back.converged == result.converged
