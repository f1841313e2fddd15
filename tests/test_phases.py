"""Phase segmentation (time-augmented GMM) and per-chart phase statistics."""
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoilqr.charts import (CARTESIAN_2D, CHART_IDS, POLAR_2D, chart_spec,
                            charts_for)
from geoilqr.io import write_json
from geoilqr.phases import (DegenerateComponent, Demonstration, _log_gauss,
                            build_phase_model, fit_time_gmm,
                            phase_model_from_dict, phase_model_to_dict,
                            phase_weights, phase_weights_at)
from geoilqr.tasks import default_spec, fit_task_model, generate_demos

RNG = np.random.default_rng(5)


def _grasp_demos(seed=0):
    return generate_demos(default_spec("grasp2d", seed=seed))


def test_demonstration_validation():
    demos = _grasp_demos()
    d = demos[0]
    P, O = d.positions, d.orientations
    with pytest.raises(ValueError):
        Demonstration("bad", d.dt, d.times + 1, P, O, d.object_frame)
    with pytest.raises(ValueError):
        Demonstration("bad", d.dt, d.times[:-1], P, O, d.object_frame)
    s = d.phase_variable()
    assert s[0] == 0.0 and s[-1] == 1.0 and np.all(np.diff(s) > 0)


def _bad_frame(X, value, col=0):
    """A copy of X with column col of frame 17 set to value."""
    X = X.copy()
    X[17, col] = value
    return X


@pytest.mark.parametrize("case, message", [
    ("times-nan", "times must be"), ("one-frame", "times must be"),
    ("positions-short", "do not fit 100 frames in 2D"),
    ("positions-3d", "do not fit 100 frames in 2D"),
    ("orientations-3d", "do not fit 100 frames in 2D"),
    ("positions-nan", "position at frame 17 is not finite"),
    ("positions-inf", "position at frame 17 is not finite"),
    ("orientations-nan", "orientation norm nan at frame 17"),
    ("orientations-inf", "orientation norm inf at frame 17"),
    ("orientations-long", "at frame 17 is not 1"),
    ("orientations-zero", "orientation norm 0.0 at frame 17")])
def test_demonstration_rejects_bad_arrays(case, message):
    d = _grasp_demos()[0]
    t, P, O = d.times.astype(float), d.positions, d.orientations
    args = {
        "times-nan": (np.where(t == 17, np.nan, t), P, O),
        "one-frame": (t[:1], P[:1], O[:1]),
        "positions-short": (t, P[:-1], O),
        "positions-3d": (t, np.hstack([P, P[:, :1]]), O),
        "orientations-3d": (t, P, np.hstack([O, O])),
        "positions-nan": (t, _bad_frame(P, np.nan), O),
        "positions-inf": (t, _bad_frame(P, -np.inf, 1), O),
        "orientations-nan": (t, P, _bad_frame(O, np.nan)),
        "orientations-inf": (t, P, _bad_frame(O, np.inf)),
        "orientations-long": (t, P, O * np.where(t < 17, 1.0, 1.001)[:, None]),
        "orientations-zero": (t, P, _bad_frame(_bad_frame(O, 0.0), 0.0, 1)),
    }[case]
    with pytest.raises(ValueError) as err:
        Demonstration("odd", d.dt, *args, d.object_frame)
    assert str(err.value).startswith("demo odd: ")
    assert message in str(err.value)


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_log_gauss_matches_closed_form_density(seed, K, F):
    # the distances go through inverted Cholesky factors; the closed form
    # takes the log-determinant and solves with each covariance itself
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, F))
    means = rng.standard_normal((K, F))
    A = rng.standard_normal((K, F, F))
    covs = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(F)
    expect = np.empty((K, 30))
    for k in range(K):
        Xc = X - means[k]
        maha = np.vecdot(Xc, np.linalg.solve(covs[k], Xc.T).T)
        expect[k] = -0.5 * (F * np.log(2 * np.pi)
                            + np.linalg.slogdet(covs[k])[1] + maha)
    np.testing.assert_allclose(_log_gauss(X.T - means[:, :, None], covs),
                               expect, rtol=1e-12, atol=0)


def test_gmm_single_component_is_pooled_statistics():
    demos = _grasp_demos()
    gmm = fit_time_gmm(demos, 1)
    feats = []
    for demo in demos:
        s = demo.phase_variable()
        for si, position in zip(s, demo.positions):
            feats.append(np.concatenate(
                [[si], demo.object_frame.to_object(position)]))
    feats = np.array(feats)
    assert np.isclose(gmm.priors[0], 1.0)
    assert np.allclose(gmm.means[0], feats.mean(axis=0), atol=1e-8)


def test_gmm_priors_and_time_ordering():
    gmm = fit_time_gmm(_grasp_demos(), 3)
    assert np.isclose(gmm.priors.sum(), 1.0, atol=1e-9)
    assert np.all(np.diff(gmm.means[:, 0]) > 0)
    for k in range(3):
        assert np.min(np.linalg.eigvalsh(gmm.covariances[k])) > 0


def test_gmm_recovers_separated_time_clusters():
    # three well-separated segments of a synthetic trajectory
    from geoilqr.charts import Frame2D
    T = 90
    centers = [np.array([0.0, 0.0]), np.array([3.0, 0.0]),
               np.array([0.0, 3.0])]
    positions = []
    for k in range(3):
        for _ in range(30):
            positions.append(centers[k] + 0.01 * RNG.standard_normal(2))
    demo = Demonstration("clusters", 0.01, np.arange(T), positions,
                         np.tile([1.0, 0.0], (T, 1)),
                         Frame2D(np.zeros(2), 0.0))
    gmm = fit_time_gmm([demo], 3)
    # component time-means near segment centers 1/6, 1/2, 5/6 (within
    # +-5 timesteps of 90)
    expect = np.array([1 / 6, 1 / 2, 5 / 6])
    assert np.all(np.abs(np.sort(gmm.means[:, 0]) - expect) < 5 / 90)


def test_cylindrical_fit_emits_no_degenerate_component():
    # the height is constant on each phase plateau: a flat feature, not a
    # component collapsed onto too few points
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateComponent)
        fit_task_model(default_spec("grasppose3d", seed=0))


def test_phase_weights_properties():
    gmm = fit_time_gmm(_grasp_demos(), 3)
    H = phase_weights(gmm, 100)
    assert H.shape == (100, 3)
    assert np.allclose(H.sum(axis=1), 1.0, atol=1e-9)
    # at each component's time-mean that component dominates
    for k in range(3):
        w = phase_weights_at(gmm, np.array([gmm.means[k, 0]]))[0]
        assert np.argmax(w) == k


def test_phase_weights_single_component_and_symmetry():
    gmm = fit_time_gmm(_grasp_demos(), 1)
    assert np.allclose(phase_weights(gmm, 10), 1.0)
    gmm3 = fit_time_gmm(_grasp_demos(), 3)
    # midpoint between two equal-variance neighbors splits near 50/50
    m0, m1 = gmm3.means[0, 0], gmm3.means[1, 0]
    if np.isclose(gmm3.covariances[0, 0, 0], gmm3.covariances[1, 0, 0],
                  rtol=0.2):
        w = phase_weights_at(gmm3, np.array([(m0 + m1) / 2]))[0]
        assert abs(w[0] - w[1]) < 0.3


def test_phase_model_shapes_and_winners():
    demos = _grasp_demos()
    gmm = fit_time_gmm(demos, 3)
    model = build_phase_model(demos, gmm, charts_for("2d"), horizon=100)
    assert model.weights.shape == (100, 3)
    assert np.allclose(model.weights.sum(axis=1), 1.0, atol=1e-9)
    assert len(model.winners) == 100
    # per-timestep winner matches the determinant ordering of the blends
    for t in range(0, 100, 17):
        dets = {c: np.linalg.det(model.references[c].covariances[t])
                for c in model.charts}
        best = min(dets, key=lambda c: (dets[c], c.index))
        assert model.winners[t] == best


def test_grasp_polar_wins_every_phase():
    demos = _grasp_demos()
    gmm = fit_time_gmm(demos, 3)
    model = build_phase_model(demos, gmm, charts_for("2d"), horizon=100)
    dets = model.phase_dets()
    assert np.all(dets[POLAR_2D] < dets[CARTESIAN_2D])


def test_box_polar_wins_every_phase():
    demos = generate_demos(default_spec("boxopen2d", seed=0))
    gmm = fit_time_gmm(demos, 3)
    model = build_phase_model(demos, gmm, charts_for("2d"), horizon=100)
    dets = model.phase_dets()
    assert np.all(dets[POLAR_2D] < dets[CARTESIAN_2D])


def test_reference_mean_at_dominant_time_matches_phase_mean():
    demos = _grasp_demos()
    gmm = fit_time_gmm(demos, 3)
    model = build_phase_model(demos, gmm, charts_for("2d"), horizon=100)
    from geoilqr.manifolds import ManifoldPoint, geodesic_distance
    H = model.weights
    for k in range(3):
        t = int(np.argmax(H[:, k]))
        if H[t, k] < 0.999:
            continue
        # with an overwhelming weight the blend stays close to the phase
        # Gaussian (time regression shifts it along the phase's own trend)
        ref = ManifoldPoint(chart_spec(POLAR_2D),
                            model.references[POLAR_2D].means[t])
        d = geodesic_distance(ref, model.phases[k][POLAR_2D].mean)
        assert d < 0.5


@pytest.mark.parametrize("case", ["grasp2d", "boxopen2d",
                                  "grasppose3d-cylindrical",
                                  "grasppose3d-spherical"])
def test_phase_model_json_round_trip(case, tmp_path):
    # model.json holds the fitted parameters, and the loader derives the rest
    # from them as the fit does, so nothing moves by a bit; the loader
    # derives the references before it returns, the fitted model on first use
    model = _model(_task_demos(case))
    path = str(tmp_path / "model.json")
    write_json(path, phase_model_to_dict(model))
    with open(path) as fh:
        back = phase_model_from_dict(json.load(fh))
    assert "references" in vars(back) and "references" not in vars(model)
    assert back.charts == model.charts and back.horizon == model.horizon
    assert back.winners == model.winners
    # one object per chart, as the fit gives, so that a per-row lookup keyed
    # by charts matches by identity
    assert all(CHART_IDS[c] is c for c in back.charts + back.winners)
    _assert_same_arrays(back, model)


def test_build_phase_model_leaves_the_references_underived():
    # a fit never reads the per-timestep references, so it does not derive
    # them; the first read does, once
    model = _model(_task_demos("grasppose3d-spherical"))
    assert "references" not in vars(model) and "winners" not in vars(model)
    assert model.references is model.references
    assert "references" in vars(model)


def _assert_same_arrays(a, b):
    """Every stored and derived array of the models a and b is equal."""
    def arrays(model):
        out = {name: getattr(model, name) for name in (
            "priors", "time_means", "time_variances", "m_s", "c_ss",
            "weights")}
        for c in model.charts:
            out |= {f"{c} {key}": v
                    for key, v in model.fits[c]._asdict().items()}
            out |= {f"{c} reference {key}": v
                    for key, v in model.references[c]._asdict().items()}
            for k, p in enumerate(model.phases):
                out |= {f"{c} phase {k} mean": p[c].mean.coords,
                        f"{c} phase {k} covariance": p[c].covariance,
                        f"{c} phase {k} det": p[c].det}
        return out

    x, y = arrays(a), arrays(b)
    assert x.keys() == y.keys() and len(a.phases) == len(b.phases)
    for name in x:
        assert np.array_equal(x[name], y[name]), name


@pytest.mark.parametrize("symmetry", ["cylindrical", "spherical"])
def test_quaternion_sign_flips_leave_model_unchanged(symmetry):
    # q and -q are the same rotation, so negating half of the demonstrated
    # quaternions must not move any statistic of the phase model: the fit
    # flips a reflected row exactly where it would flip the quaternion
    demos = generate_demos(default_spec("grasppose3d", seed=0,
                                        symmetry=symmetry))
    sign = np.where(np.arange(100) % 2, -1.0, 1.0)[:, None]
    flipped = [Demonstration(d.id, d.dt, d.times, d.positions,
                             sign * d.orientations, d.object_frame)
               for d in demos]
    a, b = [build_phase_model(ds, fit_time_gmm(ds, 3), charts_for("3d"),
                              horizon=100) for ds in (demos, flipped)]
    assert b.winners == a.winners
    _assert_same_arrays(b, a)


def _task_demos(case):
    kind, _, symmetry = case.partition("-")
    extra = {"symmetry": symmetry} if symmetry else {}
    return generate_demos(default_spec(kind, seed=0, **extra))


def _model(demos):
    space = "2d" if demos[0].positions.shape[1] == 2 else "3d"
    return build_phase_model(demos, fit_time_gmm(demos, 3), charts_for(space),
                             horizon=100)


def _assert_same_model(a, b, rtol):
    """Same winners, and phase dets and reference covariances within rtol
    of the largest entry."""
    assert b.winners == a.winners
    for c in a.charts:
        for x, y in ((a.phase_dets()[c], b.phase_dets()[c]),
                     (a.references[c].covariances,
                      b.references[c].covariances)):
            np.testing.assert_allclose(y, x, rtol=0,
                                       atol=rtol * np.abs(x).max())


CASES = ["grasp2d", "grasppose3d-cylindrical", "grasppose3d-spherical"]


@pytest.mark.parametrize("case", CASES)
def test_rigid_motion_leaves_model_unchanged(case):
    # moving the object and the demonstrations together changes no
    # object-frame coordinate, so no statistic of the model may move
    from geoilqr.charts import Frame2D, Frame3D, quat_mul, rot2
    demos = _task_demos(case)
    f = demos[0].object_frame
    if isinstance(f, Frame2D):
        motion = Frame2D(np.array([0.3, -1.2]), 0.8)
        frame = Frame2D(motion.to_world(f.translation), f.angle + motion.angle)
        turned = [d.orientations @ rot2(motion.angle).T for d in demos]
    else:
        motion = Frame3D(np.array([0.3, -1.2, 0.5]),
                         np.array([0.6, -0.2, 0.7, 0.3]))
        frame = Frame3D(motion.to_world(f.translation),
                        quat_mul(motion.quaternion, f.quaternion))
        turned = [quat_mul(motion.quaternion, d.orientations) for d in demos]
    moved = [Demonstration(d.id, d.dt, d.times, motion.to_world(d.positions),
                           O, frame) for d, O in zip(demos, turned)]
    _assert_same_model(_model(demos), _model(moved), 1e-9)


@pytest.mark.parametrize("case", CASES)
def test_demo_order_leaves_model_unchanged(case):
    # EM stops at a log-likelihood change of GMM_TOL, and the time-quantile
    # initialization splits tied timestamps by demo order, so the statistics
    # agree to the EM tolerance rather than to rounding
    demos = _task_demos(case)
    shuffled = [demos[i] for i in np.random.default_rng(3).permutation(
        len(demos))]
    _assert_same_model(_model(demos), _model(shuffled), 1e-6)
