"""Phase segmentation (time-augmented GMM) and per-chart phase statistics."""
import numpy as np
import pytest

from geoilqr.charts import CARTESIAN_2D, POLAR_2D, charts_for
from geoilqr.phases import (Demonstration, build_phase_model, fit_time_gmm,
                            phase_model_from_dict, phase_model_to_dict,
                            phase_weights, phase_weights_at)
from geoilqr.tasks import default_spec, generate_demos

RNG = np.random.default_rng(5)


def _grasp_demos(seed=0):
    return generate_demos(default_spec("grasp2d", seed=seed))


def test_demonstration_validation():
    demos = _grasp_demos()
    d = demos[0]
    with pytest.raises(ValueError):
        Demonstration("bad", d.dt, d.times + 1, d.poses, d.object_frame)
    with pytest.raises(ValueError):
        Demonstration("bad", d.dt, d.times[:-1], d.poses, d.object_frame)
    s = d.phase_variable()
    assert s[0] == 0.0 and s[-1] == 1.0 and np.all(np.diff(s) > 0)


def test_gmm_single_component_is_pooled_statistics():
    demos = _grasp_demos()
    gmm = fit_time_gmm(demos, 1)
    feats = []
    for demo in demos:
        s = demo.phase_variable()
        for si, pose in zip(s, demo.poses):
            feats.append(np.concatenate(
                [[si], demo.object_frame.to_object(pose.position)]))
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
    from geoilqr.charts import CartesianPose, Frame2D
    T = 90
    centers = [np.array([0.0, 0.0]), np.array([3.0, 0.0]),
               np.array([0.0, 3.0])]
    poses = []
    for k in range(3):
        for _ in range(30):
            p = centers[k] + 0.01 * RNG.standard_normal(2)
            poses.append(CartesianPose.from_angle(p[0], p[1], 0.0))
    demo = Demonstration("clusters", 0.01, np.arange(T), poses,
                         Frame2D(np.zeros(2), 0.0))
    gmm = fit_time_gmm([demo], 3)
    # component time-means near segment centers 1/6, 1/2, 5/6 (within
    # +-5 timesteps of 90)
    expect = np.array([1 / 6, 1 / 2, 5 / 6])
    assert np.all(np.abs(np.sort(gmm.means[:, 0]) - expect) < 5 / 90)


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
        dets = {c: model.references[c].dets[t] for c in model.charts}
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
    from geoilqr.manifolds import geodesic_distance
    H = model.weights
    for k in range(3):
        t = int(np.argmax(H[:, k]))
        if H[t, k] < 0.999:
            continue
        # with an overwhelming weight the blend stays close to the phase
        # Gaussian (time regression shifts it along the phase's own trend)
        ref = model.references[POLAR_2D].means[t]
        d = geodesic_distance(ref, model.phases[k][POLAR_2D].mean)
        assert d < 0.5


def test_phase_model_json_round_trip():
    demos = _grasp_demos()
    gmm = fit_time_gmm(demos, 3)
    model = build_phase_model(demos, gmm, charts_for("2d"), horizon=50)
    back = phase_model_from_dict(phase_model_to_dict(model))
    assert back.charts == model.charts
    assert np.allclose(back.weights, model.weights)
    assert back.winners == model.winners
    for c in model.charts:
        for k in range(3):
            assert np.allclose(back.phases[k][c].covariance,
                               model.phases[k][c].covariance)
        for t in (0, 25, 49):
            assert np.allclose(back.references[c].means[t].coords,
                               model.references[c].means[t].coords)
            assert np.allclose(back.references[c].precisions[t],
                               model.references[c].precisions[t])


def test_quaternion_sign_flips_leave_model_unchanged():
    # q and -q are the same rotation, so negating half of the demonstrated
    # quaternions must not move any statistic of the phase model
    from geoilqr.charts import CartesianPose
    demos = generate_demos(default_spec("grasppose3d", seed=0,
                                        symmetry="spherical"))
    flipped = [Demonstration(d.id, d.dt, d.times,
                             [CartesianPose(p.position, -p.orientation)
                              if i % 2 else p for i, p in enumerate(d.poses)],
                             d.object_frame)
               for d in demos]
    a, b = [build_phase_model(ds, fit_time_gmm(ds, 3), charts_for("3d"),
                              horizon=100) for ds in (demos, flipped)]
    assert b.winners == a.winners
    for c in a.charts:
        np.testing.assert_allclose(b.phase_dets()[c], a.phase_dets()[c],
                                   rtol=1e-9)
        np.testing.assert_allclose(b.references[c].dets, a.references[c].dets,
                                   rtol=1e-9)
        for k in range(3):
            np.testing.assert_allclose(b.phases[k][c].covariance,
                                       a.phases[k][c].covariance, rtol=1e-9)
