"""Gaussians on manifolds: geometric mean, covariance, K-phase fits,
selection."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoilqr import stats
from geoilqr.charts import (CARTESIAN_2D, CHART_IDS, CYLINDRICAL_3D, POLAR_2D,
                            SPHERICAL_3D, CartesianPose, Frame2D, chart_spec,
                            to_chart)
from geoilqr.manifolds import (AntipodalPoint, Euclidean, ManifoldPoint,
                               Product, Sphere, exp_rows, leaves,
                               log_map_batch, log_rows, random_point)
from geoilqr.stats import (EIGVAL_FLOOR, MEAN_MAX_ITER, MEAN_TOL, EmptyInput,
                           EmptySample, ManifoldGaussian, NoConvergence,
                           _residuals, fit_gaussian, fit_phases,
                           geometric_mean, quat_sign_align, select_winner)

RNG = np.random.default_rng(2)


def _samples(points, weights=None):
    """(X, w) arrays of points, unit weights by default."""
    if weights is None:
        weights = np.ones(len(points))
    return np.array([p.coords for p in points]), np.asarray(weights)


def _circle(angle):
    return ManifoldPoint(Sphere(1), np.array([np.cos(angle), np.sin(angle)]))


def test_single_sample_mean_is_that_point():
    spec = Product((Sphere(2), Euclidean(1)))
    p = random_point(spec, RNG)
    mu = geometric_mean(spec, *_samples([p]))
    assert np.allclose(mu.coords, p.coords, atol=1e-12)


def test_euclidean_mean_is_weighted_arithmetic_mean():
    spec = Euclidean(3)
    pts = [random_point(spec, RNG) for _ in range(10)]
    w = RNG.uniform(0.1, 1.0, size=10)
    mu = geometric_mean(spec, *_samples(pts, w))
    expect = np.average([p.coords for p in pts], axis=0, weights=w)
    assert np.allclose(mu.coords, expect, atol=1e-12)


def test_circle_symmetric_samples():
    pts = [_circle(np.deg2rad(30)), _circle(np.deg2rad(-30))]
    mu = geometric_mean(Sphere(1), *_samples(pts))
    assert np.allclose(mu.coords, [1.0, 0.0], atol=1e-9)


def test_covariance_of_symmetric_pair():
    spec = Euclidean(1)
    s = 0.7
    pts = [ManifoldPoint(spec, np.array([s])),
           ManifoldPoint(spec, np.array([-s]))]
    g = fit_gaussian(spec, *_samples(pts))
    assert np.isclose(g.covariance[0, 0], s * s, atol=1e-9)
    assert np.isclose(g.det, s * s, rtol=1e-9)


def test_identical_samples_hit_floor():
    spec = Euclidean(2)
    p = ManifoldPoint(spec, np.array([0.3, -0.1]))
    g = fit_gaussian(spec, *_samples([p, p, p]))
    assert np.allclose(g.covariance, EIGVAL_FLOOR * np.eye(2), atol=1e-15)
    assert np.isclose(g.det, EIGVAL_FLOOR ** 2, rtol=1e-9)


def test_gaussian_invariants():
    spec = Product((Sphere(1), Euclidean(2)))
    pts = [random_point(spec, RNG) for _ in range(40)]
    g = fit_gaussian(spec, *_samples(pts))
    assert np.allclose(g.covariance, g.covariance.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(g.covariance)) >= EIGVAL_FLOOR - 1e-12
    assert np.isclose(g.det, np.linalg.det(g.covariance), rtol=1e-9)


def test_euclidean_agreement_with_classical_statistics():
    spec = Euclidean(3)
    X = RNG.standard_normal((50, 3))
    w = RNG.uniform(0.1, 1.0, size=50)
    pts = [ManifoldPoint(spec, x) for x in X]
    g = fit_gaussian(spec, *_samples(pts, w))
    mean = np.average(X, axis=0, weights=w)
    centered = X - mean
    cov = (centered * (w / w.sum())[:, None]).T @ centered
    assert np.allclose(g.mean.coords, mean, atol=1e-10)
    assert np.allclose(g.covariance, cov, atol=1e-10)


def test_polar_samples_on_circle_have_small_radial_variance():
    # points on a fixed-radius circle with wide angular spread: the polar
    # chart isolates the variability in the angular coordinate
    frame = Frame2D(np.zeros(2), 0.0)
    angles = RNG.uniform(-np.deg2rad(40), np.deg2rad(40), size=60)
    radius = 1.0 + 1e-3 * RNG.standard_normal(60)
    poses = [CartesianPose.from_angle(r * np.cos(a), r * np.sin(a), a)
             for r, a in zip(radius, angles)]
    pts = [to_chart(p, POLAR_2D, frame) for p in poses]
    spec = pts[0].spec
    g = fit_gaussian(spec, *_samples(pts))
    var_ang, var_rad = g.covariance[0, 0], g.covariance[1, 1]
    assert var_rad / var_ang < 1e-2


def test_select_winner_paper_style_and_ties():
    g1 = ManifoldGaussian.from_moments(
        ManifoldPoint(Euclidean(1), np.zeros(1)), np.array([[2.0]]))
    g2 = ManifoldGaussian.from_moments(
        ManifoldPoint(Euclidean(1), np.zeros(1)), np.array([[1.0]]))
    assert select_winner({CARTESIAN_2D: g1, POLAR_2D: g2}) == POLAR_2D
    # bare determinants are accepted too
    assert select_winner({CARTESIAN_2D: 3.2e1, POLAR_2D: 3.9e-5}) == POLAR_2D
    # ties break toward the lowest chart index
    assert select_winner({POLAR_2D: 1.0, CARTESIAN_2D: 1.0}) == CARTESIAN_2D
    assert select_winner({POLAR_2D: 1.0}) == POLAR_2D


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_points_off_the_sphere_raise(bad):
    with pytest.raises(ValueError, match="sphere block norm"):
        fit_gaussian(Sphere(1), np.array([[1.0, 0.0], [bad, 0.0]]), np.ones(2))


def test_empty_inputs_raise():
    with pytest.raises(EmptySample):
        geometric_mean(Euclidean(2), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(EmptySample):
        fit_gaussian(Euclidean(2), np.ones((3, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="negative"):
        fit_gaussian(Euclidean(2), np.ones((3, 2)), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(EmptyInput):
        select_winner({})


def test_quaternion_sign_alignment():
    # antipodal quaternion representations of the same rotation must not
    # inflate the covariance
    spec = Sphere(3)
    q = RNG.standard_normal(4)
    q /= np.linalg.norm(q)
    jitter = 0.01 * RNG.standard_normal((20, 4))
    X = q[None, :] + jitter
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[::2] *= -1.0   # flip half of the signs
    pts = [ManifoldPoint(spec, x) for x in X]
    g = fit_gaussian(spec, *_samples(pts))
    assert np.trace(g.covariance) < 0.01


@pytest.mark.parametrize("chart", [POLAR_2D, CYLINDRICAL_3D, SPHERICAL_3D],
                         ids=str)
def test_phase_kernel_matches_separate_fits(chart):
    # three weightings of 60 rows spread about a base point, some weights 0
    # and half of the quaternion signs flipped, fitted at once and one by one
    spec = chart_spec(chart)
    base = random_point(spec, RNG).coords[None]
    X = exp_rows(spec, base, 0.3 * RNG.standard_normal((60, spec.tangent_dim)))
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere) and leaf.dim == 3:
            X[::2, asl] *= -1.0
    W = RNG.uniform(0.0, 1.0, size=(3, 60)) * (RNG.uniform(size=(3, 60)) > 0.2)
    W /= W.sum(axis=1, keepdims=True)
    M, U, S = fit_phases(spec, X, W)
    for k in range(3):
        g = fit_gaussian(spec, X, W[k])
        np.testing.assert_allclose(M[k], g.mean.coords, rtol=0, atol=1e-12)
        np.testing.assert_allclose(S[k], g.covariance, rtol=0,
                                   atol=1e-12 * np.abs(S[k]).max())
        live = W[k] > 0
        V = log_map_batch(g.mean, quat_sign_align(spec, X, g.mean.coords))
        # U is sample-major: phase x tangent x sample
        np.testing.assert_allclose(U[k][:, live], V[live].T, rtol=0,
                                   atol=1e-12)
        assert np.all(U[k][:, ~live] == 0.0)


def test_zero_weight_antipodal_row_is_ignored():
    # the third row is antipodal to the first phase's mean but has no
    # weight there, so it can neither move that mean nor fail its log map
    X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    W = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    M, U, S = fit_phases(Sphere(1), X, W)
    assert np.array_equal(M, X[1:])
    assert np.all(U == 0.0) and np.all(S == 0.0)
    g = fit_gaussian(Sphere(1), X, W[0])
    assert np.array_equal(g.mean.coords, X[0])


@st.composite
def _pairwise_cases(draw):
    """A product of S1, S2, S3 and Euclidean factors, a seed for its K means,
    N rows and K x N weights, and K and N."""
    factors = st.sampled_from([Sphere(1), Sphere(2), Sphere(3), Euclidean(1),
                               Euclidean(2)])
    return (Product(tuple(draw(st.lists(factors, min_size=1, max_size=4)))),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4)),
            draw(st.integers(2, 12)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_pairwise_cases())
def test_pairwise_residuals_match_row_log_maps(case):
    # means and rows within 0.9 of a base point on each factor, so that no
    # live pair comes near an antipode; half of the quaternions flipped, some
    # weights 0, and row 0, of zero weight, antipodal to mean 0
    spec, seed, K, N = case
    rng = np.random.default_rng(seed)
    base = random_point(spec, rng).coords[None]
    d = spec.tangent_dim
    M = exp_rows(spec, base, rng.uniform(-0.5, 0.5, size=(K, d)))
    X = exp_rows(spec, base, rng.uniform(-0.5, 0.5, size=(N, d)))
    W = rng.uniform(size=(K, N)) * (rng.uniform(size=(K, N)) > 0.3)
    W[:, 0] = 0.0
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere):
            X[0, asl] = -M[0, asl]
            if leaf.dim == 3:
                X[1::2, asl] *= -1.0
    live = W > 0.0
    U = _residuals(spec, X.T, M, live)     # sample-major: K x tangent x N
    for k in range(K):
        V = log_rows(spec, M[k:k + 1],
                     quat_sign_align(spec, X[live[k]], M[k]))
        np.testing.assert_allclose(U[k][:, live[k]], V.T, rtol=0, atol=1e-12)
    assert np.all(np.swapaxes(U, 1, 2)[~live] == 0.0)
    if any(isinstance(leaf, Sphere) and leaf.dim < 3 for leaf in spec.factors):
        live[0, 0] = True  # with weight, the antipodal pair has no log map
        with pytest.raises(AntipodalPoint):
            _residuals(spec, X.T, M, live)


def _joint_means(spec, X, W):
    """The Fréchet means of the rows of X under each row of W by the joint
    iteration: every factor of the product steps until the step of the
    whole product is below MEAN_TOL. The oracle of the per-factor fit."""
    live = W > 0.0
    w_axes = np.zeros(spec.ambient_dim)
    w_axes[[asl.start for _, asl, _ in leaves(spec)]] = 1.0
    M = quat_sign_align(spec, X[np.argmax(live, axis=1)], w_axes)
    for k in range(len(W)):
        for _ in range(MEAN_MAX_ITER):
            rows = quat_sign_align(spec, X[live[k]], M[k])
            u = W[k, live[k]] @ log_rows(spec, M[k:k + 1], rows)
            M[k] = exp_rows(spec, M[k:k + 1], u[None])[0]
            if np.linalg.norm(u) < MEAN_TOL:
                break
    return M


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from(sorted(CHART_IDS, key=str)), st.integers(0, 2**32 - 1),
       st.integers(1, 4), st.integers(2, 40))
def test_factor_means_match_the_joint_iteration(chart, seed, K, N):
    # each factor stops on its own, so its mean may differ from the joint
    # one by steps below MEAN_TOL; a Euclidean factor's mean is W @ X.
    # Some weights are 0 and half of the quaternion signs are flipped.
    spec = chart_spec(chart)
    rng = np.random.default_rng(seed)
    base = random_point(spec, rng).coords[None]
    X = exp_rows(spec, base, 0.4 * rng.standard_normal((N, spec.tangent_dim)))
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere) and leaf.dim == 3:
            X[::2, asl] *= -1.0
    W = rng.uniform(size=(K, N)) * (rng.uniform(size=(K, N)) > 0.3)
    W[np.arange(K), rng.integers(N, size=K)] = 1.0     # one live row at least
    W /= W.sum(axis=1, keepdims=True)
    M = fit_phases(spec, X, W)[0]
    np.testing.assert_allclose(M, _joint_means(spec, X, W), rtol=0, atol=1e-9)
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Euclidean):
            np.testing.assert_allclose(M[:, asl], W @ X[:, asl], rtol=0,
                                       atol=1e-15)


def test_unconverged_mean_names_its_factor_and_phases(monkeypatch):
    # one step cannot settle the S2 means of phases 0 and 2, which start at
    # their first sample; phase 1 has one sample, so its first step is 0
    monkeypatch.setattr(stats, "MEAN_MAX_ITER", 1)
    spec = Product((Euclidean(1), Sphere(2)))
    base = random_point(spec, RNG).coords[None]
    X = exp_rows(spec, base, 0.3 * RNG.standard_normal((6, 3)))
    W = np.array([[1.0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 1, 0]])
    W /= W.sum(axis=1, keepdims=True)
    with pytest.warns(NoConvergence, match=r"factor 1 \(Sphere\(dim=2\)\) "
                                           r"did not converge for phases "
                                           r"\[0, 2\]"):
        fit_phases(spec, X, W)
