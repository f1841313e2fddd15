"""Gaussians on manifolds: geometric mean, covariance, density, selection."""
import numpy as np
import pytest

from geoilqr.charts import CARTESIAN_2D, POLAR_2D, CartesianPose, Frame2D, to_chart
from geoilqr.manifolds import (Euclidean, ManifoldPoint, Product, Sphere,
                               geodesic_distance, random_point)
from geoilqr.stats import (EIGVAL_FLOOR, EmptyInput, EmptySample,
                           ManifoldGaussian, fit_gaussian, geometric_mean,
                           log_density, select_winner)

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


def test_circle_mean_matches_grid_search():
    for _ in range(10):
        angles = RNG.uniform(-1.2, 1.2, size=8)
        w = RNG.uniform(0.2, 1.0, size=8)
        pts = [_circle(a) for a in angles]
        mu = geometric_mean(Sphere(1), *_samples(pts, w))
        grid = np.linspace(-np.pi, np.pi, 200001)
        # wrapped squared geodesic distances at every grid angle
        diffs = np.angle(np.exp(1j * (grid[:, None] - angles[None, :])))
        cost = (w[None, :] * diffs ** 2).sum(axis=1)
        best = grid[np.argmin(cost)]
        assert geodesic_distance(mu, _circle(best)) < 1e-4


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
    assert np.allclose(g.precision @ g.covariance, np.eye(g.dim), atol=1e-8)


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
    pts = [to_chart(p, POLAR_2D, frame).point() for p in poses]
    spec = pts[0].spec
    g = fit_gaussian(spec, *_samples(pts))
    var_ang, var_rad = g.covariance[0, 0], g.covariance[1, 1]
    assert var_rad / var_ang < 1e-2


def test_log_density_values():
    spec = Euclidean(1)
    g = ManifoldGaussian.from_moments(ManifoldPoint(spec, np.zeros(1)),
                                      np.eye(1))
    at_mean = log_density(g, ManifoldPoint(spec, np.zeros(1)))
    assert np.isclose(at_mean, -0.5 * (np.log(2 * np.pi) + np.log(g.det)))
    one_off = log_density(g, ManifoldPoint(spec, np.ones(1)))
    assert np.isclose(one_off, at_mean - 0.5)


def test_log_density_circle_one_sigma():
    spec = Sphere(1)
    mu = ManifoldPoint(spec, np.array([1.0, 0.0]))
    g = ManifoldGaussian.from_moments(mu, np.array([[0.01]]))
    x = _circle(0.1)
    assert np.isclose(geodesic_distance(mu, x), 0.1)
    assert np.isclose(log_density(g, x), log_density(g, mu) - 0.5)


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
