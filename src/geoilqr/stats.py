"""Gaussian distributions on chart manifolds.

The mean is a Fréchet (geometric) mean computed by Gauss-Newton iteration of
the tangent-space average; the covariance is the weighted second moment of
the log-mapped residuals in the tangent space at the mean. Winner-takes-all
selection between coordinate systems compares covariance determinants.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .manifolds import (ManifoldPoint, Sphere, exp_map, leaves,
                        log_map_batch, TangentVector)

EIGVAL_FLOOR = 1e-8
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 100


class EmptySample(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class NoConvergence(RuntimeWarning):
    """Geometric mean iteration hit the iteration cap; last iterate returned."""


@dataclass(frozen=True)
class WeightedSample:
    point: ManifoldPoint
    weight: float = 1.0


@dataclass(frozen=True)
class ManifoldGaussian:
    mean: ManifoldPoint
    covariance: np.ndarray
    det: float
    precision: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.spec.tangent_dim

    @classmethod
    def from_moments(cls, mean: ManifoldPoint, covariance: np.ndarray,
                     floor: float = EIGVAL_FLOOR) -> "ManifoldGaussian":
        """Symmetrize, floor the eigenvalues and cache det and precision."""
        cov = 0.5 * (covariance + covariance.T)
        w, V = np.linalg.eigh(cov)
        w = np.maximum(w, floor)
        cov = (V * w) @ V.T
        prec = (V / w) @ V.T
        return cls(mean, cov, float(np.prod(w)), prec)


def quat_sign_align(spec, X: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Flip S3 blocks so their dot with the reference block is non-negative.

    Unit quaternions double-cover rotations; statistics must be done on one
    sheet. Only Sphere(3) factors are touched.
    """
    X = X.copy()
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere) and leaf.dim == 3:
            X[:, asl] *= np.where(X[:, asl] @ ref[asl] < 0.0, -1.0, 1.0)[:, None]
    return X


def _prepare(samples: list[WeightedSample], spec):
    if not samples:
        raise EmptySample("no samples")
    X = np.array([s.point.coords for s in samples])
    w = np.array([s.weight for s in samples], dtype=float)
    if np.any(w < 0.0):
        raise ValueError("negative sample weight")
    keep = w > 0.0
    X, w = X[keep], w[keep]
    if X.shape[0] == 0:
        raise EmptySample("no sample with positive weight")
    return X, w / w.sum()


def geometric_mean(samples: list[WeightedSample], spec,
                   tol: float = MEAN_TOL,
                   max_iter: int = MEAN_MAX_ITER) -> ManifoldPoint:
    """Weighted Fréchet mean by Gauss-Newton iteration on the manifold."""
    X, w = _prepare(samples, spec)
    # start from the first sample on its w >= 0 sheet, so that neither the
    # mean nor its covariance basis depends on the samples' quaternion signs
    w_axes = np.zeros(spec.ambient_dim)
    w_axes[[asl.start for _, asl, _ in leaves(spec)]] = 1.0
    mu = ManifoldPoint(spec, quat_sign_align(spec, X[:1], w_axes)[0])
    for _ in range(max_iter):
        u = w @ log_map_batch(mu, quat_sign_align(spec, X, mu.coords))
        mu = exp_map(mu, TangentVector(mu, u))
        if np.linalg.norm(u) < tol:
            return mu
    warnings.warn("geometric mean did not converge", NoConvergence)
    return mu


def fit_gaussian(samples: list[WeightedSample], spec,
                 floor: float = EIGVAL_FLOOR) -> ManifoldGaussian:
    """Weighted Gaussian on the manifold: Fréchet mean + tangent covariance."""
    mu = geometric_mean(samples, spec)
    X, w = _prepare(samples, spec)
    U = log_map_batch(mu, quat_sign_align(spec, X, mu.coords))
    cov = (U * w[:, None]).T @ U
    return ManifoldGaussian.from_moments(mu, cov, floor)


def log_density(g: ManifoldGaussian, x: ManifoldPoint) -> float:
    u = log_map_batch(g.mean, x.coords[None, :])[0]
    d = g.dim
    return float(-0.5 * (d * np.log(2.0 * np.pi) + np.log(g.det)
                         + u @ g.precision @ u))


def select_winner(gaussians_per_chart: dict) -> object:
    """Chart with the smallest covariance determinant; ties go to the lowest
    chart index. Values may be ManifoldGaussian instances or bare determinants.
    """
    if not gaussians_per_chart:
        raise EmptyInput("no charts to select from")
    items = []
    for chart, g in gaussians_per_chart.items():
        det = float(getattr(g, "det", g))
        if not np.isfinite(det) or det <= 0.0:
            raise ValueError(f"non-positive determinant for chart {chart}")
        items.append((det, chart.index, chart))
    items.sort(key=lambda it: (it[0], it[1]))
    return items[0][2]
