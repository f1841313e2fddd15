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

from .manifolds import (ManifoldPoint, SpecMismatch, Sphere, exp_rows, leaves,
                        log_map_batch, log_rows)

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
class ManifoldGaussian:
    mean: ManifoldPoint
    covariance: np.ndarray
    det: float
    precision: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.spec.tangent_dim

    @classmethod
    def from_moments(cls, mean: ManifoldPoint,
                     covariance: np.ndarray) -> "ManifoldGaussian":
        """Symmetrize, floor the eigenvalues at EIGVAL_FLOOR and cache det
        and precision."""
        cov = 0.5 * (covariance + covariance.T)
        w, V = np.linalg.eigh(cov)
        w = np.maximum(w, EIGVAL_FLOOR)
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


def _validated(spec, X, w) -> tuple[np.ndarray, np.ndarray]:
    """The rows of X with positive weight and their normalized weights."""
    X, w = np.asarray(X, dtype=float), np.asarray(w, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.ambient_dim or w.shape != X.shape[:1]:
        raise SpecMismatch(f"samples {X.shape} and weights {w.shape} do not "
                           f"fit N x {spec.ambient_dim} points")
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere) and not np.all(  # NaN fails too
                np.abs(np.sqrt(np.vecdot(X[:, asl], X[:, asl])) - 1) <= 1e-9):
            raise ValueError("sphere block norm is not 1 within 1e-9")
    if np.any(w < 0.0):
        raise ValueError("negative sample weight")
    keep = w > 0.0
    if not keep.any():
        raise EmptySample("no sample with positive weight")
    return X[keep], w[keep] / w[keep].sum()


def _mean(spec, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fréchet mean of validated rows by Gauss-Newton iteration."""
    # start from the first sample on its w >= 0 sheet, so that neither the
    # mean nor its covariance basis depends on the samples' quaternion signs
    w_axes = np.zeros(spec.ambient_dim)
    w_axes[[asl.start for _, asl, _ in leaves(spec)]] = 1.0
    mu = quat_sign_align(spec, X[:1], w_axes)
    for _ in range(MEAN_MAX_ITER):
        u = w @ log_rows(spec, mu, quat_sign_align(spec, X, mu[0]))
        mu = exp_rows(spec, mu, u[None])
        if np.linalg.norm(u) < MEAN_TOL:
            return mu[0]
    warnings.warn("geometric mean did not converge", NoConvergence)
    return mu[0]


def geometric_mean(spec, X: np.ndarray, w: np.ndarray) -> ManifoldPoint:
    """Weighted Fréchet mean of the points in the rows of X (N x ambient)
    with weights w (N,); zero weights drop their rows."""
    return ManifoldPoint(spec, _mean(spec, *_validated(spec, X, w)))


def fit_gaussian(spec, X: np.ndarray, w: np.ndarray) -> ManifoldGaussian:
    """Weighted Gaussian of the points in the rows of X (N x ambient) with
    weights w (N,): Fréchet mean + tangent covariance at the mean."""
    X, w = _validated(spec, X, w)
    mu = ManifoldPoint(spec, _mean(spec, X, w))
    U = log_map_batch(mu, quat_sign_align(spec, X, mu.coords))
    cov = (U * w[:, None]).T @ U
    return ManifoldGaussian.from_moments(mu, cov)


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
