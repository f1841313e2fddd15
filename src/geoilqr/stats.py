"""Gaussian distributions on chart manifolds.

The mean is a Fréchet (geometric) mean computed by Gauss-Newton iteration of
the tangent-space average; the covariance is the weighted second moment of
the log-mapped residuals in the tangent space at the mean. fit_phases fits
K weightings (the phases of a chart) of the same rows at once, one product
factor at a time: each factor's means stop at their own tolerance. Its
residual arrays are sample-major (samples on the last axis). Winner-takes-
all selection between coordinate systems compares covariance determinants.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .manifolds import (Euclidean, ManifoldPoint, SpecMismatch, Sphere,
                        _reflect, exp_rows, leaves, on_spheres, sphere_log)

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

    @classmethod
    def from_moments(cls, mean: ManifoldPoint,
                     covariance: np.ndarray) -> "ManifoldGaussian":
        """The floored covariance of floor_eigenvalues, and its determinant."""
        covs, dets = floor_eigenvalues(covariance[None])
        return cls(mean, covs[0], float(dets[0]))


def floor_eigenvalues(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariances C (n x d x d) symmetrized, with their eigenvalues
    floored at EIGVAL_FLOOR, and the determinants (n,) of the results."""
    vals, vecs = np.linalg.eigh(0.5 * (C + np.swapaxes(C, 1, 2)))
    vals = np.maximum(vals, EIGVAL_FLOOR)
    return (vecs * vals[:, None]) @ np.swapaxes(vecs, 1, 2), vals.prod(axis=1)


def chart_winners(dets: dict) -> list:
    """Per entry of the charts' equal-length determinant rows (ChartId ->
    dets), the chart with the smallest; ties go to the lowest chart index."""
    charts = sorted(dets, key=lambda c: c.index)
    return [charts[i] for i in np.argmin([dets[c] for c in charts], axis=0)]


def quat_sign_align(spec, X: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Flip S3 blocks so their dot with the reference block is non-negative.

    Unit quaternions double-cover rotations; statistics must be done on one
    sheet. Only Sphere(3) factors are touched. ref is one row, or one row per
    row of X.
    """
    X = X.copy()
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere) and leaf.dim == 3:
            X[:, asl] *= np.where(np.vecdot(X[:, asl], ref[..., asl]) < 0.0,
                                  -1.0, 1.0)[:, None]
    return X


def _validated(spec, X, w) -> tuple[np.ndarray, np.ndarray]:
    """X as N x ambient points and w as N weights summing to 1."""
    X, w = np.asarray(X, dtype=float), np.asarray(w, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.ambient_dim or w.shape != X.shape[:1]:
        raise SpecMismatch(f"samples {X.shape} and weights {w.shape} do not "
                           f"fit N x {spec.ambient_dim} points")
    if not on_spheres(spec, X):
        raise ValueError("sphere block norm is not 1 within 1e-9")
    if np.any(w < 0.0):
        raise ValueError("negative sample weight")
    if not np.any(w > 0.0):
        raise EmptySample("no sample with positive weight")
    return X, w / w.sum()


def _residuals(spec, XT: np.ndarray, M: np.ndarray,
               live: np.ndarray) -> np.ndarray:
    """Log maps (K x tangent x N) of the sample columns of XT (ambient x N)
    at the mean rows of M (K x ambient), on each mean's quaternion sheet,
    where live (K x N) holds and 0 elsewhere. The arrays are sample-major,
    so numpy's inner loops run along the N samples."""
    U = np.empty((len(M), spec.tangent_dim, XT.shape[1]))
    for leaf, asl, tsl in leaves(spec):
        if isinstance(leaf, Euclidean):
            U[:, tsl] = np.where(live[:, None], XT[asl] - M[:, asl, None],
                                 0.0)
            continue
        # every pair's (m . x, B_m^T x) from one matmul with the means'
        # Householder matrices; R(-x) = -Rx, so the sheet flip of x is a
        # sign flip of its reflected column
        n = leaf.ambient_dim
        Y = _reflect(M[:, None, asl], np.eye(n)) @ XT[asl]
        if leaf.dim == 3:
            np.negative(Y, out=Y, where=Y[:, :1] < 0.0)
        U[:, tsl] = sphere_log(np.where(live[:, None], Y, np.eye(n)[:, :1]),
                               axis=-2)
    return U


def fit_phases(spec, X: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weighted Gaussians of the rows of X (N x ambient), one per row of W
    (K x N, rows summing to 1): the Fréchet means (K x ambient), the
    sample-major residuals at them (K x tangent x N) and the covariances
    (K x tangent x tangent). The Fréchet mean of a product is the product of
    the factor means, since squared distance adds over factors, so each
    factor is fitted on its own: a Euclidean factor's mean is W @ X, and a
    sphere factor's K means iterate, each stopping at its own MEAN_TOL
    step. A row of zero weight takes no part in that fit. One residual pass
    at the final means then gives the covariances, cross-factor terms
    included."""
    live = W > 0.0
    XT = np.ascontiguousarray(X.T)
    # start from the first live sample on its w >= 0 sheet, so that neither
    # the mean nor its covariance basis depends on the samples' quaternion signs
    w_axes = np.zeros(spec.ambient_dim)
    w_axes[[asl.start for _, asl, _ in leaves(spec)]] = 1.0
    M = quat_sign_align(spec, X[np.argmax(live, axis=1)], w_axes)
    for i, (leaf, asl, _) in enumerate(leaves(spec)):
        if isinstance(leaf, Euclidean):
            M[:, asl] = W @ X[:, asl]
            continue
        m, todo = M[:, asl], np.arange(len(W))     # m is a view of M
        for _ in range(MEAN_MAX_ITER):
            U = _residuals(leaf, XT[asl], m[todo], live[todo])
            u = (U @ W[todo, :, None])[..., 0]
            m[todo] = exp_rows(leaf, m[todo], u)
            todo = todo[~(np.linalg.norm(u, axis=1) < MEAN_TOL)]  # NaN goes on
            if not todo.size:
                break
        else:
            warnings.warn(f"geometric mean of factor {i} ({leaf}) did not "
                          f"converge for phases {todo.tolist()}",
                          NoConvergence)
    U = _residuals(spec, XT, M, live)
    return M, U, (U * W[:, None]) @ np.swapaxes(U, 1, 2)


def geometric_mean(spec, X: np.ndarray, w: np.ndarray) -> ManifoldPoint:
    """Weighted Fréchet mean of the points in the rows of X (N x ambient)
    with weights w (N,)."""
    return fit_gaussian(spec, X, w).mean


def fit_gaussian(spec, X: np.ndarray, w: np.ndarray) -> ManifoldGaussian:
    """Weighted Gaussian of the points in the rows of X (N x ambient) with
    weights w (N,): Fréchet mean + tangent covariance at the mean."""
    X, w = _validated(spec, X, w)
    M, _, S = fit_phases(spec, X, w[None])
    return ManifoldGaussian.from_moments(ManifoldPoint(spec, M[0]), S[0])


def select_winner(gaussians_per_chart: dict) -> object:
    """Chart with the smallest covariance determinant; ties go to the lowest
    chart index. Values may be ManifoldGaussian instances or bare determinants.
    """
    if not gaussians_per_chart:
        raise EmptyInput("no charts to select from")
    dets = {c: [float(getattr(g, "det", g))]
            for c, g in gaussians_per_chart.items()}
    if bad := [c for c, (det,) in dets.items() if not 0.0 < det < np.inf]:
        raise ValueError(f"non-positive determinant for chart {bad[0]}")
    return chart_winners(dets)[0]
