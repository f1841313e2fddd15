"""Analytic Riemannian primitives for Euclidean spaces, unit spheres and their
Cartesian products.

Points on a sphere factor are stored as unit vectors in the ambient space
(no angle parameterization), so the log/exp maps apply directly and angle
wrap-around never needs special handling. Tangent vectors are stored in
intrinsic coordinates with respect to a deterministic orthonormal basis
at each base point, built by a Householder reflection of the base vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ANTIPODAL_TOL = 1e-9
ZERO_TOL = 1e-12


class SpecMismatch(ValueError):
    """Two manifold values that must share a spec do not."""


class AntipodalPoint(ValueError):
    """The sphere log map is undefined between antipodal points."""


@dataclass(frozen=True)
class Euclidean:
    dim: int

    @property
    def ambient_dim(self) -> int:
        return self.dim

    @property
    def tangent_dim(self) -> int:
        return self.dim


@dataclass(frozen=True)
class Sphere:
    dim: int  # intrinsic dimension; lives in R^{dim+1}

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def tangent_dim(self) -> int:
        return self.dim


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def ambient_dim(self) -> int:
        return sum(f.ambient_dim for f in self.factors)

    @property
    def tangent_dim(self) -> int:
        return sum(f.tangent_dim for f in self.factors)


@lru_cache(maxsize=None)
def leaves(spec):
    """Flatten a spec into (leaf, ambient_slice, tangent_slice) triples."""
    out = []

    def walk(s, a0, t0):
        if isinstance(s, Product):
            for f in s.factors:
                a0, t0 = walk(f, a0, t0)
            return a0, t0
        out.append((s, slice(a0, a0 + s.ambient_dim), slice(t0, t0 + s.tangent_dim)))
        return a0 + s.ambient_dim, t0 + s.tangent_dim

    walk(spec, 0, 0)
    return tuple(out)


@dataclass(frozen=True)
class ManifoldPoint:
    spec: object
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.spec.ambient_dim,):
            raise SpecMismatch(
                f"point has {c.shape} coords, spec needs ({self.spec.ambient_dim},)")
        for leaf, asl, _ in leaves(self.spec):
            if isinstance(leaf, Sphere):
                n = float(np.linalg.norm(c[asl]))
                if not abs(n - 1.0) <= 1e-9:  # NaN fails too
                    raise ValueError(f"sphere block norm {n} is not 1 within 1e-9")
        object.__setattr__(self, "coords", c)


def _point(spec, coords: np.ndarray) -> ManifoldPoint:
    """ManifoldPoint of coords just normalized here, without revalidation."""
    point = object.__new__(ManifoldPoint)
    object.__setattr__(point, "spec", spec)
    object.__setattr__(point, "coords", coords)
    return point


@dataclass(frozen=True)
class TangentVector:
    base: ManifoldPoint
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.base.spec.tangent_dim,):
            raise SpecMismatch(
                f"tangent has {c.shape} coords, spec needs ({self.base.spec.tangent_dim},)")
        object.__setattr__(self, "coords", c)


def _reflect(P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rows of Y reflected by the Householder map swapping e1 and P's unit
    row p (identity at p = e1); its columns 2..n are the tangent basis."""
    H = P.copy()
    H[..., 0] -= 1.0
    hh = np.vecdot(H, H)
    c = (hh >= 1e-30) * (2.0 / np.maximum(hh, 1e-30))
    return Y - (c * np.vecdot(H, Y))[..., None] * H


def _s1_signs(P: np.ndarray) -> np.ndarray:
    """Orientation (±1) of the S1 tangent basis at each unit row p of P
    against the counter-clockwise direction (-p_2, p_1): the rate of the
    intrinsic coordinate per unit angle rate; exactly ±1 in closed form: -1
    except where the reflection is the identity (p = e1)."""
    H = P - (1.0, 0.0)
    return np.where(np.vecdot(H, H) >= 1e-30, -1.0, 1.0)


def sphere_bases(P: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases (N x n x n-1) at the unit-vector rows of P."""
    return np.swapaxes(_reflect(P[:, None], np.eye(P.shape[1])[1:]), 1, 2)


def sphere_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal tangent basis (ambient x d) at unit vector p."""
    return sphere_bases(p[None])[0]


def on_spheres(spec, X: np.ndarray) -> bool:
    """Whether every sphere block of the rows of X (... x ambient) has norm 1
    within 1e-9; NaN fails."""
    return all(np.all(np.abs(np.sqrt(np.vecdot(X[..., asl], X[..., asl])) - 1)
                      <= 1e-9)
               for leaf, asl, _ in leaves(spec) if isinstance(leaf, Sphere))


def _check_same(a: ManifoldPoint, b: ManifoldPoint):
    if a.spec != b.spec:
        raise SpecMismatch(f"specs differ: {a.spec} vs {b.spec}")


def _check_antipodal(dots: np.ndarray, what: str):
    """Raise AntipodalPoint where a dot product is -1."""
    if (dots <= -1.0 + ANTIPODAL_TOL).any():
        raise AntipodalPoint(f"{what} undefined for antipodal sphere points")


# --- row kernels ------------------------------------------------------------
# Row i of a result belongs to base point P[i] and point (or tangent) X[i];
# a single row on either side is shared by all rows of the other.

def log_rows(spec, P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Log maps (N x tangent) of the rows of X at the base rows of P."""
    out = np.empty((len(X) if len(P) == 1 else len(P), spec.tangent_dim))
    for leaf, asl, tsl in leaves(spec):
        if isinstance(leaf, Euclidean):
            out[:, tsl] = X[:, asl] - P[:, asl]
            continue
        out[:, tsl] = sphere_log(_reflect(P[:, asl], X[:, asl]))
    return out


def sphere_log(Y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log maps at p of the sphere points x given by their reflected
    coordinates y = (p . x, B_p^T x), d+1 entries along axis: B_p^T x scaled
    to the angle, d entries along axis. axis=-1 takes rows (... x d+1),
    axis=-2 sample-major columns (... x d+1 x N)."""
    lead = (slice(None),) * (axis % Y.ndim)
    c, r = Y[lead + (slice(0, 1),)], Y[lead + (slice(1, None),)]
    _check_antipodal(c, "log map")
    nr = np.sqrt((r * r).sum(axis=axis, keepdims=True))
    angle = np.arctan2(nr, c) * (nr >= ZERO_TOL)
    return angle / np.maximum(nr, ZERO_TOL) * r


def exp_rows(spec, P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Geodesic steps (N x ambient) from the rows of P along those of V."""
    out = np.empty((len(V) if len(P) == 1 else len(P), spec.ambient_dim))
    for leaf, asl, tsl in leaves(spec):
        v = V[:, tsl]
        if isinstance(leaf, Euclidean):
            out[:, asl] = P[:, asl] + v
            continue
        # exp_p(B v) is the reflection at p of (cos|v|, sin|v| v / |v|)
        nv = np.sqrt(np.vecdot(v, v))
        k = np.sin(nv) / np.maximum(nv, ZERO_TOL)
        q = _reflect(P[:, asl], np.column_stack([np.cos(nv), k[:, None] * v]))
        out[:, asl] = q / np.sqrt(np.vecdot(q, q))[:, None]  # suppress drift
    return out


def log_jacobian_rows(spec, P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Differentials (N x tangent x tangent) of Log_p at x, rows p of P and x
    of X, from intrinsic coords at x to those at p. On a sphere factor it is
    an isometry along the geodesic and scales by theta/sin(theta) across."""
    d = spec.tangent_dim
    J = np.zeros((len(X) if len(P) == 1 else len(P), d, d))
    for leaf, asl, tsl in leaves(spec):
        if isinstance(leaf, Euclidean):
            J[:, tsl, tsl] = np.eye(leaf.dim)
            continue
        p, q = np.broadcast_arrays(P[:, asl], X[:, asl])
        dots = np.vecdot(p, q)
        _check_antipodal(dots, "log differential")
        if leaf.dim == 1:  # an isometry: the two basis orientations' product
            J[:, tsl, tsl] = (_s1_signs(p) * _s1_signs(q))[:, None, None]
            continue
        dots = np.minimum(dots, 1.0)
        theta = np.arccos(dots)
        w = q - dots[:, None] * p  # geodesic direction at p (0 at q = p) ...
        w /= np.maximum(np.sqrt(np.vecdot(w, w)), ZERO_TOL)[:, None]
        e = w * np.cos(theta)[:, None] - p * np.sin(theta)[:, None]  # ... at q
        k = np.where(theta < 1e-8, 1.0, theta / np.sin(np.maximum(theta, 1e-8)))
        n = leaf.ambient_dim
        D = (w[:, :, None] * e[:, None, :] + k[:, None, None]
             * (np.eye(n) - q[:, :, None] * q[:, None, :]
                - e[:, :, None] * e[:, None, :]))
        J[:, tsl, tsl] = np.swapaxes(sphere_bases(p), 1, 2) @ D @ sphere_bases(q)
    return J


def transport_rows(spec, P: np.ndarray, X: np.ndarray,
                   V: np.ndarray) -> np.ndarray:
    """Parallel transports (N x tangent) of the tangents V at the rows of P
    along the geodesics to the rows of X; all three share rows as above."""
    out = np.empty((max(len(P), len(X), len(V)), spec.tangent_dim))
    for leaf, asl, tsl in leaves(spec):
        if isinstance(leaf, Euclidean):
            out[:, tsl] = V[:, tsl]
            continue
        p, q = P[:, asl], X[:, asl]
        dots = np.vecdot(p, q)
        _check_antipodal(dots, "transport")
        w = _reflect(p, np.pad(V[:, tsl], ((0, 0), (1, 0))))  # B_p v
        k = np.vecdot(q, w) / (1.0 + np.minimum(dots, 1.0))
        out[:, tsl] = _reflect(q, w - k[:, None] * (p + q))[:, 1:]  # B_q^T t
    return out


def log_map(mu: ManifoldPoint, x: ManifoldPoint) -> TangentVector:
    """Tangent-space residual of x at base point mu."""
    _check_same(mu, x)
    return TangentVector(mu, log_rows(mu.spec, mu.coords[None], x.coords[None])[0])


def log_map_batch(mu: ManifoldPoint, X: np.ndarray) -> np.ndarray:
    """Log map of many points (rows of X, ambient coords) at one base point."""
    return log_rows(mu.spec, mu.coords[None], np.asarray(X, dtype=float))


def exp_map(mu: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
    """Geodesic step from mu along tangent vector v (v.base must be mu)."""
    if v.base is not mu and not (v.base.spec == mu.spec
                                 and np.array_equal(v.base.coords, mu.coords)):
        raise SpecMismatch("tangent vector is not based at mu")
    return _point(mu.spec, exp_rows(mu.spec, mu.coords[None], v.coords[None])[0])


def parallel_transport(src: ManifoldPoint, dst: ManifoldPoint,
                       v: TangentVector) -> TangentVector:
    """Transport v along the geodesic from src to dst (isometric)."""
    _check_same(src, dst)
    if v.base.spec != src.spec or not np.array_equal(v.base.coords, src.coords):
        raise SpecMismatch("tangent vector is not based at the source point")
    return TangentVector(dst, transport_rows(src.spec, src.coords[None],
                                             dst.coords[None], v.coords[None])[0])


def geodesic_distance(a: ManifoldPoint, b: ManifoldPoint) -> float:
    return float(np.linalg.norm(log_map(a, b).coords))


def log_map_jacobian(mu: ManifoldPoint, x: ManifoldPoint) -> np.ndarray:
    """Differential of Log_mu at x, intrinsic coords at x -> intrinsic at mu."""
    _check_same(mu, x)
    return log_jacobian_rows(mu.spec, mu.coords[None], x.coords[None])[0]


def random_point(spec, rng: np.random.Generator) -> ManifoldPoint:
    """Uniform-ish random point: standard normal, sphere blocks normalized."""
    c = rng.standard_normal(spec.ambient_dim)
    for leaf, asl, _ in leaves(spec):
        if isinstance(leaf, Sphere):
            c[asl] /= np.linalg.norm(c[asl])
    return _point(spec, c)


def random_tangent(base: ManifoldPoint, rng: np.random.Generator,
                   scale: float = 1.0) -> TangentVector:
    return TangentVector(base, scale * rng.standard_normal(base.spec.tangent_dim))
