"""Candidate coordinate systems for end-effector poses.

A pose is first expressed in an object-attached frame, then re-parameterized
into one of the chart manifolds (Cartesian, polar, cylindrical, spherical).
Angles live on sphere manifolds as unit vectors, so wrap-around is handled by
geometry rather than branch logic. The orientation part is expressed in a
local base frame adapted to the chart: rotated by the azimuth for polar and
cylindrical charts, and by the minimal rotation taking the reference axis to
the radial direction for the spherical chart.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifolds import (AntipodalPoint, Euclidean, ManifoldPoint, Product,
                        SpecMismatch, Sphere, _s1_signs, sphere_basis)

TWO_D = "2d"
THREE_D = "3d"

_CHART_NAMES = {
    (TWO_D, 1): "cartesian",
    (TWO_D, 2): "polar",
    (THREE_D, 1): "cartesian",
    (THREE_D, 2): "cylindrical",
    (THREE_D, 3): "spherical",
}

RADIUS_EPS = 1e-6
POLE_TOL = 1e-9  # u_z within this of -1: the spherical frame is a half-turn


class OriginSingularity(ValueError):
    """Chart direction undefined: planar/spherical radius below threshold."""


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ChartId:
    space: str
    index: int

    def __post_init__(self):
        if (self.space, self.index) not in _CHART_NAMES:
            raise ValueError(f"no chart {self.index} in {self.space}")

    @property
    def name(self) -> str:
        return _CHART_NAMES[(self.space, self.index)]

    def __str__(self):
        return f"{self.name}-{self.space}"


CARTESIAN_2D = ChartId(TWO_D, 1)
POLAR_2D = ChartId(TWO_D, 2)
CARTESIAN_3D = ChartId(THREE_D, 1)
CYLINDRICAL_3D = ChartId(THREE_D, 2)
SPHERICAL_3D = ChartId(THREE_D, 3)
# one object per chart, so that lookups keyed by charts match by identity
CHART_IDS = {c: c for c in (CARTESIAN_2D, POLAR_2D, CARTESIAN_3D,
                            CYLINDRICAL_3D, SPHERICAL_3D)}


def charts_for(space: str) -> list[ChartId]:
    return [c for c in CHART_IDS if c.space == space]


_POS_SPECS = {
    CARTESIAN_2D: Euclidean(2),
    POLAR_2D: Product((Sphere(1), Euclidean(1))),
    CARTESIAN_3D: Euclidean(3),
    CYLINDRICAL_3D: Product((Sphere(1), Euclidean(2))),
    SPHERICAL_3D: Product((Sphere(2), Euclidean(1))),
}


def position_spec(chart: ChartId):
    return _POS_SPECS[chart]


def chart_spec(chart: ChartId) -> Product:
    """Full product manifold (position part then orientation part)."""
    return Product((position_spec(chart),
                    Sphere(1 if chart.space == TWO_D else 3)))


# --- rotation helpers -------------------------------------------------------

def rot2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions (w, x, y, z): single quaternions and
    N x 4 rows broadcast alike."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]).T


def quat_conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    # C order: the rounding of vecdot depends on the memory layout
    q = np.ascontiguousarray(q, dtype=float)
    return q / np.sqrt(np.vecdot(q, q))[..., None]


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    """Rotation by angle about axis as a unit quaternion: a single axis and
    angle, or N x 3 axis rows and N angles."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.sqrt(np.vecdot(axis, axis))[..., None]
    h = np.asarray(angle, dtype=float)[..., None] / 2
    return np.concatenate([np.cos(h), np.sin(h) * axis], axis=-1)


def rotmat_from_quat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def azimuth_quat(az) -> np.ndarray:
    """Rotation about the z axis by the angle az (a scalar or N angles), as
    quaternion rows: the local base frame of the cylindrical chart."""
    h = 0.5 * np.asarray(az, dtype=float)
    zero = np.zeros_like(h)
    return np.array([np.cos(h), zero, zero, np.sin(h)]).T


def pole_quat(u: np.ndarray) -> np.ndarray:
    """Minimal rotation taking e_z to the unit vector u (or to N x 3 rows),
    as quaternion rows: the local base frame of the spherical chart. At
    u = -e_z it is the half-turn about the x axis."""
    x, y, z = u.T
    d = np.clip(z, -1.0, 1.0)
    q = np.array([1.0 + d, -y, x, np.zeros_like(d)]).T
    q = np.where((d <= -1.0 + POLE_TOL)[..., None], (0.0, 1.0, 0.0, 0.0), q)
    return quat_normalize(q)


# --- frames and poses -------------------------------------------------------

def _finite(name: str, value, shape: tuple) -> np.ndarray:
    """value as finite floats of shape (n,) or (), else ValueError naming it."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} is not " + (f"{shape[0]} finite numbers"
                                              if shape else "a finite number"))
    return a


@dataclass(frozen=True)
class Frame2D:
    """Pose of the object frame in the world: p_w = t + R(angle) p_obj, where
    angle is the frame's heading; its maps take a point as x + iy."""
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))
    angle: float = 0.0
    world_to_object: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           _finite("translation", self.translation, (2,)))
        object.__setattr__(self, "angle",
                           float(_finite("heading", self.angle, ())))
        object.__setattr__(self, "world_to_object", np.exp(-1j * self.angle))
        object.__setattr__(self, "_origin", complex(*self.translation))

    def to_object(self, p_world: np.ndarray) -> np.ndarray:
        """Object-frame coordinates of a world point, or of N x 2 rows."""
        z = np.ascontiguousarray(p_world, dtype=float).view(complex)
        return ((z - self._origin) * self.world_to_object).view(float)

    def to_world(self, p_obj: np.ndarray) -> np.ndarray:
        """World coordinates of an object-frame point, or of N x 2 rows."""
        z = np.ascontiguousarray(p_obj, dtype=float).view(complex)
        return (z / self.world_to_object + self._origin).view(float)


@dataclass(frozen=True)
class Frame3D:
    """Pose of the object frame in the world: p_w = t + R(q) p_obj."""
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           _finite("translation", self.translation, (3,)))
        q = _finite("quaternion", self.quaternion, (4,))
        with np.errstate(over="ignore"):    # an infinite norm is rejected
            n = np.sqrt(np.vecdot(q, q))
        if not 0.0 < n < np.inf:
            raise ValueError("quaternion norm is not a positive finite number")
        object.__setattr__(self, "quaternion", quat_normalize(q))

    @property
    def rotation(self) -> np.ndarray:
        return rotmat_from_quat(self.quaternion)

    def to_object(self, p_world: np.ndarray) -> np.ndarray:
        """Object-frame coordinates of a world point, or of N x 3 rows."""
        return (np.asarray(p_world) - self.translation) @ self.rotation

    def to_world(self, p_obj: np.ndarray) -> np.ndarray:
        """World coordinates of an object-frame point, or of N x 3 rows."""
        return self.translation + np.asarray(p_obj) @ self.rotation.T


@dataclass(frozen=True)
class CartesianPose:
    """World-frame end-effector pose.

    orientation is a unit vector on S1 (2D heading) or a unit quaternion
    (w, x, y, z) on S3.
    """
    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        o = np.asarray(self.orientation, dtype=float)
        if (len(p), len(o)) not in ((2, 2), (3, 4)):
            raise DimensionMismatch(f"bad pose shape {p.shape}/{o.shape}")
        n = np.linalg.norm(o)
        if not abs(n - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"orientation norm {n} not 1 within 1e-9")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", o)

    @classmethod
    def from_angle(cls, x: float, y: float, heading: float) -> "CartesianPose":
        return cls(np.array([x, y]), np.array([np.cos(heading), np.sin(heading)]))

    @property
    def dim(self) -> int:
        return len(self.position)

    @property
    def space(self) -> str:
        return TWO_D if self.dim == 2 else THREE_D

    @property
    def heading_angle(self) -> float:
        if self.dim != 2:
            raise DimensionMismatch("heading_angle is 2D only")
        return float(np.arctan2(self.orientation[1], self.orientation[0]))


def _check_radius(r: np.ndarray, what: str):
    """OriginSingularity naming the first radius below RADIUS_EPS."""
    bad = np.flatnonzero(r < RADIUS_EPS)
    if bad.size:
        raise OriginSingularity(f"{what} radius {r.flat[bad[0]]} below "
                                f"{RADIUS_EPS}")


def _unit(v: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Directions and radii along the last axis, checked by _check_radius."""
    r = np.sqrt(np.sum(v * v, axis=-1))
    _check_radius(r, what)
    return v / r[..., None], r


# --- chart maps -------------------------------------------------------------

def chart_rows(chart: ChartId, frame, positions: np.ndarray,
               orientations: np.ndarray) -> np.ndarray:
    """Chart points (N x ambient) of world poses given as positions (N x d)
    and unit orientations (N x 2 headings or N x 4 quaternions)."""
    if chart.space == THREE_D:
        return chart_rows_3d(chart, frame, positions, orientations)
    return chart_rows_2d(chart, frame, positions,
                         np.arctan2(orientations[:, 1], orientations[:, 0]))


def to_chart(pose: CartesianPose, chart: ChartId, frame) -> ManifoldPoint:
    """The world-frame pose as a point on the chart's product manifold, in
    the object frame."""
    if pose.space != chart.space:
        raise DimensionMismatch(f"{pose.dim}D pose cannot use chart {chart}")
    x = chart_rows(chart, frame, pose.position[None], pose.orientation[None])
    return ManifoldPoint(chart_spec(chart), x[0])


def planar_rows(frame: Frame2D, positions: np.ndarray, headings: np.ndarray,
                cart):
    """Azimuths a = p/r and local headings (N x 2, complex) and radii
    r = sqrt(p·p) (N,) of the object-frame positions p of planar world poses
    given as positions (N x 2) and unit headings (N, complex), with cart
    one bool or one per row: a Cartesian row has a = p and r = 1, a polar
    row's heading is turned back by the azimuth. The caller rejects radii
    below RADIUS_EPS, whose azimuths are not unit."""
    p = frame.to_object(positions)
    r = np.sqrt(np.add(*(p * p).T))
    r[cart] = 1.0
    X = np.empty((len(p), 2), complex)
    X[:, 0] = a = (p / np.maximum(r, RADIUS_EPS)[:, None]).view(complex)[:, 0]
    turn = np.conj(a)   # back by the azimuth on a polar row, by 1 otherwise
    turn[cart] = 1.0
    np.multiply(headings * frame.world_to_object, turn, out=X[:, 1])
    return X, r


def chart_rows_2d(chart: ChartId, frame: Frame2D, positions: np.ndarray,
                  headings: np.ndarray) -> np.ndarray:
    """Chart points (N x ambient) of planar world poses given as positions
    (N x 2) and headings (N,)."""
    if chart.space != TWO_D:
        raise DimensionMismatch(f"planar poses cannot use chart {chart}")
    X, r = planar_rows(frame, positions, np.exp(1j * headings),
                       chart == CARTESIAN_2D)
    X = X.view(float)
    if chart == CARTESIAN_2D:
        return X
    _check_radius(r, "polar")
    return np.hstack([X[:, :2], r[:, None], X[:, 2:]])


def chart_rows_3d(chart: ChartId, frame: Frame3D, positions: np.ndarray,
                  quaternions: np.ndarray) -> np.ndarray:
    """Chart points (N x ambient) of spatial world poses given as positions
    (N x 3) and unit quaternions (N x 4). The orientation is expressed in
    the chart's local base frame: the object frame itself (Cartesian), turned
    by the azimuth (cylindrical) or by the minimal rotation from e_z to the
    radial direction (spherical)."""
    if chart.space != THREE_D:
        raise DimensionMismatch(f"spatial poses cannot use chart {chart}")
    p = frame.to_object(positions)
    q = quat_mul(quat_conj(frame.quaternion), quaternions)
    if chart == CARTESIAN_3D:
        pos = p
    elif chart == CYLINDRICAL_3D:
        a, rho = _unit(p[:, :2], "cylindrical")
        pos = np.column_stack([a, rho, p[:, 2]])
        q_f = azimuth_quat(np.arctan2(p[:, 1], p[:, 0]))
        q = quat_mul(quat_conj(q_f), q)
    else:
        u, r = _unit(p, "spherical")
        pos = np.column_stack([u, r])
        q = quat_mul(quat_conj(pole_quat(u)), q)
    return np.hstack([pos, quat_normalize(q)])


def from_chart(x: ManifoldPoint, chart: ChartId, frame) -> CartesianPose:
    """Inverse chart map back to a world-frame pose."""
    if x.spec != chart_spec(chart):
        raise SpecMismatch(f"point on {x.spec} is not a point of chart {chart}")
    k = _POS_SPECS[chart].ambient_dim
    pc, oc = x.coords[:k], x.coords[k:]
    if chart.space == TWO_D:
        if chart == CARTESIAN_2D:
            p_obj, phi = pc, float(np.arctan2(oc[1], oc[0]))
        else:
            az = float(np.arctan2(pc[1], pc[0]))
            p_obj = pc[2] * pc[:2]
            phi = float(np.arctan2(oc[1], oc[0])) + az
        heading = phi + frame.angle
        return CartesianPose(frame.to_world(p_obj),
                             np.array([np.cos(heading), np.sin(heading)]))
    if chart == CARTESIAN_3D:
        p_obj, q_obj = pc, oc
    elif chart == CYLINDRICAL_3D:
        p_obj = np.array([pc[2] * pc[0], pc[2] * pc[1], pc[3]])
        q_obj = quat_mul(azimuth_quat(np.arctan2(pc[1], pc[0])), oc)
    else:
        p_obj = pc[3] * pc[:3]
        q_obj = quat_mul(pole_quat(pc[:3]), oc)
    q_w = quat_normalize(quat_mul(frame.quaternion, q_obj))
    return CartesianPose(frame.to_world(p_obj), q_w)


# --- chart differentials ----------------------------------------------------

def planar_factors(polar, s: np.ndarray) -> tuple:
    """planar_jacobian's factors of rows with polar (N bools, an array) and
    S¹ basis signs s (N x 2): cart = ~polar and, as N x 1 columns, the
    azimuth rate's sign (-s₀ polar, 1 Cartesian), s₁ and s₁·polar."""
    return (~polar, np.where(polar, -s[:, 0], 1.0)[:, None], s[:, 1:],
            s[:, 1:] * polar[:, None])


def planar_jacobian(G: complex, levers: np.ndarray, turns, a: np.ndarray,
                    r: np.ndarray, factors: tuple, out: np.ndarray):
    """Chart Jacobians (N x 3 x D, into out) of D motions, at the azimuths a
    and radii r of planar_rows: motion k moves the world positions at
    i·levers[:, k] (N x D, complex) and turns the headings at turns[k]. G is
    frame.world_to_object. A Cartesian row takes the object-frame velocity
    z = lever·i·G, a polar row z = -lever·G·conj(a)/r = -dθ + i·dr/r: y or
    the radius moves at r·Im z, the azimuth at -Re z and the local heading
    at turns + Re z; factors are the rows' planar_factors."""
    cart, sign, s1, s1_polar = factors
    coef = np.conj(a) * -G / r
    coef[cart] = 1j * G
    z = levers * coef[:, None]
    out[:, 0] = z.real * sign
    out[:, 1] = z.imag * r[:, None]
    out[:, 2] = z.real * s1_polar + s1 * turns
    return out


def chart_jacobian(pose: CartesianPose, chart: ChartId, frame) -> np.ndarray:
    """Differential of the chart map at the pose.

    Maps world-frame pose velocities to intrinsic tangent velocities at the
    current chart point. Input columns are (dx, dy, dheading) in 2D (the
    velocities i·lever of the levers -i, 1 and 0) and (dx, dy, dz, wx, wy,
    wz) in 3D, with w the world angular velocity.
    """
    if pose.space != chart.space:
        raise DimensionMismatch(f"{pose.dim}D pose cannot use chart {chart}")
    if chart.space == THREE_D:
        return _jac_3d(pose, chart, frame)
    x, polar = to_chart(pose, chart, frame).coords, chart == POLAR_2D
    r = x[2:3] if polar else np.ones(1)
    s = _s1_signs(np.array([x[:2], x[-2:]]))[None]
    return planar_jacobian(frame.world_to_object, np.array([[-1j, 1, 0]]),
                           (0, 0, 1), x[:2].view(complex), r, planar_factors(
                               np.array([polar]), s), np.empty((1, 3, 3)))[0]


def _jac_3d(pose, chart, frame) -> np.ndarray:
    Gp = frame.rotation.T  # d p_obj / d p_world
    x = chart_rows_3d(chart, frame, pose.position[None],
                      pose.orientation[None])[0]
    J = np.zeros((chart_spec(chart).tangent_dim, 6))
    # local base frame RF and its angular velocity (object frame coords) per
    # input column
    RF, omega_F = np.eye(3), np.zeros((3, 6))
    if chart == CARTESIAN_3D:
        J[0:3, 0:3] = Gp
    elif chart == CYLINDRICAL_3D:
        a, rho = x[:2], x[2]
        daz = (a[::-1] * (-1.0, 1.0) / rho) @ Gp[:2]
        J[0, 0:3] = _s1_signs(a) * daz
        J[1, 0:3] = a @ Gp[:2]
        J[2, 0:3] = Gp[2]
        RF = rotmat_from_quat(azimuth_quat(np.arctan2(a[1], a[0])))
        omega_F[2, 0:3] = daz
    else:
        u, r = x[:3], x[3]
        if u[2] <= -1.0 + POLE_TOL:
            raise AntipodalPoint(f"{chart} local frame has no derivative at "
                                 "the direction -e_z")
        du = (np.eye(3) - np.outer(u, u)) / r @ Gp  # du per input column
        J[0:2, 0:3] = sphere_basis(u).T @ du
        J[2, 0:3] = u @ Gp
        RF = rotmat_from_quat(pole_quat(u))
        # angular velocity of the minimal rotation from e_z to u
        omega_F[:, 0:3] = np.cross(u + (0.0, 0.0, 1.0), du.T).T / (1.0 + u[2])
    # the local orientation turns with R_F^T (R_of^T w - omega_F), w the
    # world angular velocity
    q_loc = x[-4:]
    w_obj = np.zeros((3, 6))
    w_obj[:, 3:] = Gp
    w_rel = (RF.T @ (w_obj - omega_F)).T
    dq = 0.5 * quat_mul(np.column_stack([np.zeros(6), w_rel]), q_loc)
    J[-3:] = sphere_basis(q_loc).T @ dq.T
    return J
