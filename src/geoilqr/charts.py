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

from .manifolds import (Euclidean, ManifoldPoint, Product, Sphere, sphere_bases,
                        sphere_basis)

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


def charts_for(space: str) -> list[ChartId]:
    return [ChartId(space, n) for s, n in _CHART_NAMES if s == space]


_POS_SPECS = {
    CARTESIAN_2D: Euclidean(2),
    POLAR_2D: Product((Sphere(1), Euclidean(1))),
    CARTESIAN_3D: Euclidean(3),
    CYLINDRICAL_3D: Product((Sphere(1), Euclidean(2))),
    SPHERICAL_3D: Product((Sphere(2), Euclidean(1))),
}


def position_spec(chart: ChartId):
    return _POS_SPECS[chart]


def orientation_spec(chart: ChartId):
    return Sphere(1) if chart.space == TWO_D else Sphere(3)


def chart_spec(chart: ChartId) -> Product:
    """Full product manifold (position part then orientation part)."""
    return Product((position_spec(chart), orientation_spec(chart)))


# --- rotation helpers -------------------------------------------------------

def rot2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def perp2(v: np.ndarray) -> np.ndarray:
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) / np.linalg.norm(q)


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate(([np.cos(angle / 2)], np.sin(angle / 2) * axis))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_mul(quat_mul(q, np.concatenate(([0.0], v))), quat_conj(q))[1:]


def rotmat_from_quat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_two_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation taking unit vector a to unit vector b.

    Antipodal inputs fall back to a half-turn about a fixed perpendicular axis.
    """
    d = float(np.clip(a @ b, -1.0, 1.0))
    if d <= -1.0 + 1e-9:
        axis = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            axis = np.array([0.0, 1.0, 0.0])
        axis = axis - (axis @ a) * a
        return quat_from_axis_angle(axis, np.pi)
    q = np.concatenate(([1.0 + d], np.cross(a, b)))
    return quat_normalize(q)


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def vee(M: np.ndarray) -> np.ndarray:
    A = 0.5 * (M - M.T)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def minimal_rotation(u: np.ndarray, axis: np.ndarray = None) -> np.ndarray:
    """Rotation matrix of the minimal rotation taking the reference axis to u."""
    e = np.array([0.0, 0.0, 1.0]) if axis is None else axis
    c = float(np.clip(e @ u, -1.0, 1.0))
    if c <= -1.0 + 1e-9:
        return rotmat_from_quat(quat_from_two_vectors(e, u))
    a = np.cross(e, u)
    A = skew(a)
    return np.eye(3) + A + (A @ A) / (1.0 + c)


def _minimal_rotation_diff(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Directional derivative of minimal_rotation(u) along du (du tangent to u)."""
    e = np.array([0.0, 0.0, 1.0])
    c = float(e @ u)
    a = np.cross(e, u)
    da = np.cross(e, du)
    dc = float(e @ du)
    A, dA = skew(a), skew(da)
    return dA + (dA @ A + A @ dA) / (1.0 + c) - (A @ A) * (dc / (1.0 + c) ** 2)


# --- frames and poses -------------------------------------------------------

@dataclass(frozen=True)
class Frame2D:
    """Pose of the object frame in the world: p_w = t + R(angle) p_obj."""
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))
    angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float))

    def to_object(self, p_world: np.ndarray) -> np.ndarray:
        """Object-frame coordinates of a world point, or of N x 2 rows."""
        return (np.asarray(p_world) - self.translation) @ rot2(-self.angle).T

    def to_world(self, p_obj: np.ndarray) -> np.ndarray:
        return self.translation + rot2(self.angle) @ np.asarray(p_obj)


@dataclass(frozen=True)
class Frame3D:
    """Pose of the object frame in the world: p_w = t + R(q) p_obj."""
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float))
        object.__setattr__(self, "quaternion",
                           quat_normalize(self.quaternion))

    @property
    def rotation(self) -> np.ndarray:
        return rotmat_from_quat(self.quaternion)

    def to_object(self, p_world: np.ndarray) -> np.ndarray:
        """Object-frame coordinates of a world point, or of N x 3 rows."""
        return (np.asarray(p_world) - self.translation) @ self.rotation

    def to_world(self, p_obj: np.ndarray) -> np.ndarray:
        return self.translation + self.rotation @ np.asarray(p_obj)


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
        if abs(n - 1.0) > 1e-9:
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


@dataclass(frozen=True)
class ChartPose:
    chart: ChartId
    position: ManifoldPoint
    orientation: ManifoldPoint

    def point(self) -> ManifoldPoint:
        """The pose as a single point on the chart's product manifold."""
        return ManifoldPoint(chart_spec(self.chart),
                             np.concatenate([self.position.coords,
                                             self.orientation.coords]))


def _unit(v: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Directions and radii along the last axis; OriginSingularity.row is
    the first row with a radius below RADIUS_EPS."""
    r = np.sqrt(np.sum(v * v, axis=-1))
    bad = np.flatnonzero(r < RADIUS_EPS)
    if bad.size:
        exc = OriginSingularity(f"{what} radius {r.flat[bad[0]]} below "
                                f"{RADIUS_EPS}")
        exc.row = int(bad[0])
        raise exc
    return v / r[..., None], r


# --- chart maps -------------------------------------------------------------

def to_chart(pose: CartesianPose, chart: ChartId, frame) -> ChartPose:
    """Express a world-frame pose in the given chart of the object frame."""
    if pose.space != chart.space:
        raise DimensionMismatch(f"{pose.dim}D pose cannot use chart {chart}")
    if chart.space == THREE_D:
        return _to_chart_3d(pose, chart, frame)
    x = chart_rows_2d(chart, frame, pose.position[None],
                      np.array([pose.heading_angle]))[0][0]
    k = _POS_SPECS[chart].ambient_dim
    return ChartPose(chart, ManifoldPoint(_POS_SPECS[chart], x[:k]),
                     ManifoldPoint(Sphere(1), x[k:]))


def _s1_signs(points: np.ndarray) -> np.ndarray:
    """Rate of the intrinsic S1 coordinate per unit angle rate at each row."""
    return np.einsum("ni,ni->n", sphere_bases(points)[:, :, 0], perp2(points))


def chart_rows_2d(chart: ChartId, frame: Frame2D, positions: np.ndarray,
                  headings: np.ndarray, jacobian: bool = False):
    """Chart points (N x ambient) of planar world poses given as positions
    (N x 2) and headings (N,), and None or, with jacobian=True, the chart
    Jacobians (N x 3 x 3) from (dx, dy, dheading) to intrinsic velocities."""
    if chart.space != TWO_D:
        raise DimensionMismatch(f"planar poses cannot use chart {chart}")
    p = frame.to_object(positions)
    phi = headings - frame.angle  # heading in the object frame
    if chart == CARTESIAN_2D:
        pos, loc = p, phi
    else:
        a, r = _unit(p, "polar")
        pos = np.column_stack([a, r])
        loc = phi - np.arctan2(p[:, 1], p[:, 0])  # in the azimuth-rotated frame
    ori = np.stack([np.cos(loc), np.sin(loc)], axis=1)
    X = np.hstack([pos, ori])
    if not jacobian:
        return X, None
    G = rot2(-frame.angle)
    s = _s1_signs(ori)
    J = np.zeros((len(X), 3, 3))
    J[:, 2, 2] = s
    if chart == CARTESIAN_2D:
        J[:, 0:2, 0:2] = G
        return X, J
    daz_dp = (perp2(a) / r[:, None]) @ G  # d(azimuth)/d(world position)
    J[:, 0, 0:2] = _s1_signs(a)[:, None] * daz_dp  # azimuth, arc-length rate
    J[:, 1, 0:2] = a @ G                             # radius
    J[:, 2, 0:2] = -s[:, None] * daz_dp
    return X, J


def _to_chart_3d(pose, chart, frame: Frame3D) -> ChartPose:
    p = frame.to_object(pose.position)
    q_obj = quat_mul(quat_conj(frame.quaternion), pose.orientation)
    if chart == CARTESIAN_3D:
        return ChartPose(chart, ManifoldPoint(Euclidean(3), p),
                         ManifoldPoint(Sphere(3), quat_normalize(q_obj)))
    if chart == CYLINDRICAL_3D:
        a, rho = _unit(p[:2], "cylindrical")
        az = float(np.arctan2(p[1], p[0]))
        pos = ManifoldPoint(_POS_SPECS[chart], np.array([a[0], a[1], rho, p[2]]))
        q_f = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), az)
        q_loc = quat_mul(quat_conj(q_f), q_obj)
        return ChartPose(chart, pos, ManifoldPoint(Sphere(3), quat_normalize(q_loc)))
    u, r = _unit(p, "spherical")
    pos = ManifoldPoint(_POS_SPECS[chart], np.concatenate([u, [r]]))
    q_f = quat_from_two_vectors(np.array([0.0, 0.0, 1.0]), u)
    q_loc = quat_mul(quat_conj(q_f), q_obj)
    return ChartPose(chart, pos, ManifoldPoint(Sphere(3), quat_normalize(q_loc)))


def from_chart(cp: ChartPose, frame) -> CartesianPose:
    """Inverse chart map back to a world-frame pose."""
    chart = cp.chart
    pc, oc = cp.position.coords, cp.orientation.coords
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
        az = float(np.arctan2(pc[1], pc[0]))
        p_obj = np.array([pc[2] * pc[0], pc[2] * pc[1], pc[3]])
        q_f = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), az)
        q_obj = quat_mul(q_f, oc)
    else:
        u, r = pc[:3], pc[3]
        p_obj = r * u
        q_f = quat_from_two_vectors(np.array([0.0, 0.0, 1.0]), u)
        q_obj = quat_mul(q_f, oc)
    q_w = quat_normalize(quat_mul(frame.quaternion, q_obj))
    return CartesianPose(frame.to_world(p_obj), q_w)


# --- chart differentials ----------------------------------------------------

def chart_jacobian(pose: CartesianPose, chart: ChartId, frame) -> np.ndarray:
    """Differential of the chart map at the pose.

    Maps world-frame pose velocities to intrinsic tangent velocities at the
    current chart point. Input columns are (dx, dy, dheading) in 2D and
    (dx, dy, dz, wx, wy, wz) in 3D, with w the world angular velocity.
    """
    if pose.space != chart.space:
        raise DimensionMismatch(f"{pose.dim}D pose cannot use chart {chart}")
    if chart.space == THREE_D:
        return _jac_3d(pose, chart, frame)
    return chart_rows_2d(chart, frame, pose.position[None],
                         np.array([pose.heading_angle]), jacobian=True)[1][0]


def _jac_3d(pose, chart, frame) -> np.ndarray:
    R_of = frame.rotation
    Gp = R_of.T  # d p_obj / d p_world
    p = frame.to_object(pose.position)
    q_obj = quat_mul(quat_conj(frame.quaternion), pose.orientation)
    d = chart_spec(chart).tangent_dim
    J = np.zeros((d, 6))

    def ori_rows(q_loc, RF, omega_F_cols):
        """Rows for the orientation factor.

        omega_F_cols: 3 x 6 angular velocity of the local base frame (object
        frame coords) per input column; world angular velocity enters as
        R_of^T w.
        """
        B = sphere_basis(quat_normalize(q_loc))
        rows = np.zeros((3, 6))
        for j in range(6):
            w_obj = Gp @ np.eye(3)[j - 3] if j >= 3 else np.zeros(3)
            w_rel = RF.T @ (w_obj - omega_F_cols[:, j])
            dq = 0.5 * quat_mul(np.concatenate(([0.0], w_rel)), q_loc)
            rows[:, j] = B.T @ dq
        return rows

    if chart == CARTESIAN_3D:
        J[0:3, 0:3] = Gp
        J[3:6] = ori_rows(q_obj, np.eye(3), np.zeros((3, 6)))
        return J

    if chart == CYLINDRICAL_3D:
        a, rho = _unit(p[:2], "cylindrical")
        b = sphere_basis(a)[:, 0]
        daz = np.zeros(6)
        daz[0:3] = (perp2(a) / rho) @ Gp[:2]
        J[0, 0:3] = (b @ perp2(a)) * daz[0:3]
        J[1, 0:3] = a @ Gp[:2]
        J[2, 0:3] = Gp[2]
        az = float(np.arctan2(p[1], p[0]))
        # local base frame: azimuthal rotation about the cylinder axis
        RF = np.array([[np.cos(az), -np.sin(az), 0.0],
                       [np.sin(az), np.cos(az), 0.0],
                       [0.0, 0.0, 1.0]])
        omega_F = np.outer(np.array([0.0, 0.0, 1.0]), daz)
        q_f = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), az)
        q_loc = quat_mul(quat_conj(q_f), q_obj)
        J[3:6] = ori_rows(q_loc, RF, omega_F)
        return J

    u, r = _unit(p, "spherical")
    Bu = sphere_basis(u)
    Pu = (np.eye(3) - np.outer(u, u)) / r
    J[0:2, 0:3] = Bu.T @ Pu @ Gp
    J[2, 0:3] = u @ Gp
    RF = minimal_rotation(u)
    omega_F = np.zeros((3, 6))
    for j in range(3):
        du = Pu @ Gp[:, j]
        dR = _minimal_rotation_diff(u, du)
        omega_F[:, j] = vee(dR @ RF.T)
    q_f = quat_from_two_vectors(np.array([0.0, 0.0, 1.0]), u)
    q_loc = quat_mul(quat_conj(q_f), q_obj)
    J[3:6] = ori_rows(q_loc, RF, omega_F)
    return J
