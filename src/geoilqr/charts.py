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


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def vee(M: np.ndarray) -> np.ndarray:
    A = 0.5 * (M - M.T)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


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
    q = np.where((d <= -1.0 + 1e-9)[..., None], (0.0, 1.0, 0.0, 0.0), q)
    return quat_normalize(q)


def minimal_rotation(u: np.ndarray) -> np.ndarray:
    """Rotation matrix of the minimal rotation taking e_z to u."""
    e = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(e @ u, -1.0, 1.0))
    if c <= -1.0 + 1e-9:
        return rotmat_from_quat(pole_quat(u))
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
        x = chart_rows_3d(chart, frame, pose.position[None],
                          pose.orientation[None])[0]
    else:
        x = chart_rows_2d(chart, frame, pose.position[None],
                          np.array([pose.heading_angle]))[0][0]
    k = _POS_SPECS[chart].ambient_dim
    return ChartPose(chart, ManifoldPoint(_POS_SPECS[chart], x[:k]),
                     ManifoldPoint(orientation_spec(chart), x[k:]))


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
        p_obj = np.array([pc[2] * pc[0], pc[2] * pc[1], pc[3]])
        q_obj = quat_mul(azimuth_quat(np.arctan2(pc[1], pc[0])), oc)
    else:
        p_obj = pc[3] * pc[:3]
        q_obj = quat_mul(pole_quat(pc[:3]), oc)
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
        b = sphere_basis(a)[:, 0]
        daz = (perp2(a) / rho) @ Gp[:2]
        J[0, 0:3] = (b @ perp2(a)) * daz
        J[1, 0:3] = a @ Gp[:2]
        J[2, 0:3] = Gp[2]
        RF = rotmat_from_quat(azimuth_quat(np.arctan2(a[1], a[0])))
        omega_F[2, 0:3] = daz
    else:
        u, r = x[:3], x[3]
        Pu = (np.eye(3) - np.outer(u, u)) / r
        J[0:2, 0:3] = sphere_basis(u).T @ Pu @ Gp
        J[2, 0:3] = u @ Gp
        RF = minimal_rotation(u)
        for j in range(3):
            dR = _minimal_rotation_diff(u, Pu @ Gp[:, j])
            omega_F[:, j] = vee(dR @ RF.T)
    # the local orientation turns with R_F^T (R_of^T w - omega_F), w the
    # world angular velocity
    q_loc = x[-4:]
    w_obj = np.zeros((3, 6))
    w_obj[:, 3:] = Gp
    w_rel = (RF.T @ (w_obj - omega_F)).T
    dq = 0.5 * quat_mul(np.column_stack([np.zeros(6), w_rel]), q_loc)
    J[-3:] = sphere_basis(q_loc).T @ dq.T
    return J
