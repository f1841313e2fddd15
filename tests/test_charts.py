"""Coordinate-system charts: mappings, inverses, Jacobians, singularities."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geoilqr.charts import (CARTESIAN_2D, CARTESIAN_3D, CYLINDRICAL_3D,
                            POLAR_2D, RADIUS_EPS, SPHERICAL_3D, CartesianPose,
                            ChartId, Frame2D, Frame3D, OriginSingularity,
                            chart_jacobian, chart_spec, charts_for,
                            chart_rows_2d, from_chart, planar_factors,
                            planar_jacobian, planar_rows, pole_quat,
                            position_spec, quat_conj, quat_from_axis_angle,
                            quat_mul, rotmat_from_quat, to_chart)
from geoilqr.kinematics import ArmModel, levers, link_rows
from geoilqr.manifolds import (AntipodalPoint, Euclidean, Product,
                               SpecMismatch, Sphere, _s1_signs, log_rows)

RNG = np.random.default_rng(1)


def _random_pose_2d(rng):
    return CartesianPose.from_angle(*rng.uniform(-2, 2, size=2),
                                    rng.uniform(-np.pi, np.pi))


def _random_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def _random_pose_3d(rng):
    return CartesianPose(rng.uniform(-2, 2, size=3), _random_quat(rng))


def _quat_rotate(q, v):
    """v rotated by the unit quaternion q, as the sandwich q v q*."""
    return quat_mul(quat_mul(q, np.concatenate(([0.0], v))), quat_conj(q))[1:]


def _random_frame_2d(rng):
    return Frame2D(rng.uniform(-1, 1, size=2), rng.uniform(-np.pi, np.pi))


def _random_frame_3d(rng):
    return Frame3D(rng.uniform(-1, 1, size=3), _random_quat(rng))


def test_chart_inventory():
    assert [c.index for c in charts_for("2d")] == [1, 2]
    assert [c.index for c in charts_for("3d")] == [1, 2, 3]
    assert charts_for("2d")[1] is POLAR_2D
    with pytest.raises(ValueError):
        ChartId("2d", 3)


@pytest.mark.parametrize("position, orientation", [
    ([0.0, 0.0], [1.0, 0.0, 0.0, 0.0]), ([0.0, 0.0], [1.0, 1.0]),
    ([0.0, 0.0], [np.nan, 0.0]), ([0.0, 0.0, 0.0], [np.nan, 0, 0, 0])],
    ids=["shape", "non-unit", "nan-heading", "nan-quaternion"])
def test_pose_validation(position, orientation):
    with pytest.raises(ValueError):
        CartesianPose(np.array(position), np.array(orientation))


def test_position_specs_match_table():
    assert position_spec(CARTESIAN_2D) == Euclidean(2)
    assert position_spec(POLAR_2D) == Product((Sphere(1), Euclidean(1)))
    assert position_spec(CARTESIAN_3D) == Euclidean(3)
    assert position_spec(CYLINDRICAL_3D) == Product((Sphere(1), Euclidean(2)))
    assert position_spec(SPHERICAL_3D) == Product((Sphere(2), Euclidean(1)))


def test_cartesian_2d_chart_is_object_frame_identity():
    frame = _random_frame_2d(RNG)
    pose = _random_pose_2d(RNG)
    cp = to_chart(pose, CARTESIAN_2D, frame)
    p_obj = frame.to_object(pose.position)
    assert np.allclose(cp.coords[:2], p_obj, atol=1e-12)
    # orientation expressed relative to the frame heading
    rel = pose.heading_angle - frame.angle
    assert np.allclose(cp.coords[2:],
                       [np.cos(rel), np.sin(rel)], atol=1e-12)


def test_polar_2d_example():
    frame = Frame2D(np.zeros(2), 0.0)
    pose = CartesianPose.from_angle(0.0, 2.0, np.pi / 2)
    cp = to_chart(pose, POLAR_2D, frame)
    assert np.allclose(cp.coords[:2], [0.0, 1.0], atol=1e-12)
    assert np.isclose(cp.coords[2], 2.0)
    # heading minus azimuth is zero -> local orientation (1, 0)
    assert np.allclose(cp.coords[3:], [1.0, 0.0], atol=1e-12)


def test_spherical_3d_example():
    frame = Frame3D(np.zeros(3))
    pose = CartesianPose(np.array([0.0, 0.0, 3.0]),
                         np.array([1.0, 0.0, 0.0, 0.0]))
    cp = to_chart(pose, SPHERICAL_3D, frame)
    assert np.allclose(cp.coords[:3], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.isclose(cp.coords[3], 3.0)
    # local frame aligned with e_z -> minimal rotation is identity, so the
    # local orientation equals the world orientation
    R = rotmat_from_quat(pole_quat(np.array([0.0, 0.0, 1.0])))
    assert np.allclose(R, np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(cp.coords[4]), 1.0, atol=1e-12)


@pytest.mark.parametrize("chart", charts_for("2d") + charts_for("3d"),
                         ids=lambda c: c.name)
def test_chart_round_trip(chart):
    for _ in range(30):
        if chart.space == "2d":
            frame, pose = _random_frame_2d(RNG), _random_pose_2d(RNG)
        else:
            frame, pose = _random_frame_3d(RNG), _random_pose_3d(RNG)
        cp = to_chart(pose, chart, frame)
        back = from_chart(cp, chart, frame)
        assert np.allclose(back.position, pose.position, atol=1e-9)
        # quaternions are defined up to sign
        dot = abs(back.orientation @ pose.orientation)
        assert np.isclose(dot, 1.0, atol=1e-9)


def test_from_chart_rejects_a_point_of_another_chart():
    # cylindrical and spherical points have the same 8 coordinates
    frame, pose = _random_frame_3d(RNG), _random_pose_3d(RNG)
    with pytest.raises(SpecMismatch):
        from_chart(to_chart(pose, CYLINDRICAL_3D, frame), SPHERICAL_3D, frame)


def test_cartesian_chart_distance_equals_euclidean():
    frame = Frame2D(np.zeros(2), 0.0)
    a = CartesianPose.from_angle(0.3, 0.4, 0.1)
    b = CartesianPose.from_angle(-0.2, 1.0, 0.1)
    from geoilqr.manifolds import geodesic_distance
    ca = to_chart(a, CARTESIAN_2D, frame)
    cb = to_chart(b, CARTESIAN_2D, frame)
    d = geodesic_distance(ca, cb)
    pos = np.linalg.norm(a.position - b.position)
    assert np.isclose(d, pos, atol=1e-12)


def test_origin_singularity():
    frame = Frame2D(np.zeros(2), 0.0)
    pose = CartesianPose.from_angle(0.0, 0.0, 0.3)
    with pytest.raises(OriginSingularity):
        to_chart(pose, POLAR_2D, frame)


def test_rotation_equivariance_polar():
    # rotating the pose about the object leaves radius and local orientation
    # unchanged and advances the azimuth by the same angle
    frame = Frame2D(np.zeros(2), 0.0)
    pose = CartesianPose.from_angle(1.0, 0.5, 0.7)
    cp0 = to_chart(pose, POLAR_2D, frame)
    a = 0.9
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    rotated = CartesianPose.from_angle(*(R @ pose.position),
                                       pose.heading_angle + a)
    cp1 = to_chart(rotated, POLAR_2D, frame)
    assert np.isclose(cp1.coords[2], cp0.coords[2])
    assert np.allclose(cp1.coords[3:], cp0.coords[3:], atol=1e-12)
    az0 = np.arctan2(*cp0.coords[1::-1])
    az1 = np.arctan2(*cp1.coords[1::-1])
    assert np.isclose((az1 - az0 - a + np.pi) % (2 * np.pi) - np.pi, 0.0,
                      atol=1e-12)


CHARTS = charts_for("2d") + charts_for("3d")
SHORT = 1e-3   # how far from a singular point the pose sits


def _chart_case_pose(chart, seed, where):
    """Frame and world pose whose object-frame position is anywhere
    ("random"), SHORT from the chart's origin ("origin"), or whose sphere
    coordinates sit SHORT from the antipode of their reference point: the
    azimuth and local heading near -e1, the spherical direction near -e_z,
    where the minimal rotation is singular ("antipode")."""
    rng = np.random.default_rng(seed)
    r = SHORT if where == "origin" else rng.uniform(0.3, 2.0)
    near = np.pi - SHORT if where == "antipode" else None
    az = near or rng.uniform(-np.pi, np.pi)
    if chart.space == "2d":
        frame = _random_frame_2d(rng)
        local = near or rng.uniform(-np.pi, np.pi)
        heading = frame.angle + local + az * (chart == POLAR_2D)
        p = frame.to_world(r * np.array([np.cos(az), np.sin(az)]))
        return frame, CartesianPose.from_angle(*p, heading)
    frame = _random_frame_3d(rng)
    if chart == CYLINDRICAL_3D:
        p = np.array([r * np.cos(az), r * np.sin(az), rng.uniform(-1, 1)])
    else:
        tilt = near or np.arccos(rng.uniform(-1, 1))
        p = r * np.array([np.sin(tilt) * np.cos(az),
                          np.sin(tilt) * np.sin(az), np.cos(tilt)])
    return frame, CartesianPose(frame.to_world(p), _random_quat(rng))


def _moved(pose, step):
    """The pose moved by step: (dx, dy, dheading) in 2D; (dx, dy, dz) and a
    world rotation vector in 3D."""
    if pose.dim == 2:
        return CartesianPose.from_angle(*(pose.position + step[:2]),
                                        pose.heading_angle + step[2])
    angle, q = np.linalg.norm(step[3:]), pose.orientation
    if angle:
        q = quat_mul(quat_from_axis_angle(step[3:], angle), q)
    return CartesianPose(pose.position + step[:3], q / np.linalg.norm(q))


PLANAR_MASKS = ["cartesian", "polar", "mixed"]


def _planar_mask(rng, n, masks):
    """planar_rows' polar argument and the one bool per row it stands for."""
    polar = {"cartesian": False, "polar": True,
             "mixed": rng.random(n) < 0.5}[masks]
    return polar, np.broadcast_to(polar, n)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2 ** 16), st.sampled_from([1, 80]),
       st.sampled_from(PLANAR_MASKS))
def test_planar_pass_equals_plain_formulas_bit_for_bit(seed, n, masks):
    """planar_rows against each chart's formulas, row by row, with the same
    float operations in the same order. The frame map runs on all rows at
    once, as in the kernel, and each complex product on one-element arrays:
    numpy's complex product may fuse a multiply and an add, Python's does
    not."""
    rng = np.random.default_rng(seed)
    frame = _random_frame_2d(rng)
    P, H = rng.uniform(-2, 2, (n, 2)), rng.uniform(-np.pi, np.pi, n)
    polar, rows = _planar_mask(rng, n, masks)
    X, r = planar_rows(frame, P, np.exp(1j * H), np.logical_not(polar))
    p = frame.to_object(P)
    for i, is_polar in enumerate(rows):
        radius = np.sqrt(p[i, 0] * p[i, 0] + p[i, 1] * p[i, 1])
        assert r[i] == (radius if is_polar else 1.0)
        a = p[i] / max(r[i], RADIUS_EPS)
        assert X[i, 0] == a[0] + 1j * a[1]
        heading = np.exp(1j * H[i:i + 1]) * frame.world_to_object
        if is_polar:
            heading = heading * X[i:i + 1, 0].conj()
        assert X[i, 1] == heading[0]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2 ** 16), st.sampled_from([1, 80]),
       st.sampled_from(PLANAR_MASKS), st.integers(1, 4))
def test_planar_jacobian_equals_plain_formulas_bit_for_bit(seed, n, masks,
                                                           dof):
    """planar_jacobian against a loop over its rows doing the same float
    operations in the same order, complex ones on one-element arrays."""
    rng = np.random.default_rng(seed)
    G = _random_frame_2d(rng).world_to_object
    C = rng.standard_normal((n, dof)) + 1j * rng.standard_normal((n, dof))
    turns, r = rng.standard_normal(dof), rng.uniform(1e-6, 2, n)
    a = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    s = np.where(rng.random((n, 2)) < 0.5, -1.0, 1.0)
    polar, rows = _planar_mask(rng, n, masks)
    J = planar_jacobian(G, C, turns, a, r, planar_factors(rows, s),
                        np.empty((n, 3, dof)))
    assert J.shape == (n, 3, dof)
    for i, is_polar in enumerate(rows):
        if is_polar:
            z = C[i] * (a[i:i + 1].conj() * -G / r[i:i + 1])
            expect = [z.real * -s[i, 0], z.imag * r[i],
                      s[i, 1] * (turns + z.real)]
        else:
            z = C[i] * (1j * G)
            expect = [z.real, z.imag * r[i], s[i, 1] * turns]
        assert np.array_equal(J[i], expect)


@pytest.mark.parametrize("chart, distance", [(POLAR_2D, 1.5 * RADIUS_EPS),
                                             (CARTESIAN_2D, 0.0)],
                         ids=["polar-near-origin", "cartesian-on-origin"])
@pytest.mark.parametrize("seed", range(5))
def test_planar_jacobian_of_joints_matches_central_differences(chart,
                                                               distance,
                                                               seed):
    """planar_jacobian of an arm's joint motions against central
    differences of the chart map, at an end effector 1.5·RADIUS_EPS from the
    object origin in the polar chart, and exactly on it in the Cartesian
    chart. The steps stay well inside the distance to the origin."""
    rng = np.random.default_rng(seed)
    arm = ArmModel(rng.uniform(0.5, 1.5, 3), rng.uniform(-1, 1, 2),
                   rng.uniform(-np.pi, np.pi))
    q = rng.uniform(-np.pi, np.pi, 3)
    P, E, links = link_rows(arm, q[None])
    away = distance * np.exp(1j * rng.uniform(-np.pi, np.pi))
    frame = Frame2D(P[0] - (away.real, away.imag), rng.uniform(-np.pi, np.pi))
    polar, spec = chart == POLAR_2D, chart_spec(chart)
    X, r = planar_rows(frame, P, E, not polar)
    x = chart_rows_2d(chart, frame, P, np.angle(E))
    s = _s1_signs(np.stack([x[:, :2], x[:, -2:]], 1))
    J = planar_jacobian(frame.world_to_object, levers(links), 1.0, X[:, 0],
                        r, planar_factors(np.array([polar]), s),
                        np.empty((1, 3, 3)))[0]
    # rounding of the object-frame position, ~1e-16 against a radius of
    # 1.5e-6, leaves the polar quotients good to about 1e-6
    h = 2e-10 if polar else 1e-6
    num = np.empty_like(J)
    for k, step in enumerate(np.diag(np.full(3, h))):
        ends = [link_rows(arm, (q + sign * step)[None]) for sign in (1, -1)]
        logs = log_rows(spec, x, np.vstack([
            chart_rows_2d(chart, frame, Pk, np.angle(Ek))
            for Pk, Ek, _ in ends]))
        num[:, k] = (logs[0] - logs[1]) / (2 * h)
    assert (np.abs(J - num) <= 1e-5 * np.abs(num).max(axis=1,
                                                       keepdims=True)).all()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.sampled_from(CHARTS), st.integers(0, 2 ** 16),
       st.sampled_from(["random", "origin", "antipode"]))
@example(POLAR_2D, 1, "origin")
@example(POLAR_2D, 2, "antipode")
@example(CYLINDRICAL_3D, 3, "origin")
@example(CYLINDRICAL_3D, 4, "antipode")
@example(SPHERICAL_3D, 5, "origin")
@example(SPHERICAL_3D, 6, "antipode")
def test_chart_jacobian_matches_central_differences(chart, seed, where):
    frame, pose = _chart_case_pose(chart, seed, where)
    J = chart_jacobian(pose, chart, frame)
    spec, base = chart_spec(chart), to_chart(pose, chart, frame)
    # position steps well inside the distance to a singular point of the
    # chart map (the origin, and -e_z of the spherical chart's minimal
    # rotation), else large enough to move each coordinate past ZERO_TOL
    singular = where == "origin" or (where, chart) == ("antipode",
                                                      SPHERICAL_3D)
    h = np.full(J.shape[1], 1e-6)
    h[:pose.dim] *= SHORT if singular else 1.0
    num = np.empty_like(J)
    for j, step in enumerate(np.diag(h)):
        ends = [to_chart(_moved(pose, sign * step), chart, frame)
                for sign in (1, -1)]
        logs = log_rows(spec, base.coords[None], np.array([e.coords
                                                            for e in ends]))
        num[:, j] = (logs[0] - logs[1]) / (2 * h[j])
    assert np.abs(J - num).max() <= 1e-5 * max(np.abs(num).max(), 1.0)


def test_spherical_jacobian_raises_where_its_frame_turns_a_half_turn():
    # the minimal rotation from e_z has no derivative at the direction -e_z
    pose = CartesianPose(np.array([0.0, 0.0, -0.5]),
                         np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(AntipodalPoint, match="spherical-3d"):
        chart_jacobian(pose, SPHERICAL_3D, Frame3D(np.zeros(3)))


def test_jacobian_shapes():
    frame2, frame3 = Frame2D(np.zeros(2)), Frame3D(np.zeros(3))
    pose2 = CartesianPose.from_angle(1.0, 0.5, 0.2)
    pose3 = CartesianPose(np.array([0.5, 0.4, 0.3]), _random_quat(RNG))
    for chart in charts_for("2d"):
        assert chart_jacobian(pose2, chart, frame2).shape[1] == 3
    for chart in charts_for("3d"):
        assert chart_jacobian(pose3, chart, frame3).shape[1] == 6


def test_cartesian_2d_jacobian_position_identity():
    frame = Frame2D(np.zeros(2), 0.0)
    pose = CartesianPose.from_angle(0.8, -0.3, 0.4)
    J = chart_jacobian(pose, CARTESIAN_2D, frame)
    assert np.allclose(J[:2, :2], np.eye(2), atol=1e-12)
    assert np.allclose(J[:2, 2], 0.0, atol=1e-12)


def test_quaternion_helpers():
    a = _random_quat(RNG)
    b = _random_quat(RNG)
    # rotation composition matches matrix composition
    Rab = rotmat_from_quat(quat_mul(a, b))
    assert np.allclose(Rab, rotmat_from_quat(a) @ rotmat_from_quat(b),
                       atol=1e-12)
    v = RNG.standard_normal(3)
    assert np.allclose(_quat_rotate(a, v), rotmat_from_quat(a) @ v, atol=1e-12)
    # minimal rotation sends e_z onto each direction row, antipode included
    e_z = np.array([0.0, 0.0, 1.0])
    W = np.vstack([RNG.standard_normal((5, 3)), -e_z])
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    for q, w in zip(pole_quat(W), W):
        assert np.allclose(_quat_rotate(q, e_z), w, atol=1e-12)
    assert np.allclose(pole_quat(W[0]), pole_quat(W)[0], atol=1e-15)


def test_minimal_rotation_sends_ez_to_direction():
    for _ in range(20):
        u = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        if u[2] < -0.99:
            continue
        R = rotmat_from_quat(pole_quat(u))
        assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), u, atol=1e-12)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)
