"""Coordinate-system charts: mappings, inverses, Jacobians, singularities."""
import numpy as np
import pytest

from geoilqr.charts import (CARTESIAN_2D, CARTESIAN_3D, CYLINDRICAL_3D,
                            POLAR_2D, SPHERICAL_3D, CartesianPose, ChartId,
                            Frame2D, Frame3D, OriginSingularity, chart_jacobian,
                            chart_spec, charts_for, from_chart,
                            minimal_rotation, pole_quat, position_spec,
                            quat_from_axis_angle, quat_mul, quat_rotate,
                            rotmat_from_quat, to_chart)
from geoilqr.manifolds import Euclidean, Product, Sphere

RNG = np.random.default_rng(1)


def _random_pose_2d(rng):
    return CartesianPose.from_angle(*rng.uniform(-2, 2, size=2),
                                    rng.uniform(-np.pi, np.pi))


def _random_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def _random_pose_3d(rng):
    return CartesianPose(rng.uniform(-2, 2, size=3), _random_quat(rng))


def _random_frame_2d(rng):
    return Frame2D(rng.uniform(-1, 1, size=2), rng.uniform(-np.pi, np.pi))


def _random_frame_3d(rng):
    return Frame3D(rng.uniform(-1, 1, size=3), _random_quat(rng))


def test_chart_inventory():
    assert [c.index for c in charts_for("2d")] == [1, 2]
    assert [c.index for c in charts_for("3d")] == [1, 2, 3]
    with pytest.raises(ValueError):
        ChartId("2d", 3)


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
    assert np.allclose(cp.position.coords, p_obj, atol=1e-12)
    # orientation expressed relative to the frame heading
    rel = pose.heading_angle - frame.angle
    assert np.allclose(cp.orientation.coords,
                       [np.cos(rel), np.sin(rel)], atol=1e-12)


def test_polar_2d_example():
    frame = Frame2D(np.zeros(2), 0.0)
    pose = CartesianPose.from_angle(0.0, 2.0, np.pi / 2)
    cp = to_chart(pose, POLAR_2D, frame)
    assert np.allclose(cp.position.coords[:2], [0.0, 1.0], atol=1e-12)
    assert np.isclose(cp.position.coords[2], 2.0)
    # heading minus azimuth is zero -> local orientation (1, 0)
    assert np.allclose(cp.orientation.coords, [1.0, 0.0], atol=1e-12)


def test_spherical_3d_example():
    frame = Frame3D(np.zeros(3))
    pose = CartesianPose(np.array([0.0, 0.0, 3.0]),
                         np.array([1.0, 0.0, 0.0, 0.0]))
    cp = to_chart(pose, SPHERICAL_3D, frame)
    assert np.allclose(cp.position.coords[:3], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.isclose(cp.position.coords[3], 3.0)
    # local frame aligned with e_z -> minimal rotation is identity, so the
    # local orientation equals the world orientation
    R = minimal_rotation(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(R, np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(cp.orientation.coords[0]), 1.0, atol=1e-12)


@pytest.mark.parametrize("chart", charts_for("2d") + charts_for("3d"),
                         ids=lambda c: c.name)
def test_chart_round_trip(chart):
    for _ in range(30):
        if chart.space == "2d":
            frame, pose = _random_frame_2d(RNG), _random_pose_2d(RNG)
        else:
            frame, pose = _random_frame_3d(RNG), _random_pose_3d(RNG)
        cp = to_chart(pose, chart, frame)
        back = from_chart(cp, frame)
        assert np.allclose(back.position, pose.position, atol=1e-9)
        # quaternions are defined up to sign
        dot = abs(back.orientation @ pose.orientation)
        assert np.isclose(dot, 1.0, atol=1e-9)


def test_cartesian_chart_distance_equals_euclidean():
    frame = Frame2D(np.zeros(2), 0.0)
    a = CartesianPose.from_angle(0.3, 0.4, 0.1)
    b = CartesianPose.from_angle(-0.2, 1.0, 0.1)
    from geoilqr.manifolds import geodesic_distance
    ca = to_chart(a, CARTESIAN_2D, frame).point()
    cb = to_chart(b, CARTESIAN_2D, frame).point()
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
    assert np.isclose(cp1.position.coords[2], cp0.position.coords[2])
    assert np.allclose(cp1.orientation.coords, cp0.orientation.coords,
                       atol=1e-12)
    az0 = np.arctan2(*cp0.position.coords[1::-1])
    az1 = np.arctan2(*cp1.position.coords[1::-1])
    assert np.isclose((az1 - az0 - a + np.pi) % (2 * np.pi) - np.pi, 0.0,
                      atol=1e-12)


@pytest.mark.parametrize("chart", charts_for("2d"), ids=lambda c: c.name)
def test_chart_jacobian_2d_finite_differences(chart):
    from geoilqr.manifolds import log_map
    h = 1e-6
    for _ in range(10):
        frame = _random_frame_2d(RNG)
        pose = _random_pose_2d(RNG)
        if np.linalg.norm(frame.to_object(pose.position)) < 0.2:
            continue
        J = chart_jacobian(pose, chart, frame)
        base = to_chart(pose, chart, frame).point()
        num = np.zeros_like(J)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h

            def moved(s):
                return CartesianPose.from_angle(
                    pose.position[0] + s * e[0], pose.position[1] + s * e[1],
                    pose.heading_angle + s * e[2])

            num[:, j] = (log_map(base, to_chart(moved(+1), chart,
                                                frame).point()).coords
                         - log_map(base, to_chart(moved(-1), chart,
                                                  frame).point()).coords) / (2 * h)
        assert np.allclose(J, num, atol=1e-5)


@pytest.mark.parametrize("chart", charts_for("3d"), ids=lambda c: c.name)
def test_chart_jacobian_3d_finite_differences(chart):
    from geoilqr.manifolds import log_map
    h = 1e-6
    for _ in range(10):
        frame = _random_frame_3d(RNG)
        pose = _random_pose_3d(RNG)
        p_obj = frame.to_object(pose.position)
        if np.linalg.norm(p_obj[:2]) < 0.2 or np.linalg.norm(p_obj) < 0.2:
            continue
        J = chart_jacobian(pose, chart, frame)
        base = to_chart(pose, chart, frame).point()
        num = np.zeros_like(J)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h

            def moved(s):
                dp, omega = s * e[:3], s * e[3:]
                angle = np.linalg.norm(omega)
                dq = (np.array([1.0, 0, 0, 0]) if angle == 0.0
                      else quat_from_axis_angle(omega / angle, angle))
                q = quat_mul(dq, pose.orientation)
                return CartesianPose(pose.position + dp,
                                     q / np.linalg.norm(q))

            num[:, j] = (log_map(base, to_chart(moved(+1), chart,
                                                frame).point()).coords
                         - log_map(base, to_chart(moved(-1), chart,
                                                  frame).point()).coords) / (2 * h)
        assert np.allclose(J, num, atol=1e-5), np.abs(J - num).max()


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
    assert np.allclose(quat_rotate(a, v), rotmat_from_quat(a) @ v, atol=1e-12)
    # minimal rotation sends e_z onto each direction row, antipode included
    e_z = np.array([0.0, 0.0, 1.0])
    W = np.vstack([RNG.standard_normal((5, 3)), -e_z])
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    for q, w in zip(pole_quat(W), W):
        assert np.allclose(quat_rotate(q, e_z), w, atol=1e-12)
    assert np.allclose(pole_quat(W[0]), pole_quat(W)[0], atol=1e-15)


def test_minimal_rotation_sends_ez_to_direction():
    for _ in range(20):
        u = RNG.standard_normal(3)
        u /= np.linalg.norm(u)
        if u[2] < -0.99:
            continue
        R = minimal_rotation(u)
        assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), u, atol=1e-12)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)
