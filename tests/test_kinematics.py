"""Planar arm kinematics and batch integrator dynamics."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoilqr.charts import rot2
from geoilqr.kinematics import (ArmModel, JointTrajectory, batch_dynamics,
                                forward_kinematics, inverse_kinematics,
                                kinematic_jacobian, levers, link_positions,
                                link_rows, planar_ik_3link, rollout)

RNG = np.random.default_rng(3)
ARM = ArmModel(np.array([1.0, 1.0, 1.0]))


def test_link_lengths_must_be_positive():
    with pytest.raises(ValueError):
        ArmModel(np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("field, value", [
    ("link_lengths", [1.5, -1.5, 1.0]), ("link_lengths", [1.0, np.nan]),
    ("link_lengths", [1.0, np.inf]), ("link_lengths", []),
    ("link_lengths", [[1.0, 1.0]]), ("link_lengths", 1.0),
    ("base_position", [0.0, 0.0, 0.0]), ("base_position", [0.0, np.nan]),
    ("base_position", 0.0), ("base_angle", np.inf), ("base_angle", np.nan)])
def test_arm_model_rejects_bad_geometry_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        ArmModel(**{field: value})


def test_arm_model_keeps_its_fields_as_float_arrays():
    arm = ArmModel([1, 2], (0, 1), 1)
    assert arm.link_lengths.dtype == float and arm.dof == 2
    assert np.array_equal(arm.base_position, [0.0, 1.0])
    assert type(arm.base_angle) is float


def test_forward_kinematics_straight_arm():
    pose = forward_kinematics(ARM, np.zeros(3))
    assert np.allclose(pose.position, [3.0, 0.0], atol=1e-12)
    assert np.isclose(pose.heading_angle, 0.0)


def test_forward_kinematics_quarter_turn():
    pose = forward_kinematics(ARM, np.array([np.pi / 2, 0.0, 0.0]))
    assert np.allclose(pose.position, [0.0, 3.0], atol=1e-12)
    assert np.isclose(pose.heading_angle, np.pi / 2)


def test_forward_kinematics_matches_rotation_chain():
    for _ in range(20):
        q = RNG.uniform(-np.pi, np.pi, size=3)
        p = np.zeros(2)
        angle = 0.0
        for l, qi in zip(ARM.link_lengths, q):
            angle += qi
            p = p + rot2(angle) @ np.array([l, 0.0])
        pose = forward_kinematics(ARM, q)
        assert np.allclose(pose.position, p, atol=1e-12)


def test_link_positions_ends_at_effector():
    q = RNG.uniform(-np.pi, np.pi, size=3)
    pts = link_positions(ARM, q)
    assert pts.shape == (4, 2)
    assert np.allclose(pts[0], ARM.base_position)
    assert np.allclose(pts[-1], forward_kinematics(ARM, q).position)


def test_jacobian_finite_differences():
    h = 1e-6
    for _ in range(100):
        q = RNG.uniform(-np.pi, np.pi, size=3)
        J = kinematic_jacobian(ARM, q)
        num = np.zeros_like(J)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            pp = forward_kinematics(ARM, q + e)
            pm = forward_kinematics(ARM, q - e)
            num[:2, j] = (pp.position - pm.position) / (2 * h)
            num[2, j] = (pp.heading_angle - pm.heading_angle) / (2 * h)
        assert np.abs(J - num).max() < 1e-6


def test_jacobian_straight_arm_lever_and_heading_row():
    J = kinematic_jacobian(ARM, np.zeros(3))
    assert np.isclose(J[1, 0], ARM.link_lengths.sum())
    for _ in range(5):
        q = RNG.uniform(-np.pi, np.pi, size=3)
        assert np.allclose(kinematic_jacobian(ARM, q)[2], 1.0)


def test_rollout_zero_controls():
    q0 = np.array([0.1, 0.2, 0.3])
    states = rollout(q0, np.zeros((10, 3)), 0.01)
    assert np.allclose(states, q0)


def test_rollout_hand_example():
    states = rollout(np.zeros(1), np.ones((3, 1)), 0.1)
    assert np.allclose(states[:, 0], [0.0, 0.1, 0.2], atol=1e-12)


def test_batch_dynamics_matches_rollout():
    D, T, dt = 3, 20, 0.05
    S_q, S_u = batch_dynamics(D, T, dt)
    q0 = RNG.standard_normal(D)
    u = RNG.standard_normal((T, D))
    stacked = S_q @ q0 + S_u @ u.ravel()
    assert np.allclose(stacked.reshape(T, D), rollout(q0, u, dt), atol=1e-12)


def test_batch_dynamics_causality():
    D, T, dt = 2, 6, 0.1
    _, S_u = batch_dynamics(D, T, dt)
    for s in range(T):
        for t in range(s, T):
            block = S_u[s * D:(s + 1) * D, t * D:(t + 1) * D]
            assert np.allclose(block, 0.0)


def test_trajectory_integration_invariant():
    q0 = RNG.standard_normal(3)
    u = RNG.standard_normal((15, 3))
    states = rollout(q0, u, 0.01)
    traj = JointTrajectory(0.01, states, u)
    diff = traj.states[1:] - traj.states[:-1] - 0.01 * traj.controls[:-1]
    assert np.abs(diff).max() < 1e-12


def test_planar_ik_round_trip():
    arm = ArmModel(np.array([1.5, 1.5, 1.0]))
    hits = 0
    for _ in range(50):
        q = RNG.uniform(-np.pi, np.pi, size=3)
        target = forward_kinematics(arm, q)
        sol, ok = planar_ik_3link(arm, target)
        if not ok:
            continue
        hits += 1
        back = forward_kinematics(arm, sol)
        assert np.allclose(back.position, target.position, atol=1e-9)
        assert np.isclose(
            np.angle(np.exp(1j * (back.heading_angle - target.heading_angle))),
            0.0, atol=1e-9)
    assert hits >= 45


def test_damped_ik_fallback():
    arm = ArmModel(np.array([1.0, 1.0, 1.0, 1.0]))
    q = RNG.uniform(-0.8, 0.8, size=4)
    target = forward_kinematics(arm, q)
    sol, ok = inverse_kinematics(arm, target, q + 0.1)
    assert ok
    back = forward_kinematics(arm, sol)
    assert np.allclose(back.position, target.position, atol=1e-6)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2 ** 16), st.sampled_from([1, 80]), st.integers(1, 4))
def test_row_kernels_equal_plain_formulas_bit_for_bit(seed, n, dof):
    """rollout, link_rows and levers against a loop over timesteps, rows
    and links doing the same float operations in the same order: the
    planner, the CLI and the 2D fit rely on these kernels, so any change in
    them must keep every plan the same to the last bit."""
    rng = np.random.default_rng(seed)
    arm = ArmModel(rng.uniform(0.5, 1.5, dof), rng.uniform(-1, 1, 2),
                   rng.uniform(-np.pi, np.pi))
    q0, u = rng.uniform(-np.pi, np.pi, dof), rng.standard_normal((n, dof))
    dt = 0.1
    states = [q0]
    for t in range(1, n):
        states.append(states[-1] + dt * u[t - 1])
    Q = rollout(q0, u, dt)
    assert np.array_equal(Q, np.array(states))

    P, E, links = link_rows(arm, Q)
    C = levers(links)
    for i, q in enumerate(Q):
        angles = arm.base_angle + np.cumsum(q)
        units = np.exp(1j * angles)     # e^{iθ} of each link
        cos, sin = arm.link_lengths * units.real, arm.link_lengths * units.imag
        assert np.array_equal(links[i], cos + 1j * sin)
        tip = np.sum(links[i])  # numpy sums 4 or more complex terms pairwise
        expect = arm.base_position + np.array([tip.real, tip.imag])
        assert np.array_equal(P[i], expect)
        assert E[i] == units[-1]
        # joint k moves the links k.. D-1, summed from the last link
        dx, dy = np.zeros(dof), np.zeros(dof)
        for k in range(dof):
            for j in range(dof - 1, k - 1, -1):
                dx[k] += cos[j]
                dy[k] += sin[j]
        assert np.array_equal(C[i], dx + 1j * dy)
        assert np.array_equal(kinematic_jacobian(arm, q), [-dy, dx,
                                                           np.ones(dof)])
