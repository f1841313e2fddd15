"""Planar serial-arm kinematics and single-integrator batch dynamics.

The stacked-state convention is q_1 = q0 with q_{t+1} = q_t + dt * u_t, so
control u_t influences states strictly after timestep t.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import CartesianPose, rot2


@dataclass(frozen=True)
class ArmModel:
    link_lengths: np.ndarray = field(default_factory=lambda: np.ones(3))
    base_position: np.ndarray = field(default_factory=lambda: np.zeros(2))
    base_angle: float = 0.0

    def __post_init__(self):
        ll = np.asarray(self.link_lengths, dtype=float)
        xy = np.asarray(self.base_position, dtype=float)
        if not (ll.ndim == 1 and ll.size and np.all((0 < ll) & (ll < np.inf))):
            raise ValueError(f"link_lengths {ll.tolist()} must be finite "
                             "and > 0")
        if xy.shape != (2,) or not np.all(np.isfinite(xy)):
            raise ValueError(f"base_position {xy.tolist()} must be 2 finite "
                             "numbers")
        if not np.isfinite(self.base_angle):
            raise ValueError(f"base_angle {self.base_angle} must be finite")
        object.__setattr__(self, "link_lengths", ll)
        object.__setattr__(self, "base_position", xy)
        object.__setattr__(self, "base_angle", float(self.base_angle))
        object.__setattr__(self, "_base", complex(*xy))   # for link_rows

    @property
    def dof(self) -> int:
        return len(self.link_lengths)


@dataclass(frozen=True)
class JointTrajectory:
    dt: float
    states: np.ndarray    # T x D joint angles
    controls: np.ndarray  # T x D joint velocities

    @property
    def horizon(self) -> int:
        return self.states.shape[0]


def link_rows(arm: ArmModel, Q: np.ndarray):
    """End-effector positions (N x 2), unit headings (N, complex) and link
    vectors (N x D, complex) of joint rows Q: link j points along
    e^{i(base_angle + q_1 + ... + q_j)}."""
    E = np.zeros(Q.shape, complex)
    np.add(arm.base_angle, np.add.accumulate(Q, axis=1), out=E.imag)
    links = arm.link_lengths * np.exp(E, out=E)
    P = np.add.reduce(links, 1, keepdims=True, initial=arm._base)
    return P.view(float), E[:, -1], links


def levers(links: np.ndarray) -> np.ndarray:
    """Sums of the link vectors (N x D, complex) from joint k on: turning
    joint k at unit rate moves the end effector at i times the k-th sum."""
    return np.add.accumulate(links[:, ::-1], axis=1)[:, ::-1]


def forward_kinematics(arm: ArmModel, q: np.ndarray) -> CartesianPose:
    P, heading, _ = link_rows(arm, np.asarray(q, dtype=float)[None])
    return CartesianPose(P[0], heading.view(float))


def link_positions(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    """Joint positions including the base, (D+1) x 2. For plotting."""
    links = link_rows(arm, np.asarray(q, dtype=float)[None])[2][0]
    joints = np.concatenate([[arm._base], links])
    return np.add.accumulate(joints).view(float).reshape(-1, 2)


def kinematic_jacobian(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    """3 x D matrix of (dx, dy, dheading) per joint rate."""
    c = levers(link_rows(arm, np.asarray(q, dtype=float)[None])[2])[0]
    return np.array([-c.imag, c.real, np.ones(arm.dof)])


def batch_dynamics(D: int, T: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacked single-integrator transfer matrices: q = S_q q0 + S_u u."""
    if D < 1 or T < 1 or dt <= 0.0:
        raise ValueError("need D >= 1, T >= 1, dt > 0")
    S_q = np.tile(np.eye(D), (T, 1))
    S_u = np.kron(np.tril(np.ones((T, T)), -1), dt * np.eye(D))
    return S_q, S_u


def rollout(q0: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """Integrated states T x D with states[0] = q0, from controls u (T x D)."""
    states = np.empty(np.shape(u))
    states[0], states[1:] = q0, np.multiply(dt, u[:-1])
    return states.cumsum(axis=0, out=states)


def planar_ik_3link(arm: ArmModel,
                    target: CartesianPose) -> tuple[np.ndarray, bool]:
    """Closed-form elbow-down IK for a 3-link arm: the heading fixes the
    wrist point, the first two links solve the standard 2R problem."""
    if arm.dof != 3:
        raise ValueError("closed-form IK needs exactly 3 links")
    l1, l2, l3 = arm.link_lengths
    phi = target.heading_angle - arm.base_angle
    w = rot2(-arm.base_angle) @ (target.position - arm.base_position)
    w = w - l3 * np.array([np.cos(phi), np.sin(phi)])
    r2 = float(w @ w)
    c2 = (r2 - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    if abs(c2) > 1.0 + 1e-9:
        return np.zeros(3), False
    q2 = np.arccos(np.clip(c2, -1.0, 1.0))
    q1 = np.arctan2(w[1], w[0]) - np.arctan2(l2 * np.sin(q2),
                                             l1 + l2 * np.cos(q2))
    q3 = phi - q1 - q2
    q = np.array([np.arctan2(np.sin(a), np.cos(a)) for a in (q1, q2, q3)])
    return q, True


def inverse_kinematics(arm: ArmModel, target: CartesianPose,
                       q_seed: np.ndarray) -> tuple[np.ndarray, bool]:
    """Damped Gauss-Newton IK on (position, heading). Returns (q, converged)."""
    q = np.asarray(q_seed, dtype=float).copy()
    tgt_heading = target.heading_angle
    for _ in range(200):
        pose = forward_kinematics(arm, q)
        err = np.empty(3)
        err[:2] = target.position - pose.position
        dh = tgt_heading - pose.heading_angle
        err[2] = np.arctan2(np.sin(dh), np.cos(dh))
        if np.linalg.norm(err) < 1e-10:
            return q, True
        J = kinematic_jacobian(arm, q)
        dq = np.linalg.solve(J.T @ J + 1e-6 * np.eye(arm.dof), J.T @ err)
        q = q + dq
    return q, bool(np.linalg.norm(err) < 1e-6)
