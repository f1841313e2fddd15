"""Demonstration generators, trial scoring, and the experiment harness."""
import os
import subprocess
import sys

import numpy as np
import pytest

import geoilqr
from geoilqr import planner
from geoilqr.charts import (CARTESIAN_2D, CYLINDRICAL_3D, POLAR_2D,
                            SPHERICAL_3D, CartesianPose, Frame2D, chart_spec,
                            charts_for, rot2)
from geoilqr.kinematics import ArmModel, JointTrajectory, planar_ik_3link
from geoilqr.manifolds import ManifoldPoint
from geoilqr.phases import ChartFit, PhaseModel
from geoilqr.planner import PlanProblem, PlanResult, solve
from geoilqr.stats import ManifoldGaussian, select_winner
from geoilqr.tasks import (ACTIVATION_START, CONTROL_WEIGHT, DEFAULT_ARM,
                           PRECISION_CAP, build_references, default_spec,
                           evaluate_trial, fit_task_model, generate_demos,
                           plan_mode, run_experiment, sample_initial_states)


def test_default_spec_counts():
    g = default_spec("grasp2d")
    assert g.demo_count == 6 and g.phase_count == 3
    b = default_spec("boxopen2d")
    assert b.demo_count == 1 and b.phase_count == 3
    with pytest.raises(ValueError):
        default_spec("juggling")


def test_generator_determinism():
    a = generate_demos(default_spec("grasp2d", seed=3))
    b = generate_demos(default_spec("grasp2d", seed=3))
    for da, db in zip(a, b):
        assert np.array_equal(da.positions, db.positions)
        assert np.array_equal(da.orientations, db.orientations)


def test_zero_noise_grasp_heading_exact():
    spec = default_spec("grasp2d", radial_sigma=0.0, orientation_sigma=0.0)
    for demo in generate_demos(spec):
        p_obj = spec.object_frame.to_object(demo.positions)
        aim = np.arctan2(-p_obj[:, 1], -p_obj[:, 0]) + spec.object_frame.angle
        heading = np.arctan2(demo.orientations[:, 1], demo.orientations[:, 0])
        err = np.angle(np.exp(1j * (heading - aim)))
        assert np.abs(err).max() < 1e-12


def test_zero_noise_box_radius_constant():
    spec = default_spec("boxopen2d", radial_sigma=0.0, orientation_sigma=0.0)
    for demo in generate_demos(spec):
        radii = np.linalg.norm(spec.object_frame.to_object(demo.positions),
                               axis=1)
        assert np.ptp(radii) < 1e-12
        assert np.allclose(radii, spec.arc_radius, atol=1e-12)


def test_grasp_radial_noise_scale():
    spec = default_spec("grasp2d", seed=1)
    demos = generate_demos(spec)
    T = spec.horizon
    third = T // 3
    for k in range(3):
        # deep inside each phase plateau the radius should scatter about the
        # phase radius with roughly the configured sigma
        samples = []
        for demo in demos:
            for t in range(k * third + 2, (k + 1) * third - third // 4):
                p_obj = spec.object_frame.to_object(demo.positions[t])
                samples.append(np.linalg.norm(p_obj))
        samples = np.array(samples)
        resid = samples - np.median(samples)
        assert np.std(resid) <= 1.5 * spec.radial_sigma + 0.05


def test_grasppose3d_generators():
    for sym in ("cylindrical", "spherical"):
        spec = default_spec("grasppose3d", seed=0, symmetry=sym)
        demos = generate_demos(spec)
        assert len(demos) == spec.demo_count
        for demo in demos:
            assert demo.positions.shape == (spec.horizon, 3)
            assert np.allclose(np.linalg.norm(demo.orientations, axis=1), 1.0,
                               atol=1e-9)


def _poses(demo):
    return [CartesianPose(p, o)
            for p, o in zip(demo.positions, demo.orientations)]


def test_replayed_demo_succeeds():
    spec = default_spec("grasp2d", radial_sigma=0.0, orientation_sigma=0.0)
    demo = generate_demos(spec)[0]
    states = []
    for pose in _poses(demo):
        q, ok = planar_ik_3link(DEFAULT_ARM, pose)
        assert ok
        states.append(q)
    states = np.array(states)
    traj = JointTrajectory(spec.dt, states, np.zeros_like(states))
    plan = PlanResult(traj, [0.0], True, 0, {})
    ok, reason = evaluate_trial(plan, spec, DEFAULT_ARM, 20)
    assert ok, reason


def test_bad_final_heading_fails_with_heading_reason():
    spec = default_spec("grasp2d", radial_sigma=0.0, orientation_sigma=0.0)
    demo = generate_demos(spec)[0]
    states = []
    for pose in _poses(demo):
        q, ok = planar_ik_3link(DEFAULT_ARM, pose)
        states.append(q)
    # same final position, heading rotated 45 degrees off the target
    final = _poses(demo)[-1]
    twisted = CartesianPose.from_angle(final.position[0], final.position[1],
                                       final.heading_angle + np.deg2rad(45.0))
    q, ok = planar_ik_3link(DEFAULT_ARM, twisted)
    assert ok
    states[-1] = q
    states = np.array(states)
    traj = JointTrajectory(spec.dt, states, np.zeros_like(states))
    plan = PlanResult(traj, [0.0], True, 0, {})
    ok, reason = evaluate_trial(plan, spec, DEFAULT_ARM, 20)
    assert not ok and "heading" in reason


def test_plan_modes():
    assert plan_mode("grasp2d") == "stepwise"
    assert plan_mode("boxopen2d") == "dense"


def test_build_references_shapes():
    spec = default_spec("grasp2d", seed=0)
    demos, gmm, model = fit_task_model(spec)
    step = build_references(model, "optimal", spec.horizon, 20, "stepwise")
    assert len(step.ts) == len(step.charts) == spec.phase_count
    assert step.precisions.shape == (spec.phase_count, 3, 3)
    dense = build_references(model, POLAR_2D, spec.horizon, 20, "dense")
    assert dense.ts.tolist() == list(range(20, spec.horizon))
    assert dense.charts == [POLAR_2D] * (spec.horizon - 20)
    assert dense.means[POLAR_2D].shape == (spec.horizon - 20, 5)


@pytest.mark.parametrize("mode, T", [("dense", 120), ("stepwise", 60)])
def test_build_references_rejects_another_horizon(mode, T):
    # a dense row past the model's horizon does not exist, and a shorter
    # stepwise plan would lose the viapoints of its last phase
    model = fit_task_model(default_spec("grasp2d", seed=0))[2]
    with pytest.raises(ValueError, match=f"plan horizon {T} differs from "
                                         "the model horizon 100"):
        build_references(model, "optimal", T, 20, mode)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind, extra", [
    ("grasp2d", {}), ("boxopen2d", {}),
    ("grasppose3d", {"symmetry": "cylindrical"}),
    ("grasppose3d", {"symmetry": "spherical"})],
    ids=["grasp2d", "boxopen2d", "cylindrical", "spherical"])
def test_phase_arrays_match_the_phase_gaussians(kind, extra, seed):
    # the phase winners and the stepwise references come from the model's
    # phase arrays, floored as a stack; ManifoldGaussian.from_moments on each
    # fitted phase and select_winner must give the same rows, bit for bit
    spec = default_spec(kind, seed=seed, **extra)
    model = fit_task_model(spec)[2]
    for c, fit in model.fits.items():
        for k, p in enumerate(model.phases):
            g = ManifoldGaussian.from_moments(
                ManifoldPoint(chart_spec(c), fit.means[k]), fit.moments[k])
            assert np.array_equal(p[c].mean.coords, g.mean.coords)
            assert np.array_equal(p[c].covariance, g.covariance)
            assert p[c].det == g.det
    assert model.phase_winners == [select_winner(p) for p in model.phases]
    if spec.space != "2d":      # the planner's references are planar
        return
    for selector in charts_for("2d") + ["optimal"]:
        refs = build_references(model, selector, spec.horizon,
                                ACTIVATION_START, "stepwise")
        phases = [model.phases[k]
                  for k in np.argmax(model.weights[refs.ts], axis=1)]
        charts = [select_winner(p) if selector == "optimal" else selector
                  for p in phases]
        assert refs.charts == charts
        for chart in set(charts):
            assert np.array_equal(refs.means[chart], [
                p[c].mean.coords for p, c in zip(phases, charts)
                if c == chart])
        vals, vecs = np.linalg.eigh([p[c].covariance
                                     for p, c in zip(phases, charts)])
        vals = np.maximum(vals, 1.0 / PRECISION_CAP)[:, None]
        assert np.array_equal(refs.precisions,
                              (vecs / vals) @ np.swapaxes(vecs, 1, 2))


def _split_winner_model() -> PhaseModel:
    """A planar model whose phases all go to Cartesian and whose timesteps
    all go to polar: each polar phase varies with time along its azimuth,
    so its covariance given time (a reference's) is smaller than the
    Cartesian one, which does not vary with time, though its phase
    covariance is larger."""
    K, c_ss, s = 3, np.full(3, 0.01), np.array([1 / 6, 1 / 2, 5 / 6])
    fits = {CARTESIAN_2D: ChartFit(np.tile([1.0, 0.5, 1.0, 0.0], (K, 1)),
                                   np.tile(0.01 * np.eye(3), (K, 1, 1)),
                                   np.zeros((K, 3))),
            POLAR_2D: ChartFit(np.tile([1.0, 0.0, 1.0, 1.0, 0.0], (K, 1)),
                               np.tile(0.02 * np.eye(3), (K, 1, 1)),
                               np.tile([np.sqrt(0.0199 * 0.01), 0, 0],
                                       (K, 1)))}
    return PhaseModel([CARTESIAN_2D, POLAR_2D], 100, np.full(K, 1 / K), s,
                      np.full(K, 0.01), s, c_ss, fits)


def test_optimal_references_take_the_winners_of_their_mode():
    # stepwise rows are phases and take phase_winners; dense rows are
    # timesteps and take winners
    model = _split_winner_model()
    assert model.phase_winners == [CARTESIAN_2D] * 3
    assert model.winners == [POLAR_2D] * 100
    step = build_references(model, "optimal", 100, ACTIVATION_START,
                            "stepwise")
    assert len(step.ts) == 3 and step.charts == [CARTESIAN_2D] * 3
    dense = build_references(model, "optimal", 100, ACTIVATION_START,
                             "dense")
    assert dense.charts == [POLAR_2D] * (100 - ACTIVATION_START)


def test_sampled_initial_states_vary():
    spec = default_spec("grasp2d", seed=0)
    demos = generate_demos(spec)
    rng = np.random.default_rng(0)
    qs = sample_initial_states(demos, DEFAULT_ARM, 8, rng)
    assert qs.shape == (8, 3)
    assert np.std(qs, axis=0).min() > 0.0


def test_box_polar_succeeds_cartesian_fails():
    spec = default_spec("boxopen2d", seed=0)
    demos, _, model = fit_task_model(spec)
    q0, ok = planar_ik_3link(DEFAULT_ARM, _poses(demos[0])[0])
    assert ok
    outcomes = {}
    for chart in (POLAR_2D, CARTESIAN_2D):
        refs = build_references(model, chart, spec.horizon, 20, "dense")
        problem = PlanProblem(DEFAULT_ARM, q0, spec.horizon, spec.dt,
                              spec.object_frame, refs, 1e-2, 20)
        result = solve(problem)
        outcomes[chart] = evaluate_trial(result, spec, DEFAULT_ARM, 20)
    assert outcomes[POLAR_2D][0]
    assert not outcomes[CARTESIAN_2D][0]


@pytest.mark.parametrize("kind", ["grasp2d", "boxopen2d"])
def test_plans_are_invariant_under_a_rigid_motion_of_arm_and_object(kind):
    # the charts live in the object frame, so moving the arm base and the
    # object by one rigid motion, with the same joint angles q0, changes no
    # plan
    spec = default_spec(kind, seed=0)
    demos, _, model = fit_task_model(spec)
    q0s = sample_initial_states(demos, DEFAULT_ARM, 2,
                                np.random.default_rng(1))
    arm, frame = DEFAULT_ARM, spec.object_frame
    for strategy in (CARTESIAN_2D, POLAR_2D, "optimal"):
        refs = build_references(model, strategy, spec.horizon,
                                ACTIVATION_START, plan_mode(kind))

        def plan(arm, frame, q0):
            return solve(PlanProblem(arm, q0, spec.horizon, spec.dt, frame,
                                     refs, CONTROL_WEIGHT, ACTIVATION_START))

        for angle, shift in ((0.7, (0.4, -1.1)), (-2.3, (-3.0, 2.0))):
            R = rot2(angle)
            moved_arm = ArmModel(arm.link_lengths,
                                 R @ arm.base_position + shift,
                                 arm.base_angle + angle)
            moved_frame = Frame2D(R @ frame.translation + shift,
                                  frame.angle + angle)
            for q0 in q0s:
                a, b = plan(arm, frame, q0), plan(moved_arm, moved_frame, q0)
                assert a.iterations == b.iterations
                assert np.abs(a.trajectory.states
                              - b.trajectory.states).max() <= 1e-9


def test_run_experiment_report_consistency():
    spec = default_spec("grasp2d", seed=0)
    demos, _, model = fit_task_model(spec)
    report = run_experiment(spec, "optimal", n_trials=4, model=model,
                            demos=demos)
    assert report.total == 4
    assert report.successes == sum(1 for t in report.trials if t["success"])
    assert all(w == POLAR_2D for w in report.winners_per_phase)
    d = report.to_dict()
    assert d["successes"] == report.successes
    assert len(d["trials"]) == 4


def test_fixed_polar_matches_optimal_when_polar_wins_everywhere():
    spec = default_spec("grasp2d", seed=0)
    demos, _, model = fit_task_model(spec)
    assert all(w == POLAR_2D for w in model.winners)
    a = run_experiment(spec, "optimal", n_trials=2, model=model, demos=demos)
    b = run_experiment(spec, POLAR_2D, n_trials=2, model=model, demos=demos)
    for ta, tb in zip(a.trials, b.trials):
        assert np.allclose(ta["q0"], tb["q0"])
        assert ta["success"] == tb["success"]
        assert np.isclose(ta["final_cost"], tb["final_cost"])


def test_failed_trials_are_data():
    spec = default_spec("grasp2d", seed=0)
    demos, _, model = fit_task_model(spec)
    report = run_experiment(spec, CARTESIAN_2D, n_trials=3, model=model,
                            demos=demos)
    assert report.total == 3   # no exception even if trials fail


def test_parallel_trials_match_serial(monkeypatch):
    # each path from an empty slot: forked workers get the parent's
    spec = default_spec("grasp2d", seed=0)
    demos, _, model = fit_task_model(spec)
    monkeypatch.setattr(planner, "_last_solve", (None, None))
    serial = run_experiment(spec, "optimal", n_trials=2, model=model,
                            demos=demos, jobs=1)
    monkeypatch.setattr(planner, "_last_solve", (None, None))
    parallel = run_experiment(spec, "optimal", n_trials=2, model=model,
                              demos=demos, jobs=2)
    for ts, tp in zip(serial.trials, parallel.trials):
        assert ts["success"] == tp["success"]
        assert np.isclose(ts["final_cost"], tp["final_cost"])
        assert ts["forward_passes"] == tp["forward_passes"] >= ts["iterations"]


# (success, reason, iterations, final cost) of the first three trials of
# run_experiment at seed 0, per task and strategy, as the planner gave them
# before its kernels were rewritten to make fewer numpy calls
RECORDED_TRIALS = {
    ("grasp2d", "fixed-1"): [
        (False, "radius error 0.061 m", 13, 8.067795423985121),
        (False, "radius error 0.073 m", 17, 6.199763212012616),
        (False, "radius error 0.079 m", 8, 3.4473481113100117)],
    ("grasp2d", "fixed-2"): [(True, "ok", 13, 9.20890149394755),
                             (True, "ok", 11, 4.50696275694629),
                             (True, "ok", 8, 2.918300640757523)],
    ("boxopen2d", "fixed-1"): [
        (False, "radius deviation 25.2%", 18, 17635.000833519825),
        (False, "radius deviation 26.0%", 26, 14690.679100563744),
        (False, "radius deviation 25.2%", 25, 14693.83879930285)],
    ("boxopen2d", "fixed-2"): [(True, "ok", 11, 15.099375313213411),
                               (True, "ok", 11, 15.260763424014316),
                               (True, "ok", 12, 15.189481395908647)],
}
RECORDED_TRIALS |= {(kind, "optimal"): RECORDED_TRIALS[kind, "fixed-2"]
                    for kind in ("grasp2d", "boxopen2d")}


@pytest.mark.parametrize("kind", ["grasp2d", "boxopen2d"])
def test_planning_outcomes_match_recorded_values(kind):
    spec = default_spec(kind, seed=0)
    demos, _, model = fit_task_model(spec)
    for strategy in (CARTESIAN_2D, POLAR_2D, "optimal"):
        report = run_experiment(spec, strategy, 3, model=model, demos=demos)
        recorded = RECORDED_TRIALS[kind, report.strategy]
        for trial, (ok, reason, iterations, cost) in zip(report.trials,
                                                         recorded, strict=True):
            assert (trial["success"], trial["reason"],
                    trial["iterations"]) == (ok, reason, iterations)
            assert trial["final_cost"] == pytest.approx(cost, rel=1e-12,
                                                        abs=0.0)


def test_worker_pools_start_after_the_parent_loads_the_solver():
    # forked workers inherit the solver from the parent, rather than each
    # loading it on its first banded solve
    src = os.path.dirname(os.path.dirname(geoilqr.__file__))
    code = ("from concurrent.futures import ProcessPoolExecutor\n"
            "from geoilqr.planner import banded_solver\n"
            "from geoilqr.tasks import default_spec, run_experiment\n"
            "init, started = ProcessPoolExecutor.__init__, []\n"
            "def spy(*args, **kwargs):\n"
            "    assert banded_solver.cache_info().currsize == 1\n"
            "    started.append(True)\n"
            "    init(*args, **kwargs)\n"
            "ProcessPoolExecutor.__init__ = spy\n"
            "run_experiment(default_spec('grasp2d'), 'optimal', n_trials=2, "
            "jobs=2)\n"
            "assert started == [True]")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_3d_symmetry_selects_matching_chart():
    for sym, chart in (("cylindrical", CYLINDRICAL_3D),
                       ("spherical", SPHERICAL_3D)):
        spec = default_spec("grasppose3d", seed=0, symmetry=sym)
        _, _, model = fit_task_model(spec)
        dets = model.phase_dets()
        for k in range(spec.phase_count):
            others = [dets[c][k] for c in dets if c != chart]
            assert dets[chart][k] < min(others)
