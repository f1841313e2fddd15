"""Command-line interface: exit codes, outputs, determinism."""
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import geoilqr
from geoilqr.cli import main
from geoilqr.io import demos_to_dict
from geoilqr.kinematics import forward_kinematics, rollout
from geoilqr.phases import PhaseModel
from geoilqr.planner import PlanProblem, solve
from geoilqr.tasks import (ACTIVATION_START, CONTROL_WEIGHT, DEFAULT_ARM,
                           build_references, default_spec, fit_task_model,
                           generate_demos)


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": {"kind": "grasp2d"},
        "seed": 0,
        "trials": 3,
        "out_dir": str(tmp_path / "out"),
    }))
    return str(path)


def _run(*argv):
    return main(list(argv))


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as e:
        _run("--help")
    assert e.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("demo-gen", "fit", "plan", "evaluate"):
        assert cmd in out


def test_unknown_flag_is_hard_error(cfg):
    with pytest.raises(SystemExit) as e:
        _run("demo-gen", "--config", cfg, "--bogus")
    assert e.value.code == 2


def test_missing_config_exit_2(capsys, tmp_path):
    rc = _run("demo-gen", "--config", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": {"kind": "grasp2d"}, "wat": 1}))
    assert _run("demo-gen", "--config", str(path)) == 2
    path.write_text(json.dumps({"task": {"kind": "grasp2d", "wat": 1}}))
    assert _run("demo-gen", "--config", str(path)) == 2


def test_demo_gen_outputs(cfg, tmp_path):
    assert _run("demo-gen", "--config", cfg) == 0
    data = json.loads((tmp_path / "out" / "demos.json").read_text())
    assert data["schema_version"] == 1
    assert len(data["demos"]) == 6
    assert "config" in data
    assert (tmp_path / "out" / "demos.csv").exists()


def test_demo_gen_deterministic(cfg, tmp_path):
    assert _run("demo-gen", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    assert _run("demo-gen", "--config", cfg, "--out", str(tmp_path / "b")) == 0
    a = (tmp_path / "a" / "demos.json").read_bytes()
    b = (tmp_path / "b" / "demos.json").read_bytes()
    assert a == b


def test_seed_override_changes_output(cfg, tmp_path, monkeypatch):
    _run("demo-gen", "--config", cfg, "--out", str(tmp_path / "a"))
    _run("demo-gen", "--config", cfg, "--seed", "9",
         "--out", str(tmp_path / "b"))
    assert ((tmp_path / "a" / "demos.json").read_bytes()
            != (tmp_path / "b" / "demos.json").read_bytes())
    monkeypatch.setenv("GEOILQR_SEED", "9")
    _run("demo-gen", "--config", cfg, "--out", str(tmp_path / "c"))
    assert ((tmp_path / "b" / "demos.json").read_text().replace('"b"', '"c"')
            is not None)
    b = json.loads((tmp_path / "b" / "demos.json").read_text())
    c = json.loads((tmp_path / "c" / "demos.json").read_text())
    assert b["demos"] == c["demos"]


def test_fit_outputs_and_winner_column(cfg, tmp_path, capsys):
    assert _run("demo-gen", "--config", cfg) == 0
    assert _run("fit", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert "polar" in out and "*" in out
    model = json.loads((tmp_path / "out" / "model.json").read_text())
    assert model["schema_version"] == 1
    csv_lines = (tmp_path / "out" /
                 "determinants.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 * 3       # header + charts x phases
    winners = [l.split(",") for l in csv_lines[1:]]
    assert all(row[3] == "1" for row in winners if row[0] == "polar")
    assert all(row[3] == "0" for row in winners if row[0] == "cartesian")


def test_fit_missing_demos(cfg):
    assert _run("fit", "--config", cfg, "--demos", "missing.json") == 2


def test_plan_outputs(cfg, tmp_path):
    _run("demo-gen", "--config", cfg)
    _run("fit", "--config", cfg)
    assert _run("plan", "--config", cfg, "--svg") == 0
    out = tmp_path / "out"
    traj = json.loads((out / "trajectory.json").read_text())
    costs = traj["cost_history"]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    # replaying the emitted controls reproduces the emitted states
    states = np.array(traj["states"])
    controls = np.array(traj["controls"])
    assert np.allclose(rollout(states[0], controls, traj["dt"]), states,
                       atol=1e-9)
    path_lines = (out / "path.csv").read_text().strip().splitlines()
    assert len(path_lines) == 1 + states.shape[0]
    svg = (out / "scene.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plan_fixed_strategy_and_initial(cfg, tmp_path):
    _run("demo-gen", "--config", cfg)
    _run("fit", "--config", cfg)
    assert _run("plan", "--config", cfg, "--strategy", "polar",
                "--initial", "2.0,-0.5,-0.5") == 0


def test_path_csv_matches_forward_kinematics(grasp_model, cfg, tmp_path):
    # the starting heading of 3 + 1 + 1 = 5 rad is written wrapped
    assert _run("plan", "--config", cfg, "--model", grasp_model,
                "--initial", "3.0,1.0,1.0") == 0
    out = tmp_path / "out"
    states = json.loads((out / "trajectory.json").read_text())["states"]
    header, *rows = (out / "path.csv").read_text().splitlines()
    assert header == "t,q,x,y,heading,chart,residual_norm"
    assert len(rows) == len(states)
    assert rows[0].split(",")[4] == "-1.283185"
    for row, q in zip(rows, states):
        pose = forward_kinematics(DEFAULT_ARM, np.array(q))
        assert row.split(",")[2:5] == [f"{pose.position[0]:.6f}",
                                       f"{pose.position[1]:.6f}",
                                       f"{pose.heading_angle:.6f}"]


@pytest.mark.parametrize("initial", ["nan,0,0", "0,inf,0", "a,b,c",
                                     "1.0,2.0"])
def test_plan_rejects_non_finite_initial_state(initial, grasp_model, cfg,
                                               tmp_path, capsys):
    assert _run("plan", "--config", cfg, "--model", grasp_model,
                "--initial", initial) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --initial")
    assert "finite joint angles" in err
    assert not (tmp_path / "out" / "trajectory.json").exists()


def test_evaluate_outputs(cfg, tmp_path, capsys):
    assert _run("evaluate", "--config", cfg) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    names = [r["strategy"] for r in report["reports"]]
    assert names == ["fixed-1", "fixed-2", "optimal"]
    for r in report["reports"]:
        assert r["successes"] == sum(1 for t in r["trials"] if t["success"])
    by_name = {r["strategy"]: r for r in report["reports"]}
    assert by_name["optimal"]["successes"] >= by_name["fixed-1"]["successes"]
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["plan", "evaluate"])
def test_plan_and_evaluate_reject_3d_task(command, tmp_path, capsys):
    path = tmp_path / "cfg3d.json"
    path.write_text(json.dumps({"task": {"kind": "grasppose3d"},
                                "out_dir": str(tmp_path / "out")}))
    assert _run(command, "--config", str(path)) == 2
    assert "2D task kind" in capsys.readouterr().err


def test_reference_contour_is_continuous_at_isotropic_covariance():
    # capped references have equal position variances; their contour must
    # not turn with last-bit changes of the covariance
    from geoilqr.charts import POLAR_2D, CartesianPose, Frame2D, to_chart
    from geoilqr.cli import _reference_contour
    frame = Frame2D(np.array([0.7, 0.0]))
    mean = to_chart(CartesianPose.from_angle(0.4, 0.3, 2.0), POLAR_2D,
                    frame).coords
    cov = 1e-4 * np.eye(3)
    bump = np.zeros((3, 3))
    bump[:2, :2] = [[1.0, 0.5], [0.5, -1.0]]
    a, b = [_reference_contour(POLAR_2D, mean, np.linalg.inv(c), frame)
            for c in (cov, cov + 1e-15 * bump)]
    assert np.abs(a - b).max() <= 1e-9


def _fitted_model(tmp_path_factory, kind: str) -> str:
    """model.json of a fit of kind at the default horizon of 100."""
    out = tmp_path_factory.mktemp("model")
    path = out / "cfg.json"
    path.write_text(json.dumps({"task": {"kind": kind}, "out_dir": str(out)}))
    assert _run("demo-gen", "--config", str(path)) == 0
    assert _run("fit", "--config", str(path)) == 0
    return str(out / "model.json")


@pytest.fixture(scope="module")
def grasp_model(tmp_path_factory):
    """model.json of a grasp2d fit, for plan runs that must get past the
    model lookup."""
    return _fitted_model(tmp_path_factory, "grasp2d")


@pytest.fixture(scope="module")
def box_model(tmp_path_factory):
    return _fitted_model(tmp_path_factory, "boxopen2d")


@pytest.fixture(scope="module")
def pose_model(tmp_path_factory):
    return _fitted_model(tmp_path_factory, "grasppose3d")


def _plan_with_model(model: str, task: dict, tmp_path, *argv) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": task, "out_dir": str(tmp_path)}))
    return _run("plan", "--config", str(path), "--model", model, *argv)


@pytest.mark.parametrize("fixture, kind, horizon", [
    ("box_model", "boxopen2d", 120), ("box_model", "boxopen2d", 60),
    ("grasp_model", "grasp2d", 60)])
def test_plan_rejects_a_model_of_another_horizon(fixture, kind, horizon,
                                                 request, tmp_path, capsys):
    model = request.getfixturevalue(fixture)
    assert _plan_with_model(model, {"kind": kind, "horizon": horizon},
                            tmp_path) == 2
    err = capsys.readouterr().err
    assert "model horizon 100" in err and f"task horizon {horizon}" in err
    assert not (tmp_path / "trajectory.json").exists()


def test_plan_checks_the_horizon_before_deriving_the_model(
        grasp_model, tmp_path, capsys, monkeypatch):
    # the derived references have one row per timestep, so a model of a
    # long horizon must fail on its horizon field before anything is derived
    with open(grasp_model) as fh:
        model = json.load(fh)
    model["horizon"] = 200000
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))

    def derive(self):
        raise AssertionError("the model was derived before the horizon check")

    monkeypatch.setattr(PhaseModel, "__post_init__", derive)
    assert _plan_with_model(str(path), {"kind": "grasp2d"}, tmp_path) == 2
    assert ("model horizon 200000 differs from the task horizon 100"
            in capsys.readouterr().err)


def _cut_rows(model):
    model["fits"]["polar-2d"]["means"].pop()


def _narrow_means(model):
    for row in model["fits"]["cartesian-2d"]["means"]:
        row.pop()


def _short_row(model):
    model["fits"]["polar-2d"]["moments"][1][2].pop()


def _other_charts(model):
    del model["fits"]["polar-2d"]


def _narrow_phase_covariance(model):
    model["fits"]["polar-2d"]["moments"] = [[[1e-4, 0.0], [0.0, 1e-4]]] * 3


def _nan(model):
    model["fits"]["polar-2d"]["c_vs"][0][0] = float("nan")


def _off_sphere_mean(model):
    model["fits"]["polar-2d"]["means"][1][0] = 2.0


def _flat_time(model):
    model["time_variances"][1] = 0.0


def _fractional_horizon(model):
    model["horizon"] = 2.5


def _pre_change_format(model):
    # the format that stored the per-timestep references, not the fit
    for key in ("horizon", "priors", "time_means", "time_variances", "m_s",
                "c_ss", "fits"):
        del model[key]
    model.update(weights=[[1.0]], phases=[], references={}, winners=[])


def _future_schema(model):
    model["schema_version"] = 99


def _repeated_chart(model):
    model["charts"].append(model["charts"][1])


def _no_charts(model):
    model["charts"] = []


def _unknown_chart(model):
    model["charts"][1]["index"] = 7


def _antipodal_means(model):
    # the polar azimuths of phases 0 and 1 are antipodal, so no reference
    # blends them; the loader derives the references and fails
    means = model["fits"]["polar-2d"]["means"]
    means[1][:2] = [-x for x in means[0][:2]]


@pytest.mark.parametrize("edit, field", [
    (_cut_rows, "fits polar-2d means has shape (2, 5), not (3, 5)"),
    (_narrow_means, "fits cartesian-2d means has shape (3, 3), not (3, 4)"),
    (_short_row, "fits polar-2d moments is not an array"),
    (_other_charts, "model fits names charts ['cartesian-2d'], not the model "
                    "charts ['cartesian-2d', 'polar-2d']"),
    (_narrow_phase_covariance, "fits polar-2d moments has shape (3, 2, 2), "
                               "not (3, 3, 3)"),
    (_nan, "model fits polar-2d c_vs is not finite"),
    (_off_sphere_mean, "model fits polar-2d means has a sphere block whose "
                       "norm is not 1 within 1e-9"),
    (_flat_time, "model time_variances must be > 0"),
    (_fractional_horizon, "model horizon 2.5 is not an integer >= 2"),
    (_pre_change_format, "model field 'horizon' is missing"),
    (_future_schema, "model schema_version must be 1"),
    (_repeated_chart, "model charts ['cartesian-2d', 'polar-2d', 'polar-2d'] "
                      "must name at least one chart, each once"),
    (_no_charts, "model charts [] must name at least one chart, each once"),
    (_unknown_chart, "model charts is not a list of {space, index} charts"),
    (_antipodal_means, "transport undefined for antipodal sphere points")],
    ids=["cut-rows", "narrow-means", "short-row", "other-charts",
         "phase-covariance-2x2", "nan", "off-sphere-mean",
         "zero-time-variance", "fractional-horizon", "pre-change-format",
         "schema-version", "repeated-chart", "no-charts", "unknown-chart",
         "antipodal-means"])
def test_plan_rejects_a_model_with_mismatched_rows(edit, field, box_model,
                                                   tmp_path, capsys):
    with open(box_model) as fh:
        model = json.load(fh)
    edit(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert _plan_with_model(str(path), {"kind": "boxopen2d"}, tmp_path) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "trajectory.json").exists()


def _plan_rejects(model: str, strategy: str, tmp_path, capsys) -> str:
    """stderr of a grasp2d plan with strategy against model, which must exit
    2 without warnings or outputs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _plan_with_model(model, {"kind": "grasp2d"}, tmp_path,
                                "--strategy", strategy) == 2
    assert caught == []
    assert not (tmp_path / "trajectory.json").exists()
    return capsys.readouterr().err


def test_plan_rejects_a_strategy_whose_chart_the_model_lacks(
        grasp_model, tmp_path, capsys):
    with open(grasp_model) as fh:
        model = json.load(fh)
    model["charts"].pop()
    del model["fits"]["polar-2d"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert ("strategy 'polar' needs chart polar-2d, not in the model charts "
            "['cartesian-2d']" in _plan_rejects(str(path), "polar", tmp_path,
                                                 capsys))


@pytest.mark.parametrize("strategy, message", [
    ("optimal", "strategy 'optimal' needs 2d charts, not the model charts"),
    ("polar", "strategy 'polar' needs chart polar-2d, not in the model "
              "charts")])
def test_plan_rejects_a_model_of_another_space(strategy, message, pose_model,
                                               tmp_path, capsys):
    err = _plan_rejects(pose_model, strategy, tmp_path, capsys)
    assert (f"{message} ['cartesian-3d', 'cylindrical-3d', 'spherical-3d']"
            in err)


def test_plan_solves_the_problem_of_the_fitted_model(grasp_model, tmp_path):
    # model.json holds the fitted parameters and the loader derives the
    # references from them as the fit does, so plan gives the trajectory of
    # the in-memory model that evaluate plans with, bit for bit
    assert _plan_with_model(grasp_model, {"kind": "grasp2d"}, tmp_path) == 0
    with open(tmp_path / "trajectory.json") as fh:
        planned = json.load(fh)
    spec = default_spec("grasp2d", seed=planned["config"]["seed"])
    model = fit_task_model(spec)[2]
    refs = build_references(model, "optimal", spec.horizon, ACTIVATION_START,
                            "stepwise")
    result = solve(PlanProblem(DEFAULT_ARM, planned["states"][0],
                               spec.horizon, spec.dt, spec.object_frame,
                               refs, CONTROL_WEIGHT, ACTIVATION_START))
    assert np.array_equal(planned["states"], result.trajectory.states)
    assert np.array_equal(planned["controls"], result.trajectory.controls)


def test_demo_gen_and_fit_load_no_scipy(tmp_path):
    # the GMM's log-sum-exp is numpy and only the planner's banded solve
    # needs scipy, so importing the CLI, demo-gen and fit load none of it
    src = os.path.dirname(os.path.dirname(geoilqr.__file__))
    config = str(tmp_path / "cfg.json")
    with open(config, "w") as fh:
        json.dump({"task": {"kind": "grasppose3d"}, "out_dir": str(tmp_path)},
                  fh)
    code = ("import sys, geoilqr.cli as cli\n"
            f"assert cli.main(['demo-gen', '--config', {config!r}]) == 0\n"
            f"assert cli.main(['fit', '--config', {config!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "model.json").exists()


@pytest.mark.parametrize("key, value", [
    ("control_weight", 0), ("control_weight", float("inf")),
    ("control_weight", "0.01"),
    ("activation_start", -1), ("activation_start", 2.5), ("trials", 0),
    ("trials", True)])
@pytest.mark.parametrize("command", ["plan", "evaluate"])
def test_plan_and_evaluate_reject_bad_planning_numbers(
        command, key, value, grasp_model, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": {"kind": "grasp2d"}, "trials": 3,
                                key: value, "out_dir": str(tmp_path)}))
    model = ["--model", grasp_model] if command == "plan" else []
    assert _run(command, "--config", str(path), *model) == 2
    assert repr(key) in capsys.readouterr().err


ARM_KEYS = ("link_lengths", "base_position")
TOP_KEYS = ("arm", "seed", "strategies", "activation_start")


@pytest.mark.parametrize("key, value", [
    ("phase_radii", []), ("phase_heights", []), ("symmetry", "conical"),
    ("dt", 0), ("dt", -1), ("phase_count", 0), ("horizon", 1),
    ("object_position", [0.7, 0.0, 0.1]),
    ("dt", "x"), ("phase_radii", 5), ("horizon", 30.0),
    ("link_lengths", [1.5, -1.5, 1.0]), ("base_position", [0, 0, 0]),
    ("arm", [1, 2]), ("seed", "abc"), ("GEOILQR_SEED", "x"),
    ("strategies", "polar"), ("seed", -2), ("GEOILQR_SEED", "-2"),
    ("--seed", "-2"), ("radial_sigma", float("nan")),
    ("orientation_sigma", float("inf")), ("angular_spread", float("nan")),
    ("arc_radius", -0.3), ("arc_radius", float("inf")),
    ("arc_start", float("-inf")), ("arc_sweep", float("nan")),
    ("phase_heights", [0.4, float("nan"), 0.1]), ("strategies", ["bogus"]),
    ("activation_start", 100)])
@pytest.mark.parametrize("command", ["demo-gen", "fit", "plan", "evaluate"])
def test_every_command_rejects_bad_task_numbers(command, key, value,
                                                grasp_model, tmp_path,
                                                capsys, monkeypatch):
    # a task value, an arm value (ARM_KEYS), a top-level value (TOP_KEYS),
    # the seed variable or the seed flag: every command reads the whole
    # config
    config = {"task": {"kind": "grasp2d"}, "out_dir": str(tmp_path)}
    flag = []
    if key == "GEOILQR_SEED":
        monkeypatch.setenv(key, value)
    elif key == "--seed":
        flag = [key, value]
    elif key in ARM_KEYS:
        config["arm"] = {key: value}
    else:
        (config if key in TOP_KEYS else config["task"])[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    model = ["--model", grasp_model] if command == "plan" else []
    assert _run(command, "--config", str(path), *model, *flag) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def _fit_edited_demos(grasp_model, tmp_path, capsys, edit) -> str:
    """stderr of a fit, which must exit 3 without warnings or a model, on
    the grasp2d demos changed by edit, for the task of their config
    snapshot: grasp2d, unless edit changes it."""
    with open(os.path.join(os.path.dirname(grasp_model), "demos.json")) as fh:
        demos = json.load(fh)
    edit(demos)
    (tmp_path / "demos.json").write_text(json.dumps(demos))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": demos["config"]["task"],
                                "out_dir": str(tmp_path)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("fit", "--config", str(path)) == 3
    assert caught == []
    assert not (tmp_path / "model.json").exists()
    return capsys.readouterr().err


def _set(*path_and_value):
    """An edit that sets the value at the key path of a demos.json dict."""
    *path, key, value = path_and_value

    def edit(d):
        for k in path:
            d = d[k]
        d[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["demos"][1].clear(), "demo grasp2d-1: times must be"),
    (lambda d: d["demos"][1][5].pop(), "demo grasp2d-1: frame 5 has 4 "
                                       "values, not 5"),
    (lambda d: d["demos"][1][5].append(0.0), "demo grasp2d-1: frame 5 has 6 "
                                             "values, not 5"),
    (_set("demos", 2, 17, 1, float("nan")),
     "demo grasp2d-2: position at frame 17")],
    ids=["empty", "short-frame", "long-frame", "nan-position"])
def test_fit_rejects_malformed_demo_rows(edit, message, grasp_model, tmp_path,
                                         capsys):
    assert message in _fit_edited_demos(grasp_model, tmp_path, capsys, edit)


def _pose_demos(d):
    """The grasppose3d demos in place of the grasp2d ones, under the grasp2d
    config snapshot."""
    d.update(demos_to_dict(generate_demos(default_spec("grasppose3d",
                                                       seed=0))))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["object_frame"].pop("translation"),
     "object_frame translation is missing"),
    (lambda d: d["object_frame"].pop("heading"),
     "object_frame is not an object with a heading (2D) or a quaternion"),
    (_set("object_frame", "translation", 1, float("nan")),
     "object_frame translation is not 2 finite numbers"),
    (_set("object_frame", "heading", float("inf")),
     "object_frame heading is not a finite number"),
    (_set("object_frame", {"translation": [0.7, 0.0, 0.0],
                           "quaternion": [0.0, 0.0, 0.0, 0.0]}),
     "object_frame quaternion norm is not a positive finite number"),
    (_set("object_frame", {"translation": [0.7, 0.0, 0.0],
                           "quaternion": [1.0, float("nan"), 0.0, 0.0]}),
     "object_frame quaternion is not 4 finite numbers"),
    (lambda d: d["ids"].pop(), "ids is not a list of 6 names, one per demo"),
    (lambda d: d["ids"].append("grasp2d-6"),
     "ids is not a list of 6 names, one per demo"),
    (_set("dt", 0.0), "dt 0.0 is not a finite number > 0"),
    (_set("dt", float("nan")), "dt nan is not a finite number > 0"),
    (_set("dt", "0.01"), "dt '0.01' is not a finite number > 0"),
    (lambda d: d.pop("dt"), "demos field 'dt' is missing"),
    (_set("demos", 6), "demos is not a list of demos"),
    (_pose_demos, "object_frame is a 3d frame, but the task space is 2d"),
    (_set("config", "task", "kind", "grasppose3d"),
     "object_frame is a 2d frame, but the task space is 3d")],
    ids=["no-translation", "no-heading", "nan-translation", "inf-heading",
         "zero-quaternion", "nan-quaternion", "short-ids", "long-ids",
         "zero-dt", "nan-dt", "string-dt", "no-dt", "demos-not-a-list",
         "3d-demos-2d-task", "2d-demos-3d-task"])
def test_fit_rejects_a_malformed_demos_file(edit, message, grasp_model,
                                            tmp_path, capsys):
    assert message in _fit_edited_demos(grasp_model, tmp_path, capsys, edit)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_evaluate_rejects_jobs_below_one(jobs, cfg, capsys):
    assert _run("evaluate", "--config", cfg, "--jobs", jobs) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["demo-gen", "fit", "plan"])
def test_jobs_belongs_to_evaluate_only(command, cfg):
    with pytest.raises(SystemExit) as e:
        _run(command, "--config", cfg, "--jobs", "2")
    assert e.value.code == 2
