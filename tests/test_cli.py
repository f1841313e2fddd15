"""Command-line interface: exit codes, outputs, determinism."""
import json
import os

import numpy as np
import pytest

from geoilqr.cli import main
from geoilqr.kinematics import rollout
from geoilqr.planner import result_from_dict


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


def test_plan_bad_initial_length(cfg, tmp_path):
    _run("demo-gen", "--config", cfg)
    _run("fit", "--config", cfg)
    assert _run("plan", "--config", cfg, "--initial", "1.0,2.0") == 2


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
    from geoilqr.planner import Reference
    frame = Frame2D(np.array([0.7, 0.0]))
    mean = to_chart(CartesianPose.from_angle(0.4, 0.3, 2.0), POLAR_2D,
                    frame).point()
    cov = 1e-4 * np.eye(3)
    bump = np.zeros((3, 3))
    bump[:2, :2] = [[1.0, 0.5], [0.5, -1.0]]
    a, b = [_reference_contour(Reference(POLAR_2D, mean, np.linalg.inv(c)),
                               frame) for c in (cov, cov + 1e-15 * bump)]
    assert np.abs(a - b).max() <= 1e-9
