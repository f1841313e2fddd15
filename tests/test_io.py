"""Serialization: atomic writes, demo JSON round trips and CSV, frames."""
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoilqr.charts import Frame2D, Frame3D
from geoilqr.io import (atomic_write_text, demos_from_dict, demos_to_csv,
                        demos_to_dict, frame_from_dict, frame_to_dict,
                        write_json)
from geoilqr.tasks import default_spec, generate_demos


def test_atomic_write(tmp_path):
    path = tmp_path / "x.txt"
    atomic_write_text(str(path), "hello")
    assert path.read_text() == "hello"
    atomic_write_text(str(path), "replaced")
    assert path.read_text() == "replaced"
    assert os.listdir(tmp_path) == ["x.txt"]   # no temp files left behind


def test_write_json_stable(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert json.loads(text) == {"b": 1, "a": [1, 2]}
    write_json(str(path), {"b": 1, "a": [1, 2]})
    assert path.read_text() == text


# edge values json writes in its own way, and strings that hold JSON's
# separators, quotes and brackets
_EDGES = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                          float("-inf"), 2 ** 63, -2 ** 64 - 1, 10 ** 30,
                          1e16, 1e-7, True, False, None, [], {}, "", ", ",
                          '"', "[", "]", "{", "}", '", "', "[1, 2]",
                          "\n\t\x00\x1f\\", "Ünïcödé ☃ 漢字 \U0001f600",
                          {2: "a", 0.5: [1.0], False: None}, {None: 0},
                          {float("nan"): 1}, {float("-inf"): {}}])
_TEXT = st.text() | st.text(alphabet=', "[]{}:\\\n\x00é☃')
_JSON = st.recursive(
    _EDGES | _TEXT | st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    lambda values: st.lists(values) | st.dictionaries(_TEXT, values),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(value=_JSON)
def test_write_json_writes_what_json_dumps_writes(value, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "value.json"
    write_json(str(path), value)
    expect = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expect


def test_frame_round_trips():
    f2 = Frame2D(np.array([0.3, -0.2]), 0.7)
    back = frame_from_dict(frame_to_dict(f2))
    assert np.allclose(back.translation, f2.translation)
    assert np.isclose(back.angle, f2.angle)
    q = np.array([0.5, 0.5, 0.5, 0.5])
    f3 = Frame3D(np.array([1.0, 2.0, 3.0]), q)
    back = frame_from_dict(frame_to_dict(f3))
    assert np.allclose(back.translation, f3.translation)
    assert np.allclose(back.quaternion, f3.quaternion)


@pytest.mark.parametrize("make, message", [
    (lambda: Frame2D([0.3, np.nan]), "translation is not 2 finite numbers"),
    (lambda: Frame2D([0.3, -0.2, 0.0]), "translation is not 2 finite numbers"),
    (lambda: Frame2D([0.3, -0.2], np.inf), "heading is not a finite number"),
    (lambda: Frame2D([0.3, -0.2], "north"), "heading is not a finite number"),
    (lambda: Frame3D([1.0, 2.0], [1.0, 0, 0, 0]),
     "translation is not 3 finite numbers"),
    (lambda: Frame3D([1.0, 2.0, 3.0], np.zeros(4)),
     "quaternion norm is not a positive finite number"),
    (lambda: Frame3D([1.0, 2.0, 3.0], [1e200, 1e200, 0, 0]),
     "quaternion norm is not a positive finite number"),
    (lambda: Frame3D([1.0, 2.0, 3.0], [1.0, np.nan, 0, 0]),
     "quaternion is not 4 finite numbers")],
    ids=["nan-2d", "3-translation-2d", "inf-heading", "string-heading",
         "2-translation-3d", "zero-quaternion", "overflowing-quaternion",
         "nan-quaternion"])
def test_frames_reject_what_gives_no_pose(make, message):
    # a non-finite or zero quaternion would only fail later, in the fit,
    # with a warning or a message that does not name the frame
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            make()


def _poses_equal(a, b, atol=0.0):
    assert np.allclose(a.positions, b.positions, atol=atol)
    assert np.allclose(a.orientations, b.orientations, atol=atol)


def test_demo_json_round_trip_2d_and_3d():
    for kind in ("grasp2d", "grasppose3d"):
        demos = generate_demos(default_spec(kind, seed=0))
        d = demos_to_dict(demos)
        assert d["schema_version"] == 1
        back = demos_from_dict(d)
        assert len(back) == len(demos)
        for da, db in zip(demos, back):
            assert da.id == db.id and np.array_equal(da.times, db.times)
            _poses_equal(da, db)


def test_demos_to_dict_rejects_demos_of_two_frames_or_dts():
    # demos.json holds one frame and one dt; a mixed set must not be written
    # as if every demo shared the first one's
    demos = generate_demos(default_spec("grasp2d", seed=0))[:4]
    other = Frame2D(np.array([0.9, 0.2]), 0.3)
    moved = demos[:2] + [replace(d, object_frame=other) for d in demos[2:]]
    slower = demos[:2] + [replace(d, dt=0.02) for d in demos[2:]]
    for mixed in (moved, slower):
        with pytest.raises(ValueError, match="dt and one object_frame"):
            demos_to_dict(mixed)
    assert len(demos_to_dict(demos)["demos"]) == 4


def test_demos_csv_matches_demo_arrays():
    # one line per frame: demo index, time, position, orientation, each
    # number written exactly
    for kind, header in (("grasp2d", "demo,t,x,y,hx,hy"),
                         ("grasppose3d", "demo,t,x,y,z,qw,qx,qy,qz")):
        demos = generate_demos(default_spec(kind, seed=1))
        lines = demos_to_csv(demos).splitlines()
        assert lines[0] == header
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        expect = np.vstack([np.column_stack([np.full(len(d), i), d.times,
                                             d.positions, d.orientations])
                            for i, d in enumerate(demos)])
        assert np.array_equal(rows, expect)


@pytest.mark.parametrize("kind", ["grasp2d", "boxopen2d", "grasppose3d"])
def test_demos_csv_text_matches_numpy_scalar_formatting(kind):
    # the writer formats Python floats; the text is what str() of numpy's
    # float64 scalars gave
    demos = generate_demos(default_spec(kind, seed=2))
    old = [",".join(str(v) for v in [i, int(t), *p, *o])
           for i, demo in enumerate(demos)
           for t, p, o in zip(demo.times, demo.positions, demo.orientations)]
    assert demos_to_csv(demos).splitlines()[1:] == old
