"""File formats: demonstration sets (JSON, CSV out), frames, atomic writes."""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .charts import THREE_D, TWO_D, Frame2D, Frame3D

SCHEMA_VERSION = 1


def atomic_write_text(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj: dict):
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, and a
    newline."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def frame_to_dict(frame) -> dict:
    if isinstance(frame, Frame2D):
        return {"translation": frame.translation.tolist(), "heading": frame.angle}
    return {"translation": frame.translation.tolist(),
            "quaternion": frame.quaternion.tolist()}


def frame_from_dict(d: dict):
    """The Frame2D (with a heading) or Frame3D (with a quaternion) of an
    object_frame dict; ValueError naming object_frame and the field."""
    if not isinstance(d, dict) or not {"heading", "quaternion"} & d.keys():
        raise ValueError("object_frame is not an object with a heading (2D) "
                         "or a quaternion (3D)")
    if "translation" not in d:
        raise ValueError("object_frame translation is missing")
    try:
        if "heading" in d:
            return Frame2D(d["translation"], d["heading"])
        return Frame3D(d["translation"], d["quaternion"])
    except ValueError as exc:
        raise ValueError(f"object_frame {exc}") from None


def demos_to_dict(demos: list) -> dict:
    rows = [[[int(t), *p, *o] for t, p, o in zip(
        demo.times, demo.positions.tolist(), demo.orientations.tolist())]
        for demo in demos]
    dt, frame = demos[0].dt, frame_to_dict(demos[0].object_frame)
    if any(demo.dt != dt or frame_to_dict(demo.object_frame) != frame
           for demo in demos):
        raise ValueError("the demos do not share one dt and one object_frame")
    return {
        "schema_version": SCHEMA_VERSION,
        "dt": dt,
        "object_frame": frame,
        "ids": [demo.id for demo in demos],
        "demos": rows,
    }


def _demo(demo_id: str, dt: float, rows, frame):
    """Demonstration from (t, position, orientation) rows."""
    from .phases import Demonstration
    dim = len(frame.translation)
    width = 1 + dim + (4 if dim == 3 else 2)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"demo {demo_id}: frame {i} has {len(row)} "
                             f"values, not {width} (t, position, orientation)")
    arr = np.asarray(rows, dtype=float).reshape(len(rows), width)
    return Demonstration(demo_id, dt, arr[:, 0], arr[:, 1:1 + dim],
                         arr[:, 1 + dim:], frame)


def demos_from_dict(d: dict, space: str) -> list:
    """The demonstrations of a demos.json dict for a task of space (2d or
    3d); ValueError names the first field missing, of another
    schema_version, type or space, out of range or of another length."""
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')}")
    if missing := [k for k in ("object_frame", "dt", "demos") if k not in d]:
        raise ValueError(f"demos field {missing[0]!r} is missing")
    frame = frame_from_dict(d["object_frame"])
    found = TWO_D if isinstance(frame, Frame2D) else THREE_D
    if found != space:
        raise ValueError(f"object_frame is a {found} frame, but the task "
                         f"space is {space}")
    dt, demos = d["dt"], d["demos"]
    if not isinstance(demos, list):
        raise ValueError("demos is not a list of demos")
    if type(dt) not in (int, float) or not 0.0 < dt < np.inf:
        raise ValueError(f"dt {dt!r} is not a finite number > 0")
    ids = d.get("ids")
    if ids is None:
        ids = [f"demo-{i}" for i in range(len(demos))]
    if not isinstance(ids, list) or len(ids) != len(demos):
        raise ValueError(f"ids is not a list of {len(demos)} names, one per "
                         "demo")
    return [_demo(i, float(dt), rows, frame) for i, rows in zip(ids, demos)]


def demos_to_csv(demos: list) -> str:
    """Flat CSV alternative; dt and object frame live in the JSON sidecar."""
    header = (["demo", "t", "x", "y", "hx", "hy"]
              if demos[0].positions.shape[1] == 2
              else ["demo", "t", "x", "y", "z", "qw", "qx", "qy", "qz"])
    lines = [",".join(header)]
    for i, demo in enumerate(demos):
        for t, p, o in zip(demo.times.tolist(), demo.positions.tolist(),
                           demo.orientations.tolist()):
            lines.append(",".join(map(str, (i, int(t), *p, *o))))
    return "\n".join(lines) + "\n"

