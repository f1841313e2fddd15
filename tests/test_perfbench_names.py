"""The benchmark traces geoilqr functions by name: each must still exist."""
import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"geoilqr.{module}"), name, None))]
    assert missing == []
