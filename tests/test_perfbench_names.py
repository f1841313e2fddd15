"""The benchmark's contract with geoilqr: every function it traces by name
still exists, and every workload runs a round without a failed operation
or a failed output check."""
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


def _load(name: str):
    """perfbench/<name>.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    missing = [f"{module}.{name}" for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"geoilqr.{module}"), name, None))]
    assert missing == []


@pytest.mark.parametrize("name", _load("run").WORKLOADS)
def test_every_workload_runs_a_round(name, tmp_path):
    workloads = _load("workloads")
    workload = workloads.make(name, 51, str(tmp_path))
    workload.warm_up()
    tally = workloads.Tally()
    workload.round(0, tally)
    workload.finish(tally)
    assert tally.work > 0
    assert (tally.failed, tally.errors) == (0, [])
    assert (tally.bad_checks, tally.check_failures) == (0, [])
