"""Spans around calls into the public functions of each geoilqr layer.

The tracer patches each listed function at every place it is bound: its own
module, every geoilqr module that imported it by name (``planner`` holds its
own ``to_chart``, ``cli`` its own ``write_json``) and the package namespace.
Spans live in memory; self time is computed after the traced phase.
"""
from __future__ import annotations

import os
import sys
import time

# module -> public functions traced in it; the metric names are module.function.
TRACED = {
    "manifolds": ("log_map_batch", "log_map_jacobian", "log_map", "exp_map",
                  "parallel_transport"),
    "charts": ("to_chart", "chart_jacobian"),
    "stats": ("geometric_mean", "fit_gaussian"),
    "phases": ("fit_time_gmm", "build_phase_model"),
    "kinematics": ("forward_kinematics", "kinematic_jacobian", "rollout",
                   "batch_dynamics"),
    "planner": ("solve", "residuals_and_jacobian", "cost",
                "gauss_newton_step"),
    "tasks": ("build_references", "evaluate_trial", "run_experiment",
              "sample_initial_states"),
    "io": ("demos_from_dict", "write_json"),
    "cli": ("main",),
}
TRACED_NAMES = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]


def gauss_newton_work(m: int, n: int) -> tuple[float, float]:
    """FLOPs and bytes of one dense ``gauss_newton_step`` with J of shape m x n.

    Counted as the code evaluates it: JS = J @ S_u (2mn^2), H = JS^T Q JS
    (2nm^2 + 2mn^2), g = JS^T (Q f) (2m^2 + 2mn), Cholesky factor and solve
    (n^3/3 + 2n^2). Bytes are 8 per double, each operand read once and each
    result written once.
    """
    flops = (2 * m * n * n + 2 * n * m * m + 2 * m * n * n + 2 * m * m
             + 2 * m * n + n ** 3 / 3 + 2 * n * n)
    words = ((2 * m * n + n * n) + (2 * m * n + m * m) + (2 * m * n + n * n)
             + (m * m + 2 * m) + (m * n + m + n) + 2 * n * n
             + (n * n + 2 * n))
    return flops, 8.0 * words


class Tracer:
    """Records (name, start_ns, end_ns, parent) spans of the traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = True
        self.gn_flops = 0.0
        self.gn_bytes = 0.0
        # Forked pool workers inherit the patches; their spans would be lost,
        # so the wrappers only pass calls through there.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        is_gn = name == "planner.gauss_newton_step"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_gn:
                m, n = args[3].shape
                flops, nbytes = gauss_newton_work(m, n)
                self.gn_flops += flops
                self.gn_bytes += nbytes
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding of each traced function in the geoilqr modules."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "geoilqr" or key.startswith("geoilqr.")]
        for short, funcs in TRACED.items():
            home = sys.modules[f"geoilqr.{short}"]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self._wrap(f"{short}.{func}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def layer_times(self) -> dict:
        """name -> (calls, inclusive_ns, self_ns)."""
        out = {name: [0, 0, 0] for name in TRACED_NAMES}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            entry = out[name]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur
            parent = self.parents[i]
            if parent >= 0:
                out[self.names[parent]][2] -= dur
        return {k: tuple(v) for k, v in out.items()}
