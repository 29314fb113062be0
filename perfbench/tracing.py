"""Spans around the calls into each hbwave layer, and the per-layer metrics
computed from them.

`install` wraps the public functions listed in LAYERS, plus the dense and
banded scipy.linalg kernels, in a child process that runs one CLI verb.
Modules import functions by name (`from .linear import solve_linear_mgt`),
so each wrapper replaces the original in every hbwave module namespace that
binds it.  Spans stay in memory and are written out once, when the verb has
finished.  `layer_metrics` turns the spans of one run into the named
per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "io": ("parse_config", "build_setup", "write_csv"),
    "model": ("validate_model", "to_time_samples", "to_harmonics"),
    "spatial": ("assemble_laplacian", "dual_norm_h1star"),
    "norms": ("time_space_norm_sq", "l2l2_norm", "u0lo_norm", "u0me_norm"),
    "linear": ("assemble_harmonic_system", "solve_linear_mgt",
               "linear_residual", "solve_linearized"),
    "nonlinear": ("eval_bilinear", "degeneracy_monitor", "fixed_point_solve"),
    "diagnostics": ("compute_energies",),
    "studies": ("taylor_test", "time_stepping_oracle", "oracle_discrepancy"),
    "cli": ("run_command",),
}
KERNELS = ("solve", "lu_factor", "lu_solve", "solve_banded")


# extra data recorded per span: name -> f(bound arguments, result)
NOTES = {
    # the (grid, bcs, m, omega) an assembly depends on
    "spatial.assemble_laplacian":
        lambda args, result: repr(tuple(args.arguments.values())),
    "kernel.solve": lambda args, result: len(args.arguments["a"]),
    "linear.solve_linear_mgt": lambda args, result: args.arguments["f"].M + 1,
    "nonlinear.fixed_point_solve": lambda args, result: result.iterations,
}


class Tracer:
    """Records (name, start, end, parent, run_id, note) spans in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note:
                span[5] = note(signature.bind(*args, **kwargs), result)
            return result
        return traced

    def install(self):
        """Wrap every function in LAYERS and KERNELS where it is bound."""
        import scipy.linalg
        importlib.import_module("hbwave")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hbwave" or n.startswith("hbwave.")]
        for layer, names in LAYERS.items():
            layer_module = importlib.import_module(f"hbwave.{layer}")
            for fn_name in names:
                original = getattr(layer_module, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for fn_name in KERNELS:
            setattr(scipy.linalg, fn_name,
                    self.wrap(f"kernel.{fn_name}",
                              getattr(scipy.linalg, fn_name)))

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def function_stats(spans) -> dict:
    """calls, total seconds and self seconds per span name.  Self time is
    a span's duration minus the time its direct child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for i, (name, start, end, _parent, _run, _note) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child_time[i]
    return stats


def notes(spans, name):
    return [s[5] for s in spans if s[0] == name]


# (metric name, unit, better); calls/s/self_s come from function_stats
PER_LAYER = [
    ("spatial.assemble_laplacian.calls", "count", "lower"),
    ("spatial.assemble_laplacian.s", "s", "lower"),
    ("spatial.assemble_laplacian.distinct_ratio", "ratio", "higher"),
    ("linear.solve_linear_mgt.calls", "count", "lower"),
    ("linear.solve_linear_mgt.s", "s", "lower"),
    ("linear.solve_linear_mgt.self_s", "s", "lower"),
    ("linear.harmonic_solves", "count", "lower"),
    ("kernel.solve.calls", "count", "lower"),
    ("kernel.solve.s", "s", "lower"),
    ("kernel.solve.flops", "flop", "lower"),
    ("kernel.solve.matrix_bytes", "B", "lower"),
    ("kernel.solve_banded.calls", "count", "higher"),
    ("linear.linear_residual.s", "s", "lower"),
    ("linear.solve_linearized.s", "s", "lower"),
    ("nonlinear.picard_iterations", "count", "lower"),
    ("nonlinear.fixed_point_solve.self_s", "s", "lower"),
    ("nonlinear.eval_bilinear.calls", "count", "lower"),
    ("nonlinear.eval_bilinear.s", "s", "lower"),
    ("norms.time_space_norm_sq.calls", "count", "lower"),
    ("norms.time_space_norm_sq.s", "s", "lower"),
    ("norms.u0lo_norm.s", "s", "lower"),
    ("diagnostics.compute_energies.s", "s", "lower"),
    ("diagnostics.compute_energies.self_s", "s", "lower"),
    ("spatial.dual_norm_h1star.calls", "count", "lower"),
    ("spatial.dual_norm_h1star.s", "s", "lower"),
    ("model.to_time_samples.s", "s", "lower"),
    ("model.to_harmonics.s", "s", "lower"),
    ("model.validate_model.calls", "count", "lower"),
    ("studies.time_stepping_oracle.s", "s", "lower"),
    ("kernel.lu_solve.calls", "count", "lower"),
    ("kernel.lu_solve.s", "s", "lower"),
    ("kernel.lu_factor.calls", "count", "lower"),
    ("io.build_setup.s", "s", "lower"),
    ("io.write_csv.s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# the per-layer metrics that are counts and must repeat exactly
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"] + [
    "kernel.solve.flops", "kernel.solve.matrix_bytes",
    "spatial.assemble_laplacian.distinct_ratio", "io.bytes_written"]


def layer_metrics(spans, bytes_written: int) -> dict:
    """Every PER_LAYER metric except trace.overhead_s for one traced run."""
    stats = function_stats(spans)
    out = {}
    for name, _unit, _better in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[name] = stats.get(fn, {}).get(field, 0)
    keys = notes(spans, "spatial.assemble_laplacian")
    out["spatial.assemble_laplacian.distinct_ratio"] = (
        len(set(keys)) / len(keys) if keys else 0.0)
    sizes = notes(spans, "kernel.solve")
    out["kernel.solve.flops"] = sum(8 * n**3 // 3 for n in sizes)
    out["kernel.solve.matrix_bytes"] = sum(16 * n**2 for n in sizes)
    out["linear.harmonic_solves"] = sum(notes(spans,
                                              "linear.solve_linear_mgt"))
    out["nonlinear.picard_iterations"] = sum(
        notes(spans, "nonlinear.fixed_point_solve"))
    out["io.bytes_written"] = bytes_written
    return out
