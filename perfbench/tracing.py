"""Per-layer spans for the traced run, recorded from the benchmark's side.

Spans wrap the public functions and methods of the cpintegral modules.  A
function is replaced in every module that binds its name (and in module
level dicts such as the suite table), and a method is replaced on its
class, so objects are never wrapped: isinstance checks and attributes
such as `factors` keep working.  A layer's self time is its spans' time
minus the time of their child spans.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> layer; the kernels are reached through cpintegral._core.kernels
LAYERS = {
    "cpintegral.extplane": "extplane",
    "cpintegral.primitive": "primitive",
    "cpintegral.integral": "integral",
    "cpintegral.variation": "variation",
    "cpintegral.stieltjes": "stieltjes",
    "cpintegral.convolution": "convolution",
    "cpintegral.operators": "operators",
    "cpintegral.suites": "suites",
    "cpintegral._kernels_py": "kernels",
    "cpintegral.cli": "cli",
}
IO_FUNCTIONS = ("export_grid_json", "import_grid_json", "export_grid_csv", "import_grid_csv")

# metric name -> unit, in the order they are reported
METRICS = {
    "primitive.eval_points": "count",
    "primitive.eval_s": "s",
    "primitive.bv_eval_points": "count",
    "primitive.bv_eval_s": "s",
    "primitive.io_s": "s",
    "primitive.io_bytes": "bytes",
    "extplane.s": "s",
    "integral.s": "s",
    "integral.levels": "count",
    "integral.max_resolution": "count",
    "variation.s": "s",
    "variation.levels": "count",
    "variation.max_resolution": "count",
    "stieltjes.s": "s",
    "stieltjes.levels": "count",
    "stieltjes.max_resolution": "count",
    "convolution.s": "s",
    "convolution.levels": "count",
    "convolution.kernel_nodes": "count",
    "operators.s": "s",
    "suites.s": "s",
    "kernels.calls": "count",
    "kernels.s": "s",
    "kernels.bytes_in": "bytes",
    "cli.s": "s",
    "cli.stdout_bytes": "bytes",
}


class _Span:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Collects self time and counts per layer; one pass at a time."""

    def __init__(self):
        self.stack = []
        self.totals = defaultdict(float)

    def reset(self):
        self.totals = defaultdict(float)

    def add(self, metric, value):
        self.totals[metric] += value

    def peak(self, metric, value):
        self.totals[metric] = max(self.totals[metric], value)

    def wrap(self, metric, fn, on_result=None):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = _Span()
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dt
                self.totals[metric] += dt - span.child
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced


# ---------------------------------------------------------------------------
# counters read from arguments and results


def _points(metric):
    def count(tr, args, kwargs, result):
        tr.add(metric, int(np.size(result)))
    return count


def _refinement(layer):
    def count(tr, args, kwargs, result):
        trace = getattr(result, "trace", None)  # QuadResult, VariationEstimate
        if isinstance(result, list):  # variation_trace
            trace = result
        elif isinstance(result, tuple) and len(result) == 3 and isinstance(result[2], list):
            trace = result[2]  # variation_1d
        if not isinstance(trace, list) or not trace:
            return
        tr.add(f"{layer}.levels", len(trace))
        tr.peak(f"{layer}.max_resolution", max(row.get("resolution", 0) for row in trace))
    return count


def _io_bytes(name):
    position = 0 if name.startswith("import") else 1  # import_*(path), export_*(prim, path)

    def count(tr, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs.get("path")
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            tr.add("primitive.io_bytes", os.path.getsize(path))
    return count


def _kernel_bytes(tr, args, kwargs, result):
    tr.add("kernels.calls", 1)
    tr.add("kernels.bytes_in", sum(np.asarray(a).nbytes for a in args))


def _kernel_nodes(tr, args, kwargs, result):
    tr.add("convolution.levels", 1)
    tr.add("convolution.kernel_nodes", int(np.size(result[-1])))


# ---------------------------------------------------------------------------
# installation


def _is_primitive_like(cls):
    from cpintegral.convolution import StepFunction2
    from cpintegral.primitive import Primitive

    return issubclass(cls, (Primitive, StepFunction2))


def _method_metric(layer, cls, name):
    from cpintegral.primitive import BVFunction

    if name == "eval" and _is_primitive_like(cls):
        return "primitive.eval_s", _points("primitive.eval_points")
    if name == "eval" and issubclass(cls, BVFunction):
        return "primitive.bv_eval_s", _points("primitive.bv_eval_points")
    if name == "quad_points":
        return f"{layer}.s", _kernel_nodes
    if layer == "primitive":  # only evaluation and grid I/O are primitive-layer spans
        return None, None
    return f"{layer}.s", None


def _function_metric(layer, name):
    if layer == "primitive":
        return ("primitive.io_s", _io_bytes(name)) if name in IO_FUNCTIONS else (None, None)
    if layer == "kernels":
        return "kernels.s", _kernel_bytes
    if layer in ("integral", "variation", "stieltjes"):
        return f"{layer}.s", _refinement(layer)
    return f"{layer}.s", None


def install(tracer):
    """Patch cpintegral in place."""
    import cpintegral  # noqa: F401  (loads every module listed in LAYERS)
    from cpintegral import cli  # noqa: F401

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "cpintegral" or name.startswith("cpintegral."))]
    for modname, layer in LAYERS.items():
        mod = sys.modules[modname]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == modname:
                metric, hook = _function_metric(layer, name)
                if metric is None:
                    continue
                _rebind(modules, obj, tracer.wrap(metric, obj, hook))
            elif inspect.isclass(obj) and obj.__module__ == modname:
                for attr, fn in list(vars(obj).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    metric, hook = _method_metric(layer, obj, attr)
                    if metric is not None:
                        setattr(obj, attr, tracer.wrap(metric, fn, hook))


def _rebind(modules, original, wrapped):
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapped)
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped
