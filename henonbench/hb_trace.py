"""Per-layer tracing from outside the package.

Each public function of a layer is replaced, wherever a henonlab module binds
its name, by a wrapper that opens and closes a span.  The package imports
with ``from .x import y``, so patching only the defining module would miss
most callers: ``normalform2d.compose2``, ``cones.reduce`` and ``cli.reduce``
are separate bindings of the same function object.

Spans are folded into aggregates as they close: call counts, inclusive time
per function (outermost activation only, so recursion is not counted twice)
and self time per module, i.e. a span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer -> public boundary functions; "mul2"/"eval2" are TruncSeries2 methods.
LAYERS = {
    "series": ("mul2", "eval2", "compose2", "invert2", "compose1", "invert1"),
    "normalform2d": ("reduce", "wss_graph", "petal_check"),
    "cones": ("local_cone_check", "global_cone_check", "in_V", "sector_samples",
              "julia_slice_tree", "hyperbolicity_scan"),
    "poly1d": ("pullback_loop", "equipotential_loop", "caratheodory", "green",
               "normal_form_1d"),
    "henon": ("escape_times", "jplus_slice", "attracting_cycle", "henon"),
    "torus": ("graph_transform", "torus_fixed_point", "julia_from_sigma",
              "semiconjugacy_residual"),
    "lab": ("hausdorff", "continuity_experiment", "radial_demo", "connectivity_scan"),
}
METHODS = {"mul2": ("TruncSeries2", "__mul__"), "eval2": ("TruncSeries2", "__call__")}
# Fixed here rather than read from henonlab.cli, so the metric names stay
# those BENCHMARK.json lists even if the CLI gains a command.
CLI_COMMANDS = (
    "caratheodory", "normal-form", "petal-check", "cone-check", "hyp-scan",
    "torus-iterate", "continuity", "connectivity-scan", "radial-demo",
)


class Recorder:
    """Aggregates nested spans.  Times are passed in, so tests can feed
    synthetic timestamps."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.io_bytes = 0
        self._stack = []          # [key, start, child_time]
        self._active = Counter()  # open activations per key

    def open(self, key: str, now: float):
        self.calls[key] += 1
        self._active[key] += 1
        self._stack.append([key, now, 0.0])

    def close(self, now: float):
        key, start, child = self._stack.pop()
        dur = now - start
        self.self_time[key.split(".", 1)[0]] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self._active[key] -= 1
        if self._active[key] == 0:
            self.inclusive[key] += dur

    @contextmanager
    def span(self, key: str):
        self.open(key, time.perf_counter())
        try:
            yield
        finally:
            self.close(time.perf_counter())

    def metrics(self) -> dict:
        """Flat per-layer metrics; every name is present, zero if unused."""
        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls"] = self.calls[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.s"] = self.inclusive[f"{layer}.{fn}"]
            out[f"{layer}.self_s"] = self.self_time[layer]
        out["io.write.calls"] = self.calls["io.write"]
        out["io.write.s"] = self.inclusive["io.write"]
        out["io.bytes"] = self.io_bytes
        out["io.self_s"] = self.self_time["io"]
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = self.inclusive[f"cli.{cmd}"]
        out["cli.self_s"] = self.self_time["cli"]
        return out


def _wrap(fn, key, rec: Recorder, after=None):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        rec.open(key, clock())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(clock())
            if after is not None:
                after(args)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", key)
    return traced


@contextmanager
def installed(rec: Recorder):
    """Patch every binding of every boundary function; restore on exit."""
    import henonlab.cli  # noqa: F401  (loads every module that binds a name)

    mods = [m for name, m in list(sys.modules.items())
            if name == "henonlab" or name.startswith("henonlab.")]
    undo = []

    def rebind(orig, wrapped):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    try:
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"henonlab.{layer}")
            for fn in fns:
                key = f"{layer}.{fn}"
                if fn in METHODS:
                    cls_name, attr = METHODS[fn]
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    undo.append((cls, attr, orig))
                    setattr(cls, attr, _wrap(orig, key, rec))
                else:
                    orig = getattr(home, fn)
                    rebind(orig, _wrap(orig, key, rec))

        io_mod = importlib.import_module("henonlab.io")

        def count_bytes(args):
            if args and os.path.exists(args[0]):
                rec.io_bytes += os.path.getsize(args[0])

        for name in [n for n in vars(io_mod) if n.startswith("write_")]:
            orig = getattr(io_mod, name)
            rebind(orig, _wrap(orig, "io.write", rec, after=count_bytes))
        yield rec
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
