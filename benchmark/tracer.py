"""Per-layer tracing of graphfields from outside the package.

The tracer wraps a fixed list of public functions in every loaded
``graphfields`` module that binds them, so calls between modules (for
example ``kernels.covariance_matrix`` calling ``metrics.distance_matrix``)
are seen as nested spans.  For each span key it accumulates self time (the
span's duration minus the time covered by its child spans) and a call
count; for each layer it counts exceptions raised by calls into that layer
from outside it.  It also keeps work counts that are computed only from the
arguments and results of the wrapped calls, so they repeat exactly for a
given input whatever the package does internally.

Names that a later version of the package no longer defines are reported
in ``absent`` and read as zero; they never stop a run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

LAYERS = ("graph", "metrics", "kernels", "simulate", "cli")

TRACED = (
    ("graph", "build_graph"),
    ("graph", "block_decomposition"),
    ("graph", "point_from_json"),
    ("metrics", "build_resistance_context"),
    ("metrics", "distance_matrix"),
    ("metrics", "resistance_distance"),
    ("metrics", "geodesic_distance"),
    ("kernels", "covariance_matrix"),
    ("kernels", "radial_profile"),
    ("kernels", "psd_check"),
    ("kernels", "forbidden_certificate"),
    ("simulate", "sample_canonical_field"),
    ("simulate", "sample_from_covariance"),
    ("simulate", "empirical_variogram"),
    ("cli", "main"),
)

# distance_matrix is reported once per metric, because the two metrics take
# unrelated code paths.
SPAN_KEYS = tuple(
    key
    for layer, name in TRACED
    for key in (
        (f"{layer}.{name}.resistance", f"{layer}.{name}.geodesic")
        if name == "distance_matrix"
        else (f"{layer}.{name}",)
    )
)

WORK_COUNTS = (
    "graph.n_vertices",
    "graph.n_edges",
    "metrics.endpoint_columns",
    "kernels.certified_entries",
    "simulate.vertex_rhs",
    "simulate.bridge_points",
    "cli.bytes_out",
)


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _metric_of(args, kwargs) -> str:
    kind = _arg(args, kwargs, 2, "kind")
    return str(getattr(kind, "value", kind))


def _endpoints(g, points) -> set:
    """Vertices whose columns of L^-1 a resistance query over ``points`` needs."""
    out = set()
    for p in points:
        if p.vertex is not None:
            out.add(p.vertex)
            continue
        e = g.edge(p.edge)
        if p.offset > 0.0:
            out.add(e.v)
        if p.offset < e.length:
            out.add(e.u)
    return out


def _count_build_graph(counts, out, args, kwargs):
    counts["graph.n_vertices"] += len(out.vertices)
    counts["graph.n_edges"] += len(out.edges)


def _count_distance_matrix(counts, out, args, kwargs):
    points = _arg(args, kwargs, 1, "points")
    if _metric_of(args, kwargs) == "resistance" and isinstance(points, (list, tuple)):
        g = _arg(args, kwargs, 0, "g")
        counts["metrics.endpoint_columns"] += len(_endpoints(g, points))


def _count_resistance_distance(counts, out, args, kwargs):
    ctx = _arg(args, kwargs, 0, "ctx")
    p, q = _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "q")
    counts["metrics.endpoint_columns"] += len(_endpoints(ctx.graph, (p, q)))


def _count_psd_check(counts, out, args, kwargs):
    shape = getattr(_arg(args, kwargs, 0, "m"), "shape", ())
    if len(shape) == 2:
        counts["kernels.certified_entries"] += shape[0] * shape[1]


def _count_canonical_field(counts, out, args, kwargs):
    ctx = _arg(args, kwargs, 0, "ctx")
    points = _arg(args, kwargs, 1, "points")
    draws = int(_arg(args, kwargs, 2, "n"))
    counts["simulate.vertex_rhs"] += len(ctx.graph.vertices) * draws
    if isinstance(points, (list, tuple)):
        interior = 0
        for p in points:
            if p.vertex is None and 0.0 < p.offset < ctx.graph.edge(p.edge).length:
                interior += 1
        counts["simulate.bridge_points"] += interior * draws


def _count_cli_main(counts, out, args, kwargs):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.isfile(path):
            counts["cli.bytes_out"] += os.path.getsize(path)


_COUNTERS = {
    "build_graph": _count_build_graph,
    "distance_matrix": _count_distance_matrix,
    "resistance_distance": _count_resistance_distance,
    "psd_check": _count_psd_check,
    "sample_canonical_field": _count_canonical_field,
    "main": _count_cli_main,
}


class Tracer:
    """Wraps the traced functions while installed; aggregates spans in memory."""

    def __init__(self):
        self.self_s = dict.fromkeys(SPAN_KEYS, 0.0)
        self.calls = dict.fromkeys(SPAN_KEYS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self.absent: list[str] = []
        self.paused = False
        self._stack: list[tuple[str, list]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for layer in LAYERS:
            try:
                importlib.import_module(f"graphfields.{layer}")
            except ModuleNotFoundError:
                pass
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None
            and (modname == "graphfields" or modname.startswith("graphfields."))
        ]
        for layer, name in TRACED:
            home = sys.modules.get(f"graphfields.{layer}")
            original = getattr(home, name, None)
            if not callable(original):
                self.absent.append(f"{layer}.{name}")
                continue
            wrapper = self._wrap(layer, name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        counter = _COUNTERS.get(name)
        split_by_metric = name == "distance_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_key = f"{key}.{_metric_of(args, kwargs)}" if split_by_metric else key
            caller = self._stack[-1][0] if self._stack else None
            children = [0.0]
            self._stack.append((layer, children))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if caller != layer:
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if span_key in self.self_s:
                    self.self_s[span_key] += elapsed - children[0]
                    self.calls[span_key] += 1
                if self._stack:
                    self._stack[-1][1][0] += elapsed
            if counter is not None:
                counter(self.counts, out, args, kwargs)
            return out

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out = {}
        for key in SPAN_KEYS:
            out[f"{key}.self_s"] = (self.self_s[key], "s")
            out[f"{key}.calls"] = (self.calls[key], "count")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        for name in WORK_COUNTS:
            out[name] = (self.counts[name], "count")
        out["trace.absent_names"] = (len(self.absent), "count")
        return out
