"""Span tracing of in-process `sparsehg.cli.main` calls, layer by layer.

`Tracer.install()` replaces each public function of the package's modules
with a wrapper that records one span per call: name, layer, start, end,
parent span and a few counts read from the arguments or the result. A name
bound elsewhere with `from ... import` is replaced in every module that
binds it, and `Hypergraph.__init__` is wrapped on the class. `uninstall()`
puts the originals back. Spans stay in memory until the run ends.

A layer's self time is the time its spans cover minus the time their child
spans cover. The benchmark opens a `harness` span around each traced call,
so time a call spends outside the package's spans shows as harness self
time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from math import comb
from pathlib import Path
from typing import Any, Callable, Optional

LAYERS = {
    "cli": ("sparsehg.cli",),
    "jsonio": ("sparsehg.jsonio",),
    "families": ("sparsehg.families",),
    "core": ("sparsehg.core",),
    "niceness": ("sparsehg.niceness",),
    "kernels": ("sparsehg.kernels", "sparsehg._kernels_py", "sparsehg._kernels"),
    "extraction": ("sparsehg.extraction",),
    "projection": ("sparsehg.projection",),
    "ramsey": ("sparsehg.ramsey",),
    "search": ("sparsehg.search",),
}
# private functions that get spans of their own
PRIVATE = {"sparsehg.niceness": ("_stratified_masks",)}
# Backend functions the backends call once per subset or per stratified
# draw: a span would cost about as much as the call, and their time stays in
# the calling kernel span, which is in the same layer.
PER_SUBSET = {"mix64", "induced_count"}
DISPATCHER = "sparsehg.kernels"
NARROW_MAX_VERTICES = 64

READ_FUNCS = {"read_json", "load_any", "graph_from_obj", "config_from_obj",
              "coloring_from_obj", "projection_from_obj"}
DIGEST_FUNCS = {"report_digest", "file_digest"}

# Per-layer metrics and their units, as BENCHMARK.json lists them. README.md
# says which end-to-end metric and workload each should move.
LAYER_METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                        .read_text())["per_layer"]
}
# measured by the benchmark around the calls rather than read from spans
FROM_HARNESS = ("cli.import_s", "process.overhead_s", "trace.overhead")

# Layers each workload is meant to exercise; the self-test requires spans
# from each of them.
EXERCISED = {
    "certify-small": ("cli", "jsonio", "core", "niceness", "kernels", "ramsey"),
    "certify-large": ("cli", "jsonio", "families", "core", "niceness", "kernels",
                      "extraction", "ramsey"),
    "search": ("cli", "jsonio", "core", "search", "ramsey", "projection"),
}

# span fields
NAME, LAYER, START, END, PARENT, INFO = range(6)


def _dispatch_width(bound: dict[str, Any]) -> int:
    """Vertex count the dispatcher's n <= 64 rule sees for these arguments."""
    if "n" in bound:
        return bound["n"]
    n = max((v.bit_length() for k, v in bound.items()
             if k.endswith("_mask") and isinstance(v, int)), default=0)
    free = bound.get("free_positions") or ()
    return max([n] + [p + 1 for p in free])


def _annotator(modname: str, name: str, fn: Callable) -> Optional[Callable]:
    """Counts to keep for one wrapped function: (args, kwargs, result) -> dict."""
    if modname == DISPATCHER:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None

        def kernel_info(args, kwargs, result):
            n = _dispatch_width(sig.bind(*args, **kwargs).arguments)
            subsets = result[0] if isinstance(result, tuple) else 1
            return {"wide": n > NARROW_MAX_VERTICES, "subsets": subsets}

        return None if name == "backend_name" else kernel_info
    if modname == "sparsehg.families":
        return lambda args, kwargs, result: {"edges": result.graph.edge_count}
    if modname == "sparsehg.jsonio" and name in ("read_json", "write_json"):
        return lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])}
    if (modname, name) == ("sparsehg.extraction", "extract"):
        return lambda args, kwargs, result: {"steps": len(result.trace)}
    if (modname, name) == ("sparsehg.search", "find_configuration"):
        return lambda args, kwargs, result: {"nodes": result.nodes_explored}
    if (modname, name) == ("sparsehg.search", "count_copies"):
        return lambda args, kwargs, result: {"embeddings": result.embeddings}
    if (modname, name) == ("sparsehg.ramsey", "check_coloring"):
        return lambda args, kwargs, result: {"cliques": comb(args[0].n, args[1])}
    if (modname, name) == ("sparsehg.projection", "project"):
        return lambda args, kwargs, result: {
            "links": 0 if result.projected is None else len(result.projected.pairs)
        }
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        # time spent in the wrappers themselves, outside the wrapped calls
        self._cost = [0.0]

    @property
    def cost_s(self) -> float:
        return self._cost[0]

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, layer: str, fn: Callable, annotate) -> Callable:
        spans, stack, cost, clock = self.spans, self._stack, self._cost, time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if annotate is not None:
                try:
                    span[INFO] = annotate(args, kwargs, result)
                except Exception:  # a changed signature loses counts, not the call
                    span[INFO] = None
            cost[0] += clock() - entered - (span[END] - span[START])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        replace: dict[int, Callable] = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    continue  # the compiled backend is optional
                for name, obj in list(vars(mod).items()):
                    if isinstance(obj, type) or not callable(obj):
                        continue
                    if getattr(obj, "__module__", None) != modname:
                        continue
                    if modname != DISPATCHER and name in PER_SUBSET:
                        continue
                    if name.startswith("_") and name not in PRIVATE.get(modname, ()):
                        continue
                    short = modname.rsplit(".", 1)[1]
                    replace[id(obj)] = self._wrap(
                        f"{short}.{name}", layer, obj, _annotator(modname, name, obj)
                    )
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sparsehg" or modname.startswith("sparsehg.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        from sparsehg.core import Hypergraph

        init = Hypergraph.__init__
        self._patched.append((Hypergraph, "__init__", init))
        Hypergraph.__init__ = self._wrap(
            "core.Hypergraph", "core", init,
            lambda args, kwargs, result: {"edges": len(args[0].edges)},
        )

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_by_layer(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s[LAYER]] += own
    return dict(out)


def _top_in_layer(spans: list[list], i: int) -> int:
    """The outermost span of the unbroken same-layer chain above span i."""
    layer = spans[i][LAYER]
    while spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][LAYER] == layer:
        i = spans[i][PARENT]
    return i


def _kernel_chain(spans: list[list], i: int) -> tuple[Optional[bool], bool]:
    """For a kernels span: the wide flag of the nearest dispatcher span at or
    above it, and whether a *_check_masks call is at or above it."""
    wide, in_check = None, False
    while i >= 0 and spans[i][LAYER] == "kernels":
        info = spans[i][INFO]
        if wide is None and info is not None and "wide" in info:
            wide = info["wide"]
        in_check = in_check or spans[i][NAME].endswith("check_masks")
        i = spans[i][PARENT]
    return wide, in_check


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced pass, and why any of them is 0."""
    selft = self_times(spans)
    by_layer = defaultdict(float, self_by_layer(spans))
    m: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name, layer, info = s[NAME], s[LAYER], s[INFO] or {}
        fn = name.rsplit(".", 1)[1]
        top = spans[_top_in_layer(spans, i)]
        outermost = top is s
        if layer == "kernels":
            wide, in_check = _kernel_chain(spans, i)
            if wide is not None:
                m["kernels.wide.self_s" if wide else "kernels.narrow.self_s"] += selft[i]
            if in_check:
                m["kernels.check_masks.self_s"] += selft[i]
            if "subsets" in info:
                m["kernels.calls"] += 1
                m["kernels.subsets"] += info["subsets"]
                m["kernels.wide.subsets" if info["wide"] else "kernels.narrow.subsets"] += info["subsets"]
        elif layer == "niceness" and fn == "_stratified_masks":
            m["niceness.stratified_masks"] += selft[i]
        elif layer == "families" and outermost:
            m["families.edges_built"] += info.get("edges", 0)
        elif layer == "core" and fn == "Hypergraph":
            m["core.graphs_built"] += 1
            m["core.edges"] += info.get("edges", 0)
        elif layer == "jsonio":
            top_fn = top[NAME].rsplit(".", 1)[1]
            kind = ("digest" if top_fn in DIGEST_FUNCS
                    else "read" if top_fn in READ_FUNCS else "write")
            m[f"jsonio.{kind}_s"] += selft[i]
            if fn == "read_json":
                m["jsonio.bytes_read"] += info.get("bytes", 0)
            elif fn == "write_json":
                m["jsonio.bytes_written"] += info.get("bytes", 0)
        elif layer == "extraction" and fn == "extract":
            m["extraction.trace_steps"] += info.get("steps", 0)
        elif layer == "search":
            if fn == "find_configuration":
                m["search.dfs_s"] += selft[i]
                if outermost:
                    m["search.nodes"] += info.get("nodes", 0)
            elif fn == "count_copies":
                m["search.embeddings"] += info.get("embeddings", 0)
        elif layer == "ramsey" and fn == "check_coloring":
            m["ramsey.cliques"] += info.get("cliques", 0)
        elif layer == "projection" and fn == "project":
            m["projection.links"] += info.get("links", 0)
    for layer in ("cli", "niceness", "extraction", "search", "ramsey", "projection"):
        m[f"{layer}.self_s"] = by_layer[layer]
    m["families.build_s"] = by_layer["families"]
    m["core.build_s"] = by_layer["core"]

    missing: dict[str, str] = {}

    def per_unit(metric: str, time_key: str, count_key: str, what: str) -> None:
        if m[count_key] > 0:
            m[metric] = m[time_key] / m[count_key] * 1e9
        else:
            m[metric] = 0.0
            missing[metric] = f"no {what} on this workload"

    per_unit("kernels.narrow.ns_per_subset", "kernels.narrow.self_s",
             "kernels.narrow.subsets", "narrow-path subsets")
    per_unit("kernels.wide.ns_per_subset", "kernels.wide.self_s",
             "kernels.wide.subsets", "wide-path subsets")
    per_unit("families.ns_per_edge", "families.build_s", "families.edges_built",
             "family builds")
    per_unit("core.ns_per_edge", "core.build_s", "core.edges", "Hypergraph edges")
    per_unit("search.ns_per_node", "search.dfs_s", "search.nodes", "search nodes")
    out = {k: float(m[k]) for k in LAYER_METRICS if k not in FROM_HARNESS}
    for k, v in out.items():
        if v == 0.0 and k not in missing:
            missing[k] = "no span on this workload counts toward it"
    return out, missing

