"""JSON interchange for hypergraphs, colorings, and projection results.

Dumps are canonical: sorted keys, two-space indent, trailing newline.
Digests are sha256 over the canonical form with every "timings" key
removed, so equal results hash equal regardless of wall-clock noise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path
from typing import Any, Union

from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import LabeledConfiguration
from sparsehg.projection import HEAVY_TRIPLE, PROJECTED, ProjectedMap, ProjectionResult
from sparsehg.ramsey import ColoringInstance


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def strip_timings(obj: Any) -> Any:
    """Copy with every dict key named "timings" dropped, at any depth."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def report_digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(strip_timings(obj)).encode()).hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_json(path: Union[str, Path]) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise HypergraphError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise HypergraphError(f"{path}: not valid JSON ({exc})") from exc


def write_json(path: Union[str, Path], obj: Any) -> None:
    Path(path).write_text(canonical_json(obj))


def _expect(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise HypergraphError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise HypergraphError(f"{where}: missing key {key!r}")
    val = obj[key]
    # JSON true/false load as bool, which is a subclass of int
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise HypergraphError(
            f"{where}: key {key!r} must be {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _label_list(val: Any, where: str) -> list[str]:
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise HypergraphError(f"{where}: expected a list of strings")
    return val


def graph_to_obj(graph: Hypergraph) -> dict:
    return {
        "r": graph.r,
        "vertices": list(graph.vertices),
        "edges": [list(edge) for edge in graph.edges],
    }


def graph_from_obj(obj: Any) -> Hypergraph:
    r = _expect(obj, "r", int, "graph")
    vertices = _label_list(_expect(obj, "vertices", list, "graph"), "graph.vertices")
    edges_raw = _expect(obj, "edges", list, "graph")
    edges = [_label_list(edge, "graph.edges") for edge in edges_raw]
    return Hypergraph(r, vertices, edges)


def config_to_obj(config: LabeledConfiguration) -> dict:
    obj = graph_to_obj(config.graph)
    obj["roles"] = {name: list(labels) for name, labels in config.roles.items()}
    obj["family"] = dict(config.family)
    if config.subcopies:
        obj["subcopies"] = {
            name: dict(vmap) for name, vmap in config.subcopies.items()
        }
    return obj


def config_from_obj(obj: Any) -> LabeledConfiguration:
    graph = graph_from_obj(obj)
    known = set(graph.vertices)
    roles_raw = _expect(obj, "roles", dict, "configuration")
    roles = {}
    for name, labels in roles_raw.items():
        labels = _label_list(labels, f"role {name!r}")
        for v in labels:
            if v not in known:
                raise HypergraphError(f"role {name!r} names unknown vertex {v!r}")
        roles[name] = tuple(labels)
    family = obj.get("family", {})
    if not isinstance(family, dict):
        raise HypergraphError("configuration: 'family' must be an object")
    subcopies_raw = obj.get("subcopies", {})
    if not isinstance(subcopies_raw, dict):
        raise HypergraphError("configuration: 'subcopies' must be an object")
    subcopies = {}
    for name, vmap in subcopies_raw.items():
        if not isinstance(vmap, dict):
            raise HypergraphError(f"subcopy {name!r} must map labels to labels")
        for src, dst in vmap.items():
            if not isinstance(src, str) or not isinstance(dst, str):
                raise HypergraphError(f"subcopy {name!r} must map strings to strings")
            if dst not in known:
                raise HypergraphError(
                    f"subcopy {name!r} targets unknown vertex {dst!r}"
                )
        subcopies[name] = dict(vmap)
    return LabeledConfiguration(
        graph=graph, roles=roles, family=dict(family), subcopies=subcopies
    )


def load_any(obj: Any) -> Union[Hypergraph, LabeledConfiguration]:
    """A configuration when role markers are present, else a bare graph."""
    if isinstance(obj, dict) and "roles" in obj:
        return config_from_obj(obj)
    return graph_from_obj(obj)


def coloring_to_obj(coloring: ColoringInstance) -> dict:
    return {
        "n": coloring.n,
        "colors": {
            f"{i},{j}": coloring.colors[(i, j)]
            for i, j in sorted(coloring.colors)
        },
    }


def coloring_from_obj(obj: Any) -> ColoringInstance:
    n = _expect(obj, "n", int, "coloring")
    raw = _expect(obj, "colors", dict, "coloring")
    colors = {}
    for key, val in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise HypergraphError(f"coloring: bad pair key {key!r}, want 'i,j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise HypergraphError(f"coloring: bad pair key {key!r}, want integers")
        if not (1 <= i < j <= n):
            raise HypergraphError(f"coloring: pair {key!r} out of range for n={n}")
        if not isinstance(val, int) or isinstance(val, bool):
            raise HypergraphError(f"coloring: color of {key!r} must be an integer")
        colors[(i, j)] = val
    missing = math.comb(max(n, 0), 2) - len(colors)
    if missing:
        first = next(p for p in itertools.combinations(range(1, n + 1), 2) if p not in colors)
        raise HypergraphError(f"coloring: {missing} pairs missing, first {first}")
    return ColoringInstance(n=n, colors=colors)


def projection_to_obj(result: ProjectionResult) -> dict:
    obj = {
        "r": result.r,
        "k": result.k,
        "e": result.e,
        "anchors": list(result.anchors),
        "case": result.case_tag,
    }
    if result.heavy_config is not None:
        obj["heavy_config"] = graph_to_obj(result.heavy_config)
    if result.projected is not None:
        obj["projected"] = {
            "graph3": graph_to_obj(result.projected.graph3),
            "pairs": [
                {"triple": list(t), "link": list(y)}
                for t, y in result.projected.pairs
            ],
        }
    return obj


def projection_from_obj(obj: Any) -> ProjectionResult:
    r = _expect(obj, "r", int, "projection")
    k = _expect(obj, "k", int, "projection")
    e = _expect(obj, "e", int, "projection")
    anchors = tuple(_label_list(_expect(obj, "anchors", list, "projection"), "anchors"))
    case = _expect(obj, "case", str, "projection")
    if case not in (HEAVY_TRIPLE, PROJECTED):
        raise HypergraphError(f"projection: unknown case {case!r}")
    heavy = None
    projected = None
    if case == HEAVY_TRIPLE:
        heavy = graph_from_obj(_expect(obj, "heavy_config", dict, "projection"))
    else:
        pobj = _expect(obj, "projected", dict, "projection")
        graph3 = graph_from_obj(_expect(pobj, "graph3", dict, "projection.projected"))
        pairs = []
        for entry in _expect(pobj, "pairs", list, "projection.projected"):
            triple = tuple(_label_list(_expect(entry, "triple", list, "pair"), "triple"))
            link = tuple(_label_list(_expect(entry, "link", list, "pair"), "link"))
            pairs.append((triple, link))
        projected = ProjectedMap(graph3=graph3, pairs=tuple(pairs))
    return ProjectionResult(
        r=r, k=k, e=e, anchors=anchors, case_tag=case,
        heavy_config=heavy, projected=projected,
    )
