"""Reduction of an r-uniform search problem to a 3-uniform one.

`project` anchors a (k-2)-subset of maximum link size, collects the link
sets, and either finds a heavy triple (yielding a small configuration in
the r-graph directly) or retains a pairwise-nearly-disjoint subfamily and
represents each retained link by one triple. The anchors and the heavy
triple are found by counting the subsets each edge or link holds, not by
scanning every vertex subset. `lift` pulls a 3-uniform configuration
found in the projection back to the r-graph.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional

from sparsehg.core import Hypergraph, HypergraphError, Record, _at_most, _integer

_PROJECT_VERTEX_LIMIT = 40

HEAVY_TRIPLE = "HeavyTriple"
PROJECTED = "Projected"


class ProjectedMap(Record):
    """Retained links and their triples. Only this constructor checks that each triple
    lies in its link, that none repeats, and that the sorted triples are graph3's edges."""

    graph3: Hypergraph
    # (triple, link) pairs in retention order; the triple is the edge of
    # graph3 standing for link ∪ anchors in the source graph
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        seen = set()
        for triple, link in self.pairs:
            if not set(triple) <= set(link):
                raise HypergraphError(f"projection: triple {triple!r} is not inside its link {link!r}")
            if triple in seen:
                raise HypergraphError(f"projection: triple {triple!r} stands for two links")
            seen.add(triple)
        if sorted(seen) != list(self.graph3.edges):
            raise HypergraphError("projection: the triples, sorted, must be graph3's edges")


class ProjectionResult(Record):
    r: int
    k: int
    e: int
    anchors: tuple[str, ...]
    case_tag: str
    heavy_config: Optional[Hypergraph]
    projected: Optional[ProjectedMap]


def _holders(sets, s: int) -> dict[tuple[int, ...], list[int]]:
    """Each s-subset of vertex indices lying in one of `sets`, mapped to the
    positions of the sets that hold it, in order."""
    held: dict[tuple[int, ...], list[int]] = {}
    for i, members in enumerate(sets):
        for sub in itertools.combinations(sorted(members), s):
            held.setdefault(sub, []).append(i)
    return held


def _pick_anchors(graph: Hypergraph, k: int) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """(k-2)-subset contained in the most edges; ties go to the first in index order."""
    held = _holders([map(graph.index_of, edge) for edge in graph.edges], k - 2)
    if not held:  # no edges: every subset is held by none, so the first wins
        return graph.vertices[: k - 2], []
    best = min(held, key=lambda sub: (-len(held[sub]), sub))
    return tuple(graph.vertices[i] for i in best), [graph.edges[i] for i in held[best]]


def project(graph: Hypergraph, k: int, e: int) -> ProjectionResult:
    """Anchored projection of an r-graph to a 3-graph, or a direct hit.

    With anchors fixed, each containing edge leaves a link set of size
    r-k+2. A triple lying in e of those links already spans a small
    configuration (HeavyTriple case). Otherwise a greedy scan retains
    links that pairwise share at most 2 vertices, and each retained link
    is recorded as its lexicographically smallest triple.
    """
    r = graph.r
    _integer("k", k, 2, r - 1)
    _integer("e", e, 2)
    _at_most("projection", graph.vertex_count, _PROJECT_VERTEX_LIMIT)
    if graph.vertex_count < k - 2:
        raise HypergraphError(f"need k-2={k - 2} anchor vertices, graph has {graph.vertex_count}")
    anchors, link_edges = _pick_anchors(graph, k)
    anchor_set = set(anchors)
    links = [tuple(u for u in edge if u not in anchor_set) for edge in link_edges]

    # heavy triple: first vertex triple (index order) lying in >= e links
    held = _holders([map(graph.index_of, y) for y in links], 3)
    heavy_triples = [triple for triple, holders in held.items() if len(holders) >= e]
    if heavy_triples:
        chosen = held[min(heavy_triples)][:e]
        union: set[str] = set(anchors)
        for i in chosen:
            union.update(links[i])
        bound = (r - k) * e + k
        if len(union) > bound:
            raise HypergraphError(
                f"heavy-triple union has {len(union)} vertices, over the bound {bound}"
            )
        verts = [v for v in graph.vertices if v in union]
        heavy = Hypergraph(r, verts, [link_edges[i] for i in chosen])
        return ProjectionResult(
            r=r, k=k, e=e, anchors=anchors, case_tag=HEAVY_TRIPLE,
            heavy_config=heavy, projected=None,
        )

    kept: list[tuple[str, ...]] = []
    kept_sets: list[set] = []
    for y in links:
        ys = set(y)
        if all(len(ys & other) <= 2 for other in kept_sets):
            kept.append(y)
            kept_sets.append(ys)
    if kept and len(kept) * (comb(r, 3) * (e - 1) + 1) < len(links):
        raise HypergraphError("greedy retention fell below the independent-set bound")
    pairs = tuple((tuple(sorted(y))[:3], y) for y in kept)
    graph3 = Hypergraph(3, graph.vertices, [t for t, _ in pairs])
    return ProjectionResult(
        r=r, k=k, e=e, anchors=anchors, case_tag=PROJECTED,
        heavy_config=None, projected=ProjectedMap(graph3=graph3, pairs=pairs),
    )


def lift(result: ProjectionResult, config3: Hypergraph) -> Hypergraph:
    """Pull a 3-uniform configuration found in the projection back up.

    Every edge of config3 must be a recorded triple; its preimage is the
    link plus the anchors. The lifted vertex count is asserted against
    v(config3) + (r-k-1)*e(config3) + k - 2.
    """
    if result.case_tag != PROJECTED or result.projected is None:
        raise HypergraphError("lift needs a Projected result")
    if config3.r != 3:
        raise HypergraphError(f"config must be 3-uniform, got {config3.r}")
    assoc = {t: y for t, y in result.projected.pairs}
    lifted_edges = []
    for t in config3.edges:
        if t not in assoc:
            raise HypergraphError(f"edge {t!r} not in projection map")
        lifted_edges.append(tuple(sorted(set(assoc[t]) | set(result.anchors))))
    union: set[str] = set(result.anchors)
    for edge in lifted_edges:
        union.update(edge)
    host_order = result.projected.graph3.vertices
    verts = [v for v in host_order if v in union]
    lifted = Hypergraph(result.r, verts, lifted_edges)
    bound = (
        config3.vertex_count
        + (result.r - result.k - 1) * config3.edge_count
        + result.k
        - 2
    )
    if lifted.vertex_count > bound:
        raise HypergraphError(
            f"lifted configuration has {lifted.vertex_count} vertices, over the bound {bound}"
        )
    return lifted
