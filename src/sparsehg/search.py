"""Exact search: configuration search and copy counting.

`find_configuration` decides whether some e edges span at most v vertices
by a DFS over edge subsets in lexicographic index order with exact
pruning, so its witness equals the one the unpruned scan
(`find_configuration_unpruned`) returns. The DFS walks one depth at a
time: each depth scans its candidate edges in index order and goes down
at the first one that keeps the span within v, and resumes one past it
on backtracking. `nodes_explored` counts every candidate tried, pruned or
not: idx - lo + 1 when a depth goes down at idx, and the rest of the
depth's range when it is used up.

`count_copies` enumerates injective edge-onto-edge vertex maps;
its `nodes_explored` counts the partial maps it visits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from sparsehg.core import Hypergraph, HypergraphError

_SEARCH_EDGE_LIMIT = 60
_SEARCH_VERTEX_LIMIT = 20
_PATTERN_VERTEX_LIMIT = 14


@dataclass(frozen=True)
class SearchResult:
    found: bool
    witness: Optional[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]
    nodes_explored: int


@dataclass(frozen=True)
class CopyCount:
    embeddings: int
    copies: int
    nodes_explored: int


def _search_guard(graph: Hypergraph) -> None:
    if graph.edge_count > _SEARCH_EDGE_LIMIT and graph.vertex_count > _SEARCH_VERTEX_LIMIT:
        raise HypergraphError(
            f"search limited to {_SEARCH_EDGE_LIMIT} edges or "
            f"{_SEARCH_VERTEX_LIMIT} vertices; graph has "
            f"{graph.edge_count} edges on {graph.vertex_count} vertices"
        )


def _witness_from_masks(graph: Hypergraph, picked: tuple[int, ...]):
    edges = tuple(graph.edges[i] for i in picked)
    span = 0
    for i in picked:
        span |= graph.edge_masks[i]
    return (graph.labels_of_mask(span), edges)


def _dfs(graph: Hypergraph, v: int, e: int):
    """First e-subset (lex order) spanning <= v, for 1 <= e <= edge count.

    Depth d picks the (d+1)-th edge from idx in [lo, hi): lo is one past
    the edge picked at depth d-1 (0 at the root), hi is m at the root and
    m - e + d + 1 below it, so that e - d - 1 later edges remain. A loop,
    not recursion: e may be as large as the guard's 1,140-edge hosts.
    """
    masks = graph.edge_masks
    m = len(masks)
    spans = [0] * e
    picked = [0] * e
    nodes = 0
    d, lo, hi = 0, 0, m
    while True:
        span = spans[d]
        for idx in range(lo, hi):
            new_span = span | masks[idx]
            if new_span.bit_count() <= v:
                break
        else:
            # every candidate at this depth tried and pruned: back up one;
            # a root past m - e + 1 leaves depth 1 with lo > hi
            nodes += max(hi - lo, 0)
            if d == 0:
                return (None, nodes)
            d -= 1
            lo = picked[d] + 1
            hi = m if d == 0 else m - e + d + 1
            continue
        nodes += idx - lo + 1
        picked[d] = idx
        d += 1
        if d == e:
            return (tuple(picked), nodes)
        spans[d] = new_span
        lo, hi = idx + 1, m - e + d + 1


def find_configuration(graph: Hypergraph, v: int, e: int) -> SearchResult:
    """Decide whether some e edges of the graph span at most v vertices.

    Exact; the witness is the lexicographically first qualifying edge
    subset.
    """
    _search_guard(graph)
    if e < 0 or v < 0:
        raise HypergraphError("v and e must be non-negative")
    if e == 0:
        return SearchResult(True, ((), ()), 0)
    m = graph.edge_count
    if e > m:
        return SearchResult(False, None, 0)
    picked, nodes = _dfs(graph, v, e)
    if picked is None:
        return SearchResult(False, None, nodes)
    return SearchResult(True, _witness_from_masks(graph, picked), nodes)


def find_configuration_unpruned(graph: Hypergraph, v: int, e: int) -> SearchResult:
    """Reference scan over every e-subset of edges; no pruning at all."""
    _search_guard(graph)
    if e < 0 or v < 0:
        raise HypergraphError("v and e must be non-negative")
    if e == 0:
        return SearchResult(True, ((), ()), 0)
    masks = graph.edge_masks
    nodes = 0
    for combo in itertools.combinations(range(graph.edge_count), e):
        nodes += 1
        span = 0
        for i in combo:
            span |= masks[i]
        if span.bit_count() <= v:
            return SearchResult(True, _witness_from_masks(graph, combo), nodes)
    return SearchResult(False, None, nodes)


def verify_embedding(
    host: Hypergraph, pattern: Hypergraph, vmap: dict[str, str]
) -> bool:
    """True iff vmap is injective and sends every pattern edge onto a host edge."""
    missing = [u for u in pattern.vertices if u not in vmap]
    if missing:
        raise HypergraphError(f"incomplete map: no image for {missing[:3]}")
    unknown = [w for w in vmap.values() if w not in set(host.vertices)]
    if unknown:
        raise HypergraphError(f"map targets unknown vertices {unknown[:3]}")
    images = [vmap[u] for u in pattern.vertices]
    if len(set(images)) != len(images):
        return False
    host_edges = set(host.edges)
    return all(
        tuple(sorted(vmap[u] for u in edge)) in host_edges for edge in pattern.edges
    )


def count_copies(
    host: Hypergraph, pattern: Hypergraph, *, induced: bool = False
) -> CopyCount:
    """Count injective edge-preserving maps of the pattern into the host.

    `embeddings` counts the maps; `copies` counts distinct edge-set images,
    so embeddings = copies * |Aut(pattern)|. With `induced`, only maps
    whose vertex image induces no host edges beyond the image are counted.
    `nodes_explored` counts the partial maps visited, the empty and the
    complete ones included.
    """
    if host.r != pattern.r:
        raise HypergraphError(
            f"uniformity mismatch: host is {host.r}-uniform, pattern {pattern.r}-uniform"
        )
    if pattern.vertex_count > _PATTERN_VERTEX_LIMIT:
        raise HypergraphError(
            f"pattern limited to {_PATTERN_VERTEX_LIMIT} vertices, "
            f"got {pattern.vertex_count}"
        )
    _search_guard(host)
    host_edge_set = set(host.edges)
    # order pattern vertices most-constrained first: by descending edge
    # membership, then canonical order, so edge checks fire early
    degree = {u: 0 for u in pattern.vertices}
    for edge in pattern.edges:
        for u in edge:
            degree[u] += 1
    order = sorted(pattern.vertices, key=lambda u: (-degree[u], pattern.index_of(u)))
    pos = {u: i for i, u in enumerate(order)}
    # edges checkable once their latest vertex (in `order`) is placed
    ready: list[list[tuple[str, ...]]] = [[] for _ in order]
    for edge in pattern.edges:
        ready[max(pos[u] for u in edge)].append(edge)

    embeddings = 0
    nodes = 0
    images: set[frozenset] = set()
    assignment: dict[str, str] = {}
    used: set[str] = set()
    host_vertices = host.vertices

    def place(i: int) -> None:
        nonlocal embeddings, nodes
        nodes += 1
        if i == len(order):
            edge_image = frozenset(
                tuple(sorted(assignment[u] for u in edge)) for edge in pattern.edges
            )
            if induced:
                vert_mask = 0
                for w in assignment.values():
                    vert_mask |= 1 << host.index_of(w)
                if host.induced_edge_count(vert_mask) != len(edge_image):
                    return
            embeddings += 1
            images.add(edge_image)
            return
        u = order[i]
        for w in host_vertices:
            if w in used:
                continue
            assignment[u] = w
            ok = True
            for edge in ready[i]:
                if tuple(sorted(assignment[x] for x in edge)) not in host_edge_set:
                    ok = False
                    break
            if ok:
                used.add(w)
                place(i + 1)
                used.discard(w)
        assignment.pop(u, None)

    place(0)
    return CopyCount(embeddings=embeddings, copies=len(images), nodes_explored=nodes)
