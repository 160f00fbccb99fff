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

The DFS is split by root edge, the edge picked at depth 0. Roots run in
index order in this process until `_FORK_AFTER_NODES` nodes are
explored, so small searches never fork. The remaining roots then go, one
at a time and in increasing order, to min(CPUs, roots left) forked
workers, where CPUs are those the process may run on. Each worker reports
(root, nodes, witness) over a pipe, and this process only hands out roots
and collects. The answer is fixed when every root is in, or when the
lowest root with a witness has every lower root in; the busy workers are
then killed and reaped. The result cannot depend on the CPU count:
`nodes_explored` is the sum of the counts of the roots up to the answer's
root, and the witness is the lowest root's first one, as in the unsplit
loop. If a pipe or fork fails the search goes on in-process; a worker
that dies before it reports raises `HypergraphError`.

`count_copies` enumerates injective edge-onto-edge vertex maps;
its `nodes_explored` counts the partial maps it visits.
"""

from __future__ import annotations

import itertools
import os
import select
import signal
from dataclasses import dataclass
from typing import Optional

from sparsehg.core import Hypergraph, HypergraphError

_SEARCH_EDGE_LIMIT = 60
_SEARCH_VERTEX_LIMIT = 20
_PATTERN_VERTEX_LIMIT = 14
# nodes explored in-process before the remaining roots go to forked workers
_FORK_AFTER_NODES = 1 << 17


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


def _subtree(masks: tuple[int, ...], v: int, e: int, root: int):
    """First e-subset (lex order) spanning <= v whose lowest edge is `root`.

    Returns (picked, nodes), where nodes counts the root and every candidate
    tried below it. Depth d >= 1 picks the (d+1)-th edge from idx in
    [lo, hi): lo is one past the edge picked at depth d-1 and hi is
    m - e + d + 1, so that e - d - 1 later edges remain. A loop, not
    recursion: e may be as large as the guard's 1,140-edge hosts.
    """
    span = masks[root]
    if span.bit_count() > v:
        return (None, 1)
    if e == 1:
        return ((root,), 1)
    m = len(masks)
    spans = [0] * e
    picked = [0] * e
    picked[0], spans[1] = root, span
    nodes = 1
    # a root past m - e + 1 starts depth 1 with lo > hi
    d, lo, hi = 1, root + 1, m - e + 2
    while True:
        span = spans[d]
        for idx in range(lo, hi):
            new_span = span | masks[idx]
            if new_span.bit_count() <= v:
                break
        else:
            # every candidate at this depth tried and pruned: back up one
            nodes += max(hi - lo, 0)
            d -= 1
            if d == 0:
                return (None, nodes)
            lo = picked[d] + 1
            hi = m - e + d + 1
            continue
        nodes += idx - lo + 1
        picked[d] = idx
        d += 1
        if d == e:
            return (tuple(picked), nodes)
        spans[d] = new_span
        lo, hi = idx + 1, m - e + d + 1


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _dfs(masks: tuple[int, ...], v: int, e: int):
    """First e-subset (lex order) spanning <= v, for 1 <= e <= edge count.

    Roots in index order, in this process until _FORK_AFTER_NODES nodes are
    explored, then split across forked workers when that is possible.
    """
    nodes = 0
    may_fork = hasattr(os, "fork")
    for root in range(len(masks)):
        if may_fork and nodes >= _FORK_AFTER_NODES:
            may_fork = False
            split = _split(masks, v, e, root)
            if split is not None:
                picked, rest = split
                return (picked, nodes + rest)
        picked, count = _subtree(masks, v, e, root)
        nodes += count
        if picked is not None:
            return (picked, nodes)
    return (None, nodes)


def _worker(masks: tuple[int, ...], v: int, e: int, tasks: int, results: int) -> None:
    """Answer each root read from `tasks` with one "root nodes picked" line."""
    with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
        for line in inbox:
            root = int(line)
            picked, nodes = _subtree(masks, v, e, root)
            witness = "" if picked is None else ",".join(map(str, picked))
            outbox.write(f"{root} {nodes} {witness}\n".encode())
            outbox.flush()


def _split(masks: tuple[int, ...], v: int, e: int, first: int):
    """Roots first..m-1 over forked workers; (picked, nodes) for those roots.

    Each worker takes one root at a time, in increasing root order, and
    reports (root, nodes, witness) on its own pipe; this process only hands
    out roots and collects. The answer is fixed once every root is in, or
    once the lowest root with a witness has every lower root in. None when
    fewer than two workers would run or a pipe or fork fails, so the caller
    goes on in-process.
    """
    m = len(masks)
    count = min(_cpus(), m - first)
    if count < 2:
        return None
    workers: dict[int, tuple[int, int, object]] = {}  # result fd -> (pid, task fd, reader)
    alive: set[int] = set()
    held: list[int] = []  # every descriptor this process holds
    try:
        try:
            for _ in range(count):
                task_r, task_w = os.pipe()
                held += (task_r, task_w)
                result_r, result_w = os.pipe()
                held += (result_r, result_w)
                pid = os.fork()
                if pid == 0:  # the worker: never returns
                    code = 1
                    try:
                        # an inherited end of another worker's pipe would
                        # keep that pipe open after the worker dies
                        for fd in held:
                            if fd not in (task_r, result_w):
                                os.close(fd)
                        _worker(masks, v, e, task_r, result_w)
                        code = 0
                    finally:
                        os._exit(code)
                alive.add(pid)
                for fd in (task_r, result_w):
                    os.close(fd)
                    held.remove(fd)
                workers[result_r] = (pid, task_w, os.fdopen(result_r, "rb", closefd=False))
        except OSError:
            return None

        results: dict[int, tuple[int, Optional[tuple[int, ...]]]] = {}
        busy: dict[int, int] = {}  # result fd -> the root it works on
        next_root, lowest, nodes, witnessed = first, first, 0, False
        while True:
            # hand out roots in order until one is known to have a witness:
            # no later root can change the answer then
            for fd, (pid, task_w, _) in workers.items():
                if fd not in busy and next_root < m and not witnessed:
                    try:
                        os.write(task_w, b"%d\n" % next_root)
                    except BrokenPipeError:
                        _lost(pid, next_root, alive)
                    busy[fd] = next_root
                    next_root += 1
            for fd in select.select(list(busy), [], [])[0]:
                root = busy.pop(fd)
                pid, _, reader = workers[fd]
                line = reader.readline()
                if not line.endswith(b"\n"):
                    _lost(pid, root, alive)
                _, explored, *picked = line.split()
                witness = tuple(map(int, picked[0].split(b","))) if picked else None
                results[root] = (int(explored), witness)
                witnessed = witnessed or witness is not None
            while lowest in results:
                explored, witness = results.pop(lowest)
                nodes += explored
                lowest += 1
                if witness is not None:
                    return (witness, nodes)
            if lowest == m:
                return (None, nodes)
    finally:
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, _, reader in workers.values():
            reader.close()
        for fd in held:
            os.close(fd)


def _lost(pid: int, root: int, alive: set[int]):
    """Reap a worker that closed its pipe without answering, and fail."""
    alive.discard(pid)
    _, status = os.waitpid(pid, 0)
    raise HypergraphError(
        f"search worker for root edge {root} ended before reporting "
        f"(exit status {os.waitstatus_to_exitcode(status)})"
    )


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
    picked, nodes = _dfs(graph.edge_masks, v, e)
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
    host_vertices = set(host.vertices)
    unknown = [w for w in vmap.values() if w not in host_vertices]
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
