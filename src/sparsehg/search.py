"""Exact search: configuration search and copy counting.

`find_configuration` decides whether some e edges span at most v vertices
by a DFS over edge subsets in lexicographic index order with exact
pruning, so its witness equals the one the unpruned scan
(`find_configuration_unpruned`) returns. The DFS walks one depth at a
time: each depth scans its candidate edges in index order, goes down at
the first one that keeps the span within v, and on backtracking resumes
the same scan one past it. `nodes_explored` counts every candidate tried,
pruned or not, once per visit (one span at one depth): the whole range
when the scan is used up, and up to the pick at each depth when a witness
completes.

The DFS is split into tasks, each an edge prefix: a root (the edge picked
at depth 0) or a (root, second edge) pair. This process tries the roots
in order and runs each one's pair tasks in lex order until
`_FORK_AFTER_NODES` nodes are explored, so small searches never fork.
The rest of the current root's pairs and then every later root, whole,
go one at a time and in that order to min(CPUs, tasks left) forked
workers, where CPUs are those the process may run on. Each worker
reports (task, nodes, witness) over a pipe, and this process only hands
out tasks and collects. The answer is fixed when every task is in,
or when the first task with a witness has every earlier task in; the busy
workers are then killed and reaped, also when SIGTERM (at its default
action) ends the search. The result cannot depend on the CPU count:
`nodes_explored` is the sum of the counts of the tasks up to the
answer's, and the witness is the first task's first one, as in the
unsplit DFS. If a pipe or fork fails the search goes on in-process; a
worker that dies before it reports raises `HypergraphError`.

`count_copies` enumerates injective edge-onto-edge vertex maps on host
vertex bits. Each pattern edge is checked, once its last vertex is placed,
as one sum of vertex bits looked up among the host's edge masks, and the
lookup gives that host edge's bit; an embedding's edge image is the OR of
the bits its checks gathered, so copies are counted in the same pass. Its
`nodes_explored` counts the partial maps it visits.
"""

from __future__ import annotations

import collections
import itertools
import os
import select
import signal
from typing import Optional

from sparsehg.core import Hypergraph, HypergraphError, Record, _at_most, _integer, _sigterm_exits

_SEARCH_EDGE_LIMIT = 60
_SEARCH_VERTEX_LIMIT = 20
_PATTERN_VERTEX_LIMIT = 14
# nodes explored in-process before the remaining tasks go to forked workers
_FORK_AFTER_NODES = 1 << 17


class SearchResult(Record):
    found: bool
    witness: Optional[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]
    nodes_explored: int


class CopyCount(Record):
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


def _check_search(graph: Hypergraph, v: int, e: int) -> None:
    _search_guard(graph)
    _integer("v", v, 0)
    _integer("e", e, 0)


def _witness_from_masks(graph: Hypergraph, picked: tuple[int, ...]):
    edges = tuple(graph.edges[i] for i in picked)
    span = 0
    for i in picked:
        span |= graph.edge_masks[i]
    return (graph.labels_of_mask(span), edges)


def _subtree(masks: tuple[int, ...], v: int, e: int, prefix: tuple[int, ...]):
    """First e-subset (lex order) spanning <= v that starts with `prefix`.

    The caller has tried every shorter prefix, so this tries the last edge
    of `prefix` and then the subsets below it. Returns (picked, nodes),
    where nodes counts that edge and every candidate tried below it. Depth
    d picks the (d+1)-th edge from idx in [lo, hi): lo is one past the edge
    picked at depth d-1 and hi is m - e + d + 1, so that e - d - 1 later
    edges remain. Each depth keeps one iterator over its range while the
    depths below it run, so a visit scans [lo, hi) once and counts its
    nodes once: hi - lo when the range is used up, or up to its pick when
    a witness completes. A loop, not recursion: e may be as large as the
    guard's 1,140-edge hosts.
    """
    span = 0
    for idx in prefix:
        span |= masks[idx]
    if span.bit_count() > v:
        return (None, 1)
    k = len(prefix)
    if k == e:
        return (prefix, 1)
    top = len(masks) - e + 1  # hi at depth d is top + d
    picked = list(prefix) + [0] * (e - k)
    spans = [0] * e
    starts = [0] * e  # lo of each depth's current visit
    scans = [None] * e
    d = k
    spans[k] = span
    # a prefix that ends past hi leaves its first depth an empty range
    starts[k] = min(prefix[-1] + 1, top + k)
    scan = scans[k] = iter(range(starts[k], top + k))
    nodes = 1
    while True:
        for idx in scan:
            new_span = span | masks[idx]
            if new_span.bit_count() <= v:
                break
        else:
            # every candidate at this depth tried: back up one
            nodes += top + d - starts[d]
            d -= 1
            if d < k:
                return (None, nodes)
            span, scan = spans[d], scans[d]
            continue
        picked[d] = idx
        d += 1
        if d == e:
            for j in range(k, e):
                nodes += picked[j] - starts[j] + 1
            return (tuple(picked), nodes)
        spans[d] = span = new_span
        starts[d] = idx + 1
        scan = scans[d] = iter(range(idx + 1, top + d))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _dfs(masks: tuple[int, ...], v: int, e: int):
    """First e-subset (lex order) spanning <= v, for 1 <= e <= edge count.

    (root, second edge) tasks run in lex order in this process until
    _FORK_AFTER_NODES nodes are explored; then the rest of the current
    root's pairs and every later root, whole, go to forked workers when
    that is possible.
    """
    m = len(masks)
    nodes = 0
    may_fork = hasattr(os, "fork")
    for root in range(m):
        nodes += 1
        if masks[root].bit_count() > v:
            continue
        if e == 1:
            return ((root,), nodes)
        for second in range(root + 1, m - e + 2):
            if may_fork and nodes >= _FORK_AFTER_NODES:
                may_fork = False
                tasks = [(root, s) for s in range(second, m - e + 2)]
                tasks += [(r,) for r in range(root + 1, m)]
                split = _split(masks, v, e, tasks)
                if split is not None:
                    picked, rest = split
                    return (picked, nodes + rest)
            picked, count = _subtree(masks, v, e, (root, second))
            nodes += count
            if picked is not None:
                return (picked, nodes)
    return (None, nodes)


def _worker(masks: tuple[int, ...], v: int, e: int, tasks: list[tuple[int, ...]],
            inbox_fd: int, outbox_fd: int) -> None:
    """Answer each task number read from `inbox_fd` with a "task nodes picked" line."""
    with open(inbox_fd, "rb") as inbox, open(outbox_fd, "wb") as outbox:
        for line in inbox:
            task = int(line)
            picked, nodes = _subtree(masks, v, e, tasks[task])
            witness = "" if picked is None else ",".join(map(str, picked))
            outbox.write(f"{task} {nodes} {witness}\n".encode())
            outbox.flush()


@_sigterm_exits()
def _split(masks: tuple[int, ...], v: int, e: int, tasks: list[tuple[int, ...]]):
    """`tasks` (edge prefixes) over forked workers; (picked, nodes) for them.

    Each worker takes one task at a time, in list order, and reports
    (task, nodes, witness) on its own pipe; this process only hands out
    tasks and collects. The answer is fixed once every task is in, or once
    the first task with a witness has every earlier task in. None when
    fewer than two workers would run or a pipe or fork fails, so the caller
    goes on in-process. While workers run, a SIGTERM left at its default
    action exits this process with status 143 through the `finally` clause
    that kills and reaps them.
    """
    count = min(_cpus(), len(tasks))
    if count < 2:
        return None
    workers: dict[int, tuple[int, int, object]] = {}  # result fd -> (pid, task fd, reader)
    alive: set[int] = set()
    held: list[int] = []  # every descriptor this process holds
    # a SIGTERM between a fork or a close and its bookkeeping would leave a
    # worker out of `alive` or a closed descriptor in `held`, so SIGTERM is
    # held back until every worker is recorded
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
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
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        # an inherited end of another worker's pipe would
                        # keep that pipe open after the worker dies
                        for fd in held:
                            if fd not in (task_r, result_w):
                                os.close(fd)
                        _worker(masks, v, e, tasks, task_r, result_w)
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
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        results: dict[int, tuple[int, Optional[tuple[int, ...]]]] = {}
        busy: dict[int, int] = {}  # result fd -> the task it works on
        next_task, lowest, nodes, witnessed = 0, 0, 0, False
        while True:
            # hand out tasks in order until one is known to have a witness:
            # no later task can change the answer then
            for fd, (pid, task_w, _) in workers.items():
                if fd not in busy and next_task < len(tasks) and not witnessed:
                    try:
                        os.write(task_w, b"%d\n" % next_task)
                    except BrokenPipeError:
                        _lost(pid, tasks[next_task], alive)
                    busy[fd] = next_task
                    next_task += 1
            for fd in select.select(list(busy), [], [])[0]:
                task = busy.pop(fd)
                pid, _, reader = workers[fd]
                line = reader.readline()
                if not line.endswith(b"\n"):
                    _lost(pid, tasks[task], alive)
                _, explored, *picked = line.split()
                witness = tuple(map(int, picked[0].split(b","))) if picked else None
                results[task] = (int(explored), witness)
                witnessed = witnessed or witness is not None
            while lowest in results:
                explored, witness = results.pop(lowest)
                nodes += explored
                lowest += 1
                if witness is not None:
                    return (witness, nodes)
            if lowest == len(tasks):
                return (None, nodes)
    finally:
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, _, reader in workers.values():
            reader.close()
        for fd in held:
            os.close(fd)


def _lost(pid: int, prefix: tuple[int, ...], alive: set[int]):
    """Reap a worker that closed its pipe without answering, and fail."""
    alive.discard(pid)
    _, status = os.waitpid(pid, 0)
    raise HypergraphError(
        f"search worker for edge prefix ({', '.join(map(str, prefix))}) ended "
        f"before reporting (exit status {os.waitstatus_to_exitcode(status)})"
    )


def find_configuration(graph: Hypergraph, v: int, e: int) -> SearchResult:
    """Decide whether some e edges of the graph span at most v vertices.

    Exact; the witness is the lexicographically first qualifying edge
    subset.
    """
    _check_search(graph, v, e)
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
    _check_search(graph, v, e)
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

    `embeddings` counts the maps; `copies` counts distinct edge images, each
    kept as the OR of the host edge bits its checks found. Embeddings =
    copies * |Aut(pattern)| only when every pattern vertex lies in an edge:
    an isolated one may take any unused host vertex, and those maps share
    one edge image. With `induced`, only maps whose vertex image induces no
    host edges beyond the image are counted. `nodes_explored` counts the
    partial maps visited, the empty and the complete ones included.
    """
    if host.r != pattern.r:
        raise HypergraphError(
            f"uniformity mismatch: host is {host.r}-uniform, pattern {pattern.r}-uniform"
        )
    _at_most("pattern", pattern.vertex_count, _PATTERN_VERTEX_LIMIT)
    _search_guard(host)
    # one bit per host edge: a sum of vertex bits is a host edge iff it is a
    # key here, and the OR of an embedding's edge bits keys its edge image
    edge_bit = {mask: 1 << j for j, mask in enumerate(host.edge_masks)}
    # order pattern vertices most-constrained first: by descending edge
    # membership, then canonical order, so edge checks fire early
    degree = collections.Counter(u for edge in pattern.edges for u in edge)
    order = sorted(pattern.vertices, key=lambda u: (-degree[u], pattern.index_of(u)))
    pos = {u: i for i, u in enumerate(order)}
    # edges checkable once their last vertex (in `order`) is placed, as the
    # positions of their vertices
    ready: list[list[list[int]]] = [[] for _ in order]
    for edge in pattern.edges:
        at = sorted(pos[u] for u in edge)
        ready[at[-1]].append(at)
    bits = [1 << j for j in range(host.vertex_count)]
    image = [0] * len(order)  # the host vertex bit placed at each position

    embeddings = nodes = 0
    images: set[int] = set()

    def place(i: int, used: int, key: int) -> None:
        # `key` is the OR of the host edge bits of the edges placed so far
        nonlocal embeddings, nodes
        nodes += 1
        if i == len(order):
            if induced and host.induced_edge_count(used) != pattern.edge_count:
                return
            embeddings += 1
            images.add(key)
            return
        for bit in bits:
            if used & bit:
                continue
            image[i] = bit
            grown = key
            for at in ready[i]:
                # the bits are distinct, so a sum is their OR
                hit = edge_bit.get(sum(map(image.__getitem__, at)))
                if hit is None:
                    break
                grown |= hit
            else:
                place(i + 1, used | bit, grown)

    place(0, 0, 0)
    return CopyCount(embeddings=embeddings, copies=len(images), nodes_explored=nodes)
