"""Naive set-based reference implementations used to cross-check the library.

Everything here favors obviousness over speed: plain frozensets, full
itertools scans, no bitmasks, no pruning. Frozen expected values in the
test files were produced by these functions. `child_env` is the one
environment for a test's child interpreter.
"""

from __future__ import annotations

import itertools
import os
import random
from math import comb

import sparsehg


def child_env(environ=os.environ, **extra):
    """`environ` plus `extra`, with this checkout's src first on PYTHONPATH,
    so that a child interpreter imports the same sparsehg as the tests."""
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    return dict(environ, PYTHONPATH=path, **extra)


def induced_edges(edges, subset):
    sub = set(subset)
    return [e for e in edges if set(e) <= sub]


def difference(edges, subset):
    return len(set(subset)) - len(induced_edges(edges, subset))


def is_independent(edges, subset):
    return difference(edges, subset) == len(set(subset))


def nice_violation(vertices, edges, witness):
    """First subset breaking either niceness bound, scanning all subsets.

    Subsets are enumerated in the same order as the library's bitmask
    sweep: increasing mask over the vertex tuple's index order. Returns
    (subset, condition, observed, required) or None.
    """
    n = len(vertices)
    for mask in range(1 << n):
        subset = [vertices[i] for i in range(n) if (mask >> i) & 1]
        broken = nice_condition(edges, witness, subset)
        if broken is not None:
            return (tuple(subset), *broken)
    return None


def nice_condition(edges, witness, subset):
    """The niceness bound `subset` breaks, as (condition, observed,
    required), or None."""
    wit = set(witness)
    k = len(witness) - 1
    inter = sum(1 for v in subset if v in wit)
    d = difference(edges, subset)
    bound1 = inter - (1 if wit <= set(subset) else 0)
    if d < bound1:
        return "Cond1", d, bound1
    if inter <= k - 1 and any(v not in wit for v in subset) and d < inter + 1:
        return "Cond2", d, inter + 1
    return None


def tower_violation(vertices, edges, x_labels, y_labels, a_ell, gl_vertices):
    """First subset containing y_0..y_(ell-1) breaking a tower bound."""
    x_set = set(x_labels)
    a_set = set(a_ell)
    prefix = set(y_labels[:-1])
    y_ell = y_labels[-1]
    gl_set = set(gl_vertices)
    k = len(x_labels)
    ell = len(y_labels) - 1
    n = len(vertices)
    for mask in range(1 << n):
        subset = {vertices[i] for i in range(n) if (mask >> i) & 1}
        if not prefix <= subset:
            continue
        d = difference(edges, subset)
        in_a = len(subset & a_set)
        in_x = len(subset & x_set)
        full = x_set | {y_ell}
        bound1 = in_a - (1 if full <= subset else 0)
        if d < bound1:
            return subset, "Item1", d, bound1
        if in_x <= k - 2 and subset - a_set:
            if d < in_a + 1:
                return subset, "Item2", d, in_a + 1
        if in_x >= k - 1 and not (subset & gl_set) <= x_set:
            if d < k + ell:
                return subset, "Item3", d, k + ell
    return None


def cycle_bounds_hold(vertices, edges, roles):
    """Claim 6.3's two bounds on every subset, as stated.

    `roles` maps v1..v4 to vertex labels. Main bound: the difference of U
    is at least |U ∩ A| - [A ⊆ U] with A = {v1..v4}; when U leaves A and
    misses v1 or both of v2, v3, at least |U ∩ A| + 1.
    """
    a_set = {roles[f"v{i}"] for i in range(1, 5)}
    for size in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            sub = set(subset)
            d = difference(edges, sub)
            inter = len(sub & a_set)
            if d < inter - (1 if a_set <= sub else 0):
                return False
            misses = roles["v1"] not in sub or not sub & {roles["v2"], roles["v3"]}
            if sub - a_set and misses and d < inter + 1:
                return False
    return True


def batch_width(n, lane_bits):
    """Subsets per batch of a sampled scan on n vertices, when a batch
    holds about `lane_bits` lane bits: a multiple of 64, at least 64."""
    return max(64, lane_bits // max(n, 1) // 64 * 64)


def lanes(masks, n):
    """Lane j of `masks`, one bit at a time: bit i set when masks[i] holds
    vertex j."""
    return [sum(1 << i for i, m in enumerate(masks) if m >> j & 1) for j in range(n)]


def uniform_lanes(rng, n, samples, lane_bits):
    """The lanes of a sampled scan's uniform pass, drawn from `rng`, a
    random.Random, as (lanes, count) per batch in scan order.

    The pass draws batches of `batch_width(n, lane_bits)` subsets, the last
    one short. Lane j of batch b is the (b * n + j)-th getrandbits call,
    getrandbits(count) for a batch of `count` subsets.
    """
    width = batch_width(n, lane_bits)
    for pos in range(0, samples, width):
        count = min(width, samples - pos)
        yield [rng.getrandbits(count) for _ in range(n)], count


def uniform_subsets(rng, n, samples, lane_bits, base=0):
    """The subsets of a sampled scan's uniform pass, drawn from `rng` as
    `uniform_lanes` says, in scan order: subset i of a batch holds vertex j
    when bit i of lane j is set, and `base` is ORed into every subset."""
    subsets = []
    for drawn, count in uniform_lanes(rng, n, samples, lane_bits):
        for i in range(count):
            subsets.append(base | sum(1 << j for j in range(n) if drawn[j] >> i & 1))
    return subsets


def stratified_positions(size, rng, draws=4096):
    """The stratified pass over a pool of `size` vertices, one index value
    at a time, as masks over pool positions.

    Each size 1..8 takes every combination of the positions when there
    are at most `draws`, else `draws` subsets, each made of index values
    rng.getrandbits(64) mod `size`, a repeated index rejected.
    """
    masks = []
    for want in range(1, min(8, size) + 1):
        if comb(size, want) <= draws:
            for combo in itertools.combinations(range(size), want):
                masks.append(sum(1 << i for i in combo))
            continue
        for _ in range(draws):
            chosen = []
            while len(chosen) < want:
                idx = rng.getrandbits(64) % size
                if idx not in chosen:
                    chosen.append(idx)
            masks.append(sum(1 << i for i in chosen))
    return masks


def pool(graph, witness):
    """The stratified pass's pool: the witness, then the vertices sharing an
    edge with it in vertex order."""
    wit = set(witness)
    touched = {u for edge in graph.edges if wit & set(edge) for u in edge} - wit
    return list(witness) + [v for v in graph.vertices if v in touched]


def stratified_masks(graph, witness, rng):
    """The stratified pass of sampled niceness as host masks; pool position
    i stands for pool(graph, witness)[i]."""
    vertices = pool(graph, witness)
    return [
        graph.mask_of(v for i, v in enumerate(vertices) if m >> i & 1)
        for m in stratified_positions(len(vertices), rng)
    ]


def sampled_nice_subsets(graph, witness, samples, seed, lane_bits):
    """Every subset a sampled niceness check draws, as host masks, in the
    order it checks them: the uniform pass, then the stratified pass, both
    from one random.Random(seed)."""
    rng = random.Random(seed)
    uniform = uniform_subsets(rng, graph.vertex_count, samples, lane_bits)
    return uniform + stratified_masks(graph, witness, rng)


def find_configuration(edges, v, e):
    """Lexicographically first e-subset of edges spanning at most v vertices."""
    if e == 0:
        return True, ()
    for combo in itertools.combinations(range(len(edges)), e):
        span = set()
        for i in combo:
            span.update(edges[i])
        if len(span) <= v:
            return True, tuple(edges[i] for i in combo)
    return False, None


def search_nodes(edges, v, e):
    """The pruned configuration DFS as an explicit stack of (idx, span, picked).

    Every popped entry is one node, pruned or not. The roots are every
    edge; below a node holding d edges, the children are the later edges
    that still leave e - d - 1 edges after them. Returns (found, picked
    edges, nodes), the first e-subset in lex index order spanning <= v.
    """
    if e == 0:
        return True, (), 0
    m = len(edges)
    if e > m:
        return False, None, 0
    nodes = 0
    stack = [(root, frozenset(), ()) for root in range(m - 1, -1, -1)]
    while stack:
        idx, span, picked = stack.pop()
        nodes += 1
        new_span = span | set(edges[idx])
        if len(new_span) > v:
            continue
        new_picked = picked + (idx,)
        if len(new_picked) == e:
            return True, tuple(edges[i] for i in new_picked), nodes
        last_start = m - (e - len(new_picked))
        for nxt in range(min(last_start, m - 1), idx, -1):
            stack.append((nxt, new_span, new_picked))
    return False, None, nodes


def count_embeddings(host_vertices, host_edges, pat_vertices, pat_edges):
    """Injective edge-preserving maps, by scanning every injection."""
    host_set = {frozenset(e) for e in host_edges}
    total = 0
    for image in itertools.permutations(host_vertices, len(pat_vertices)):
        vmap = dict(zip(pat_vertices, image))
        if all(frozenset(vmap[u] for u in e) in host_set for e in pat_edges):
            total += 1
    return total


def copy_counts(host_vertices, host_edges, pat_vertices, pat_edges, induced=False):
    """(embeddings, copies) by scanning every injection: the edge-preserving
    maps, and the distinct sets of host edges they map the pattern's edges
    onto. With `induced`, only maps whose vertex image induces exactly
    len(pat_edges) host edges count."""
    host_set = {frozenset(e) for e in host_edges}
    embeddings, images = 0, set()
    for image in itertools.permutations(host_vertices, len(pat_vertices)):
        vmap = dict(zip(pat_vertices, image))
        mapped = frozenset(frozenset(vmap[u] for u in e) for e in pat_edges)
        if not mapped <= host_set:
            continue
        if induced and len(induced_edges(host_edges, image)) != len(pat_edges):
            continue
        embeddings += 1
        images.add(mapped)
    return embeddings, len(images)


def min_colors_over_cliques(n, colors, p):
    best = None
    for verts in itertools.combinations(range(1, n + 1), p):
        seen = {colors[pair] for pair in itertools.combinations(verts, 2)}
        best = len(seen) if best is None else min(best, len(seen))
    return best


def q_quad(p):
    return comb(p, 2) - p // 2 + 2


def projection_anchors(vertices, edges, k):
    """The (k-2)-subset of `vertices` lying in the most edges, the first in
    index order on ties, and those edges in order; scans every subset."""
    best, best_edges = None, None
    for combo in itertools.combinations(vertices, k - 2):
        held = [edge for edge in edges if set(combo) <= set(edge)]
        if best is None or len(held) > len(best_edges):
            best, best_edges = combo, held
    return best, best_edges


def heavy_triple_links(vertices, links, e):
    """Positions of the first e links holding the first vertex triple (index
    order) that lies in at least e links, or None; scans every triple."""
    for triple in itertools.combinations(vertices, 3):
        holders = [i for i, link in enumerate(links) if set(triple) <= set(link)]
        if len(holders) >= e:
            return holders[:e]
    return None


def random_3graph(seed, max_n=10, max_m=12):
    """Small random 3-graph as (vertices, edges); distinct edges, seeded."""
    rng = random.Random(seed)
    n = rng.randint(3, max_n)
    vertices = tuple(f"t{i}" for i in range(n))
    m = rng.randint(0, min(max_m, comb(n, 3)))
    pool = list(itertools.combinations(vertices, 3))
    rng.shuffle(pool)
    return vertices, tuple(pool[:m])


def random_4graph(seed, max_n=12, max_m=18):
    rng = random.Random(seed)
    n = rng.randint(5, max_n)
    vertices = tuple(f"u{i}" for i in range(n))
    m = rng.randint(3, min(max_m, comb(n, 4)))
    pool = list(itertools.combinations(vertices, 4))
    rng.shuffle(pool)
    return vertices, tuple(pool[:m])
