"""Edge colorings of complete graphs and their 4-graph shadow.

A coloring is good for (p, q) when every p-clique sees at least q colors.
Each color repeated on two disjoint pairs contributes one 4-edge; a
(p, e)-configuration in that 4-graph forces some p-clique to lose e
colors to merging, which is the implication checked here.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Optional

from sparsehg.core import Hypergraph, HypergraphError, Record, _at_most, _integer

_CHECK_VERTEX_LIMIT = 14
_IMPLICATION_VERTEX_LIMIT = 12

Pair = tuple[int, int]


class ColoringInstance(Record):
    """A full edge coloring of K_n on 1..n, integer colors on a copy of the
    caller's mapping; only this constructor checks its pairs, by count, and
    their colors."""

    n: int
    colors: dict[Pair, int]

    def __init__(self, n: int, colors: dict[Pair, int]):
        colors = dict(colors)
        super().__init__(n, colors)
        _integer("n", n, 2)
        for pair, color in colors.items():
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(v, int) for v in pair)
                    and 1 <= pair[0] < pair[1] <= n):
                raise HypergraphError(f"coloring: pair {pair!r} out of range for n={n}")
            if not isinstance(color, int) or isinstance(color, bool):
                raise HypergraphError(
                    f"coloring: color of '{pair[0]},{pair[1]}' must be an integer, got {color!r}"
                )
        missing = comb(n, 2) - len(colors)  # the keys are distinct pairs in range
        if missing:
            first = next(p for p in itertools.combinations(range(1, n + 1), 2) if p not in colors)
            raise HypergraphError(
                f"coloring must assign every pair of 1..{n}: {missing} pairs missing, first {first}"
            )


class RamseyReport(Record):
    p: int
    q: int
    q_quad_value: Optional[int]
    min_colors_on_some_kp: int
    valid: bool
    witness_kp: Optional[tuple[int, ...]]


def q_quad(p: int) -> int:
    """Threshold color count: pairs of a p-clique, minus floor(p/2), plus 2."""
    _integer("p", p, 4)
    return comb(p, 2) - p // 2 + 2


def check_coloring(coloring: ColoringInstance, p: int, q: int) -> RamseyReport:
    """Exact minimum color count over every p-clique; valid iff >= q."""
    n = coloring.n
    _integer("p", p, 2, n)
    _at_most("exact clique scan", n, _CHECK_VERTEX_LIMIT)
    best = None
    witness = None
    for verts in itertools.combinations(range(1, n + 1), p):
        seen = {coloring.colors[pair] for pair in itertools.combinations(verts, 2)}
        if best is None or len(seen) < best:
            best = len(seen)
            witness = verts
    return RamseyReport(
        p=p,
        q=q,
        q_quad_value=q_quad(p) if p >= 4 else None,
        min_colors_on_some_kp=best,
        valid=best >= q,
        witness_kp=witness,
    )


def coloring_to_4graph(
    coloring: ColoringInstance,
) -> tuple[Hypergraph, tuple[dict, ...]]:
    """One 4-edge per color having a disjoint repeated pair.

    For each color class with at least two pairwise-disjoint members, the
    lexicographically first disjoint pair of pairs contributes its union.
    Distinct colors can hit the same 4-set; the log records every
    contribution and flags the duplicates that were merged away.
    """
    by_color: dict[int, list[Pair]] = {}
    for pair in sorted(coloring.colors):
        by_color.setdefault(coloring.colors[pair], []).append(pair)
    edges: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    log: list[dict] = []
    for color in sorted(by_color):
        pairs = by_color[color]
        if len(pairs) < 2:
            continue
        hit = None
        for e1, e2 in itertools.combinations(pairs, 2):
            if not set(e1) & set(e2):
                hit = (e1, e2)
                break
        if hit is None:
            continue
        e1, e2 = hit
        edge = tuple(sorted((str(v) for v in e1 + e2)))
        fresh = edge not in seen
        if fresh:
            seen.add(edge)
            edges.append(edge)
        log.append(
            {"color": color, "pair1": e1, "pair2": e2, "edge": edge, "fresh": fresh}
        )
    verts = [str(i) for i in range(1, coloring.n + 1)]
    return Hypergraph(4, verts, edges), tuple(log)


def verify_implication(coloring: ColoringInstance, p: int, q: int) -> bool:
    """Configuration in the 4-graph shadow must force an invalid coloring.

    With e = C(p,2) - q + 1: if the shadow contains a (p, e)-configuration
    then some p-clique sees at most q - 1 colors. True iff that holds on
    this instance (vacuously when no configuration exists).
    """
    from sparsehg.search import find_configuration

    _integer("p", p, 2)
    _at_most("implication check", coloring.n, _IMPLICATION_VERTEX_LIMIT)
    e = comb(p, 2) - q + 1
    if e < 1:
        raise HypergraphError(f"q={q} leaves a non-positive edge target {e}")
    shadow, _ = coloring_to_4graph(coloring)
    found = find_configuration(shadow, p, e).found
    if not found:
        return True
    return not check_coloring(coloring, p, q).valid


def packed_coloring(n: int, p: int) -> ColoringInstance:
    """Coloring whose shadow provably triggers both sides of the implication.

    The floor(p/2) disjoint pairs (1,2), (3,4), ... inside 1..p are colored
    two classes at a time, so every class has two disjoint members and
    contributes a 4-edge; all other pairs get fresh colors.
    """
    _integer("n", n, 2)
    _integer("p", p, 4, n)
    packed = [(2 * i + 1, 2 * i + 2) for i in range(p // 2)]
    colors: dict[Pair, int] = {}
    for idx, pair in enumerate(packed):
        colors[pair] = idx // 2
    nxt = (len(packed) + 1) // 2
    for pair in itertools.combinations(range(1, n + 1), 2):
        if pair not in colors:
            colors[pair] = nxt
            nxt += 1
    return ColoringInstance(n=n, colors=colors)


def random_coloring(n: int, seed: int, palette: int = 25) -> ColoringInstance:
    """Uniform independent color per pair from a fixed palette; seeded."""
    _integer("n", n, 2)
    _integer("palette", palette, 1)
    rng = random.Random(seed)
    colors = {
        pair: rng.randrange(palette)
        for pair in itertools.combinations(range(1, n + 1), 2)
    }
    return ColoringInstance(n=n, colors=colors)
