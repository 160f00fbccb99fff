"""Witness-based subset-density verification.

A graph with difference k is accepted here when some independent set A of
size k+1 satisfies, for every vertex subset U, a pair of lower bounds on
the difference of U in terms of |U ∩ A|. Verification is exhaustive
(every subset, canonical bitmask order) or sampled (seeded splitmix64
stream plus a stratified pass over small subsets near A). The first
violation in scan order is re-checked through Hypergraph.difference,
then reported.

Niceness, the tower bounds and claim 6.3 run through one scan function,
`_check`, and the one bound checker in sparsehg.kernels; niceness is the
tower check with x = A_ell = xy = A, no G^ell copy, k + 1 in place of k and
ell = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from sparsehg import kernels
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import LabeledConfiguration, _tower_shape

NICE = "NICE"
NOT_NICE = "NOT_NICE"
SAMPLED_NO_VIOLATION = "SAMPLED_NO_VIOLATION"

_EXHAUSTIVE_VERTEX_LIMIT = 30
_WITNESS_VERTEX_LIMIT = 20
_STRATIFIED_SIZE_LIMIT = 8
_STRATIFIED_DRAWS = 4096
# stream draws the stratified pass computes at a time
_DRAW_BLOCK = 1 << 14

_CONDITION_NAMES = {1: "Cond1", 2: "Cond2"}
_ITEM_NAMES = {1: "Item1", 2: "Item2", 3: "Item3"}


@dataclass(frozen=True)
class Counterexample:
    subset: tuple[str, ...]
    condition: str
    observed_delta: int
    required_bound: int


@dataclass(frozen=True)
class NicenessReport:
    verdict: str
    checked_subsets: int
    counterexample: Optional[Counterexample]
    seed: Optional[int] = None


GraphLike = Union[Hypergraph, LabeledConfiguration]


def _as_graph(obj: GraphLike) -> Hypergraph:
    if isinstance(obj, LabeledConfiguration):
        return obj.graph
    return obj


def _resolve_witness(obj: GraphLike, witness) -> tuple[str, ...]:
    """The witness labels, default role "A"; a repeated label would count
    twice against the size k + 1 but only once in the scan's mask."""
    if witness is None:
        if not (isinstance(obj, LabeledConfiguration) and "A" in obj.roles):
            raise HypergraphError("no witness given and the configuration has no role 'A'")
        witness = obj.roles["A"]
    wit = tuple(witness)
    for i, label in enumerate(wit):
        if label in wit[:i]:
            raise HypergraphError(f"witness repeats label {label!r}")
    return wit


def _nice_roles(a_mask: int, k: int) -> tuple[int, int, int, int, int, int]:
    """Roles (x, A_ell, xy, G, k, ell) under which the tower checker checks
    niceness of witness a_mask: Item1 is Cond1, Item2 is Cond2, Item3 never fires."""
    return (a_mask, a_mask, a_mask, 0, k + 1, 0)


def _report(
    graph: Hypergraph,
    clean_verdict: str,
    checked: int,
    vio: Optional[tuple],
    names: dict[int, str],
    seed: Optional[int] = None,
) -> NicenessReport:
    """Report of a finished scan: `clean_verdict` when it found no violation,
    else NOT_NICE with the violating subset, its condition named by `names`."""
    if vio is None:
        return NicenessReport(clean_verdict, checked, None, seed=seed)
    u_mask, code, delta, bound = vio
    observed = graph.difference(graph.subset_from_mask(u_mask)).delta
    if observed != delta or observed >= bound:
        raise HypergraphError(
            f"scan reported a false violation: subset of difference {observed}, "
            f"kernel said {delta} against bound {bound}"
        )
    ce = Counterexample(
        subset=graph.labels_of_mask(u_mask),
        condition=names[code],
        observed_delta=delta,
        required_bound=bound,
    )
    return NicenessReport(NOT_NICE, checked, ce, seed=seed)


def _check(
    graph: Hypergraph,
    roles: tuple[int, int, int, int, int, int],
    names: dict[int, str],
    *,
    base: int = 0,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    extra: Callable[[], list[int]] = list,
) -> NicenessReport:
    """Check the bounds under `roles` (x, A_ell, xy, G, k, ell) on supersets of `base`.

    With samples=None every superset is scanned, in increasing order of its
    free bits; otherwise `samples` seeded uniform subsets are drawn with
    `base` ORed in and, when none violates, the masks `extra()` returns are
    checked too; `seed` is read only then. Violations are named by `names`.
    """
    edge_masks = list(graph.edge_masks)
    n = graph.vertex_count
    if samples is None:
        free = [b for b in range(n) if not (base >> b) & 1]
        if len(free) > _EXHAUSTIVE_VERTEX_LIMIT:
            raise HypergraphError(
                f"exhaustive check limited to {_EXHAUSTIVE_VERTEX_LIMIT} free vertices; "
                f"graph has {len(free)} (sample instead: --samples and --seed)"
            )
        checked, vio = kernels.scan_range(edge_masks, free, base, *roles)
        return _report(graph, NICE, checked, vio, names)
    if samples <= 0:
        raise HypergraphError("samples must be positive")
    if seed is None:
        raise HypergraphError("a sampled check needs a seed")
    checked, vio = kernels.sample_scan(edge_masks, n, base, *roles, samples, seed)
    if vio is None and (masks := extra()):
        s_checked, vio = kernels.check_masks(edge_masks, n, *roles, masks)
        checked += s_checked
    return _report(graph, SAMPLED_NO_VIOLATION, checked, vio, names, seed)


def _check_nice(
    config: GraphLike,
    witness: Optional[Sequence[str]],
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> NicenessReport:
    """Niceness of the witness (default: role "A") through `_check`, the
    stratified pass after a sampled scan; a witness that spans an edge is
    refuted before any scan."""
    graph = _as_graph(config)
    wit = _resolve_witness(config, witness)
    k = graph.delta
    if len(wit) != k + 1:
        raise HypergraphError(
            f"wrong witness size: difference is {k}, need {k + 1} vertices, got {len(wit)}"
        )
    if not graph.is_independent(wit):
        ce = Counterexample(
            subset=wit,
            condition="Independence",
            observed_delta=graph.difference(graph.subset(wit)).delta,
            required_bound=len(wit),
        )
        return NicenessReport(NOT_NICE, 0, ce, seed=seed)
    # the uniform pass uses stream counters 1 .. samples * words
    words = max(1, (graph.vertex_count + 63) // 64)
    return _check(
        graph, _nice_roles(graph.mask_of(wit), k), _CONDITION_NAMES,
        samples=samples, seed=seed,
        extra=lambda: _stratified_masks(graph, wit, seed, samples * words),
    )


def verify_nice(
    config: GraphLike, witness: Optional[Sequence[str]] = None
) -> NicenessReport:
    """Exhaustively check the two subset bounds for (graph, witness).

    The witness defaults to the configuration's role "A". Scans all 2^v
    subsets in increasing bitmask order and stops at the first violation.
    """
    return _check_nice(config, witness)


def _draws(seed: int, start: int, modulus: int):
    """The splitmix64 stream at indices start, start + 1, ..., each draw
    reduced mod `modulus`; computed a block at a time."""
    for lo in itertools.count(start, _DRAW_BLOCK):
        idx = np.arange(lo, lo + _DRAW_BLOCK, dtype=np.uint64)
        z = kernels._mix_vec(np.uint64(seed & kernels.MASK64) + idx * np.uint64(kernels.GAMMA))
        yield from (z % np.uint64(modulus)).tolist()


def _stratified_masks(graph: Hypergraph, wit: tuple[str, ...], seed: int, cursor: int):
    """Small subsets drawn from A and its edge neighbourhood.

    Enumerates every subset of each size up to 8 when that is cheap,
    otherwise takes 4096 seeded draws per size, rejecting a repeated index
    within a draw. The draws continue the caller's splitmix64 stream at
    counters cursor + 1, cursor + 2, ...; `cursor` is the last counter the
    caller used.
    """
    a_set = set(wit)
    touched = set()
    for edge in graph.edges:
        if any(u in a_set for u in edge):
            touched.update(u for u in edge if u not in a_set)
    # witness first, then its edge neighbourhood in canonical order
    pool = list(wit) + [v for v in graph.vertices if v in touched]
    bits = [1 << graph.index_of(v) for v in pool]
    draws = _draws(seed, cursor + 1, len(pool))
    masks: list[int] = []
    for size in range(1, min(_STRATIFIED_SIZE_LIMIT, len(pool)) + 1):
        if math.comb(len(pool), size) <= _STRATIFIED_DRAWS:
            for combo in itertools.combinations(range(len(pool)), size):
                masks.append(sum(bits[i] for i in combo))
        else:
            for _ in range(_STRATIFIED_DRAWS):
                chosen: set[int] = set()
                while len(chosen) < size:
                    chosen.add(next(draws))
                masks.append(sum(bits[i] for i in chosen))
    return masks


def sample_nice(
    config: GraphLike,
    witness: Optional[Sequence[str]] = None,
    *,
    samples: int,
    seed: int,
) -> NicenessReport:
    """Seeded check of the subset bounds: uniform pass, then stratified pass.

    Uniform subsets come from one splitmix64 stream: on a host of v
    vertices, words = max(1, ceil(v / 64)) and sample i (0 <= i < samples)
    takes word w from counter i * words + w + 1, so the uniform pass uses
    counters 1 .. samples * words. The stratified pass continues the same
    stream at counter samples * words + 1, so the two passes share no
    counter and results are a pure function of (graph, witness, samples,
    seed).
    """
    return _check_nice(config, witness, samples=samples, seed=seed)


def find_witness(config: GraphLike) -> Optional[tuple[str, ...]]:
    """First independent set (canonical order) passing the exhaustive check.

    Candidates are the size-(delta+1) vertex combinations in index order;
    returns None when every candidate fails or none exists.
    """
    graph = _as_graph(config)
    if graph.vertex_count > _WITNESS_VERTEX_LIMIT:
        raise HypergraphError(
            f"witness search limited to {_WITNESS_VERTEX_LIMIT} vertices; "
            f"graph has {graph.vertex_count}"
        )
    size = graph.delta + 1
    if size > graph.vertex_count:
        return None
    for combo in itertools.combinations(graph.vertices, size):
        report = verify_nice(graph, combo)
        if report.verdict == NICE:
            return combo
    return None


def verify_cycle_bounds(config: LabeledConfiguration) -> bool:
    """Exhaustive check of the two difference bounds special to the 3-cycle.

    Main bound: delta(U) >= |U ∩ {v1..v4}| - [v1..v4 ⊆ U]. Moreover: when
    U has a vertex outside {v1..v4} and misses v1 or both of v2, v3, the
    bound strengthens to |U ∩ {v1..v4}| + 1. These are tower Items 1 and 2
    with A_ell = xy = {v1..v4}, G empty, k = 2 and ell = 0, where Item 2
    covers the subsets that miss X: one scan with X = {v1}, one with
    X = {v2, v3}.
    """
    if not isinstance(config, LabeledConfiguration) or config.family.get("name") != "cycle":
        raise HypergraphError("expected the linear 3-cycle configuration")
    graph = config.graph
    for name in ("v1", "v2", "v3", "v4", "v5", "v6"):
        if name not in config.roles:
            raise HypergraphError(f"cycle configuration is missing role {name!r}")

    def mask(*names: str) -> int:
        return graph.mask_of(config.role(name)[0] for name in names)

    a_mask = mask("v1", "v2", "v3", "v4")
    return all(
        _check(graph, (x_mask, a_mask, a_mask, 0, 2, 0), _ITEM_NAMES).verdict == NICE
        for x_mask in (mask("v1"), mask("v2", "v3"))
    )


def _tower_context(config: LabeledConfiguration):
    k, ell = _tower_shape(config)
    graph = config.graph
    if "A_ell" not in config.roles:
        raise HypergraphError("tower configuration is missing role 'A_ell'")
    if k + ell != graph.delta:
        raise HypergraphError(
            f"role split (k={k}, ell={ell}) disagrees with difference {graph.delta}"
        )
    gname = f"G^{ell}"
    if gname not in config.subcopies:
        raise HypergraphError(f"tower configuration is missing subcopy {gname!r}")
    x_mask = graph.mask_of(config.role(f"x{j}")[0] for j in range(1, k + 1))
    ys = [config.role(f"y{j}")[0] for j in range(ell + 1)]
    roles = (
        x_mask,
        graph.mask_of(config.role("A_ell")),
        x_mask | graph.mask_of(ys[-1:]),
        graph.mask_of(config.subcopies[gname].values()),
        k,
        ell,
    )
    return graph, graph.mask_of(ys[:-1]), roles


def verify_tower_bounds(
    config: LabeledConfiguration,
    *,
    exhaustive: bool = True,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> NicenessReport:
    """Check the three conditional bounds on subsets containing y0..y(ell-1).

    Exhaustive mode scans every superset of the y-prefix and takes no
    samples; sampled mode (exhaustive=False) needs samples and seed, draws
    seeded uniform subsets and ORs the prefix in. Violations name the item
    (1, 2 or 3) whose bound failed.
    """
    graph, yprefix_mask, roles = _tower_context(config)
    if exhaustive and samples is not None:
        raise HypergraphError("exhaustive mode takes no samples; pass exhaustive=False")
    if not exhaustive and samples is None:
        raise HypergraphError("sampled mode needs samples and seed")
    return _check(graph, roles, _ITEM_NAMES, base=yprefix_mask, samples=samples, seed=seed)
