"""Witness-based subset-density verification.

A graph with difference k is accepted here when some independent set A of
size k+1 satisfies, for every vertex subset U, a pair of lower bounds on
the difference of U in terms of |U ∩ A|. Verification is exhaustive
(every subset, canonical bitmask order) or sampled (uniform subsets
drawn from one random.Random per check, then a stratified pass over
small subsets near A drawn from the same generator; `_check_sampling`
alone checks the arguments and seeds the generator). `_report` builds
every refutation, a witness spanning an edge ("Independence", before any
scan) included: it re-checks the first violation in scan order through
Hypergraph.difference, then reports it.

Niceness, the tower bounds and claim 6.3 run through one scan driver,
`_check`, which is given one `kernels.Bounds` record and the method and
returns the raw scan, one report builder, `_report`, and the one bound
checker in sparsehg.kernels. Three role readers build the record:
`_nice_roles` (x = A_ell = xy = A, G empty, k + 1 in place of k and
ell = 0), `_tower_context` and `check_cycle_bounds`, which returns claim
6.3's verdict with the report of each scan it ran; its constructor
refuses a tower whose x or y roles leave A_ell. The stratified pass of
sampled niceness runs that checker on the induced sub-hypergraph of A and
its edge neighbourhood, where all of its subsets lie, so its lanes are as
wide as that pool, not the host. Role labels and copy maps come from
sparsehg.families's readers.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Sequence, Union

from sparsehg import kernels
from sparsehg.core import Hypergraph, HypergraphError, Record, _at_most, _integer
from sparsehg.families import LabeledConfiguration, _cycle_shape, _tower_shape

NICE = "NICE"
NOT_NICE = "NOT_NICE"
SAMPLED_NO_VIOLATION = "SAMPLED_NO_VIOLATION"

_EXHAUSTIVE_VERTEX_LIMIT = 30
_WITNESS_VERTEX_LIMIT = 20
_STRATIFIED_SIZE_LIMIT = 8
_STRATIFIED_DRAWS = 4096

_CONDITION_NAMES = {0: "Independence", 1: "Cond1", 2: "Cond2"}
_ITEM_NAMES = {1: "Item1", 2: "Item2", 3: "Item3"}
_CLEAN_VERDICTS = {"exhaustive": NICE, "sampled": SAMPLED_NO_VIOLATION}


class Counterexample(Record):
    subset: tuple[str, ...]
    condition: str
    observed_delta: int
    required_bound: int


class NicenessReport(Record):
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
        try:
            witness = obj.witness  # a bare Hypergraph has none
        except (AttributeError, HypergraphError):
            raise HypergraphError("no witness given and the configuration has no role 'A'") from None
    wit = tuple(witness)
    for i, label in enumerate(wit):
        if label in wit[:i]:
            raise HypergraphError(f"witness repeats label {label!r}")
    return wit


def _nice_roles(a_mask: int, k: int) -> kernels.Bounds:
    """The bounds under which the tower checker checks niceness of witness
    a_mask: Item1 is Cond1, Item2 is Cond2, Item3 never fires."""
    return kernels.Bounds(x=a_mask, aell=a_mask, xy=a_mask, g=0, k=k + 1, ell=0)


def _report(
    graph: Hypergraph,
    method: str,
    scan: kernels.ScanResult,
    names: dict[int, str],
    seed: Optional[int] = None,
) -> NicenessReport:
    """Report of a `method` scan: its clean verdict if it found no violation,
    else NOT_NICE with the violating subset, its condition named by `names`."""
    checked, vio = scan
    if vio is None:
        return NicenessReport(_CLEAN_VERDICTS[method], checked, None, seed=seed)
    u_mask, code, delta, bound = vio
    labels = graph.labels_of_mask(u_mask)
    observed = graph.difference(labels).delta
    if observed != delta or observed >= bound:
        raise HypergraphError(
            f"scan reported a false violation: subset of difference {observed}, "
            f"kernel said {delta} against bound {bound}"
        )
    ce = Counterexample(
        subset=labels,
        condition=names[code],
        observed_delta=delta,
        required_bound=bound,
    )
    return NicenessReport(NOT_NICE, checked, ce, seed=seed)


def _check_sampling(samples: Optional[int], seed: Optional[int]) -> random.Random:
    """The generator of a sampled check, seeded with `seed`; HypergraphError
    unless (samples, seed) can drive one, a bool refused for either."""
    _integer("samples", samples, 1)
    if seed is None:
        raise HypergraphError("a sampled check needs a seed")
    # random.Random seeds from |seed|, so -1 would draw what 1 draws
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise HypergraphError(f"seed must be in [0, 2^64), got {seed}")
    return random.Random(seed)


def _check(
    graph: Hypergraph,
    bounds: kernels.Bounds,
    method: str,
    *,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> kernels.ScanResult:
    """Scan `bounds` on supersets of its base.

    The "exhaustive" method scans every superset, in increasing order of its
    free bits; "sampled" draws `samples` uniform subsets from `rng`, the
    generator `_check_sampling` made, with the base ORed in.
    """
    edge_masks = list(graph.edge_masks)
    n = graph.vertex_count
    if method == "exhaustive":
        free = [b for b in range(n) if not (bounds.base >> b) & 1]
        if len(free) > _EXHAUSTIVE_VERTEX_LIMIT:
            raise HypergraphError(
                f"exhaustive check limited to {_EXHAUSTIVE_VERTEX_LIMIT} free vertices; "
                f"graph has {len(free)} (sample instead: --samples and --seed)"
            )
        return kernels.scan_range(edge_masks, free, bounds)
    return kernels.sample_scan(edge_masks, n, bounds, samples, rng)


def _check_nice(
    config: GraphLike,
    witness: Optional[Sequence[str]],
    method: str,
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> NicenessReport:
    """Niceness of the witness (default: role "A") through `_check`, then,
    when a sampled scan found nothing, `_stratified_pass`; a witness that
    spans an edge is refuted before any scan."""
    graph = _as_graph(config)
    wit = _resolve_witness(config, witness)
    k = graph.delta
    if len(wit) != k + 1:
        raise HypergraphError(
            f"wrong witness size: difference is {k}, need {k + 1} vertices, got {len(wit)}"
        )
    # before the independence shortcut, which reads neither argument
    rng = _check_sampling(samples, seed) if method == "sampled" else None
    if not graph.is_independent(wit):
        # condition 0: a witness spanning an edge has difference below |A|
        vio = (graph.mask_of(wit), 0, graph.difference(wit).delta, len(wit))
        return _report(graph, method, (0, vio), _CONDITION_NAMES, seed)
    bounds = _nice_roles(graph.mask_of(wit), k)
    checked, vio = _check(graph, bounds, method, samples=samples, rng=rng)
    if rng is not None and vio is None:
        # the stratified draws continue the generator the uniform pass drew from
        stratified, vio = _stratified_pass(graph, wit, k, rng)
        checked += stratified
    return _report(graph, method, (checked, vio), _CONDITION_NAMES, seed)


def verify_nice(
    config: GraphLike, witness: Optional[Sequence[str]] = None
) -> NicenessReport:
    """Exhaustively check the two subset bounds for (graph, witness).

    The witness defaults to the configuration's role "A". Scans all 2^v
    subsets in increasing bitmask order and stops at the first violation.
    """
    return _check_nice(config, witness, "exhaustive")


def _pool(graph: Hypergraph, wit: tuple[str, ...]) -> tuple[list[str], list[int]]:
    """The stratified pass's pool, the witness first, then the vertices that
    share an edge with it in host order, and the host's edges inside the
    pool as masks over pool positions: bit i is pool[i]."""
    a_set = set(wit)
    touched = set()
    for edge in graph.edges:
        if not a_set.isdisjoint(edge):
            touched.update(edge)
    pool = list(wit) + [v for v in graph.vertices if v in touched and v not in a_set]
    bit = {v: 1 << i for i, v in enumerate(pool)}
    edges = [
        sum(map(bit.__getitem__, edge)) for edge in graph.edges if all(u in bit for u in edge)
    ]
    return pool, edges


def _stratified_masks(size: int, rng: random.Random) -> list[int]:
    """Small subsets of a pool of `size` vertices, as masks over its positions.

    Enumerates every subset of each size up to 8 when that is cheap,
    otherwise takes 4096 draws per size from `rng`, rejecting a repeated
    index within a draw. Each index is one getrandbits(64) word, mod `size`.
    """
    bits = [1 << i for i in range(size)]
    draw = rng.getrandbits
    masks: list[int] = []
    for want in range(1, min(_STRATIFIED_SIZE_LIMIT, size) + 1):
        if math.comb(size, want) <= _STRATIFIED_DRAWS:
            masks.extend(map(sum, itertools.combinations(bits, want)))
            continue
        # a draw ends at the first index that gives it `want` distinct
        # ones, and the next draw starts after it
        for _ in range(_STRATIFIED_DRAWS):
            mask = 0
            while mask.bit_count() < want:
                mask |= bits[draw(64) % size]
            masks.append(mask)
    return masks


def _stratified_pass(
    graph: Hypergraph, wit: tuple[str, ...], k: int, rng: random.Random
) -> kernels.ScanResult:
    """Check the stratified masks of witness `wit` (difference k), drawn
    from `rng`.

    The masks lie in the pool, the witness and its edge neighbourhood, so
    they are checked on the pool's induced sub-hypergraph over the pool's
    own bit positions: P, e(U), |U ∩ A| and so every verdict are those on
    the host, in the same order. A violation comes back lifted to host bits.
    """
    pool, pool_edges = _pool(graph, wit)
    masks = _stratified_masks(len(pool), rng)
    bounds = _nice_roles((1 << len(wit)) - 1, k)
    checked, vio = kernels.check_masks(pool_edges, len(pool), bounds, masks)
    if vio is None:
        return checked, None
    u_mask, code, delta, bound = vio
    lifted = graph.mask_of(v for i, v in enumerate(pool) if u_mask >> i & 1)
    return checked, (lifted, code, delta, bound)


def sample_nice(
    config: GraphLike,
    witness: Optional[Sequence[str]] = None,
    *,
    samples: int,
    seed: int,
) -> NicenessReport:
    """Seeded check of the subset bounds: uniform pass, then stratified pass.

    Both passes draw from one random.Random(seed): sparsehg.kernels draws
    the uniform subsets as lanes, one getrandbits call per vertex and
    batch, and the stratified pass takes its indices from the generator's
    next words, so the two passes share no draw and results are a pure
    function of (graph, witness, samples, seed). The stratified pass draws
    small subsets of the witness and its edge neighbourhood and checks them
    on that pool's induced sub-hypergraph, whose width is the pool's, not
    the host's.
    """
    return _check_nice(config, witness, "sampled", samples=samples, seed=seed)


def find_witness(config: GraphLike) -> Optional[tuple[str, ...]]:
    """First independent set (canonical order) passing the exhaustive check.

    Candidates are the size-(delta+1) vertex combinations in index order;
    returns None when every candidate fails or none exists.
    """
    graph = _as_graph(config)
    _at_most("witness search", graph.vertex_count, _WITNESS_VERTEX_LIMIT)
    size = graph.delta + 1
    if not 0 <= size <= graph.vertex_count:
        return None
    for combo in itertools.combinations(graph.vertices, size):
        report = verify_nice(graph, combo)
        if report.verdict == NICE:
            return combo
    return None


def check_cycle_bounds(config: LabeledConfiguration) -> tuple[bool, list[NicenessReport]]:
    """Whether both difference bounds special to the 3-cycle hold, and the
    report of each exhaustive scan run to decide it.

    Main bound: delta(U) >= |U ∩ {v1..v4}| - [v1..v4 ⊆ U]. Moreover: when
    U has a vertex outside {v1..v4} and misses v1 or both of v2, v3, the
    bound strengthens to |U ∩ {v1..v4}| + 1. These are tower Items 1 and 2
    with A_ell = xy = {v1..v4}, G empty, k = 2 and ell = 0, where Item 2
    covers the subsets that miss X: one scan with X = {v1}, one with
    X = {v2, v3}. Stops at the first scan that refutes.
    """
    v = _cycle_shape(config)
    graph = config.graph
    a_mask = graph.mask_of(v[:4])
    reports = []
    for x_mask in (graph.mask_of(v[:1]), graph.mask_of(v[1:3])):
        bounds = kernels.Bounds(x=x_mask, aell=a_mask, xy=a_mask, g=0, k=2, ell=0)
        report = _report(graph, "exhaustive", _check(graph, bounds, "exhaustive"), _ITEM_NAMES)
        reports.append(report)
        if report.verdict != NICE:
            return False, reports
    return True, reports


def verify_cycle_bounds(config: LabeledConfiguration) -> bool:
    """Whether both 3-cycle bounds hold: `check_cycle_bounds`'s verdict."""
    return check_cycle_bounds(config)[0]


def _tower_context(config: LabeledConfiguration) -> tuple[Hypergraph, kernels.Bounds]:
    """The host of tower level `config` and its bounds, on supersets of the
    y-prefix y0..y(ell-1)."""
    k, ell, xs, ys, a_ell, copies = _tower_shape(config)
    graph = config.graph
    x_mask = graph.mask_of(xs)
    return graph, kernels.Bounds(
        x=x_mask, aell=graph.mask_of(a_ell), xy=x_mask | graph.mask_of(ys[-1:]),
        g=graph.mask_of(copies[0].values()), k=k, ell=ell, base=graph.mask_of(ys[:-1]),
    )


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
    graph, bounds = _tower_context(config)
    if exhaustive and samples is not None:
        raise HypergraphError("exhaustive mode takes no samples; pass exhaustive=False")
    if exhaustive and seed is not None:
        raise HypergraphError("exhaustive mode takes no seed; pass exhaustive=False")
    rng = None if exhaustive else _check_sampling(samples, seed)
    method = "exhaustive" if exhaustive else "sampled"
    scan = _check(graph, bounds, method, samples=samples, rng=rng)
    return _report(graph, method, scan, _ITEM_NAMES, seed)
