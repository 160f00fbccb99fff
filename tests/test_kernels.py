"""The subset-check kernels: results must not depend on where a host's
vertices sit in the mask or on how many subsets a batch of lanes holds,
the sampled lanes must be the documented getrandbits calls of the
caller's random.Random at every host width and sample count, explicit
masks must transpose into the lanes a per-bit oracle gives, and the
bit-sliced checker must match the naive niceness and tower oracles."""

from __future__ import annotations

import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg import kernels
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import f14
from sparsehg.kernels import Bounds
from sparsehg.niceness import _nice_roles

import oracles


def _nice_args(seed):
    vertices, edges = oracles.random_3graph(seed, max_n=12, max_m=12)
    g = Hypergraph(3, vertices, edges)
    rng = random.Random(seed ^ 0xA5)
    wit = rng.sample(vertices, min(len(vertices), rng.randint(1, 5)))
    return g, tuple(wit)


def test_stream_is_pure_function_of_seed():
    g = f14().graph
    masks = list(g.edge_masks)
    bounds = _nice_roles(g.mask_of(f14().witness), 4)
    r1 = kernels.sample_scan(masks, 14, bounds, 500, random.Random(99))
    r2 = kernels.sample_scan(masks, 14, bounds, 500, random.Random(99))
    r3 = kernels.sample_scan(masks, 14, bounds, 500, random.Random(100))
    assert r1 == r2
    assert r1 != r3 or r1[1] is None  # different seed, same verdict only by luck


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=99_999),
    st.booleans(),
    st.integers(min_value=0, max_value=140),
)
def test_results_do_not_depend_on_word_count(seed, nice, offset):
    # the same host twice: as drawn, and moved up by `offset` bit positions
    # in a host padded with isolated vertices (up to 216 lanes); the
    # results agree once the violating mask is moved back. Random roles put
    # A_ell around X and xy, as the bounds require
    vertices, edges = oracles.random_3graph(seed, max_n=12, max_m=12)
    g = Hypergraph(3, vertices, edges)
    n = g.vertex_count
    masks = list(g.edge_masks)
    rng = random.Random(seed)

    def draw():
        return rng.getrandbits(n)

    if nice:
        bounds = _nice_roles(draw(), rng.randint(0, 5))
    else:
        x, aell, xy, gl = draw(), draw(), draw(), draw()
        bounds = Bounds(
            x=x, aell=aell | x | xy, xy=xy, g=gl, k=rng.randint(2, 6), ell=rng.randint(0, 3)
        )
    checks = [draw() for _ in range(rng.randint(0, 60))]
    n_wide = n + offset + rng.randint(0, 64)

    def up(ms):
        return [m << offset for m in ms]

    def moved(result):
        checked, vio = result
        return checked, vio and (vio[0] << offset, *vio[1:])

    x, aell, xy, gl = up([bounds.x, bounds.aell, bounds.xy, bounds.g])
    wide_bounds = Bounds(x=x, aell=aell, xy=xy, g=gl, k=bounds.k, ell=bounds.ell)
    assert kernels.check_masks(up(masks), n_wide, wide_bounds, up(checks)) == moved(
        kernels.check_masks(masks, n, bounds, checks)
    )
    narrow = kernels.scan_range(masks, range(n), bounds)
    wide = kernels.scan_range(up(masks), range(offset, offset + n), wide_bounds)
    assert wide == moved(narrow)


@pytest.mark.parametrize("field", ["x", "xy", "base"])
def test_bounds_refuse_roles_outside_aell(field):
    # X, xy and the base lie in A_ell, as the bounds assume; G may leave it
    inside = {"x": 0b0011, "aell": 0b0111, "xy": 0b0111, "g": 0b11110000, "k": 2, "ell": 0,
              "base": 0b0100}
    assert Bounds(**inside).g == 0b11110000
    with pytest.raises(HypergraphError, match=f"bounds need {field} inside A_ell, but it has 1 "):
        Bounds(**{**inside, field: inside[field] | 0b1000})


def test_f14_scan_does_not_depend_on_word_count():
    # the f14 scan three times: on f14 itself; on f14 padded with 60
    # isolated vertices, where a G bit on the last pad vertex gives the scan
    # 74 lanes; and on that host with G on the first pad vertex and edges
    # joining later pads to each other and to f14's vertices. No scanned
    # subset holds a pad vertex, so Item 3 never fires and no pad edge lies
    # in a subset
    base = f14().graph
    pad = [f"pad{i}" for i in range(60)]
    wide = Hypergraph(3, list(base.vertices) + pad, base.edges)
    v = list(base.vertices)
    joined = [("pad1", "pad2", "pad3"), ("pad4", v[0], v[1]), ("pad59", "pad5", v[13])]
    wired = Hypergraph(3, list(base.vertices) + pad, list(base.edges) + joined)
    nice = _nice_roles(base.mask_of(f14().witness), 4)
    last_pad = 1 << (wide.vertex_count - 1)
    assert last_pad.bit_length() > 64
    padded = Bounds(x=nice.x, aell=nice.aell, xy=nice.xy, g=last_pad, k=nice.k, ell=nice.ell)
    first_pad = Bounds(x=nice.x, aell=nice.aell, xy=nice.xy, g=1 << 14, k=nice.k, ell=nice.ell)
    r_narrow = kernels.scan_range(list(base.edge_masks), range(14), nice)
    r_wide = kernels.scan_range(list(wide.edge_masks), range(14), padded)
    r_wired = kernels.scan_range(list(wired.edge_masks), range(14), first_pad)
    assert r_narrow == r_wide == r_wired == (1 << 14, None)


def _must_hold(n, x_mask, v, base=0):
    """Bounds under which, with no edges, a subset violates exactly when it
    holds X (x_mask) and vertex v: X, a base inside A_ell = X | base, G = v,
    k = |X| + 1 and k + ell = n + 2, so Item 3 fires on every such subset
    and no item fires on any other."""
    k = x_mask.bit_count() + 1
    return Bounds(x=x_mask, aell=x_mask | base, xy=0, g=1 << v, k=k, ell=n + 2 - k, base=base)


@pytest.mark.parametrize("with_base", [False, True], ids=["no-base", "base"])
@pytest.mark.parametrize("n", [14, 55, 65, 306])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sampled_violation_is_the_oracle_subset(n, with_base, data):
    # a batch cap of 64-192 subsets and up to 700 samples: several batches,
    # the last one usually short. A subset violates exactly when it holds a
    # drawn set X plus v, so the scan stops at the first replayed subset
    # holding them, in any batch, or draws every sample clean
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed")
    per_batch = data.draw(st.sampled_from([64, 128, 192]), label="per_batch")
    samples = data.draw(st.integers(min_value=1, max_value=700), label="samples")
    held = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=9, unique=True))
    v, x_mask = held[0], sum(1 << j for j in held[1:])
    base = 0
    if with_base:
        base = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1), label="base")
        base &= data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="thin")
    lane_bits = n * per_batch
    want = oracles.uniform_subsets(random.Random(seed), n, samples, lane_bits, base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_LANE_BITS", lane_bits)
        got = kernels.sample_scan([], n, _must_hold(n, x_mask, v, base), samples,
                                  random.Random(seed))
    must = x_mask | 1 << v
    i = next((i for i, u in enumerate(want) if u & must == must), None)
    if i is None:
        assert got == (samples, None)
    else:
        assert got == (i + 1, (want[i], 3, want[i].bit_count(), n + 2))


@pytest.mark.parametrize("n", [14, 130])
@pytest.mark.parametrize("samples", [1, 63, 65, 100])
def test_sampled_prefix_fills_only_the_drawn_lanes(n, samples):
    # the y-prefix is the one edge, A_ell is that edge and one vertex xy
    # more, X and G are empty: Item 1 (P + [xy ⊆ U] < E) fires exactly on
    # the prefix alone, which a draw rarely is. Lane bits past a batch's
    # `samples` subsets are no subsets and must not count, though the
    # prefix is forced into every subset.
    prefix = 0b111 << (n // 2)
    seed = 7
    bounds = Bounds(x=0, aell=prefix | 1, xy=1, g=0, k=1, ell=0, base=prefix)
    result = kernels.sample_scan([prefix], n, bounds, samples, random.Random(seed))
    draws = oracles.uniform_subsets(random.Random(seed), n, samples, kernels._LANE_BITS, prefix)
    i = next((i for i, draw in enumerate(draws) if draw == prefix), None)
    assert result == ((samples, None) if i is None else (i + 1, (prefix, 1, 2, 3)))


def _first_batch(n, samples, seed):
    """The lanes of sample_scan's first batch, and its subset count."""
    seen = []

    def first(edge_masks, n, bounds, batches):
        lanes, count = next(batches)
        seen.append((list(lanes), count))
        return 0, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_scan", first)
        kernels.sample_scan([], n, Bounds(x=0, aell=0, xy=0, g=0, k=1, ell=0), samples,
                            random.Random(seed))
    return seen[0]


def test_first_batch_lanes_are_pinned():
    # 55 lanes of one full batch (76,224 subsets at 2^22 lane bits, F_5's
    # width): a change to CPython's MT19937 or getrandbits, or to the lane
    # budget, moves this digest instead of silently redefining the stream
    lanes, count = _first_batch(55, 4_000_000, 2026)
    assert count == oracles.batch_width(55, 1 << 22) == 76_224
    rng = random.Random(2026)
    assert lanes == [rng.getrandbits(count) for _ in range(55)]
    size = (count + 7) // 8
    digest = hashlib.sha256(b"".join(lane.to_bytes(size, "little") for lane in lanes))
    assert digest.hexdigest() == "b8fb86fc313626488d33052aa0ba9d030f5f14469740c98bd679a97001f42da4"


@pytest.mark.parametrize("n", [1, 7, 8, 9, 14, 40, 63, 64, 65, 130, 216, 306])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200])
def test_mask_lanes_match_per_bit_oracle(n, count):
    # masks with bits past n, which no lane may carry; 7, 8 and 9 vertices
    # fill one byte column partly and fully, and start a second one
    rng = random.Random(n * 1000 + count)
    masks = [rng.getrandbits(n + 5) for _ in range(count)]
    assert kernels._transpose(masks, n) == oracles.lanes(masks, n)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_mask_lanes_ignore_the_int_str_digit_limit():
    # 3,000 masks give lanes of 3,000 binary digits, past a limit of 640
    # decimal digits, which applies to every base but the powers of two
    rng = random.Random(3000)
    masks = [rng.getrandbits(40) for _ in range(3000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        lanes = kernels._transpose(masks, 40)
    finally:
        sys.set_int_max_str_digits(limit)
    assert lanes == oracles.lanes(masks, 40)


@pytest.mark.parametrize("kernel", ["sample_scan", "check_masks"])
def test_one_batch_alive_at_a_time(kernel):
    # f14 with its witness meets every bound, so each kernel runs all four
    # of its batches of 2^14 subsets; as each batch's lanes are built, the
    # memory traced is what it was as the first one's were, not a batch
    # (14 lanes of 2 KB) more per batch before it
    graph = f14().graph
    masks, n = list(graph.edge_masks), graph.vertex_count
    bounds = _nice_roles(graph.mask_of(f14().witness), 4)
    width = 1 << 14
    samples = 4 * width
    traced = []

    class Spy(random.Random):
        calls = 0

        def getrandbits(self, k):
            if self.calls % n == 0:
                traced.append(tracemalloc.get_traced_memory()[0])
            self.calls += 1
            return super().getrandbits(k)

    real = kernels._transpose

    def transpose(batch, n):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real(batch, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_LANE_BITS", (n if kernel == "sample_scan" else 8 * n) * width)
        mp.setattr(kernels, "_transpose", transpose)
        subsets = [random.Random(7).getrandbits(n) for _ in range(samples)]
        tracemalloc.start()
        try:
            if kernel == "sample_scan":
                result = kernels.sample_scan(masks, n, bounds, samples, Spy(7))
            else:
                result = kernels.check_masks(masks, n, bounds, subsets)
        finally:
            tracemalloc.stop()
    assert result == (samples, None)
    assert len(traced) == 4
    batch_bytes = n * width // 8
    assert max(traced) - traced[0] < batch_bytes // 2, traced


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_fallback_scan_matches_naive_oracle(seed):
    g, wit = _nice_args(seed)
    masks = list(g.edge_masks)
    n = g.vertex_count
    bounds = _nice_roles(g.mask_of(wit), len(wit) - 1)
    checked, violation = kernels.scan_range(masks, range(n), bounds)
    naive = oracles.nice_violation(g.vertices, g.edges, wit)
    if naive is None:
        assert violation is None and checked == 1 << n
    else:
        subset, condition, observed, required = naive
        assert violation is not None
        u_mask, code, delta, bound = violation
        assert g.labels_of_mask(u_mask) == subset
        assert {1: "Cond1", 2: "Cond2"}[code] == condition
        assert (delta, bound) == (observed, required)
        # free positions are every vertex, so scan index i is subset mask i
        assert checked == u_mask + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99_999), st.sampled_from([64, 128, 192, 256]))
def test_small_batches_match_nice_oracle(seed, lanes):
    # a lane cap of 64-256 subsets per batch: a 12-vertex scan spans up to
    # 64 batches, with the high free bits constant within each
    g, wit = _nice_args(seed)
    masks = list(g.edge_masks)
    n = g.vertex_count
    bounds = _nice_roles(g.mask_of(wit), len(wit) - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_LANE_BITS", max(n, 1) * lanes)
        checked, violation = kernels.scan_range(masks, range(n), bounds)
        assert kernels.check_masks(masks, n, bounds, list(range(1 << n))) == (checked, violation)
    naive = oracles.nice_violation(g.vertices, g.edges, wit)
    if naive is None:
        assert violation is None and checked == 1 << n
    else:
        subset, condition, observed, required = naive
        u_mask, code, delta, bound = violation
        assert g.labels_of_mask(u_mask) == subset
        assert {1: "Cond1", 2: "Cond2"}[code] == condition
        assert (delta, bound, checked) == (observed, required, u_mask + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=99_999), st.sampled_from([64, 128, 192, 256]))
def test_small_batches_match_tower_oracle(seed, lanes):
    # random roles on a random host, A_ell holding the x and y roles as the
    # bounds require, the y-prefix forced into every subset: the scan over
    # the free vertices and check_masks over the same subsets in the same
    # order, given with or without the y-prefix, all stop at the oracle's
    # first violation
    vertices, edges = oracles.random_3graph(seed, max_n=12, max_m=12)
    g = Hypergraph(3, vertices, edges)
    n = g.vertex_count
    rng = random.Random(seed ^ 0x5A)
    k, ell = rng.randint(1, 4), rng.randint(0, 2)
    x_labels = rng.sample(vertices, min(k, n))
    y_labels = rng.sample(vertices, min(ell + 1, n))
    roles = set(x_labels + y_labels)
    a_ell = [v for v in vertices if rng.random() < 0.4 or v in roles]
    gl = [v for v in vertices if rng.random() < 0.3]
    k, ell = len(x_labels), len(y_labels) - 1
    x_mask = g.mask_of(x_labels)
    bounds = Bounds(
        x=x_mask,
        aell=g.mask_of(a_ell),
        xy=x_mask | g.mask_of(y_labels[-1:]),
        g=g.mask_of(gl),
        k=k,
        ell=ell,
        base=g.mask_of(y_labels[:-1]),
    )
    base = bounds.base
    free = [j for j in range(n) if not base >> j & 1]
    order = [base | sum(1 << free[t] for t in range(len(free)) if i >> t & 1)
             for i in range(1 << len(free))]
    masks = list(g.edge_masks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_LANE_BITS", max(n, 1) * lanes)
        checked, violation = kernels.scan_range(masks, free, bounds)
        assert kernels.check_masks(masks, n, bounds, order) == (checked, violation)
        # check_masks ORs the base into every mask, as the other kernels do
        thin = [m & ~base for m in order]
        assert kernels.check_masks(masks, n, bounds, thin) == (checked, violation)
    naive = oracles.tower_violation(vertices, edges, x_labels, y_labels, a_ell, gl)
    if naive is None:
        assert violation is None and checked == len(order)
    else:
        subset, condition, observed, required = naive
        u_mask, code, delta, bound = violation
        assert set(g.labels_of_mask(u_mask)) == subset
        assert f"Item{code}" == condition
        assert (delta, bound) == (observed, required)
        assert order[checked - 1] == u_mask
