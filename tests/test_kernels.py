"""The subset-check kernels: results must not depend on where a host's
vertices sit in the mask or on how many subsets a batch of lanes holds,
the sample stream must be a pure function of (seed, index) and match an
independent splitmix64 draw at every host width and sample count, and the
bit-sliced checker must match the naive niceness and tower oracles."""

from __future__ import annotations

import itertools
import math
import random
import weakref

import numpy as np
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


def test_mix64_reference_values():
    # splitmix64 finalizer on fixed inputs; pins the sample stream
    z = np.array([0, 1, 12345, 2**64 - 1], dtype=np.uint64)
    assert kernels._mix_vec(z).tolist() == [
        0, 6238072747940578789, 17540659726606785873, 13029008266876403067,
    ]


def test_stream_is_pure_function_of_seed_and_index():
    g = f14().graph
    masks = list(g.edge_masks)
    bounds = _nice_roles(g.mask_of(f14().witness), 4)
    r1 = kernels.sample_scan(masks, 14, bounds, 500, 99)
    r2 = kernels.sample_scan(masks, 14, bounds, 500, 99)
    r3 = kernels.sample_scan(masks, 14, bounds, 500, 100)
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
    # the f14 scan twice: on f14 itself, and on f14 padded with 60 isolated
    # vertices, where a G bit on the last pad vertex gives the scan 74 lanes;
    # no scanned subset holds that vertex, so Item 3 never fires
    base = f14().graph
    pad = [f"pad{i}" for i in range(60)]
    wide = Hypergraph(3, list(base.vertices) + pad, base.edges)
    nice = _nice_roles(base.mask_of(f14().witness), 4)
    last_pad = 1 << (wide.vertex_count - 1)
    assert last_pad.bit_length() > 64
    padded = Bounds(x=nice.x, aell=nice.aell, xy=nice.xy, g=last_pad, k=nice.k, ell=nice.ell)
    r_narrow = kernels.scan_range(list(base.edge_masks), range(14), nice)
    r_wide = kernels.scan_range(list(wide.edge_masks), range(14), padded)
    assert r_narrow == r_wide == (1 << 14, None)


@pytest.mark.parametrize("n", [14, 64, 65, 130, 2107])
@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 123_456_789])
def test_sample_stream_matches_independent_draw(n, seed, index):
    # no edges, G = one vertex v, k + ell = n + 2: a subset violates Item 3
    # exactly when it holds v, so the scan stops at the first draw holding v.
    # Counter c under seed + index * words * GAMMA is counter
    # c + index * words under seed, so that seed starts the scan at draw
    # `index` of the seed's stream. Sample counts around one 64-subset
    # block: a batch padded to whole blocks must count only its draws.
    words = max(1, (n + 63) // 64)
    start = (seed + index * words * kernels.GAMMA) & kernels.MASK64
    draws = [oracles.splitmix64_draw(seed, index + i, n) for i in range(65)]
    for samples, v in itertools.product((1, 63, 64, 65), (0, n // 2, n - 1)):
        bounds = Bounds(x=0, aell=0, xy=0, g=1 << v, k=1, ell=n + 1)
        result = kernels.sample_scan([], n, bounds, samples, start)
        i = next((i for i, draw in enumerate(draws[:samples]) if draw >> v & 1), None)
        if i is None:
            assert result == (samples, None)
        else:
            assert result == (i + 1, (draws[i], 3, draws[i].bit_count(), n + 2))


@pytest.mark.parametrize("n", [14, 130])
@pytest.mark.parametrize("samples", [1, 63, 65, 100])
def test_sampled_prefix_fills_only_the_drawn_lanes(n, samples):
    # the y-prefix is the one edge, A_ell is that edge and one vertex xy
    # more, X and G are empty: Item 1 (P + [xy ⊆ U] < E) fires exactly on
    # the prefix alone, which a draw rarely is. The lanes that pad a batch
    # to whole 64-subset blocks are no subsets and must not count, though
    # the prefix is forced into every subset.
    prefix = 0b111 << (n // 2)
    seed = 7
    bounds = Bounds(x=0, aell=prefix | 1, xy=1, g=0, k=1, ell=0, base=prefix)
    result = kernels.sample_scan([prefix], n, bounds, samples, seed)
    draws = [oracles.splitmix64_draw(seed, i, n) for i in range(samples)]
    i = next((i for i, draw in enumerate(draws) if not draw & ~prefix), None)
    assert result == ((samples, None) if i is None else (i + 1, (prefix, 1, 2, 3)))


@pytest.mark.parametrize("n", [14, 64, 65, 130, 2107])
@pytest.mark.parametrize("samples", [1, 3, 64, 65])
def test_stream_end_is_the_last_counter_a_uniform_pass_mixes(monkeypatch, n, samples):
    # a scan with no edges and no bounds that can fail draws every sample;
    # each counter c is recovered from the finalizer's input seed + c * GAMMA
    assert kernels._stream_end(n, samples) == samples * math.ceil(n / 64)
    seed, inverse = 5, pow(kernels.GAMMA, -1, 1 << 64)
    used = []
    mix = kernels._mix_vec

    def recording_mix(z):
        used.extend((v - seed) * inverse % (1 << 64) for v in z.ravel().tolist())
        return mix(z)

    monkeypatch.setattr(kernels, "_mix_vec", recording_mix)
    bounds = Bounds(x=0, aell=0, xy=0, g=0, k=1, ell=0)
    assert kernels.sample_scan([], n, bounds, samples, seed) == (samples, None)
    assert sorted(used) == list(range(1, kernels._stream_end(n, samples) + 1))


@pytest.mark.parametrize("block", [1, 3, 64, 65, None])
@pytest.mark.parametrize("seed", [0, 2**64 - 1, -12345, 2**70 + 9])
@pytest.mark.parametrize("cursor", [0, 1, 4_000_000, random.Random(5).randrange(10**9)])
def test_draws_are_the_one_word_stream_after_the_cursor(monkeypatch, block, seed, cursor):
    # value i is the splitmix64 output for counter cursor + 1 + i, mod m; a
    # small _DRAW_BLOCK puts many block boundaries in the first 300 values
    if block:
        monkeypatch.setattr(kernels, "_DRAW_BLOCK", block)
    for m in (1, 7, 40, 157):
        got = list(itertools.islice(kernels._draws(seed, cursor, m), 300))
        want = [
            oracles.splitmix64(seed + (cursor + 1 + i) * kernels.GAMMA) % m for i in range(300)
        ]
        assert got == want


class _Lanes(list):
    """A batch's lanes, weakly referenceable."""


@pytest.mark.parametrize("kernel", ["sample_scan", "check_masks"])
def test_one_batch_alive_at_a_time(monkeypatch, kernel):
    # f14 with its witness meets every bound, so each kernel runs all four
    # of its 64-subset batches; when a batch is built, none before it lives
    graph = f14().graph
    masks, n = list(graph.edge_masks), graph.vertex_count
    bounds = _nice_roles(graph.mask_of(f14().witness), 4)
    built, alive = [], []
    real = kernels._transpose

    def transpose(*args):
        alive.append(sum(ref() is not None for ref in built))
        lanes = _Lanes(real(*args))
        built.append(weakref.ref(lanes))
        return lanes

    monkeypatch.setattr(kernels, "_transpose", transpose)
    monkeypatch.setattr(kernels, "_LANE_BITS", n * 64)
    if kernel == "sample_scan":
        result = kernels.sample_scan(masks, n, bounds, 256, 7)
    else:
        result = kernels.check_masks(masks, n, bounds, list(range(256)))
    assert result == (256, None)
    assert alive == [0, 0, 0, 0]


def _first_draw_holding(n, must, lo, hi):
    """A seed whose first stream draw holding every vertex of `must` has an
    index in [lo, hi), with that index."""
    for seed in itertools.count():
        draws = (oracles.splitmix64_draw(seed, i, n) for i in range(hi))
        i = next((i for i, draw in enumerate(draws) if draw & must == must), None)
        if i is not None and i >= lo:
            return seed, i


@pytest.mark.parametrize("n", [14, 130])
@pytest.mark.parametrize("lanes", [None, 64])
def test_sampled_violation_mask_is_the_drawn_subset(n, lanes):
    # 100 samples, so the last batch is not a whole number of 64-subset
    # blocks; the first violation is a draw in its second block (index 64 or
    # later) and must be reported as drawn. X = A_ell = six vertices, G = one
    # more vertex v, k = 7, no edges, k + ell = n + 2: Item 3 fires exactly on
    # the draws holding X and v.
    x_mask = sum(1 << (j * (n // 6)) for j in range(6))
    v = n - 1
    seed, i = _first_draw_holding(n, x_mask | 1 << v, 64, 100)
    with pytest.MonkeyPatch.context() as mp:
        if lanes is not None:
            mp.setattr(kernels, "_LANE_BITS", n * lanes)
        bounds = Bounds(x=x_mask, aell=x_mask, xy=0, g=1 << v, k=7, ell=n - 5)
        result = kernels.sample_scan([], n, bounds, 100, seed)
    draw = oracles.splitmix64_draw(seed, i, n)
    assert result == (i + 1, (draw, 3, draw.bit_count(), n + 2))


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
    # order both stop at the oracle's first violation
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
