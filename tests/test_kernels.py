"""The subset-check kernels: results must not depend on how many 64-bit
words hold a subset, the sample stream must be a pure function of
(seed, index) and match an independent splitmix64 draw at every host
width, and niceness run through the tower checker must match the naive
oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg import kernels
from sparsehg.core import Hypergraph
from sparsehg.families import f14
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
    roles = _nice_roles(g.mask_of(f14().witness), 4)
    r1 = kernels.sample_scan(masks, 14, 0, *roles, 500, 99)
    r2 = kernels.sample_scan(masks, 14, 0, *roles, 500, 99)
    r3 = kernels.sample_scan(masks, 14, 0, *roles, 500, 100)
    assert r1 == r2
    assert r1 != r3 or r1[1] is None  # different seed, same verdict only by luck


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=99_999),
    st.booleans(),
    st.integers(min_value=0, max_value=140),
)
def test_results_do_not_depend_on_word_count(seed, nice, offset):
    # the same host twice: as drawn (one word), and moved up by `offset`
    # bit positions in a host padded with isolated vertices (up to four
    # words, with runs of free positions crossing word boundaries); the
    # results agree once the violating mask is moved back
    vertices, edges = oracles.random_3graph(seed, max_n=12, max_m=12)
    g = Hypergraph(3, vertices, edges)
    n = g.vertex_count
    masks = list(g.edge_masks)
    rng = random.Random(seed)

    def draw():
        return rng.getrandbits(n)

    if nice:
        roles = _nice_roles(draw(), rng.randint(0, 5))
    else:
        roles = (draw(), draw(), draw(), draw(), rng.randint(2, 6), rng.randint(0, 3))
    checks = [draw() for _ in range(rng.randint(0, 60))]
    n_wide = n + offset + rng.randint(0, 64)

    def up(ms):
        return [m << offset for m in ms]

    def moved(result):
        checked, vio = result
        return checked, vio and (vio[0] << offset, *vio[1:])

    wide_roles = (*up(roles[:4]), *roles[4:])
    assert kernels.check_masks(up(masks), n_wide, *wide_roles, up(checks)) == moved(
        kernels.check_masks(masks, n, *roles, checks)
    )
    narrow = kernels.scan_range(masks, range(n), 0, *roles)
    wide = kernels.scan_range(up(masks), range(offset, offset + n), 0, *wide_roles)
    assert wide == moved(narrow)


def test_f14_scan_does_not_depend_on_word_count():
    # the f14 scan twice: on f14 itself, and on f14 padded with 60 isolated
    # vertices, where a G bit on the last pad vertex makes the scan run two
    # words; no scanned subset holds that vertex, so Item 3 never fires
    base = f14().graph
    pad = [f"pad{i}" for i in range(60)]
    wide = Hypergraph(3, list(base.vertices) + pad, base.edges)
    x, aell, xy, _, k, ell = _nice_roles(base.mask_of(f14().witness), 4)
    last_pad = 1 << (wide.vertex_count - 1)
    assert last_pad.bit_length() > 64
    r_narrow = kernels.scan_range(list(base.edge_masks), range(14), 0, x, aell, xy, 0, k, ell)
    r_wide = kernels.scan_range(
        list(wide.edge_masks), range(14), 0, x, aell, xy, last_pad, k, ell
    )
    assert r_narrow == r_wide == (1 << 14, None)


@pytest.mark.parametrize("n", [14, 64, 65, 130, 2107])
@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 123_456_789])
def test_sample_stream_matches_independent_draw(n, seed, index):
    # no edges, G = one vertex v, k + ell = n + 2: a subset violates Item 3
    # exactly when it holds v, so the scan stops at the first draw holding v.
    # Counter c under seed + index * words * GAMMA is counter
    # c + index * words under seed, so that seed starts the scan at draw
    # `index` of the seed's stream.
    words = max(1, (n + 63) // 64)
    start = (seed + index * words * kernels.GAMMA) & kernels.MASK64
    draws = [oracles.splitmix64_draw(seed, index + i, n) for i in range(64)]
    for v in (0, n // 2, n - 1):
        checked, vio = kernels.sample_scan([], n, 0, 0, 0, 0, 1 << v, 1, n + 1, 64, start)
        i = next(i for i, draw in enumerate(draws) if draw >> v & 1)
        assert checked == i + 1
        assert vio == (draws[i], 3, draws[i].bit_count(), n + 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_fallback_scan_matches_naive_oracle(seed):
    g, wit = _nice_args(seed)
    masks = list(g.edge_masks)
    n = g.vertex_count
    roles = _nice_roles(g.mask_of(wit), len(wit) - 1)
    checked, violation = kernels.scan_range(masks, range(n), 0, *roles)
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
