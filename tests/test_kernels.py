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


def test_index_offset_continues_the_stream():
    g = f14().graph
    masks = list(g.edge_masks)
    roles = _nice_roles(g.mask_of(f14().witness), 4)
    whole = kernels.sample_scan(masks, 14, 0, *roles, 400, 7)
    first = kernels.sample_scan(masks, 14, 0, *roles, 150, 7)
    rest = kernels.sample_scan(masks, 14, 0, *roles, 250, 7, index_offset=150)
    assert whole[0] == first[0] + rest[0]


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
        return checked, vio and (vio[0], vio[1] << offset, *vio[2:])

    wide_roles = (*up(roles[:4]), *roles[4:])
    assert kernels.check_masks(up(masks), n_wide, *wide_roles, up(checks)) == moved(
        kernels.check_masks(masks, n, *roles, checks)
    )
    narrow = kernels.scan_range(masks, range(n), 0, *roles, 0, 1 << n)
    wide = kernels.scan_range(up(masks), range(offset, offset + n), 0, *wide_roles, 0, 1 << n)
    assert wide == moved(narrow)


def test_f14_scan_does_not_depend_on_word_count():
    # same graph twice: once as-is, once padded with 60 isolated vertices
    base = f14().graph
    pad = [f"pad{i}" for i in range(60)]
    wide = Hypergraph(3, list(base.vertices) + pad, base.edges)
    roles = _nice_roles(base.mask_of(f14().witness), 4)
    n_wide = wide.vertex_count
    assert n_wide > 64
    r_narrow = kernels.scan_range(list(base.edge_masks), range(14), 0, *roles, 0, 1 << 14)
    # isolated vertices force Cond2 violations, so only compare the clean prefix
    r_wide = kernels.scan_range(list(wide.edge_masks), range(n_wide), 0, *roles, 0, 1 << 14)
    assert r_narrow == r_wide


@pytest.mark.parametrize("n", [14, 64, 65, 130, 2107])
@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 123_456_789])
def test_sample_stream_matches_independent_draw(n, seed, index):
    # no edges, G = every vertex, k + ell = n + 2: every nonempty subset
    # violates Item 3, so the first draw comes back as the violation
    full = (1 << n) - 1
    checked, vio = kernels.sample_scan([], n, 0, 0, 0, 0, full, 1, n + 1, 1, seed, index)
    draw = oracles.splitmix64_draw(seed, index, n)
    assert checked == 1
    assert vio == ((index, draw, 3, draw.bit_count(), n + 2) if draw else None)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_fallback_scan_matches_naive_oracle(seed):
    g, wit = _nice_args(seed)
    masks = list(g.edge_masks)
    n = g.vertex_count
    roles = _nice_roles(g.mask_of(wit), len(wit) - 1)
    checked, violation = kernels.scan_range(masks, range(n), 0, *roles, 0, 1 << n)
    naive = oracles.nice_violation(g.vertices, g.edges, wit)
    if naive is None:
        assert violation is None and checked == 1 << n
    else:
        subset, condition, observed, required = naive
        assert violation is not None
        pos, u_mask, code, delta, bound = violation
        assert g.labels_of_mask(u_mask) == subset
        assert {1: "Cond1", 2: "Cond2"}[code] == condition
        assert (delta, bound) == (observed, required)
        assert checked == pos + 1
