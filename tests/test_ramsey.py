import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg.core import HypergraphError
from sparsehg.ramsey import (
    ColoringInstance,
    check_coloring,
    coloring_to_4graph,
    packed_coloring,
    q_quad,
    random_coloring,
    verify_implication,
)

import oracles


def rainbow(n):
    pairs = itertools.combinations(range(1, n + 1), 2)
    return ColoringInstance(n, {p: i for i, p in enumerate(pairs)})


def monochrome(n):
    pairs = itertools.combinations(range(1, n + 1), 2)
    return ColoringInstance(n, {p: 0 for p in pairs})


@pytest.mark.parametrize("p,expected", [(4, 6), (8, 26), (10, 42)])
def test_q_quad_values(p, expected):
    assert q_quad(p) == expected
    assert oracles.q_quad(p) == expected


def test_q_quad_guard():
    for bad in (3, 0, -2):
        with pytest.raises(HypergraphError):
            q_quad(bad)


def test_coloring_must_be_total():
    with pytest.raises(HypergraphError, match="every pair"):
        ColoringInstance(4, {(1, 2): 0})


@pytest.mark.parametrize("colors", [
    {(1, 2): 0, (1, 3): 0, (2, 4): 0},
    {("1", "2"): 0},
], ids=["pair-past-n", "string-pair"])
def test_coloring_pairs_out_of_range(colors):
    with pytest.raises(HypergraphError, match="out of range"):
        ColoringInstance(3, colors)


def test_coloring_colors_must_be_integers():
    # a color of any other type, bool included, is refused when the coloring
    # is made, not when a clique scan first hashes it
    with pytest.raises(HypergraphError, match="color of '1,2' must be an integer"):
        check_coloring(ColoringInstance(3, {(1, 2): "red", (1, 3): 0, (2, 3): [1]}), 3, 2)
    with pytest.raises(HypergraphError, match="color of '1,3' must be an integer, got True"):
        ColoringInstance(3, {(1, 2): 0, (1, 3): True, (2, 3): 2})


def test_coloring_keeps_its_own_copy_of_the_colors():
    colors = {(1, 2): 0, (1, 3): 1, (2, 3): 2}
    coloring = ColoringInstance(3, colors)
    colors.pop((2, 3))
    assert coloring.colors == {(1, 2): 0, (1, 3): 1, (2, 3): 2}
    assert check_coloring(coloring, 3, 2).min_colors_on_some_kp == 3


def test_check_rainbow_is_valid():
    report = check_coloring(rainbow(6), 4, 6)
    assert report.valid
    assert report.min_colors_on_some_kp == 6
    assert report.q_quad_value == 6


def test_check_monochrome_invalid():
    report = check_coloring(monochrome(6), 4, 2)
    assert not report.valid
    assert report.min_colors_on_some_kp == 1
    assert report.witness_kp == (1, 2, 3, 4)


def test_check_matches_naive_minimum():
    for seed in range(25):
        c = random_coloring(8, seed, palette=6)
        report = check_coloring(c, 5, 4)
        naive = oracles.min_colors_over_cliques(8, c.colors, 5)
        assert report.min_colors_on_some_kp == naive
        assert report.valid == (naive >= 4)


def test_check_guards():
    with pytest.raises(HypergraphError):
        check_coloring(rainbow(6), 7, 3)
    with pytest.raises(HypergraphError):
        check_coloring(rainbow(6), 1, 1)
    with pytest.raises(HypergraphError, match="limited"):
        check_coloring(rainbow(15), 4, 6)


def test_shadow_of_monochrome_is_single_edge():
    shadow, log = coloring_to_4graph(monochrome(6))
    assert shadow.edges == (("1", "2", "3", "4"),)
    assert len(log) == 1
    assert log[0]["pair1"] == (1, 2) and log[0]["pair2"] == (3, 4)


def test_shadow_of_rainbow_is_empty():
    shadow, log = coloring_to_4graph(rainbow(7))
    assert shadow.edge_count == 0 and log == ()


def test_shadow_skips_intersecting_color_classes():
    # one color on two crossing pairs only: no disjoint pair, no edge
    colors = {}
    colors[(1, 2)] = 0
    colors[(1, 3)] = 0
    nxt = 1
    for pair in itertools.combinations(range(1, 6), 2):
        if pair not in colors:
            colors[pair] = nxt
            nxt += 1
    shadow, log = coloring_to_4graph(ColoringInstance(5, colors))
    assert shadow.edge_count == 0
    assert log == ()


def test_shadow_collision_logged_once():
    colors = {(1, 2): 7, (3, 4): 7, (1, 3): 9, (2, 4): 9}
    nxt = 100
    for pair in itertools.combinations(range(1, 7), 2):
        if pair not in colors:
            colors[pair] = nxt
            nxt += 1
    shadow, log = coloring_to_4graph(ColoringInstance(6, colors))
    assert shadow.edge_count == 1
    assert [entry["fresh"] for entry in log] == [True, False]
    assert log[1]["edge"] == ("1", "2", "3", "4")


def test_shadow_uses_lex_first_disjoint_pair():
    colors = {(2, 3): 0, (4, 5): 0, (1, 6): 0}
    nxt = 1
    for pair in itertools.combinations(range(1, 7), 2):
        if pair not in colors:
            colors[pair] = nxt
            nxt += 1
    shadow, log = coloring_to_4graph(ColoringInstance(6, colors))
    # (1,6) precedes (2,3) lexicographically, so the first disjoint pair
    # of pairs is ((1,6), (2,3))
    assert log[0]["pair1"] == (1, 6) and log[0]["pair2"] == (2, 3)
    assert shadow.edges[0] == ("1", "2", "3", "6")


def test_packed_coloring_triggers_both_sides():
    c = packed_coloring(8, 8)
    shadow, _ = coloring_to_4graph(c)
    assert shadow.edge_count == 2
    report = check_coloring(c, 8, 27)
    assert report.min_colors_on_some_kp == 26
    assert not report.valid
    assert verify_implication(c, 8, 27) is True


def test_packed_coloring_on_larger_ground_set():
    c = packed_coloring(12, 8)
    assert check_coloring(c, 8, 27).min_colors_on_some_kp == 26
    assert verify_implication(c, 8, 27) is True


def test_packed_guard():
    with pytest.raises(HypergraphError):
        packed_coloring(6, 8)
    with pytest.raises(HypergraphError):
        packed_coloring(8, 3)


def test_implication_vacuous_on_rainbow():
    assert verify_implication(rainbow(8), 8, 27) is True


def test_implication_true_when_coloring_fails():
    assert verify_implication(monochrome(8), 4, 6) is True


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_implication_holds_on_random_colorings(seed):
    assert verify_implication(random_coloring(10, seed), 8, 27) is True


def test_implication_guard():
    with pytest.raises(HypergraphError):
        verify_implication(rainbow(13), 8, 27)
    with pytest.raises(HypergraphError):
        verify_implication(rainbow(8), 8, comb(8, 2) + 2)


def test_random_coloring_is_seed_deterministic():
    a = random_coloring(10, 31)
    b = random_coloring(10, 31)
    c = random_coloring(10, 32)
    assert a == b
    assert a != c


def test_random_coloring_palette_guard():
    with pytest.raises(HypergraphError):
        random_coloring(6, 0, palette=0)
