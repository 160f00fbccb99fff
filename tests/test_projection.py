import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.projection import HEAVY_TRIPLE, PROJECTED, ProjectedMap, lift, project
from sparsehg.search import find_configuration

import oracles


def test_heavy_triple_two_edges_through_one_triple():
    g = Hypergraph(
        4,
        [f"u{i}" for i in range(6)],
        [("u0", "u1", "u2", "u3"), ("u0", "u1", "u2", "u4")],
    )
    result = project(g, 2, 2)
    assert result.case_tag == HEAVY_TRIPLE
    assert result.anchors == ()
    assert result.heavy_config.edge_count == 2
    # two 4-edges through a common triple span 5 <= (r-k)e + k = 6
    assert result.heavy_config.vertex_count == 5


def test_projected_disjointish_links_all_kept():
    g = Hypergraph(
        4,
        [f"u{i}" for i in range(9)],
        [("u0", "u1", "u2", "u3"), ("u3", "u4", "u5", "u6"), ("u0", "u4", "u7", "u8")],
    )
    result = project(g, 2, 3)
    assert result.case_tag == PROJECTED
    assert len(result.projected.pairs) == 3
    assert result.projected.graph3.edge_count == 3


def test_projected_triples_are_label_lex_smallest():
    g = Hypergraph(
        4,
        ["d", "c", "b", "a", "z", "y", "x", "w"],
        [("d", "c", "b", "a"), ("z", "y", "x", "w")],
    )
    result = project(g, 2, 3)
    assert result.case_tag == PROJECTED
    triples = [t for t, _ in result.projected.pairs]
    assert ("a", "b", "c") in triples
    assert ("w", "x", "y") in triples


def test_pairwise_intersection_bound_on_retained_links():
    for seed in range(40):
        vertices, edges = oracles.random_4graph(seed)
        g = Hypergraph(4, vertices, edges)
        result = project(g, 2, 3)
        if result.case_tag != PROJECTED:
            continue
        links = [set(y) for _, y in result.projected.pairs]
        for a, b in itertools.combinations(links, 2):
            assert len(a & b) <= 2


def test_anchored_projection_k3():
    verts = ["u0"] + [f"m{i}" for i in range(8)]
    edges = [("u0", "m0", "m1", "m2"), ("u0", "m2", "m3", "m4"), ("u0", "m5", "m6", "m7")]
    g = Hypergraph(4, verts, edges)
    result = project(g, 3, 3)
    assert result.anchors == ("u0",)
    assert result.case_tag == PROJECTED
    # links drop the anchor, keeping 3 vertices each
    for _, y in result.projected.pairs:
        assert len(y) == 3 and "u0" not in y


def test_lift_restores_the_source_edge():
    g = Hypergraph(4, [f"u{i}" for i in range(8)], [("u0", "u1", "u2", "u3")])
    result = project(g, 2, 2)
    assert result.case_tag == PROJECTED
    triple = result.projected.pairs[0][0]
    cfg3 = Hypergraph(3, list(result.projected.graph3.vertices), [triple])
    lifted = lift(result, cfg3)
    assert lifted.edges == (("u0", "u1", "u2", "u3"),)


def test_lift_empty_config():
    g = Hypergraph(4, [f"u{i}" for i in range(8)], [("u0", "u1", "u2", "u3")])
    result = project(g, 2, 2)
    cfg3 = Hypergraph(3, list(result.projected.graph3.vertices), [])
    lifted = lift(result, cfg3)
    assert lifted.edge_count == 0
    assert lifted.vertex_count == 0  # k = 2 means no anchors either


def test_lift_rejects_unknown_triple():
    g = Hypergraph(4, [f"u{i}" for i in range(8)], [("u0", "u1", "u2", "u3")])
    result = project(g, 2, 2)
    cfg3 = Hypergraph(3, list(result.projected.graph3.vertices), [("u4", "u5", "u6")])
    with pytest.raises(HypergraphError, match="not in projection map"):
        lift(result, cfg3)


_ABC = ("a", "b", "c")
_GRAPH3 = Hypergraph(3, "abcdefg", [_ABC, ("d", "e", "f")])

# pairs a projection map refuses, with the message; each would let `lift`
# send an edge to a link that does not contain it, or to one of two links
_BAD_PAIRS = {
    "triple-outside-link": (
        ((_ABC, ("a", "b", "c", "d")), (("d", "e", "f"), ("a", "e", "f", "g"))),
        r"triple \('d', 'e', 'f'\) is not inside its link"),
    "repeated-triple": (
        ((_ABC, ("a", "b", "c", "d")), (_ABC, ("a", "b", "c", "g")), (("d", "e", "f"), "defg")),
        r"triple \('a', 'b', 'c'\) stands for two links"),
    "edge-without-triple": (
        ((_ABC, ("a", "b", "c", "d")),), "the triples, sorted, must be graph3's edges"),
    "triple-not-an-edge": (
        ((_ABC, "abcd"), (("d", "e", "f"), "defg"), (("e", "f", "g"), "defg")),
        "the triples, sorted, must be graph3's edges"),
    "unsorted-triple": (
        ((("b", "a", "c"), "abcd"), (("d", "e", "f"), "defg")),
        "the triples, sorted, must be graph3's edges"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PAIRS))
def test_projected_map_refuses_pairs_lift_would_misuse(case):
    pairs, message = _BAD_PAIRS[case]
    with pytest.raises(HypergraphError, match=message):
        ProjectedMap(_GRAPH3, tuple((t, tuple(y)) for t, y in pairs))


def test_projected_map_takes_its_triples_in_any_order():
    pairs = ((("d", "e", "f"), ("d", "e", "f", "g")), (_ABC, ("a", "b", "c", "d")))
    assert ProjectedMap(_GRAPH3, pairs).pairs == pairs


def test_lift_requires_projected_case():
    g = Hypergraph(
        4,
        [f"u{i}" for i in range(6)],
        [("u0", "u1", "u2", "u3"), ("u0", "u1", "u2", "u4")],
    )
    result = project(g, 2, 2)
    assert result.case_tag == HEAVY_TRIPLE
    with pytest.raises(HypergraphError, match="Projected"):
        lift(result, Hypergraph(3, ["a", "b", "c"], []))


def test_parameter_guards():
    g = Hypergraph(4, [f"u{i}" for i in range(5)], [("u0", "u1", "u2", "u3")])
    with pytest.raises(HypergraphError):
        project(g, 1, 3)
    with pytest.raises(HypergraphError):
        project(g, 4, 3)  # k must stay below r
    with pytest.raises(HypergraphError):
        project(g, 2, 1)


def test_vertex_limit_guard():
    verts = [f"u{i}" for i in range(41)]
    g = Hypergraph(4, verts, [tuple(verts[:4])])
    with pytest.raises(HypergraphError, match="limited"):
        project(g, 2, 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_roundtrip_heavy_or_lift_confirmed_by_oracle(seed):
    vertices, edges = oracles.random_4graph(seed, max_n=10, max_m=12)
    g = Hypergraph(4, vertices, edges)
    e = 3
    result = project(g, 2, e)
    if result.case_tag == HEAVY_TRIPLE:
        heavy = result.heavy_config
        assert heavy.edge_count == e
        assert heavy.vertex_count <= (g.r - 2) * e + 2
        # the heavy hit is a genuine configuration of the source graph
        assert find_configuration(g, heavy.vertex_count, e).found
        return
    proj3 = result.projected.graph3
    hit = find_configuration(proj3, 3 * e - 3, e)
    if not hit.found:
        return
    span, picked = hit.witness
    cfg3 = Hypergraph(3, list(proj3.vertices), picked)
    lifted = lift(result, cfg3)
    bound = cfg3.vertex_count + (g.r - 2 - 1) * cfg3.edge_count + 2 - 2
    assert lifted.vertex_count <= bound
    assert find_configuration(g, lifted.vertex_count, e).found


def test_anchors_and_heavy_triple_match_the_subset_scans():
    # random 4- and 5-graphs on at most 12 vertices, every k in [2, r)
    # and e in 2..4, against the scans over every vertex subset
    rng = random.Random(14)
    seen = set()
    for _ in range(400):
        r = rng.choice((4, 5))
        n = rng.randint(r, 12)
        vertices = [f"u{i}" for i in range(n)]
        pool = list(itertools.combinations(vertices, r))
        g = Hypergraph(r, vertices, rng.sample(pool, rng.randint(0, min(25, len(pool)))))
        k, e = rng.randint(2, r - 1), rng.randint(2, 4)
        result = project(g, k, e)
        anchors, link_edges = oracles.projection_anchors(g.vertices, g.edges, k)
        assert result.anchors == anchors
        links = [tuple(u for u in edge if u not in anchors) for edge in link_edges]
        chosen = oracles.heavy_triple_links(g.vertices, links, e)
        if chosen is None:
            assert result.case_tag == PROJECTED
        else:
            assert result.case_tag == HEAVY_TRIPLE
            assert result.heavy_config.edges == tuple(link_edges[i] for i in chosen)
        seen.add((result.case_tag, k > 2))
    assert seen == {(HEAVY_TRIPLE, False), (HEAVY_TRIPLE, True),
                    (PROJECTED, False), (PROJECTED, True)}


def test_retention_bound_documented_in_result():
    # retention can discard links, but never below the greedy guarantee
    for seed in range(60):
        vertices, edges = oracles.random_4graph(seed, max_n=9, max_m=14)
        g = Hypergraph(4, vertices, edges)
        result = project(g, 2, 3)
        if result.case_tag != PROJECTED:
            continue
        kept = len(result.projected.pairs)
        total = g.edge_count
        assert kept * (comb(4, 3) * 2 + 1) >= total
