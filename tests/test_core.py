import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg.core import (
    DifferenceReport,
    Hypergraph,
    HypergraphError,
    subgraph_from_edges,
)

import oracles


def small_graphs():
    """Strategy: a seeded random 3-graph built by the naive generator."""
    return st.integers(min_value=0, max_value=10_000).map(
        lambda s: oracles.random_3graph(s, max_n=9, max_m=10)
    )


def test_edges_are_canonicalized():
    g = Hypergraph(3, ["c", "a", "b", "d"], [("d", "b", "a"), ("c", "a", "b")])
    assert g.edges == (("a", "b", "c"), ("a", "b", "d"))
    assert g.vertices == ("c", "a", "b", "d")


def test_vertex_order_is_preserved():
    g = Hypergraph(3, ["z", "y", "x"], [("z", "y", "x")])
    assert g.vertices == ("z", "y", "x")
    assert g.index_of("z") == 0


def test_duplicate_vertex_rejected():
    with pytest.raises(HypergraphError, match="duplicate vertex"):
        Hypergraph(3, ["a", "b", "a"], [])


def test_duplicate_edge_rejected():
    with pytest.raises(HypergraphError, match="duplicate edge"):
        Hypergraph(3, ["a", "b", "c"], [("a", "b", "c"), ("c", "b", "a")])


def test_wrong_arity_rejected():
    with pytest.raises(HypergraphError, match="distinct members"):
        Hypergraph(3, ["a", "b", "c"], [("a", "a", "b")])
    with pytest.raises(HypergraphError, match="distinct members"):
        Hypergraph(3, ["a", "b", "c", "d"], [("a", "b", "c", "d")])


def test_unknown_edge_label_rejected():
    with pytest.raises(HypergraphError, match="unknown label"):
        Hypergraph(3, ["a", "b", "c"], [("a", "b", "z")])


def test_uniformity_guard():
    with pytest.raises(HypergraphError):
        Hypergraph(1, ["a"], [])
    Hypergraph(4, ["a", "b", "c", "d"], [("a", "b", "c", "d")])


def test_delta_of_empty_subset_is_zero():
    g = Hypergraph(3, ["a", "b", "c"], [("a", "b", "c")])
    rep = g.difference([])
    assert rep == DifferenceReport(subset_size=0, induced_edges=0, delta=0)


def test_difference_full_graph():
    g = Hypergraph(3, [f"v{i}" for i in range(6)], [("v0", "v1", "v2"), ("v2", "v3", "v4")])
    assert g.delta == 4
    assert g.difference(g.vertices).delta == 4
    # a repeated label counts once; an unknown one is refused
    assert g.difference(["v0", "v1", "v2", "v2", "v0"]) == DifferenceReport(3, 1, 2)
    with pytest.raises(HypergraphError, match="unknown vertex label 'v9'"):
        g.difference(["v0", "v9"])


def test_masks_round_trip():
    g = Hypergraph(3, ["a", "b", "c", "d"], [("a", "b", "c")])
    mask = g.mask_of(["d", "a"])
    assert g.labels_of_mask(mask) == ("a", "d")
    assert g.mask_of(g.vertices) == (1 << 4) - 1


@settings(max_examples=60)
@given(small_graphs(), st.integers(min_value=0, max_value=2**20))
def test_difference_matches_naive(data, pick):
    vertices, edges = data
    g = Hypergraph(3, vertices, edges)
    labels = g.labels_of_mask(pick)
    rep = g.difference(labels)
    assert rep.delta == oracles.difference(edges, labels)
    assert rep.induced_edges == len(oracles.induced_edges(edges, labels))
    assert rep.subset_size == len(labels)


@settings(max_examples=40)
@given(small_graphs())
def test_induced_count_agrees_on_every_subset(data):
    vertices, edges = data
    g = Hypergraph(3, vertices, edges)
    for mask in range(1 << min(g.vertex_count, 7)):
        labels = g.labels_of_mask(mask)
        assert g.induced_edge_count(mask) == len(oracles.induced_edges(edges, labels))


def test_is_independent_both_input_kinds():
    g = Hypergraph(3, ["a", "b", "c", "d"], [("a", "b", "c")])
    assert g.is_independent(["a", "b", "d"])
    assert not g.is_independent(v for v in "abc")
    with pytest.raises(HypergraphError, match="unknown vertex label 'z'"):
        g.is_independent(["a", "z"])


def test_equality_ignores_construction_order_of_edges():
    g1 = Hypergraph(3, ["a", "b", "c", "d"], [("a", "b", "c"), ("b", "c", "d")])
    g2 = Hypergraph(3, ["a", "b", "c", "d"], [("d", "c", "b"), ("c", "a", "b")])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    g3 = Hypergraph(3, ["b", "a", "c", "d"], [("a", "b", "c"), ("b", "c", "d")])
    assert g1 != g3  # vertex order is part of identity


def test_subgraph_from_edges_keeps_host_order():
    g = Hypergraph(3, ["d", "c", "b", "a"], [("d", "c", "b"), ("c", "b", "a")])
    sub = subgraph_from_edges(g, ["a", "b", "c"], [("c", "b", "a")])
    assert sub.vertices == ("c", "b", "a")
    assert sub.edges == (("a", "b", "c"),)


def test_subgraph_from_edges_rejects_foreign_labels():
    g = Hypergraph(3, ["a", "b", "c"], [])
    with pytest.raises(HypergraphError, match="not in host"):
        subgraph_from_edges(g, ["a", "zz"], [])


@settings(max_examples=30)
@given(small_graphs())
def test_delta_identity(data):
    vertices, edges = data
    g = Hypergraph(3, vertices, edges)
    assert g.delta == g.vertex_count - g.edge_count


def test_edge_masks_cover_exactly_three_bits():
    g = Hypergraph(3, [f"v{i}" for i in range(5)], list(itertools.combinations([f"v{i}" for i in range(5)], 3))[:4])
    for m in g.edge_masks:
        assert bin(m).count("1") == 3
