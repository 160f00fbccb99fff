import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg.core import (
    DifferenceReport,
    Hypergraph,
    HypergraphError,
    _at_most,
    _integer,
    subgraph_from_edges,
)
from sparsehg.extraction import ExtractionResult, extract, locate_subcopy
from sparsehg.families import LabeledConfiguration, f14, factorial_family, geometric_tower
from sparsehg.kernels import Bounds
from sparsehg.niceness import Counterexample, NicenessReport, sample_nice
from sparsehg.projection import ProjectedMap, ProjectionResult, project
from sparsehg.ramsey import (
    ColoringInstance,
    RamseyReport,
    check_coloring,
    packed_coloring,
    q_quad,
    random_coloring,
    verify_implication,
)
from sparsehg.search import CopyCount, SearchResult, find_configuration, find_configuration_unpruned

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


def test_non_string_vertex_label_rejected():
    with pytest.raises(HypergraphError, match="vertex labels must be strings, got 2"):
        Hypergraph(3, ["a", 2, "c"], [])


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


# Each result type of the package, its fields in positional order, one
# value per field and another value of its last field. The dataclass twin
# of a type is the dataclass of that name and those fields, as the type was
# defined before it became a plain class.
_GRAPH = Hypergraph(3, ["a", "b", "c", "d"], [("a", "b", "c")])
_COUNTEREXAMPLE = Counterexample(("a", "b"), "Cond1", 0, 1)
_RECORDS = [
    (DifferenceReport, ("subset_size", "induced_edges", "delta"), (3, 1, 2), 3),
    (Counterexample, ("subset", "condition", "observed_delta", "required_bound"),
     (("a", "b"), "Cond1", 0, 1), 2),
    (NicenessReport, ("verdict", "checked_subsets", "counterexample", "seed"),
     ("NOT_NICE", 5, _COUNTEREXAMPLE, 7), None),
    (SearchResult, ("found", "witness", "nodes_explored"),
     (True, (("a", "b", "c"), (("a", "b", "c"),)), 9), 10),
    (CopyCount, ("embeddings", "copies", "nodes_explored"), (6, 1, 40), 41),
    (ProjectedMap, ("graph3", "pairs"), (_GRAPH, ((("a", "b", "c"), ("a", "b", "c", "d")),)),
     ((("a", "b", "c"), ("a", "b", "c", "e")),)),
    (ProjectionResult, ("r", "k", "e", "anchors", "case_tag", "heavy_config", "projected"),
     (4, 2, 3, ("u0",), "HeavyTriple", _GRAPH, None),
     ProjectedMap(_GRAPH, ((("a", "b", "c"), ("a", "b", "c", "d")),))),
    (ColoringInstance, ("n", "colors"), (3, {(1, 2): 0, (1, 3): 1, (2, 3): 2}),
     {(1, 2): 1, (1, 3): 1, (2, 3): 2}),
    (RamseyReport, ("p", "q", "q_quad_value", "min_colors_on_some_kp", "valid", "witness_kp"),
     (8, 27, 26, 25, False, (1, 2, 3, 4, 5, 6, 7, 8)), None),
    (Bounds, ("x", "aell", "xy", "g", "k", "ell", "base"),
     (0b011, 0b111, 0b110, 0b1000, 2, 0, 0b100), 0b001),
    (ExtractionResult, ("subgraph", "trace", "verified"),
     (_GRAPH, ({"level": 0, "t": 1},), DifferenceReport(4, 1, 3)), DifferenceReport(4, 1, 2)),
]


def _twin(cls, fields, **kwargs):
    return dataclasses.make_dataclass(cls.__name__, fields, **kwargs)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, fields, values, last", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_records_behave_like_their_frozen_dataclass_twins(cls, fields, values, last):
    twin = _twin(cls, fields, frozen=True)
    record = cls(*values)
    assert repr(record) == repr(twin(*values))
    assert cls(**dict(zip(fields, values))) == record
    assert _hash_or_error(cls(*values)) == _hash_or_error(record) == _hash_or_error(twin(*values))
    assert record != twin(*values)
    assert cls(*values[:-1], last) != record
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, fields[0]) is values[0]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[0]: values[0]})


def test_record_defaults_and_missing_fields():
    assert NicenessReport("NICE", 8, None) == NicenessReport("NICE", 8, None, None)
    assert repr(NicenessReport("NICE", 8, None)) == (
        "NicenessReport(verdict='NICE', checked_subsets=8, counterexample=None, seed=None)"
    )
    with pytest.raises(TypeError, match="'checked_subsets'"):
        NicenessReport("NICE")


def test_labeled_configuration_is_mutable_and_compares_without_levels():
    twin = _twin(LabeledConfiguration, [
        "graph", "roles", "family",
        ("subcopies", dict, dataclasses.field(default_factory=dict)),
        ("levels", object, dataclasses.field(default=None, compare=False, repr=False)),
    ])
    args = (_GRAPH, {"A": ("a", "d")}, {"name": "test"})
    config, other = LabeledConfiguration(*args), LabeledConfiguration(*args)
    assert repr(config) == repr(twin(*args))
    assert config.subcopies == {} and config.subcopies is not other.subcopies
    config.levels = (config,)
    assert config == other and repr(config) == repr(other)
    config.subcopies["G^0"] = {"a": "a"}
    assert config != other
    with pytest.raises(TypeError):
        hash(other)


def _span(lo, hi):
    return f">= {lo}" if hi is None else f"in [{lo}, {hi}]"


def test_integer_accepts_only_ints_in_range():
    for value, lo, hi in [(10**30, 0, None), (0, 0, 0), (-3, -3, -3)]:
        assert _integer("x", value, lo, hi) is None
    for value, lo, hi in [(10**30, 0, 0), (0, 0, -1), (1, 0, 0), (-10**30, 0, None),
                          (False, 0, None), (1.0, 0, None), ("1", 0, None)]:
        with pytest.raises(HypergraphError) as info:
            _integer("x", value, lo, hi)
        assert str(info.value) == f"x must be an integer {_span(lo, hi)}, got {value!r}"


def test_at_most_refuses_only_past_the_limit():
    assert _at_most("scan", 14, 14) is None
    with pytest.raises(HypergraphError) as info:
        _at_most("scan", 15, 14)
    assert str(info.value) == "scan limited to 14 vertices; got 15"


_FOUR_GRAPH = Hypergraph(4, list("abcde"), [tuple("abcd")])

# every ranged integer argument of a public entry point (not the seeds, nor
# the colour threshold q, which have no range): a call taking it, the name
# its message starts with, its range [lo, hi] (hi None: no upper end) and a
# typical value, refused too as a float
_INTEGER_ARGUMENTS = {
    "Hypergraph-r": (lambda r: Hypergraph(r, [], []), "r", 2, None, 3),
    "factorial_family-k": (factorial_family, "k", 4, 8, 5),
    "geometric_tower-ell": (lambda ell: geometric_tower(f14(), ell), "ell", 0, None, 1),
    "locate_subcopy-lp": (lambda lp: locate_subcopy(geometric_tower(f14(), 2), lp), "lp", 0, 1, 0),
    "locate_subcopy-lp-on-G1": (
        lambda lp: locate_subcopy(geometric_tower(f14(), 1), lp), "lp", 0, 0, 0),
    "locate_subcopy-lp-on-G0": (
        lambda lp: locate_subcopy(geometric_tower(f14(), 0), lp), "lp", 0, -1, 0),
    "extract-t": (lambda t: extract(geometric_tower(f14(), 1), t), "t", 0, 5, 2),
    "ColoringInstance-n": (lambda n: ColoringInstance(n, {}), "n", 2, None, 3),
    "q_quad-p": (q_quad, "p", 4, None, 4),
    "check_coloring-p": (lambda p: check_coloring(random_coloring(6, 0), p, 3), "p", 2, 6, 4),
    "check_coloring-q": (lambda q: check_coloring(random_coloring(6, 0), 4, q), "q", 1, 6, 3),
    "packed_coloring-n": (lambda n: packed_coloring(n, 4), "n", 2, None, 6),
    "packed_coloring-p": (lambda p: packed_coloring(6, p), "p", 4, 6, 4),
    "random_coloring-n": (lambda n: random_coloring(n, 0), "n", 2, None, 6),
    "random_coloring-palette": (
        lambda palette: random_coloring(6, 0, palette=palette), "palette", 1, None, 2),
    "verify_implication-p": (
        lambda p: verify_implication(random_coloring(6, 0), p, 3), "p", 2, None, 4),
    "verify_implication-q": (
        lambda q: verify_implication(random_coloring(6, 0), 4, q), "q", 1, 6, 3),
    "project-k": (lambda k: project(_FOUR_GRAPH, k, 2), "k", 2, 3, 2),
    "project-e": (lambda e: project(_FOUR_GRAPH, 2, e), "e", 2, None, 2),
    "find_configuration-v": (lambda v: find_configuration(f14().graph, v, 5), "v", 0, None, 9),
    "find_configuration-e": (lambda e: find_configuration(f14().graph, 9, e), "e", 0, None, 5),
    "find_configuration_unpruned-v": (
        lambda v: find_configuration_unpruned(f14().graph, v, 5), "v", 0, None, 9),
    "find_configuration_unpruned-e": (
        lambda e: find_configuration_unpruned(f14().graph, 9, e), "e", 0, None, 5),
    "sample_nice-samples": (
        lambda samples: sample_nice(f14(), samples=samples, seed=1), "samples", 1, None, 10),
}


@pytest.mark.parametrize("site", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_are_refused_with_one_error(site):
    call, name, lo, hi, typical = _INTEGER_ARGUMENTS[site]
    refused = [True, float(typical), lo - 1] + ([] if hi is None else [hi + 1])
    for value in refused:
        with pytest.raises(HypergraphError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer {_span(lo, hi)}, got {value!r}"
