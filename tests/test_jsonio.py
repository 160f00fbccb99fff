import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg import jsonio
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import (
    LabeledConfiguration,
    f14,
    factorial_family,
    geometric_tower,
    linear_three_cycle,
)
from sparsehg.projection import project
from sparsehg.ramsey import packed_coloring, random_coloring

import oracles


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=99_999))
def test_graph_roundtrip(seed):
    vertices, edges = oracles.random_3graph(seed)
    g = Hypergraph(3, vertices, edges)
    wire = json.loads(json.dumps(jsonio.graph_to_obj(g)))
    back = jsonio.graph_from_obj(wire)
    assert back == g
    assert back.vertices == g.vertices


@pytest.mark.parametrize(
    "builder",
    [linear_three_cycle, f14, lambda: factorial_family(5), lambda: geometric_tower(f14(), 1)],
)
def test_config_roundtrip(builder):
    cfg = builder()
    wire = json.loads(json.dumps(jsonio.config_to_obj(cfg)))
    back = jsonio.config_from_obj(wire)
    assert back.graph == cfg.graph
    assert back.roles == cfg.roles
    assert back.family == cfg.family
    assert back.subcopies == cfg.subcopies
    assert back.levels is None  # derived data never crosses the wire


def test_load_any_dispatches_on_roles():
    g = f14().graph
    assert isinstance(jsonio.load_any(jsonio.graph_to_obj(g)), Hypergraph)
    assert isinstance(jsonio.load_any(jsonio.config_to_obj(f14())), LabeledConfiguration)


def test_graph_obj_validation():
    with pytest.raises(HypergraphError, match="missing key"):
        jsonio.graph_from_obj({"r": 3, "vertices": ["a"]})
    with pytest.raises(HypergraphError, match="list of strings"):
        jsonio.graph_from_obj({"r": 3, "vertices": [1, 2, 3], "edges": []})
    with pytest.raises(HypergraphError, match="must be int"):
        jsonio.graph_from_obj({"r": "3", "vertices": [], "edges": []})
    with pytest.raises(HypergraphError, match="distinct members"):
        jsonio.graph_from_obj({"r": 3, "vertices": ["a", "b"], "edges": [["a", "a", "b"]]})


def test_config_obj_validation():
    base = jsonio.graph_to_obj(f14().graph)
    with pytest.raises(HypergraphError, match="unknown vertex"):
        jsonio.config_from_obj({**base, "roles": {"A": ["ghost"]}})
    with pytest.raises(HypergraphError, match="targets unknown vertex"):
        jsonio.config_from_obj(
            {**base, "roles": {}, "subcopies": {"V_1": {"v1": "ghost"}}}
        )
    with pytest.raises(HypergraphError, match="'family'"):
        jsonio.config_from_obj({**base, "roles": {}, "family": "cycle"})


def test_coloring_roundtrip():
    for c in (packed_coloring(8, 8), random_coloring(10, 3)):
        wire = json.loads(json.dumps(jsonio.coloring_to_obj(c)))
        assert jsonio.coloring_from_obj(wire) == c


def test_coloring_validation():
    with pytest.raises(HypergraphError, match="missing"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"1,2": 0, "1,3": 0}})
    with pytest.raises(HypergraphError, match="bad pair key"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"1-2": 0}})
    with pytest.raises(HypergraphError, match="out of range"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"2,1": 0}})
    with pytest.raises(HypergraphError, match="integer"):
        jsonio.coloring_from_obj({"n": 2, "colors": {"1,2": "red"}})


def test_missing_pairs_are_counted_not_listed():
    # a tiny file naming a large n must not allocate every missing pair
    tracemalloc.start()
    try:
        with pytest.raises(HypergraphError, match=r"1999000 pairs missing, first \(1, 2\)"):
            jsonio.coloring_from_obj({"n": 2000, "colors": {}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_projection_roundtrip_both_cases():
    heavy_src = Hypergraph(
        4,
        [f"u{i}" for i in range(6)],
        [("u0", "u1", "u2", "u3"), ("u0", "u1", "u2", "u4")],
    )
    proj_src = Hypergraph(
        4,
        [f"u{i}" for i in range(9)],
        [("u0", "u1", "u2", "u3"), ("u3", "u4", "u5", "u6"), ("u0", "u4", "u7", "u8")],
    )
    for g, e in ((heavy_src, 2), (proj_src, 3)):
        result = project(g, 2, e)
        wire = json.loads(json.dumps(jsonio.projection_to_obj(result)))
        assert jsonio.projection_from_obj(wire) == result


def test_projection_unknown_case_rejected():
    with pytest.raises(HypergraphError, match="unknown case"):
        jsonio.projection_from_obj(
            {"r": 4, "k": 2, "e": 3, "anchors": [], "case": "Nope"}
        )


def test_canonical_json_is_sorted_and_newline_terminated():
    text = jsonio.canonical_json({"b": 1, "a": [3, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_strip_timings_recursive():
    obj = {"timings": 1, "keep": {"timings": [2], "x": 3}, "list": [{"timings": 4}]}
    assert jsonio.strip_timings(obj) == {"keep": {"x": 3}, "list": [{}]}


def test_report_digest_ignores_timings_only():
    a = {"x": 1, "timings": {"wall": 0.5}}
    b = {"timings": {"wall": 99.0}, "x": 1}
    c = {"x": 2, "timings": {"wall": 0.5}}
    assert jsonio.report_digest(a) == jsonio.report_digest(b)
    assert jsonio.report_digest(a) != jsonio.report_digest(c)


def test_file_helpers(tmp_path):
    path = tmp_path / "g.json"
    jsonio.write_json(path, jsonio.graph_to_obj(f14().graph))
    assert jsonio.graph_from_obj(jsonio.read_json(path)) == f14().graph
    d1 = jsonio.file_digest(path)
    jsonio.write_json(path, jsonio.graph_to_obj(f14().graph))
    assert jsonio.file_digest(path) == d1


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(HypergraphError, match="not valid JSON"):
        jsonio.read_json(path)
