"""Degeneracy extraction: every edge-count target on the tower range must
come out exact, with the density bound holding and the vertex anchors in
place on the upper range."""

from __future__ import annotations

import pytest

from sparsehg import jsonio
from sparsehg.core import HypergraphError
from sparsehg.extraction import extract, locate_subcopy
from sparsehg.families import f14, geometric_tower, single_edge

import oracles


def _ratio(k, m):
    return (k ** (m + 1) - 1) // (k - 1)


@pytest.mark.parametrize("ell", [1, 2])
def test_full_sweep_f14_base(ell):
    chain = geometric_tower(f14(), ell)
    e_base = 10
    top = chain.graph.edge_count // e_base
    aell = set(chain.role("A_ell"))
    for t in range(top + 1):
        result = extract(chain, t)
        sub = result.subgraph
        assert sub.edge_count == e_base * t
        # recompute the density bound from scratch, no library arithmetic
        d = oracles.difference(chain.graph.edges, sub.vertices)
        assert d == result.verified.delta
        assert sub.vertex_count - sub.edge_count <= 4 + ell
        if t > _ratio(4, ell - 1):
            assert aell <= set(sub.vertices)


def test_extremes_are_whole_and_empty():
    chain = geometric_tower(f14(), 1)
    assert extract(chain, 0).subgraph.edge_count == 0
    full = extract(chain, 5).subgraph
    assert full.edge_count == chain.graph.edge_count
    assert set(full.vertices) == set(chain.graph.vertices)


def test_subgraph_is_induced_closed():
    # chosen edges must be exactly the edges induced by the chosen vertices
    chain = geometric_tower(f14(), 2)
    for t in (1, 4, 5, 6, 13, 20, 21):
        sub = extract(chain, t).subgraph
        mask = chain.graph.mask_of(sub.vertices)
        assert chain.graph.induced_edge_count(mask) == sub.edge_count


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_full_sweep_edge_base(ell):
    chain = geometric_tower(single_edge(), ell, allow_edge_base=True)
    top = chain.graph.edge_count
    for t in range(top + 1):
        sub = extract(chain, t).subgraph
        assert sub.edge_count == t
        assert sub.vertex_count - sub.edge_count <= 2 + ell


def test_out_of_range_rejected():
    chain = geometric_tower(f14(), 1)
    with pytest.raises(HypergraphError):
        extract(chain, -1)
    with pytest.raises(HypergraphError):
        extract(chain, 6)


def test_requires_tower_configuration():
    with pytest.raises(HypergraphError):
        extract(f14(), 1)


def test_tower_read_back_from_json_has_no_level_chain():
    chain = jsonio.config_from_obj(jsonio.config_to_obj(geometric_tower(f14(), 1)))
    with pytest.raises(HypergraphError, match="lacks its level chain"):
        extract(chain, 1)


def test_chain_missing_a_child_copy_is_rejected():
    chain = geometric_tower(f14(), 2)
    del chain.subcopies["G_1^4"]
    with pytest.raises(HypergraphError, match=r"missing subcopy 'G_1\^4'"):
        extract(chain, 13)


def test_trace_descent_shape():
    chain = geometric_tower(f14(), 2)
    result = extract(chain, 13)
    assert result.trace[0]["level"] == 2
    assert result.trace[0]["branch"] == "claim"
    assert result.trace[0]["d"] == 2
    assert result.trace[0]["t_residual"] == 2
    assert result.trace[-1]["t_residual"] == 0


def test_trace_descend_branch():
    chain = geometric_tower(f14(), 2)
    result = extract(chain, 3)  # 3 <= ratio_1 = 5, so descend into a child
    assert result.trace[0]["branch"] == "descend"
    assert result.trace[0]["level"] == 2
    assert result.trace[1]["level"] == 1


def test_trace_base_and_empty_branches():
    chain = geometric_tower(f14(), 1)
    assert extract(chain, 0).trace[0]["branch"] == "empty"
    deep = extract(chain, 1)
    assert deep.trace[-1]["branch"] == "base"


def test_locate_subcopy_anchors_fixed():
    chain = geometric_tower(f14(), 3)
    for lp in range(3):
        level = chain.levels[lp]
        vmap = locate_subcopy(chain, lp)
        assert set(vmap) == set(level.graph.vertices)
        # images of x_1..x_(k-1) and the y prefix are the host's own spine
        for j in range(1, 4):
            assert vmap[level.role(f"x{j}")[0]] == chain.role(f"x{j}")[0]
        for j in range(lp + 1):
            assert vmap[level.role(f"y{j}")[0]] == chain.role(f"y{j}")[0]


def test_locate_subcopy_range():
    chain = geometric_tower(f14(), 2)
    with pytest.raises(HypergraphError):
        locate_subcopy(chain, 2)
    with pytest.raises(HypergraphError):
        locate_subcopy(chain, -1)


def test_extraction_deterministic():
    chain = geometric_tower(f14(), 2)
    a = extract(chain, 7)
    b = extract(chain, 7)
    assert a.subgraph == b.subgraph and a.trace == b.trace


def test_claim_range_pieces_cover_gl_copy():
    # above the child ratio the top-level base copy is always included
    chain = geometric_tower(f14(), 2)
    gl_image = set(chain.subcopies["G^2"].values())
    for t in (6, 10, 21):
        sub = extract(chain, t).subgraph
        assert gl_image <= set(sub.vertices)
