import ast
import hashlib
import pathlib
import tracemalloc

import pytest

import sparsehg
from sparsehg import jsonio
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import (
    LabeledConfiguration,
    f14,
    factorial_family,
    geometric_tower,
    linear_three_cycle,
    single_edge,
)
from sparsehg.search import verify_embedding

import oracles


def test_cycle_shape():
    cfg = linear_three_cycle()
    g = cfg.graph
    assert (g.vertex_count, g.edge_count, g.delta) == (6, 3, 3)
    assert cfg.witness == ("v1", "v2", "v3", "v4")
    assert g.edges == (("v1", "v2", "v5"), ("v1", "v3", "v6"), ("v4", "v5", "v6"))
    # consecutive edges pairwise share exactly one vertex
    e = [set(x) for x in g.edges]
    assert len(e[0] & e[1]) == len(e[0] & e[2]) == len(e[1] & e[2]) == 1


def test_f14_shape():
    cfg = f14()
    g = cfg.graph
    assert (g.vertex_count, g.edge_count, g.delta) == (14, 10, 4)
    assert cfg.witness == ("w4", "wp1", "wp2", "wp3", "wp4")
    assert g.is_independent(cfg.witness)
    assert cfg.family == {"name": "f14"}


def test_f14_subcopies_are_cycle_embeddings():
    cfg = f14()
    cycle = linear_three_cycle().graph
    assert sorted(cfg.subcopies) == ["V_1", "V_2", "V_3", "V_4"]
    for name, vmap in cfg.subcopies.items():
        assert verify_embedding(cfg.graph, cycle, vmap)
        # copy i swaps exactly witness vertex w_i for its primed twin
        i = name[-1]
        assert vmap[f"v{i}"] == f"wp{i}"


def test_f14_subcopy_images_induce_exactly_the_cycle():
    cfg = f14()
    g = cfg.graph
    for vmap in cfg.subcopies.values():
        mask = g.mask_of(vmap.values())
        assert g.induced_edge_count(mask) == 3


def test_single_edge():
    cfg = single_edge()
    assert cfg.graph.edges == ((("x1", "x2", "y0")),)
    assert cfg.graph.delta == 2
    assert cfg.witness == ("x1", "x2", "y0")


@pytest.mark.parametrize(
    "k,e",
    [(4, 10), (5, 50), (6, 300), (7, 2100)],
)
def test_factorial_counts(k, e):
    cfg = factorial_family(k)
    g = cfg.graph
    assert g.edge_count == e
    assert g.vertex_count == e + k
    assert g.delta == k
    wit = cfg.witness
    assert len(wit) == k + 1
    assert g.is_independent(wit)


def test_factorial_build_holds_no_edge_masks():
    # F_8 has 16,800 edges on 16,808 vertices: n-bit edge masks alone would
    # take about 18 MB, and no build reads them
    tracemalloc.start()
    try:
        cfg = factorial_family(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.graph.edge_count == 16_800
    assert peak < 12 << 20


def test_factorial_k4_is_f14():
    assert factorial_family(4).graph == f14().graph
    assert factorial_family(4).family == {"name": "f14"}


def test_factorial_k5_family_tag_and_subcopies():
    cfg = factorial_family(5)
    assert cfg.family == {"name": "f-k", "k": 5}
    assert sorted(cfg.subcopies) == [f"F_{i}" for i in range(1, 6)]
    f4 = factorial_family(4).graph
    for vmap in cfg.subcopies.values():
        assert verify_embedding(cfg.graph, f4, vmap)


def test_factorial_copies_intersect_in_spine():
    cfg = factorial_family(5)
    spine = {f"x{j}" for j in range(1, 6)}
    images = {
        name: {vmap[u] for u in vmap} for name, vmap in cfg.subcopies.items()
    }
    for a in images:
        for b in images:
            if a < b:
                ia, ib = int(a[-1]), int(b[-1])
                expected = spine - {f"x{ia}", f"x{ib}"}
                assert images[a] & images[b] == expected


def test_factorial_guards():
    for bad in (3, 9, 0, -1):
        with pytest.raises(HypergraphError):
            factorial_family(bad)


def test_factorial_is_deterministic():
    a = factorial_family(5)
    b = factorial_family(5)
    assert a.graph == b.graph and a.roles == b.roles and a.subcopies == b.subcopies


@pytest.mark.parametrize("ell,e", [(0, 10), (1, 50), (2, 210), (3, 850)])
def test_tower_counts(ell, e):
    cfg = geometric_tower(f14(), ell)
    g = cfg.graph
    assert g.edge_count == e
    assert g.delta == 4 + ell
    assert g.vertex_count == e + 4 + ell
    aell = cfg.role("A_ell")
    assert len(aell) == 4 + ell + 1
    assert g.is_independent(aell)


def test_tower_levels_chain():
    cfg = geometric_tower(f14(), 2)
    assert cfg.levels is not None and len(cfg.levels) == 3
    assert cfg.levels[-1] is cfg
    for m, lvl in enumerate(cfg.levels):
        assert lvl.graph.delta == 4 + m


def test_tower_level_zero_identity_subcopy():
    cfg = geometric_tower(f14(), 0)
    assert set(cfg.subcopies) == {"G^0"}
    vmap = cfg.subcopies["G^0"]
    assert all(src == dst for src, dst in vmap.items())


def test_tower_subcopy_names_and_embeddings():
    cfg = geometric_tower(f14(), 1)
    assert sorted(cfg.subcopies) == ["G^1"] + [f"G_0^{i}" for i in range(1, 5)]
    g0 = geometric_tower(f14(), 0).graph
    for name, vmap in cfg.subcopies.items():
        assert verify_embedding(cfg.graph, g0, vmap)


def test_tower_spine_roles():
    cfg = geometric_tower(f14(), 2)
    for j in range(1, 5):
        assert len(cfg.role(f"x{j}")) == 1
    for j in range(3):
        assert len(cfg.role(f"y{j}")) == 1
    assert cfg.role("A_ell") == tuple(
        cfg.role(f"x{j}")[0] for j in range(1, 5)
    ) + tuple(cfg.role(f"y{j}")[0] for j in range(3))


def test_tower_edge_base():
    cfg = geometric_tower(single_edge(), 2, allow_edge_base=True)
    g = cfg.graph
    assert (g.vertex_count, g.edge_count, g.delta) == (11, 7, 4)


def test_tower_edge_base_level_one_shape():
    cfg = geometric_tower(single_edge(), 1, allow_edge_base=True)
    g = cfg.graph
    assert g.vertex_count == 6 and g.edge_count == 3
    labels = set(g.vertices)
    assert {"x1", "x2", "y0", "y1"} <= labels


def test_tower_rejects_edge_base_without_flag():
    with pytest.raises(HypergraphError):
        geometric_tower(single_edge(), 1)


def test_tower_guards():
    with pytest.raises(HypergraphError):
        geometric_tower(f14(), -1)
    with pytest.raises(HypergraphError):
        geometric_tower(f14(), 5)  # 13,650 edges blow the 10,000-vertex cap
    geometric_tower(single_edge(), 8, allow_edge_base=True)


def test_tower_base_guards():
    # difference 4 - 3 = 1, below the two x roles a tower needs
    thin = LabeledConfiguration(
        Hypergraph(3, "abcd", [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")]),
        roles={"A": ("a", "b")},
        family={"name": "thin"},
    )
    with pytest.raises(HypergraphError, match="difference at least 2, got 1"):
        geometric_tower(thin, 1)
    short = f14()
    short.roles["A"] = short.roles["A"][:4]
    with pytest.raises(HypergraphError, match="expected 5 vertices, got 4"):
        geometric_tower(short, 1)


def test_tower_is_deterministic():
    a = geometric_tower(f14(), 2)
    b = geometric_tower(f14(), 2)
    assert a.graph == b.graph and a.roles == b.roles and a.subcopies == b.subcopies


def test_factorial_witness_layout():
    # A' = (xp1..xpk, x1) per the recursion
    cfg = factorial_family(5)
    wit = cfg.witness
    assert wit == ("xp1", "xp2", "xp3", "xp4", "xp5", "x1")


def test_oracle_difference_on_f14_witness():
    cfg = f14()
    assert oracles.is_independent(cfg.graph.edges, cfg.witness)


# sha256 of each build's canonical JSON: vertex order fixes every subset
# bit, sampled mask and counterexample, so a build must not move a byte
_BUILD_DIGESTS = {
    ("f-k", 4): "e66d32154f46b8869a25c90ab2b19a1e8d20dfc6e257ff57e2ec2f385af7cf85",
    ("f-k", 5): "1ed84734021f6d2647b411bfd285095ef65fd8287f1c73ef6b92101e1e0bf3f6",
    ("f-k", 6): "8538c6993a448905fd491fcabcf90ef22f02191cbe2630c2d968700c45914919",
    ("f-k", 7): "1913e0d8d3948feba8e3a3b193c8ac10b67a28871dafe19cfe2747f9e9de0f57",
    ("f-k", 8): "be61a3401794aef340d85f2f481c3fcb37a16615a4b47b274bb187c6820a04d0",
    ("g-ell f14", 0): "b1991f2aae62073f88f3f90139d9d4d1c1ba1d451a439dab2523b46e6de4d130",
    ("g-ell f14", 1): "fa793c0a1663d4050393fc41c56eb1b0a70d4eaf59cdd494087a6f613fd5c58c",
    ("g-ell f14", 2): "4d38e80a03c3b895a254a91bf1929b3ec9d2b54a3970ab22ecc6b25ba4b2d164",
    ("g-ell f14", 3): "679b1b175732761131c26981001b1f622e6523ffbe3629cf55eb726d72184258",
    ("g-ell f14", 4): "45927ede70cea8506d44de98492dc9fe81e51b3680a1975416815657eeb056e7",
    ("g-ell edge", 0): "30c46aaa72a330f5c6fc6a321e2ef713ad7887371ebbab236e789cb48d8511ab",
    ("g-ell edge", 3): "e41610140a95b2e9b3fb59ee2e0e83b64fee16c461f224a65cd29344748a8eff",
    ("g-ell edge", 6): "2d6d9e163ae57bed4094897b69b82c8ed25c42308af595c2328e7702d453ae6f",
}


@pytest.mark.parametrize("family,n", sorted(_BUILD_DIGESTS))
def test_build_bytes_are_pinned(family, n):
    if family == "f-k":
        cfg = factorial_family(n)
    elif family == "g-ell f14":
        cfg = geometric_tower(f14(), n)
    else:
        cfg = geometric_tower(single_edge(), n, allow_edge_base=True)
    text = jsonio.canonical_json(jsonio.config_to_obj(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == _BUILD_DIGESTS[(family, n)]


def test_tower_size_guard_stops_before_the_huge_power():
    # 4^(10^8 + 1) is never formed: the guard stops at the first level over the cap
    with pytest.raises(HypergraphError, match="more than 10000 vertices"):
        geometric_tower(f14(), 10**8)


def _layout_reads(path):
    """Where the module at `path` reads .roles or .subcopies or calls .role()."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("roles", "subcopies"):
            reads.append(f"{path.name}:{node.lineno} .{node.attr}")
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "role":
            reads.append(f"{path.name}:{node.lineno} .role()")
    return reads


def test_only_families_and_jsonio_read_roles_and_subcopies():
    # other modules take role labels and copy maps from the families readers
    package = pathlib.Path(sparsehg.__file__).parent
    owners = {"families.py", "jsonio.py"}
    assert _layout_reads(package / "families.py")  # the scan sees a read
    reads = [
        read
        for path in sorted(package.glob("*.py"))
        if path.name not in owners
        for read in _layout_reads(path)
    ]
    assert reads == []
