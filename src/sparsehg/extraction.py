"""Pulling exact-size sub-configurations out of a tower.

Given the level chain of a tower build and a target t, `extract` returns
a subgraph with exactly t times the base edge count whose difference
stays at most k + ell. The recursion mirrors the tower's construction,
whose layout sparsehg.families describes: descend into the first child
copy while t fits inside one level, else take the attached base copy plus
d full child copies and recurse on the remainder inside a located deeper
copy, found by composing the k-th child copy maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from sparsehg.core import DifferenceReport, Hypergraph, HypergraphError, subgraph_from_edges
from sparsehg.families import LabeledConfiguration, _level_ratio, _tower_shape


@dataclass(frozen=True)
class ExtractionResult:
    subgraph: Hypergraph
    trace: tuple
    verified: DifferenceReport


def _chain_context(chain: LabeledConfiguration):
    k, ell = _tower_shape(chain)
    if not chain.levels or len(chain.levels) != ell + 1:
        raise HypergraphError(
            "missing subcopy index: configuration lacks its level chain "
            "(rebuild with geometric_tower)"
        )
    return chain.levels, k, ell


def _compose_to_level(levels, k: int, lp: int, m: int) -> dict[str, str]:
    """Embed level lp's labels into level m's label space via k-th copies."""
    emb = {v: v for v in levels[lp].graph.vertices}
    for mm in range(lp + 1, m + 1):
        step = levels[mm].subcopies[f"G_{mm - 1}^{k}"]
        emb = {src: step[mid] for src, mid in emb.items()}
    return emb


def locate_subcopy(chain: LabeledConfiguration, lp: int) -> dict[str, str]:
    """Vertex embedding of the level-lp configuration inside the top level.

    The image keeps x1..x(k-1) and y0..y(lp) on the top-level spine; the
    diverted branch runs through the k-th child copy at every level.
    """
    levels, k, ell = _chain_context(chain)
    if not isinstance(lp, int) or lp < 0 or lp >= ell:
        raise HypergraphError(f"level {lp!r} out of range [0, {ell})")
    emb = _compose_to_level(levels, k, lp, ell)
    src = levels[lp]
    for i in range(1, k):
        if emb[src.role(f"x{i}")[0]] != chain.role(f"x{i}")[0]:
            raise HypergraphError(f"located copy moved spine vertex x{i}")
    for j in range(0, lp + 1):
        if emb[src.role(f"y{j}")[0]] != chain.role(f"y{j}")[0]:
            raise HypergraphError(f"located copy moved spine vertex y{j}")
    return emb


def _map_piece(vmap, verts, edges):
    return (
        {vmap[v] for v in verts},
        {tuple(sorted((vmap[a], vmap[b], vmap[c]))) for (a, b, c) in edges},
    )


def _extract_rec(levels, k: int, m: int, t: int, trace: list):
    record = {
        "level": m,
        "t": t,
        "branch": None,
        "d": None,
        "t_residual": None,
        "descent_level": None,
    }
    trace.append(record)
    g = levels[m]
    if t == 0:
        record["branch"] = "empty"
        return set(), set()
    if m == 0:
        record["branch"] = "base"
        return set(g.graph.vertices), set(g.graph.edges)
    ratio_prev = _level_ratio(k, m - 1)
    if t <= ratio_prev:
        record["branch"] = "descend"
        sv, se = _extract_rec(levels, k, m - 1, t, trace)
        return _map_piece(g.subcopies[f"G_{m - 1}^1"], sv, se)
    record["branch"] = "claim"
    d = (t - 1) // ratio_prev
    t_res = t - d * ratio_prev - 1
    record["d"] = d
    record["t_residual"] = t_res
    verts: set[str] = set()
    edges: set[tuple[str, ...]] = set()
    pieces = [(f"G^{m}", levels[0])] + [
        (f"G_{m - 1}^{i}", levels[m - 1]) for i in range(1, d + 1)
    ]
    for name, template in pieces:
        pv, pe = _map_piece(
            g.subcopies[name], template.graph.vertices, template.graph.edges
        )
        verts |= pv
        edges |= pe
    if t_res > 0:
        lp = 0
        while _level_ratio(k, lp) < t_res:
            lp += 1
        record["descent_level"] = lp
        sv, se = _extract_rec(levels, k, lp, t_res, trace)
        emb = _compose_to_level(levels, k, lp, m)
        pv, pe = _map_piece(emb, sv, se)
        verts |= pv
        edges |= pe
    return verts, edges


def extract(chain: LabeledConfiguration, t: int) -> ExtractionResult:
    """Subgraph of the top level with exactly t * e(base) edges.

    t may run from 0 to the full edge ratio. The returned trace records
    one entry per recursion step; the difference report is recomputed on
    the host graph, never inferred from the recursion.
    """
    levels, k, ell = _chain_context(chain)
    e_base = levels[0].graph.edge_count
    max_t = _level_ratio(k, ell)
    if not isinstance(t, int) or t < 0 or t > max_t:
        raise HypergraphError(f"t must be an integer in [0, {max_t}], got {t!r}")
    trace: list = []
    verts, edges = _extract_rec(levels, k, ell, t, trace)
    if len(edges) != t * e_base:
        raise HypergraphError(
            f"extraction produced {len(edges)} edges, expected {t * e_base}"
        )
    if ell >= 1 and t > _level_ratio(k, ell - 1):
        missing = [v for v in chain.role("A_ell") if v not in verts]
        if missing:
            raise HypergraphError(
                f"extraction dropped anchor vertices {missing} on the full branch"
            )
    sub = subgraph_from_edges(chain.graph, verts, edges)
    verified = chain.graph.difference(chain.graph.subset(sub.vertices))
    return ExtractionResult(subgraph=sub, trace=tuple(trace), verified=verified)
