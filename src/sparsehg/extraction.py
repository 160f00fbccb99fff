"""Pulling exact-size sub-configurations out of a tower.

Given the level chain of a tower build and a target t, `extract` returns
a subgraph with exactly t times the base edge count whose difference
stays at most k + ell. The recursion mirrors the tower's construction,
whose layout only sparsehg.families reads: descend into the first child
copy while t fits inside one level, else take the attached base copy plus
d full child copies and recurse on the remainder inside a located deeper
copy, found by composing the k-th child copy maps.
"""

from __future__ import annotations

from sparsehg.core import (DifferenceReport, Hypergraph, HypergraphError, Record, _integer,
                           subgraph_from_edges)
from sparsehg.families import LabeledConfiguration, _level_ratio, _tower_shape


class ExtractionResult(Record):
    subgraph: Hypergraph
    trace: tuple
    verified: DifferenceReport


def _chain_context(chain: LabeledConfiguration):
    """Each level's graph and copy maps (layout order), level 0 first; k, ell, a_ell."""
    k, ell, _, _, a_ell, _ = _tower_shape(chain)
    if not chain.levels or len(chain.levels) != ell + 1:
        raise HypergraphError(
            "missing subcopy index: configuration lacks its level chain "
            "(rebuild with geometric_tower)"
        )
    copies = [_tower_shape(level)[-1] for level in chain.levels]
    return [level.graph for level in chain.levels], copies, k, ell, a_ell


def _compose_to_level(graphs, copies, k: int, lp: int, m: int) -> dict[str, str]:
    """Embed level lp's labels into level m's label space via k-th copies."""
    emb = {v: v for v in graphs[lp].vertices}
    for mm in range(lp + 1, m + 1):
        step = copies[mm][k]
        emb = {src: step[mid] for src, mid in emb.items()}
    return emb


def locate_subcopy(chain: LabeledConfiguration, lp: int) -> dict[str, str]:
    """Vertex embedding of the level-lp configuration inside the top level.

    The image keeps x1..x(k-1) and y0..y(lp) on the top-level spine; the
    diverted branch runs through the k-th child copy at every level.
    """
    graphs, copies, k, ell, _ = _chain_context(chain)
    _integer("lp", lp, 0, ell - 1)
    emb = _compose_to_level(graphs, copies, k, lp, ell)
    _, _, xs, ys, _, _ = _tower_shape(chain.levels[lp])
    _, _, top_xs, top_ys, _, _ = _tower_shape(chain)
    if [emb[v] for v in xs[:-1] + ys] != top_xs[:-1] + top_ys[: lp + 1]:
        raise HypergraphError("located copy moved a spine vertex")
    return emb


def _map_piece(vmap, verts, edges):
    return (
        {vmap[v] for v in verts},
        {tuple(sorted((vmap[a], vmap[b], vmap[c]))) for (a, b, c) in edges},
    )


def _extract_rec(graphs, copies, k: int, m: int, t: int, trace: list):
    record = {
        "level": m,
        "t": t,
        "branch": None,
        "d": None,
        "t_residual": None,
        "descent_level": None,
    }
    trace.append(record)
    if t == 0:
        record["branch"] = "empty"
        return set(), set()
    if m == 0:
        record["branch"] = "base"
        return set(graphs[0].vertices), set(graphs[0].edges)
    ratio_prev = _level_ratio(k, m - 1)
    if t <= ratio_prev:
        record["branch"] = "descend"
        sv, se = _extract_rec(graphs, copies, k, m - 1, t, trace)
        return _map_piece(copies[m][1], sv, se)
    record["branch"] = "claim"
    d = (t - 1) // ratio_prev
    t_res = t - d * ratio_prev - 1
    record["d"] = d
    record["t_residual"] = t_res
    verts: set[str] = set()
    edges: set[tuple[str, ...]] = set()
    # the base copy, then child copies 1..d
    for vmap, template in zip(copies[m], [graphs[0]] + [graphs[m - 1]] * d):
        pv, pe = _map_piece(vmap, template.vertices, template.edges)
        verts |= pv
        edges |= pe
    if t_res > 0:
        lp = 0
        while _level_ratio(k, lp) < t_res:
            lp += 1
        record["descent_level"] = lp
        sv, se = _extract_rec(graphs, copies, k, lp, t_res, trace)
        emb = _compose_to_level(graphs, copies, k, lp, m)
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
    graphs, copies, k, ell, a_ell = _chain_context(chain)
    e_base = graphs[0].edge_count
    max_t = _level_ratio(k, ell)
    _integer("t", t, 0, max_t)
    trace: list = []
    verts, edges = _extract_rec(graphs, copies, k, ell, t, trace)
    if len(edges) != t * e_base:
        raise HypergraphError(
            f"extraction produced {len(edges)} edges, expected {t * e_base}"
        )
    if ell >= 1 and t > _level_ratio(k, ell - 1):
        missing = [v for v in a_ell if v not in verts]
        if missing:
            raise HypergraphError(
                f"extraction dropped anchor vertices {missing} on the full branch"
            )
    sub = subgraph_from_edges(chain.graph, verts, edges)
    verified = chain.graph.difference(sub.vertices)
    return ExtractionResult(subgraph=sub, trace=tuple(trace), verified=verified)
