"""Construction of the recursive sparse configuration families.

Each builder returns a LabeledConfiguration: a 3-uniform hypergraph plus
role markers (witness sets, spine vertices) and a subcopy index mapping
each immediate child copy's name to its vertex-label embedding. Builds
are deterministic: equal arguments give identical canonical forms.

Both recursive families glue copies of a template onto a shared spine
(`_glue`), and this module is the one place that knows their layout:

- F_k (k >= 5) has spine x1..xk, xp1..xpk and k copies of F_(k-1) named
  F_1..F_k; copy i sends the j-th witness vertex of F_(k-1) to xj, except
  the i-th, which goes to xpi. The witness is A = (xp1..xpk, x1).
- Tower level G^m over a base with witness x1..xk, y0 has spine x1..xk,
  y0..ym, xp1..xpk, k copies of G^(m-1) named G_(m-1)^1..G_(m-1)^k (copy i
  fixes y0..y(m-1) and the x roles, except xi, which goes to xpi) and one
  base copy named G^m attached at x1..xk and ym. Level 0 is the base with
  the split recorded as roles x1..xk, y0 and subcopy G^0 the identity.
  Every level carries the roles x1..xk, y0..ym and A_ell = (x1..xk, y0..ym).
  Level m has 1 + k + ... + k^m (`_level_ratio`) times the base's edges.

Past the builders and jsonio, roles, subcopies and the family name are
read only by `LabeledConfiguration.witness` (role A), `_one_vertex_roles`,
`_tower_shape` (x/y roles, A_ell and copy maps of a tower level) and
`_cycle_shape` (v1..v6); a missing role or copy, or a one-vertex role
naming none or several, raises HypergraphError.

A copy's other vertices are labelled "c{i}.<template label>" in the i-th
child copy and "c0.<template label>" in the tower's base copy, so copy
images stay recoverable from labels alone. Vertices are ordered spine
first, then each copy's new labels in copy order and template order.
"""

from __future__ import annotations

from typing import Optional

from sparsehg.core import Hypergraph, HypergraphError, _integer


class LabeledConfiguration:
    """A hypergraph with named vertex roles and a child-copy index.

    `levels` is populated only on tower builds: item m is the level-m
    configuration, the last item being this one. It is derived data and
    never serialized or compared. Configurations are mutable, so they
    compare by value but do not hash.
    """

    def __init__(
        self,
        graph: Hypergraph,
        roles: dict[str, tuple[str, ...]],
        family: dict,
        subcopies: Optional[dict[str, dict[str, str]]] = None,
        levels: Optional[tuple] = None,
    ):
        self.graph = graph
        self.roles = roles
        self.family = family
        self.subcopies = {} if subcopies is None else subcopies
        self.levels = levels

    def _values(self) -> tuple:
        return (self.graph, self.roles, self.family, self.subcopies)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(graph={self.graph!r}, roles={self.roles!r}, "
            f"family={self.family!r}, subcopies={self.subcopies!r})"
        )

    def role(self, name: str) -> tuple[str, ...]:
        if name not in self.roles:
            raise HypergraphError(f"configuration has no role {name!r}")
        return self.roles[name]

    @property
    def witness(self) -> tuple[str, ...]:
        return self.role("A")


_F14_VERTICES = (
    "w1", "w2", "w3", "w4", "wp1", "wp2", "wp3", "wp4",
    "x5", "x6", "y5", "y6", "z5", "z6",
)

_F14_EDGES = (
    ("w1", "w2", "x5"), ("x5", "wp4", "x6"), ("x6", "w3", "w1"),
    ("x5", "w4", "y6"), ("y6", "wp3", "w1"), ("w1", "wp2", "y5"),
    ("y5", "w4", "x6"), ("wp1", "w2", "z5"), ("z5", "w4", "z6"),
    ("z6", "w3", "wp1"),
)

# The four 6-vertex sets that induce linear 3-cycles, as embeddings of the
# cycle template: copy i swaps the witness vertex w_i for its primed twin.
_F14_CYCLE_COPIES = {
    "V_1": {"v1": "wp1", "v2": "w2", "v3": "w3", "v4": "w4", "v5": "z5", "v6": "z6"},
    "V_2": {"v1": "w1", "v2": "wp2", "v3": "w3", "v4": "w4", "v5": "y5", "v6": "x6"},
    "V_3": {"v1": "w1", "v2": "w2", "v3": "wp3", "v4": "w4", "v5": "x5", "v6": "y6"},
    "V_4": {"v1": "w1", "v2": "w2", "v3": "w3", "v4": "wp4", "v5": "x5", "v6": "x6"},
}


def linear_three_cycle() -> LabeledConfiguration:
    """Six vertices, three edges pairwise sharing one vertex; not nice."""
    verts = tuple(f"v{i}" for i in range(1, 7))
    edges = (("v1", "v2", "v5"), ("v4", "v5", "v6"), ("v1", "v3", "v6"))
    roles = {v: (v,) for v in verts}
    roles["A"] = ("v1", "v2", "v3", "v4")
    return LabeledConfiguration(
        graph=Hypergraph(3, verts, edges),
        roles=roles,
        family={"name": "cycle"},
    )


def f14() -> LabeledConfiguration:
    """The 14-vertex, 10-edge nice configuration with witness of size 5."""
    return LabeledConfiguration(
        graph=Hypergraph(3, _F14_VERTICES, _F14_EDGES),
        roles={"A": ("w4", "wp1", "wp2", "wp3", "wp4")},
        family={"name": "f14"},
        subcopies=dict(_F14_CYCLE_COPIES),
    )


def single_edge() -> LabeledConfiguration:
    """One edge on three vertices; tower base with a non-independent anchor."""
    verts = ("x1", "x2", "y0")
    roles = {v: (v,) for v in verts}
    roles["A"] = verts
    return LabeledConfiguration(
        graph=Hypergraph(3, verts, (verts,)),
        roles=roles,
        family={"name": "edge"},
    )


def _factorial_edge_count(k: int) -> int:
    out = 10
    for m in range(5, k + 1):
        out *= m
    return out


def factorial_family(k: int) -> LabeledConfiguration:
    """Level-k member of the doubling witness recursion; F_4 is f14.

    F_k glues k copies of F_(k-1) onto its spine (layout: module docstring).
    """
    _integer("k", k, 4, 8)
    cfg = f14()
    for m in range(5, k + 1):
        cfg = _next_factorial(cfg, m)
    return cfg


def _glue(
    spine: list[str], copies: list[tuple], expected_e: int, expected_v: int, what: str
) -> tuple[Hypergraph, dict[str, dict[str, str]]]:
    """Glue copies onto `spine`: the graph and its subcopy index.

    Each copy is (subcopy name, template, fixed, prefix): `fixed` sends
    template vertices to spine labels and every other vertex v becomes
    "<prefix>.v". The build must come out with the expected counts.
    """
    verts = list(spine)
    seen = set(verts)
    edges: list[tuple[str, ...]] = []
    subcopies: dict[str, dict[str, str]] = {}
    for name, template, fixed, prefix in copies:
        vmap = dict(fixed)
        for v in template.vertices:
            w = vmap.setdefault(v, f"{prefix}.{v}")
            if w not in seen:
                seen.add(w)
                verts.append(w)
        subcopies[name] = vmap
        edges.extend(tuple(vmap[u] for u in e) for e in template.edges)
    graph = Hypergraph(3, verts, edges)
    if graph.edge_count != expected_e or graph.vertex_count != expected_v:
        raise HypergraphError(
            f"{what} came out wrong: v={graph.vertex_count}, e={graph.edge_count}"
        )
    return graph, subcopies


def _next_factorial(prev: LabeledConfiguration, m: int) -> LabeledConfiguration:
    a_prev = prev.witness
    if len(a_prev) != m:
        raise HypergraphError(
            f"witness of the level-{m - 1} graph must have {m} vertices"
        )
    spine = [f"x{j}" for j in range(1, m + 1)] + [f"xp{j}" for j in range(1, m + 1)]
    copies = [
        (
            f"F_{i}",
            prev.graph,
            {av: f"xp{i}" if j == i else f"x{j}" for j, av in enumerate(a_prev, start=1)},
            f"c{i}",
        )
        for i in range(1, m + 1)
    ]
    expected_e = _factorial_edge_count(m)
    graph, subcopies = _glue(spine, copies, expected_e, expected_e + m, f"level-{m} build")
    roles = {v: (v,) for v in spine}
    roles["A"] = tuple(f"xp{j}" for j in range(1, m + 1)) + ("x1",)
    if not graph.is_independent(roles["A"]):
        raise HypergraphError(f"level-{m} witness is not independent")
    return LabeledConfiguration(
        graph=graph, roles=roles, family={"name": "f-k", "k": m}, subcopies=subcopies
    )


_TOWER_VERTEX_LIMIT = 10_000


def geometric_tower(
    base: LabeledConfiguration,
    ell: int,
    allow_edge_base: bool = False,
) -> LabeledConfiguration:
    """Level-ell tower over `base`, whose witness A splits as x1..xk and y0,
    its last vertex.

    Level m glues k copies of level m-1 and one base copy onto its spine
    (layout: module docstring). The returned value's `levels` tuple holds
    every level, index 0 up to ell.

    `allow_edge_base` admits the single-edge base (anchor set of size 3, not
    independent).
    """
    _integer("ell", ell, 0)
    a = base.witness
    k = base.graph.delta
    if k < 2:
        raise HypergraphError(f"base must have difference at least 2, got {k}")
    if len(a) != k + 1:
        raise HypergraphError(
            f"malformed witness: expected {k + 1} vertices, got {len(a)}"
        )
    if not allow_edge_base and not base.graph.is_independent(a):
        raise HypergraphError("base witness is not independent")
    y0 = a[-1]
    x_split = tuple(v for v in a if v != y0)

    # stop at the first level over the limit: the count grows like k^m
    for m in range(ell + 1):
        if _level_ratio(k, m) * base.graph.edge_count + k + m > _TOWER_VERTEX_LIMIT:
            raise HypergraphError(
                f"size guard exceeded: level {ell} would have more than "
                f"{_TOWER_VERTEX_LIMIT} vertices"
            )

    roles0 = dict(base.roles)
    for j, xv in enumerate(x_split, start=1):
        roles0[f"x{j}"] = (xv,)
    roles0["y0"] = (y0,)
    roles0["A_ell"] = x_split + (y0,)
    g0 = LabeledConfiguration(
        graph=base.graph,
        roles=roles0,
        family={"name": "g-ell", "ell": 0, "base": dict(base.family)},
        subcopies={"G^0": {v: v for v in base.graph.vertices}},
    )
    levels = [g0]
    g0.levels = (g0,)
    for m in range(1, ell + 1):
        nxt = _next_tower_level(levels[m - 1], base, x_split, y0, k, m)
        nxt.levels = tuple(levels) + (nxt,)
        levels.append(nxt)
    return levels[ell]


def _next_tower_level(
    prev: LabeledConfiguration,
    base: LabeledConfiguration,
    x_split: tuple[str, ...],
    y0_label: str,
    k: int,
    m: int,
) -> LabeledConfiguration:
    xs = [f"x{j}" for j in range(1, k + 1)]
    ys = [f"y{j}" for j in range(0, m + 1)]
    spine = xs + ys + [f"xp{j}" for j in range(1, k + 1)]
    prev_spine = _one_vertex_roles(prev, xs + ys[:-1], "tower")
    copies = [
        (
            f"G_{m - 1}^{i}",
            prev.graph,
            dict(zip(prev_spine, xs[: i - 1] + [f"xp{i}"] + xs[i:] + ys[:-1])),
            f"c{i}",
        )
        for i in range(1, k + 1)
    ]
    copies.append((f"G^{m}", base.graph, dict(zip(x_split, xs)) | {y0_label: ys[-1]}, "c0"))
    expected_e = _level_ratio(k, m) * base.graph.edge_count
    graph, subcopies = _glue(spine, copies, expected_e, expected_e + k + m, f"tower level {m}")
    roles = {v: (v,) for v in spine}
    roles["A_ell"] = tuple(xs + ys)
    return LabeledConfiguration(
        graph=graph,
        roles=roles,
        family={"name": "g-ell", "ell": m, "base": dict(base.family)},
        subcopies=subcopies,
    )


def _level_ratio(k: int, m: int) -> int:
    """Edge count of tower level m divided by the base edge count."""
    return (k ** (m + 1) - 1) // (k - 1)


def _one_vertex_roles(config: LabeledConfiguration, names: list[str], kind: str) -> list[str]:
    """The one label each role in `names` names; a role that is missing or
    names any other number of vertices raises HypergraphError."""
    for name in names:
        if len(config.roles.get(name, ())) != 1:
            raise HypergraphError(f"{kind} role {name!r} must name exactly one vertex")
    return [config.roles[name][0] for name in names]


def _tower_shape(config: LabeledConfiguration) -> tuple:
    """(k, ell, xs, ys, a_ell, copies) of a tower level: the labels of its
    one-vertex roles x1..xk and y0..y(ell) and of A_ell, and its copy maps
    in layout order, copies[0] the base copy G^ell and copies[i] the child
    copy G_(ell-1)^i (none at level 0). k + ell must be the difference."""
    if not isinstance(config, LabeledConfiguration) or config.family.get("name") != "g-ell":
        raise HypergraphError("expected a tower configuration (family 'g-ell')")
    k = 0
    while f"x{k + 1}" in config.roles:
        k += 1
    ell = -1
    while f"y{ell + 1}" in config.roles:
        ell += 1
    if k < 2 or ell < 0:
        raise HypergraphError("tower configuration is missing x/y roles")
    xs = _one_vertex_roles(config, [f"x{j}" for j in range(1, k + 1)], "tower")
    ys = _one_vertex_roles(config, [f"y{j}" for j in range(ell + 1)], "tower")
    if "A_ell" not in config.roles:
        raise HypergraphError("tower configuration is missing role 'A_ell'")
    if k + ell != config.graph.delta:
        raise HypergraphError(
            f"role split (k={k}, ell={ell}) disagrees with difference {config.graph.delta}"
        )
    names = [f"G^{ell}"] + [f"G_{ell - 1}^{i}" for i in range(1, k + 1) if ell]
    for name in names:
        if name not in config.subcopies:
            raise HypergraphError(f"tower configuration is missing subcopy {name!r}")
    return k, ell, xs, ys, config.roles["A_ell"], [config.subcopies[n] for n in names]


def _cycle_shape(config: LabeledConfiguration) -> list[str]:
    """The labels of the 3-cycle's one-vertex roles v1..v6."""
    if not isinstance(config, LabeledConfiguration) or config.family.get("name") != "cycle":
        raise HypergraphError("expected the linear 3-cycle configuration")
    return _one_vertex_roles(config, [f"v{i}" for i in range(1, 7)], "cycle")
