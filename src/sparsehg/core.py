"""Immutable r-uniform hypergraphs with difference arithmetic.

The vertex order of a hypergraph is the insertion order of its construction,
not lexicographic: bit i of every subset mask refers to ``vertices[i]``, and
recursive builders rely on anchor vertices keeping their positions across
rebuilds. Edges carry two representations: sorted label tuples (the
interchange form) and bitmasks over the vertex order (the computation form).
Masks are plain Python integers, so hosts with more than 64 vertices work
unchanged; the subset kernels check them as bit-sliced lanes, one Python int
per vertex with one bit per subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class HypergraphError(ValueError):
    """Malformed construction or mismatched operands."""


@dataclass(frozen=True)
class DifferenceReport:
    """Difference bookkeeping for one vertex subset: delta = |U| - e(U)."""

    subset_size: int
    induced_edges: int
    delta: int


class Hypergraph:
    """An immutable r-uniform hypergraph over distinct string labels.

    Construction validates everything up front: arity, label existence,
    duplicate vertices, duplicate edges. Duplicate edges are an error here;
    `union` merges them silently because gluing constructions legitimately
    overlap.
    """

    __slots__ = ("r", "vertices", "edges", "_index", "_edge_masks")

    def __init__(self, r: int, vertices: Iterable[str], edges: Iterable[Iterable[str]]):
        if not isinstance(r, int) or r < 2:
            raise HypergraphError(f"uniformity must be an integer >= 2, got {r!r}")
        verts = tuple(vertices)
        index: dict[str, int] = {}
        for label in verts:
            if not isinstance(label, str):
                raise HypergraphError(f"vertex labels must be strings, got {label!r}")
            if label in index:
                raise HypergraphError(f"duplicate vertex label {label!r}")
            index[label] = len(index)

        canon: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()
        masks: list[int] = []
        for raw in edges:
            members = set(raw)
            if len(members) != r:
                raise HypergraphError(
                    f"edge {sorted(members)!r} has {len(members)} distinct members, expected {r}"
                )
            for label in members:
                if label not in index:
                    raise HypergraphError(f"edge uses unknown label {label!r}")
            edge = tuple(sorted(members))
            if edge in seen:
                raise HypergraphError(f"duplicate edge {edge!r}")
            seen.add(edge)
            canon.append(edge)

        canon.sort()
        for edge in canon:
            mask = 0
            for label in edge:
                mask |= 1 << index[label]
            masks.append(mask)

        self.r = r
        self.vertices = verts
        self.edges = tuple(canon)
        self._index = index
        self._edge_masks = tuple(masks)

    # -- basic counts ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def delta(self) -> int:
        """The difference of the whole graph: v - e."""
        return len(self.vertices) - len(self.edges)

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return self._edge_masks

    def full_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    # -- subsets -----------------------------------------------------------

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise HypergraphError(f"unknown vertex label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def subset(self, labels: Iterable[str]) -> "VertexSubset":
        return VertexSubset(self, self.mask_of(labels))

    def subset_from_mask(self, mask: int) -> "VertexSubset":
        return VertexSubset(self, mask)

    def full_subset(self) -> "VertexSubset":
        return VertexSubset(self, self.full_mask())

    def labels_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.vertices) if (mask >> i) & 1)

    # -- difference arithmetic ---------------------------------------------

    def induced_edge_count(self, mask: int) -> int:
        return sum(1 for m in self._edge_masks if m & mask == m)

    def difference(self, subset: "VertexSubset") -> DifferenceReport:
        """delta(U) = |U| - e(U) for a subset of this graph's vertices."""
        if subset.host is not self and subset.host != self:
            raise HypergraphError("subset belongs to a different hypergraph")
        size = subset.mask.bit_count()
        induced = self.induced_edge_count(subset.mask)
        return DifferenceReport(subset_size=size, induced_edges=induced, delta=size - induced)

    def is_independent(self, subset: "VertexSubset | Iterable[str]") -> bool:
        """True iff no edge lies entirely inside the given vertex set.

        An edge meeting the set in fewer than r vertices does not count;
        only full containment breaks independence.
        """
        if isinstance(subset, VertexSubset):
            if subset.host is not self and subset.host != self:
                raise HypergraphError("subset belongs to a different hypergraph")
            mask = subset.mask
        else:
            mask = self.mask_of(subset)
        return all(m & mask != m for m in self._edge_masks)

    # -- combination --------------------------------------------------------

    def union(self, other: "Hypergraph") -> "Hypergraph":
        """Union by shared labels; duplicate edges merge silently here."""
        if self.r != other.r:
            raise HypergraphError(f"uniformity mismatch: {self.r} vs {other.r}")
        verts = list(self.vertices)
        known = set(verts)
        for label in other.vertices:
            if label not in known:
                verts.append(label)
                known.add(label)
        merged = sorted(set(self.edges) | set(other.edges))
        return Hypergraph(self.r, verts, merged)

    def edge_disjoint(self, other: "Hypergraph") -> bool:
        if self.r != other.r:
            raise HypergraphError(f"uniformity mismatch: {self.r} vs {other.r}")
        return not (set(self.edges) & set(other.edges))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.r == other.r
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.r, self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, v={len(self.vertices)}, e={len(self.edges)})"


class VertexSubset:
    """A subset of a host hypergraph's vertices, stored as a bitmask.

    Bit i corresponds to ``host.vertices[i]``. The mask is a Python int, so
    any host size is representable; masks must not address bits beyond the
    host's vertex count.
    """

    __slots__ = ("host", "mask")

    def __init__(self, host: Hypergraph, mask: int):
        if mask < 0 or mask >> len(host.vertices):
            raise HypergraphError(
                f"mask {mask:#x} out of range for host with {len(host.vertices)} vertices"
            )
        self.host = host
        self.mask = mask

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def labels(self) -> tuple[str, ...]:
        return self.host.labels_of_mask(self.mask)

    def __contains__(self, label: str) -> bool:
        return bool((self.mask >> self.host.index_of(label)) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSubset):
            return NotImplemented
        return self.host == other.host and self.mask == other.mask

    def __hash__(self) -> int:
        # by value, as __eq__ compares hosts: equal subsets of equal hosts hash equal
        return hash((self.host, self.mask))

    def __repr__(self) -> str:
        return f"VertexSubset({self.labels()!r})"


def subgraph_from_edges(
    host: Hypergraph,
    vertex_labels: Iterable[str],
    edges: Iterable[Sequence[str]],
) -> Hypergraph:
    """Build a sub-hypergraph with vertices kept in host order.

    `vertex_labels` may come in any order; the result orders them as the host
    does so that serializations of extracted subgraphs are deterministic.
    """
    wanted = set(vertex_labels)
    ordered = [v for v in host.vertices if v in wanted]
    missing = wanted - set(ordered)
    if missing:
        raise HypergraphError(f"labels not in host: {sorted(missing)!r}")
    return Hypergraph(host.r, ordered, edges)
