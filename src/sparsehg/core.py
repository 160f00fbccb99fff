"""Immutable r-uniform hypergraphs with difference arithmetic.

The vertex order of a hypergraph is the insertion order of its construction,
not lexicographic: bit i of every subset mask refers to ``vertices[i]``, and
recursive builders rely on anchor vertices keeping their positions across
rebuilds. Edges carry two representations: sorted label tuples (the
interchange form) and bitmasks over the vertex order (the computation form).
The masks are built on first use of `edge_masks` and kept: each is an n-bit
int, so a host's masks take O(n * m) bits, and construction, the family
builders and JSON I/O never read them. Vertex subsets take the same two
forms: callers name them by labels; `difference` turns the labels into a
mask, and `is_independent` tests them edge by edge. Masks are plain Python
integers, so hosts with more than 64 vertices work unchanged; the subset
kernels check them as bit-sliced lanes, one Python int per vertex with one
bit per subset.

Every entry point checks its arguments with the two rules here, each with one
message form: `_integer` (an int, not a bool, in range) and `_at_most` (a size guard).
"""

from __future__ import annotations

import _signal  # builtin and loaded at start-up, unlike signal.py
import contextlib
from typing import Iterable, Optional, Sequence


class HypergraphError(ValueError):
    """Malformed input: a bad construction, an unknown label or an out-of-range argument."""


def _integer(name: str, value, lo: int, hi: Optional[int] = None) -> None:
    """HypergraphError unless `value` is an int, not a bool, in [lo, hi] (hi None: no bound)."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise HypergraphError(f"{name} must be an integer {span}, got {value!r}")


def _at_most(what: str, count: int, limit: int) -> None:
    """HypergraphError when a vertex `count` is over a size guard's `limit`."""
    if count > limit:
        raise HypergraphError(f"{what} limited to {limit} vertices; got {count}")


class Record:
    """Base of the package's frozen result types.

    A subclass lists its fields as annotations, in positional order, and a
    field's default as a class attribute of that name. An instance takes
    its fields positionally or by name; it equals another of the same class
    with equal fields, and its hash and repr are those of a frozen dataclass
    with these fields. Assigning or deleting an attribute raises
    AttributeError. Nothing is generated or exec'd when a subclass is made.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)} arguments")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values[name] = value
        state = self.__dict__
        for name in fields:
            if name in values:
                state[name] = values[name]
            elif hasattr(cls, name):
                state[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DifferenceReport(Record):
    """Difference bookkeeping for one vertex subset: delta = |U| - e(U)."""

    subset_size: int
    induced_edges: int
    delta: int


class Hypergraph:
    """An immutable r-uniform hypergraph over distinct string labels.

    Construction validates everything up front: arity, label existence,
    duplicate vertices, duplicate edges.
    """

    __slots__ = ("r", "vertices", "edges", "_index", "_edge_masks")

    def __init__(self, r: int, vertices: Iterable[str], edges: Iterable[Iterable[str]]):
        _integer("r", r, 2)
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
        for raw in edges:
            given = tuple(raw)
            members = set(given)
            if len(members) != r:
                raise HypergraphError(
                    f"edge {sorted(members)!r} has {len(members)} distinct members, expected {r}"
                )
            # in the given order, so the error names the same label on every run
            for label in given:
                if label not in index:
                    raise HypergraphError(f"edge uses unknown label {label!r}")
            edge = tuple(sorted(members))
            if edge in seen:
                raise HypergraphError(f"duplicate edge {edge!r}")
            seen.add(edge)
            canon.append(edge)

        canon.sort()
        self.r = r
        self.vertices = verts
        self.edges = tuple(canon)
        self._index = index
        self._edge_masks = None

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
        """One bitmask per edge, in edge order; built on first use."""
        if self._edge_masks is None:
            self._edge_masks = tuple(map(self.mask_of, self.edges))
        return self._edge_masks

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

    def labels_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.vertices) if (mask >> i) & 1)

    # -- difference arithmetic ---------------------------------------------

    def induced_edge_count(self, mask: int) -> int:
        return sum(1 for m in self.edge_masks if m & mask == m)

    def difference(self, labels: Iterable[str]) -> DifferenceReport:
        """delta(U) = |U| - e(U) for the set U of the given vertex labels.

        A repeated label counts once; an unknown one raises HypergraphError.
        """
        mask = self.mask_of(labels)
        size = mask.bit_count()
        induced = self.induced_edge_count(mask)
        return DifferenceReport(subset_size=size, induced_edges=induced, delta=size - induced)

    def is_independent(self, labels: Iterable[str]) -> bool:
        """True iff no edge lies entirely inside the set of the given labels.

        An edge meeting the set in fewer than r vertices does not count;
        only full containment breaks independence. Labels are tested edge by
        edge, so no edge mask is built.
        """
        chosen = set()
        for label in labels:
            self.index_of(label)
            chosen.add(label)
        return not any(chosen.issuperset(edge) for edge in self.edges)

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


@contextlib.contextmanager
def _sigterm_exits():
    """Within the block, SIGTERM at its default action raises SystemExit(143)
    in the main thread, so `finally` and `except` clauses clean up before
    the process ends; the default action comes back after the block."""

    def _exit_on_sigterm(signum, frame) -> None:
        _signal.signal(signum, _signal.SIG_IGN)  # a second one must not cut the clean-up short
        raise SystemExit(128 + signum)

    trapped = _signal.getsignal(_signal.SIGTERM) == _signal.SIG_DFL
    if trapped:
        try:
            _signal.signal(_signal.SIGTERM, _exit_on_sigterm)
        except ValueError:  # not the main thread
            trapped = False
    try:
        yield
    finally:
        if trapped:
            _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
