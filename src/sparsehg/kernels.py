"""Subset-check kernels: one bound checker for every check in the package.

Every check is specified by one `Bounds` record, built only by the role
readers of sparsehg.niceness. Its fields are masks over the host's vertex
order and two integers:

- `x`: X, a tower's x1..xk;
- `aell`: A_ell, which splits a subset U into U ∩ A_ell and the rest;
- `xy`: X plus the last y-role, whose presence in U relaxes Item 1;
- `g`: G, the child copy, whose vertices outside X arm Item 3;
- `k`, `ell`: the tower's k and ell;
- `base`: the vertices every scanned subset holds, a tower's y-prefix
  y0..y(ell-1); empty by default. `_scan` sets their lanes to ones in
  every batch, whichever kernel built it.

The constructor refuses X, xy or base outside A_ell, the precondition the
bounds assume; G may leave A_ell. With P = |U \\ A_ell|, E = e(U),
AU = |U ∩ A_ell| and XU = |U ∩ X|, the difference of a subset U is
d = P + AU - E, and U violates

1. d >= AU - [xy ⊆ U]           when P + [xy ⊆ U] < E;
2. d >= AU + 1                  when XU <= k - 2, P != 0 and P <= E;
3. d >= k + ell                 when XU >= k - 1, U meets G \\ X and
                                P + AU < E + k + ell.

These are Items 1-3 of the tower bounds. Niceness of a witness A is the
same check with x = aell = xy = A, g empty, k + 1 in place of k and
ell = 0: Item 1 is then Cond1, Item 2 is Cond2, and Item 3 never fires.

The checker is bit-sliced. A batch of subsets is a list of lanes, one
Python int per vertex: bit i of vertex j's lane says whether subset i of
the batch holds vertex j. The lane of an edge is the AND of its vertices'
lanes, so it says which subsets the edge lies inside. A count over the
batch is a list of bit planes, plane b holding bit b of every subset's
count; a carry-save adder tree sums lanes into planes, and each condition
above is a ripple-borrow comparison of planes, one machine word testing 64
subsets. The first violation is the lowest set bit of the OR of the three
conditions; its difference and bound are recomputed for that one subset.
A batch holds about `_LANE_BITS` lane bits (vertices times subsets)
whatever the host width, and a scan frees each batch's lanes before it
builds the next. `check_masks` takes an eighth of that budget per batch:
it peaks at 3 to 4 times one batch's lanes.

Lanes are built three ways. `scan_range` takes fixed periodic bit
patterns for the low bits of the scan index and all-ones or all-zero
lanes for the high ones. `sample_scan` draws them: a uniform random subset
is an independent fair bit per (vertex, subset), so lane j of a batch of
`count` subsets is one `getrandbits(count)` of the caller's
random.Random, drawn for j = 0 .. n - 1 in order, batch after batch.
`check_masks` lays its masks out as rows of bytes, and `_transpose` reads
the 8 lanes of each byte column as binary digits. Whichever way a batch
was built, `_scan` then sets the base's lanes to ones, so every kernel
checks supersets of the base only.

The sample stream is therefore the generator's own output, a pure
function of its seed. Its batch width, and so which call draws which
lane, follows from `_LANE_BITS`: changing that constant redefines the
stream, and a test pins the first batch's lanes for one (seed, n). The
stratified pass of sparsehg.niceness keeps drawing from the same
generator after the last batch.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from sparsehg.core import HypergraphError, Record

# lane bits per batch, vertices times subsets: about 512 KB of lanes, so a
# batch on an F_8-sized host is as small as one on f14; one batch is alive
# at a time, and 2^21 was slower (README, Memory); it sets the batch width
# and so the sample stream
_LANE_BITS = 1 << 22
# _DIGITS[t] maps each byte to b"1" if its bit t is set, else b"0": it
# reads bit t of every row of a byte column as one binary digit
_DIGITS = tuple(bytes(b"01"[b >> t & 1] for b in range(256)) for t in range(8))

# A violation is (u_mask, code, delta, bound); code is the violated bound's
# number.
Violation = tuple[int, int, int, int]
ScanResult = tuple[int, Optional[Violation]]


class Bounds(Record):
    """The specification of one bound check; see the module docstring."""

    x: int
    aell: int
    xy: int
    g: int
    k: int
    ell: int
    base: int = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in ("x", "xy", "base"):
            outside = (getattr(self, name) & ~self.aell).bit_count()
            if outside:
                raise HypergraphError(
                    f"bounds need {name} inside A_ell, but it has {outside} outside; "
                    "a tower's x and y roles must all lie in A_ell"
                )


# The helpers below are private: span tracers (perfbench/tracing.py) wrap
# every public function here, and these run per call, batch or draw inside
# a kernel or the stratified pass of sparsehg.niceness.


def _width(n: int) -> int:
    """Subsets per batch on a host of n vertices: a multiple of 64."""
    return max(64, _LANE_BITS // max(n, 1) // 64 * 64)


def _positions(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _count(lanes: Iterable[int]) -> list[int]:
    """Bit planes of the lane-wise count of set bits over `lanes`, low plane
    first. A carry-save adder tree: weight w keeps a running sum plane and
    at most one pending plane, and a third plane of that weight turns the
    three into a new sum and a carry to weight w + 1. All-zero lanes and
    carries add nothing and are skipped."""
    acc: list[int] = []
    pend: list[int] = []
    for x in lanes:
        w = 0
        while x:
            if w == len(acc):
                acc.append(x)
                pend.append(0)
                break
            p = pend[w]
            if not p:
                pend[w] = x
                break
            a = acc[w]
            t = a ^ p
            acc[w], pend[w] = t ^ x, 0
            x = (a & p) | (t & x)
            w += 1
    planes, carry = [], 0
    for a, p in zip(acc, pend):
        t = a ^ p
        planes.append(t ^ carry)
        carry = (a & p) | (t & carry)
    if carry:
        planes.append(carry)
    return planes


def _planes(value: int, ones: int) -> list[int]:
    """The constant `value` >= 0 in every lane of `ones`."""
    return [ones if value >> b & 1 else 0 for b in range(value.bit_length())]


def _add(a: list[int], b: list[int]) -> list[int]:
    """Planes of the lane-wise sum a + b, by ripple carry."""
    out, carry = [], 0
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        t = x ^ y
        out.append(t ^ carry)
        carry = (x & y) | (t & carry)
    if carry:
        out.append(carry)
    return out


def _less(a: list[int], b: list[int], borrow: int, ones: int) -> int:
    """Lanes where a < b + borrow, `borrow` being one bit per lane: the borrow
    out of a - b - borrow. Each step's borrow is the majority of ~x, y and
    the incoming borrow."""
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        borrow = y ^ ((x ^ y ^ ones) & (y ^ borrow))
    return borrow


def _scan(edge_masks, n, bounds: Bounds, batches) -> ScanResult:
    """Check batches in order, each (lanes, width): n lanes of `width`
    subsets, whose base lanes are set to ones first; stops at the first
    violation."""
    # read once per scan: the closures below run per batch and per subset
    x_mask, aell_mask, xy_mask, gl_mask = bounds.x, bounds.aell, bounds.xy, bounds.g
    k, ell = bounds.k, bounds.ell
    edges = list(map(_positions, edge_masks))
    aell = _positions(aell_mask)
    in_aell = set(aell)
    outside = [j for j in range(n) if j not in in_aell]
    xs = _positions(x_mask)
    xy = _positions(xy_mask)
    glx = _positions(gl_mask & ~x_mask)
    base = _positions(bounds.base)

    def first_violation(lanes, ones):
        # a function of its own, so that a batch's temporaries are freed
        # before the next batch is built
        lane = lanes.__getitem__
        e = _count(reduce(and_, map(lane, edge)) for edge in edges)
        p = _count(map(lane, outside))
        au = _count(map(lane, aell))
        xu = au if x_mask == aell_mask else _count(map(lane, xs))
        holds_xy = reduce(and_, map(lane, xy), ones)
        bad = _less(_add(p, [holds_xy]), e, 0, ones)
        few_x = _less(xu, _planes(k - 1, ones), 0, ones) if k > 1 else 0
        if few_x:
            bad |= few_x & reduce(or_, p, 0) & _less(p, e, ones, ones)
        if glx:
            meets = reduce(or_, map(lane, glx))
            s = _add(p, au)
            r = _add(e, _planes(k + ell, ones))
            bad |= (few_x ^ ones) & meets & _less(s, r, 0, ones)
        return (bad & -bad).bit_length() - 1

    def violation(i, lanes):
        # subset i of the batch, rechecked one bound at a time
        u = sum(1 << j for j in range(n) if lanes[j] >> i & 1)
        au, xu = (u & aell_mask).bit_count(), (u & x_mask).bit_count()
        delta = u.bit_count() - sum(1 for m in edge_masks if m & u == m)
        bound1 = au - (u & xy_mask == xy_mask)
        if delta < bound1:
            return u, 1, delta, bound1
        if xu <= k - 2 and u & ~aell_mask and delta <= au:
            return u, 2, delta, au + 1
        if xu >= k - 1 and u & gl_mask & ~x_mask and delta < k + ell:
            return u, 3, delta, k + ell
        raise RuntimeError(f"bit-sliced check flagged subset {u:#x}, which meets every bound")

    checked = 0
    for lanes, width in batches:
        ones = (1 << width) - 1
        for j in base:
            lanes[j] = ones
        i = first_violation(lanes, ones)
        if i >= 0:
            return (checked + i + 1, violation(i, lanes))
        checked += width
        del lanes  # so the next batch is built with this one freed
    return (checked, None)


def scan_range(
    edge_masks: Sequence[int], free_positions: Sequence[int], bounds: Bounds
) -> ScanResult:
    """Exhaustive scan over U = bounds.base | scatter(i, free_positions), i in
    [0, 2^len(free_positions))."""
    free = list(free_positions)
    # x, xy and base lie inside aell; a vertex no scanned subset holds keeps
    # a zero lane, so an edge through it lies in no subset
    n = max(max(free, default=-1) + 1, *map(int.bit_length, (bounds.aell, bounds.g, *edge_masks)))
    # scan index bits below `low` vary inside a batch, the rest between
    # batches; batch subset i has index bit t set in runs of 2^t lanes
    low = min(len(free), _width(n).bit_length() - 1)
    width = 1 << low
    ones = (1 << width) - 1
    lanes = [0] * n
    for t, j in enumerate(free[:low]):
        run = 1 << t
        pattern, period = ((1 << run) - 1) << run, 2 * run
        while period < width:
            pattern |= pattern << period
            period *= 2
        lanes[j] = pattern

    def batches():
        for pos in range(0, 1 << len(free), width):
            for t, j in enumerate(free[low:], low):
                lanes[j] = ones if pos >> t & 1 else 0
            yield lanes, width

    return _scan(edge_masks, n, bounds, batches())


def check_masks(edge_masks, n, bounds: Bounds, masks) -> ScanResult:
    """Check an explicit list of subset masks over n vertices, in order, each
    with `bounds.base` ORed in. A batch takes an eighth of the lane budget;
    `_transpose` peaks at about 2.5 times the lanes it returns."""
    width = _width(8 * n)
    chunks = (masks[lo : lo + width] for lo in range(0, len(masks), width))
    return _scan(edge_masks, n, bounds, ((_transpose(batch, n), len(batch)) for batch in chunks))


def sample_scan(edge_masks, n, bounds: Bounds, samples, rng) -> ScanResult:
    """`samples` uniform random supersets of `bounds.base`, drawn from `rng`,
    a random.Random: lane j of each batch of `count` subsets is
    rng.getrandbits(count), drawn for every vertex in order; `_scan` then
    sets the base's lanes to ones."""
    width = _width(n)

    def batches():
        for pos in range(0, samples, width):
            count = min(width, samples - pos)
            lanes = list(map(rng.getrandbits, itertools.repeat(count, n)))
            yield lanes, count
            del lanes  # as in _scan: freed before the next batch is drawn

    return _scan(edge_masks, n, bounds, batches())


def _transpose(masks: Sequence[int], n: int) -> list[int]:
    """Lanes of the first n vertices over `masks`, read from byte columns.
    The masks, cut to n bits, are rows of `size` little-endian bytes after
    one zero row, the last mask first: byte column b, the slice
    rows[b::size], translated by `_DIGITS[t]` is lane 8b + t as binary
    digits, most significant first. The zero row gives an empty batch zero
    lanes, and a power-of-two base is exempt from CPython's int/str digit
    limit."""
    size, full = (n + 7) // 8, (1 << n) - 1
    rows = bytearray(size)
    for m in reversed(masks):
        rows += (m & full).to_bytes(size, "little")
    lanes = []
    for b in range(size):
        column = rows[b::size]
        lanes.extend(int(column.translate(digits), 2) for digits in _DIGITS[: n - 8 * b])
    return lanes
