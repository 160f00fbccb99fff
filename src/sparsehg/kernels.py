"""Subset-check kernels: one bound checker for every check in the package.

A subset U with difference d = |U| - e(U) is checked against three bounds,
stated over the role masks X (`x_mask`), A_ell (`aell_mask`), xy
(`xy_mask`) and G (`gl_mask`):

1. d >= |U ∩ A_ell| - [xy ⊆ U];
2. d >= |U ∩ A_ell| + 1 when |U ∩ X| <= k - 2 and U leaves A_ell;
3. d >= k + ell when |U ∩ X| >= k - 1 and U meets G outside X.

These are Items 1-3 of the tower bounds. Niceness of a witness A is the
same check with X = A_ell = xy = A, G empty, k + 1 in place of k and
ell = 0: Item 1 is then Cond1, Item 2 is Cond2, and Item 3 never fires.

Every host width runs the same numpy code. A batch of subsets is a
(words, batch) uint64 array with words = max(1, ceil(n / 64)), word-major
so that each word row is contiguous; role masks are (words, 1) columns,
popcounts sum over axis 0, and each edge is tested only on the words it
touches. A host of at most 64 vertices is the one-word case.

The sampling stream is splitmix64: word w of sample i is
mix64(seed + ((index_offset + i) * words + w + 1) * GAMMA), a pure function
of (seed, index_offset + i), so partitioning a run across workers cannot
change the stream.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# uint64 words per batch: a batch holds _BATCH // words subsets
_BATCH = 1 << 15

_U64 = np.uint64
_C1 = _U64(0x5555555555555555)
_C2 = _U64(0x3333333333333333)
_C4 = _U64(0x0F0F0F0F0F0F0F0F)
_CM = _U64(0x0101010101010101)

# A violation is (position, u_mask, code, delta, bound): position orders
# violations for worker merging (the scan index for range scans, the list
# or stream index for mask lists and sampled scans); code is the violated
# bound's number.
Violation = tuple[int, int, int, int, int]
ScanResult = tuple[int, Optional[Violation]]


# The helpers below are private: span tracers (perfbench/tracing.py) wrap
# every public function here, and these run per call, batch or draw inside
# a kernel or the stratified pass of sparsehg.niceness.


def _mix_vec(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a fresh uint64 array, in place."""
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _popcount(u: np.ndarray) -> np.ndarray:
    """Bits set in each column of a (words, batch) array, as int64."""
    x = u - ((u >> _U64(1)) & _C1)
    x = (x & _C2) + ((x >> _U64(2)) & _C2)
    x += x >> _U64(4)
    x &= _C4
    x *= _CM
    x >>= _U64(56)
    return x.sum(axis=0).view(np.int64)


def _column(mask: int, words: int) -> np.ndarray:
    """`mask` as a (words, 1) uint64 column, word 0 first."""
    raw = np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")
    return raw.astype(np.uint64).reshape(words, 1)


def _scan(edge_masks, words, x_mask, aell_mask, xy_mask, gl_mask, k, ell, batches) -> ScanResult:
    """Check (position, u) batches in order, u a (words, batch) uint64
    array whose column i is the subset at position + i; stops at the first
    violation."""
    # each edge as the (word, bits) pairs it touches; an edge reaching past
    # the last word lies in no subset and never counts
    edges = []
    for m in edge_masks:
        span = (m.bit_length() + 63) // 64
        if span <= words:
            edges.append([(w, _U64(b)) for w in range(span) if (b := (m >> (64 * w)) & MASK64)])
    x, aell, xy = (_column(m, words) for m in (x_mask, aell_mask, xy_mask))
    not_aell = ~aell
    # niceness passes x == aell and no G outside x; skipping the lanes that
    # cannot differ or fire saves a popcount and a mask test per subset
    same_x = x_mask == aell_mask
    glx = _column(gl_mask & ~x_mask, words) if gl_mask & ~x_mask else None

    def first_violation(u):
        # a function of its own, so that a batch's temporaries are freed
        # before the next batch is drawn
        rows = list(u)
        d = _popcount(u)
        for (w, b), *rest in edges:
            hit = (rows[w] & b) == b
            for w, b in rest:
                hit &= (rows[w] & b) == b
            d -= hit
        au = _popcount(u & aell)
        xu = au if same_x else _popcount(u & x)
        bound1 = au - ((u & xy) == xy).all(axis=0)
        v1 = d < bound1
        v2 = (xu <= k - 2) & (u & not_aell).any(axis=0) & (d < au + 1)
        bad = v1 | v2
        if glx is not None:
            bad |= (xu >= k - 1) & (u & glx).any(axis=0) & (d < k + ell)
        bad = np.flatnonzero(bad)
        if len(bad) == 0:
            return None
        i = int(bad[0])
        code, bound = (1, bound1[i]) if v1[i] else (2, au[i] + 1) if v2[i] else (3, k + ell)
        return i, code, int(d[i]), int(bound)

    checked = 0
    for pos, u in batches:
        hit = first_violation(u)
        if hit is not None:
            i, code, delta, bound = hit
            u_mask = int.from_bytes(u[:, i].astype("<u8").tobytes(), "little")
            return (checked + i + 1, (pos + i, u_mask, code, delta, bound))
        checked += u.shape[1]
    return (checked, None)


def _runs(free_positions: Sequence[int]) -> list[tuple]:
    """(word, bit, low mask, shift) for each maximal run of consecutive
    positions within one word: scattering scan index i onto the free
    positions moves each run of bits as one block, not bit by bit."""
    runs: list[list[int]] = []
    for b, p in enumerate(free_positions):
        if runs and runs[-1][1] + runs[-1][2] == p and p % 64:
            runs[-1][2] += 1
        else:
            runs.append([b, p, 1])
    return [(p // 64, _U64(b), _U64((1 << n) - 1), _U64(p % 64)) for b, p, n in runs]


def scan_range(
    edge_masks: Sequence[int],
    free_positions: Sequence[int],
    base_mask: int,
    x_mask: int,
    aell_mask: int,
    xy_mask: int,
    gl_mask: int,
    k: int,
    ell: int,
    start: int,
    stop: int,
) -> ScanResult:
    """Exhaustive scan over U = base_mask | scatter(i, free_positions), i in [start, stop)."""
    roles = (x_mask, aell_mask, xy_mask, gl_mask)
    n = max(max(free_positions, default=-1) + 1, *(m.bit_length() for m in (base_mask, *roles)))
    words = max(1, (n + 63) // 64)
    base = _column(base_mask, words)
    runs = _runs(free_positions)
    step = max(1, _BATCH // words)

    def batches():
        for pos in range(start, stop, step):
            i_arr = np.arange(pos, min(pos + step, stop), dtype=np.uint64)
            u = np.repeat(base, len(i_arr), axis=1)
            for w, b, low, shift in runs:
                u[w] |= ((i_arr >> b) & low) << shift
            yield pos, u

    return _scan(edge_masks, words, *roles, k, ell, batches())


def check_masks(
    edge_masks, n, x_mask, aell_mask, xy_mask, gl_mask, k, ell, masks
) -> ScanResult:
    """Check an explicit list of subset masks, in order."""
    words = max(1, (n + 63) // 64)
    size, step = 8 * words, max(1, _BATCH // words)

    def batches():
        for lo in range(0, len(masks), step):
            count = min(step, len(masks) - lo)
            raw = bytearray(size * count)
            for j in range(count):
                raw[j * size : (j + 1) * size] = masks[lo + j].to_bytes(size, "little")
            u = np.frombuffer(raw, dtype="<u8").reshape(count, words).T
            yield lo, np.ascontiguousarray(u, dtype=np.uint64)

    return _scan(edge_masks, words, x_mask, aell_mask, xy_mask, gl_mask, k, ell, batches())


def sample_scan(
    edge_masks,
    n,
    yprefix_mask,
    x_mask,
    aell_mask,
    xy_mask,
    gl_mask,
    k,
    ell,
    samples,
    seed,
    index_offset: int = 0,
) -> ScanResult:
    """Seeded uniform supersets of the y-prefix: draw U, then OR the prefix in."""
    words = max(1, (n + 63) // 64)
    nmask, ypre = _column((1 << n) - 1, words), _column(yprefix_mask, words)
    word_no = np.arange(1, words + 1, dtype=np.uint64).reshape(words, 1)
    stop, step = index_offset + samples, max(1, _BATCH // words)

    def batches():
        for pos in range(index_offset, stop, step):
            idx = np.arange(pos, min(pos + step, stop), dtype=np.uint64)
            u = _mix_vec(_U64(seed & MASK64) + (idx * _U64(words) + word_no) * _U64(GAMMA))
            u &= nmask
            u |= ypre
            yield pos, u

    return _scan(edge_masks, words, x_mask, aell_mask, xy_mask, gl_mask, k, ell, batches())
