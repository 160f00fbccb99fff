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

Hosts with at most 64 vertices run vectorized over numpy uint64 batches;
wider hosts fall back to plain Python integers, which are arbitrary-width
masks already. Both paths return identical results.

The sampling stream is splitmix64: sample i is a pure function of
(seed, index_offset + i), so partitioning a run across workers cannot
change the stream.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

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


# The helpers below are private: they run once per subset or per draw, and
# span tracers (perfbench/tracing.py) wrap every public function here.


def _mix64(x: int) -> int:
    """Scalar splitmix64 finalizer over Python ints."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def _mix_vec(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _popcount_vec(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> _U64(1)) & _C1)
    x = (x & _C2) + ((x >> _U64(2)) & _C2)
    x = (x + (x >> _U64(4))) & _C4
    return (x * _CM) >> _U64(56)


def _induced_count(edge_masks: Sequence[int], mask: int) -> int:
    return sum(1 for m in edge_masks if m & mask == m)


def _check_one(edge_masks, x_mask, aell_mask, xy_mask, gl_mask, k, ell, u):
    """Check one subset; returns (code, delta, bound) or None."""
    d = u.bit_count() - _induced_count(edge_masks, u)
    aell = (u & aell_mask).bit_count()
    x = (u & x_mask).bit_count()
    bound = aell - (1 if (u & xy_mask) == xy_mask else 0)
    if d < bound:
        return (1, d, bound)
    if x <= k - 2 and (u & ~aell_mask) != 0 and d < aell + 1:
        return (2, d, aell + 1)
    if x >= k - 1 and (u & gl_mask & ~x_mask) != 0 and d < k + ell:
        return (3, d, k + ell)
    return None


def _check_batch(edge_u64, x, aell, xy, gl, k, ell, u):
    """Vectorized check; returns (index of the first violation or -1, code, delta, bound)."""
    eu = np.zeros(len(u), dtype=np.uint64)
    for m in edge_u64:
        eu += (u & m) == m
    d = _popcount_vec(u).astype(np.int64) - eu.astype(np.int64)
    au = _popcount_vec(u & aell).astype(np.int64)
    # niceness passes x == aell and no G outside x; skipping the lanes that
    # cannot differ or fire saves a popcount and a mask test per subset
    xu = au if x == aell else _popcount_vec(u & x).astype(np.int64)
    bound1 = au - ((u & xy) == xy)
    v1 = d < bound1
    v2 = (xu <= k - 2) & ((u & ~aell) != 0) & (d < au + 1)
    bad = v1 | v2
    if gl & ~x:
        bad |= (xu >= k - 1) & ((u & gl & ~x) != 0) & (d < k + ell)
    bad = np.flatnonzero(bad)
    if len(bad) == 0:
        return -1, 0, 0, 0
    i = int(bad[0])
    if v1[i]:
        return i, 1, int(d[i]), int(bound1[i])
    if v2[i]:
        return i, 2, int(d[i]), int(au[i]) + 1
    return i, 3, int(d[i]), k + ell


def _runs(free_positions: Sequence[int]) -> list[list[int]]:
    """[bit, position, length] for each maximal run of consecutive positions.

    Scattering scan index i onto the free positions moves each run of bits
    as one block, so an identity scatter costs one shift, not one per bit.
    """
    runs: list[list[int]] = []
    for b, p in enumerate(free_positions):
        if runs and runs[-1][1] + runs[-1][2] == p:
            runs[-1][2] += 1
        else:
            runs.append([b, p, 1])
    return runs


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
    n_eff = max((max(free_positions) + 1 if free_positions else 0), base_mask.bit_length())
    runs = _runs(free_positions)
    if n_eff <= 64:
        edge_u64 = np.array(edge_masks, dtype=np.uint64)
        args = (_U64(x_mask), _U64(aell_mask), _U64(xy_mask), _U64(gl_mask))
        pos = start
        while pos < stop:
            hi = min(pos + _BATCH, stop)
            i_arr = np.arange(pos, hi, dtype=np.uint64)
            u = np.full(len(i_arr), base_mask, dtype=np.uint64)
            for b, p, length in runs:
                u |= ((i_arr >> _U64(b)) & _U64((1 << length) - 1)) << _U64(p)
            i, code, d, bound = _check_batch(edge_u64, *args, k, ell, u)
            if i >= 0:
                return (pos + i - start + 1, (pos + i, int(u[i]), code, d, bound))
            pos = hi
        return (stop - start, None)
    for i in range(start, stop):
        u = base_mask
        for b, p, length in runs:
            u |= ((i >> b) & ((1 << length) - 1)) << p
        hit = _check_one(edge_masks, x_mask, aell_mask, xy_mask, gl_mask, k, ell, u)
        if hit is not None:
            return (i - start + 1, (i, u, *hit))
    return (stop - start, None)


def check_masks(
    edge_masks, n, x_mask, aell_mask, xy_mask, gl_mask, k, ell, masks
) -> ScanResult:
    """Check an explicit list of subset masks, in order."""
    if n <= 64:
        if len(masks) == 0:
            return (0, None)
        edge_u64 = np.array(edge_masks, dtype=np.uint64)
        u = np.array(masks, dtype=np.uint64)
        i, code, d, bound = _check_batch(
            edge_u64, _U64(x_mask), _U64(aell_mask), _U64(xy_mask), _U64(gl_mask), k, ell, u
        )
        if i >= 0:
            return (i + 1, (i, int(masks[i]), code, d, bound))
        return (len(masks), None)
    for i, u in enumerate(masks):
        hit = _check_one(edge_masks, x_mask, aell_mask, xy_mask, gl_mask, k, ell, u)
        if hit is not None:
            return (i + 1, (i, u, *hit))
    return (len(masks), None)


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
    if n <= 64:
        edge_u64 = np.array(edge_masks, dtype=np.uint64)
        args = (_U64(x_mask), _U64(aell_mask), _U64(xy_mask), _U64(gl_mask))
        nmask = _U64((1 << n) - 1)
        ypre = _U64(yprefix_mask)
        seed_u = _U64(seed & MASK64)
        gamma = _U64(GAMMA)
        done = 0
        while done < samples:
            cnt = min(_BATCH, samples - done)
            idx = np.arange(index_offset + done + 1, index_offset + done + cnt + 1, dtype=np.uint64)
            u = (_mix_vec(seed_u + idx * gamma) & nmask) | ypre
            i, code, d, bound = _check_batch(edge_u64, *args, k, ell, u)
            if i >= 0:
                pos = index_offset + done + i
                return (done + i + 1, (pos, int(u[i]), code, d, bound))
            done += cnt
        return (samples, None)
    words = (n + 63) // 64
    for i in range(samples):
        u = 0
        for w in range(words):
            u |= _mix64((seed + ((index_offset + i) * words + w + 1) * GAMMA) & MASK64) << (64 * w)
        u = (u & ((1 << n) - 1)) | yprefix_mask
        hit = _check_one(edge_masks, x_mask, aell_mask, xy_mask, gl_mask, k, ell, u)
        if hit is not None:
            return (i + 1, (index_offset + i, u, *hit))
    return (samples, None)
