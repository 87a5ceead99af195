"""Rank of an integer matrix modulo several primes at once, sparse first.

``rank_mod_p_dense(a, primes)`` is the one mod-p elimination kernel: every
modular rank in the package ends here.  It takes the integer matrix ``a`` as
its entries, a ``Coo`` record of ``rows``, ``cols`` and ``values`` arrays plus
its ``shape`` (values int64, or object for values beyond int64), and
the distinct primes of one certificate, and returns the rank that every prime
gives; when the ranks differ it raises ``PrimesDisagree``.  It decides its
route from the number of nonzero values against the shape, and never scans
the cells of the block.

A matrix with at most ``SPARSE_ENTRY_DENSITY`` of its cells nonzero (the
Koszul blocks, and most blocks of the spanning matrices and substitution
slices) is first eliminated once for all the primes, as
``{col: value}`` rows of Python ints modulo their product N, the classic first
stage for sparse systems over finite fields (LaMacchia and Odlyzko, CRYPTO
'90).  By the Chinese remainder theorem Z/N is the product of the fields F_p,
so a row operation mod N is the same row operation modulo each prime, and a
pivot that is a unit mod N is nonzero modulo each prime: it raises every
prime's rank by one.  The rows are those of the shorter side (the transpose
has the same rank), read in row-major order from the entries sorted by
(row, col), and columns are taken in order of ascending nonzero count,
which keeps the fill-in low; both choices are valid for the rank only.  The
shared stage ends once the rows still active fill ``DENSE_SWITCH_DENSITY`` of
the columns still active, or at a pivot that is not a unit mod N (one that
some prime divides; with 50-62 bit primes, at most about one pivot in
2**49).  Only then is a dense array built: the active rows are scattered into
one residue plane per prime in turn and finished by the dense loop, which also
takes every denser matrix whole, once per prime.

The dense loop pivots on the leftmost column and its first nonzero row, and
updates, at each step, only the rows that are nonzero in the pivot column and,
in them, only the columns where the pivot row is nonzero.  Its update ``acc + f * u mod p`` involves products of up to 124 bits.  Where long
double has a 64-bit mantissa (x86-64 Linux) it runs in uint64 with the quotient
estimated in long double, which is exact for primes below 2**62.  Elsewhere
(macOS arm64, Windows), and for larger primes, the same loop does the update in
numpy object dtype, that is, in exact Python-int arithmetic.
"""

from itertools import chain, islice
from math import gcd, prod
from typing import NamedTuple

import numpy as np

_LONG_DOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63

# Both thresholds are shares of nonzero cells.  A matrix that starts sparse is
# eliminated once modulo p * q, a denser one by the dense loop once per prime,
# so the shared stage pays up to a higher density than one prime's would:
# replayed, the kernel calls of a bench pass ran in about half the time at an
# entry density of 0.25 as at 0.10 on spanning-matrix blocks (most 5-35%
# dense), and in 0.63 of it on substitution slices (10-50%), which lose the
# gain again at 0.35; Koszul blocks (mostly under 15%) did not move.  Past
# half full, a numpy step over a row beats a Python step per entry.
SPARSE_ENTRY_DENSITY = 0.25
DENSE_SWITCH_DENSITY = 0.5


def _addmul_longdouble(acc, f, u, p: int):
    """``(acc + f[:, None] * u) % p`` for residues modulo a prime ``p < 2**62``.

    With a 64-bit mantissa the estimate ``q`` of ``floor(f * u / p)`` is off by
    at most one either way, so ``acc + p + f * u - q * p``, taken modulo 2**64,
    is the exact value, in ``[0, 4p)``; one remainder finishes the reduction.
    """
    pu = np.uint64(p)
    q = (f[:, None].astype(np.longdouble) * (u / np.longdouble(p))).astype(np.uint64)
    q *= pu
    r = f[:, None] * u
    r -= q
    r += acc
    r += pu
    r %= pu
    return r


def _addmul_object(acc, f, u, p: int):
    """``(acc + f[:, None] * u) % p`` in exact Python-int arithmetic."""
    r = f[:, None].astype(object) * u.astype(object)
    r += acc
    r %= p
    return r.astype(np.uint64)


class PrimesDisagree(Exception):
    """The primes of one kernel call gave different ranks (``ranks``: prime -> rank)."""

    def __init__(self, ranks: dict[int, int]):
        super().__init__(f"ranks differ by prime: {ranks}")
        self.ranks = ranks


def _agreed(primes, ranks) -> int:
    if len(set(ranks)) > 1:
        raise PrimesDisagree(dict(zip(primes, ranks)))
    return ranks[0]


class Coo(NamedTuple):
    """An integer matrix of ``shape`` as its entries: ``values[k]`` at
    (``rows[k]``, ``cols[k]``).  Positions are distinct and may come in any
    order; values are int64 or object (Python ints), and may be zero."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]


def _residue_plane(a: Coo, p: int):
    """``a`` modulo ``p < 2**64`` as a fresh dense uint64 array."""
    v = a.values
    if v.dtype == object:
        v = (v % p).astype(np.uint64)
    elif p < 1 << 63:
        # residues are non-negative, so int64 ones read the same as uint64
        v = (v % np.int64(p)).view(np.uint64)
    else:
        # int64 and p >= 2**63: the residue of v < 0 is v + p, that is v + 2**64
        # (its uint64 image) minus 2**64 - p; every other value is below p already
        r = v.astype(np.uint64)
        r[v < 0] -= np.uint64((1 << 64) - p)
        v = r
    plane = np.zeros(a.shape, dtype=np.uint64)
    plane[a.rows, a.cols] = v
    return plane


def rank_mod_p_dense(a: Coo, primes) -> int:
    """Return the rank of the integer matrix ``a`` modulo each of ``primes``.

    ``a`` is left as it is.  The primes must be distinct (``ValueError``
    otherwise); the rank is returned only when every prime gives the same one,
    else ``PrimesDisagree`` is raised.
    """
    primes = tuple(primes)
    if not primes or len(set(primes)) != len(primes):
        raise ValueError(f"the kernel needs distinct primes, got {primes}")
    nrows, ncols = a.shape
    values = a.values
    if np.count_nonzero(values) > SPARSE_ENTRY_DENSITY * nrows * ncols:
        return _agreed(primes, [_rank_dense(_residue_plane(a, p), p) for p in primes])
    n = prod(primes)
    if values.dtype == object:
        values = values % n  # ints beyond int64: smaller ones make cheaper row operations
    rows, cols = a.rows, a.cols
    if nrows > ncols:
        # same rank; every row beyond the rank costs updates until it vanishes
        rows, cols, nrows, ncols = cols, rows, ncols, nrows
    # the nonzero entries in row-major order, as a scan of the cells meets them
    keep = np.flatnonzero(values)
    order = keep[np.argsort(rows[keep] * ncols + cols[keep])]
    ii, jj, values = rows[order], cols[order], values[order]
    if ii.size == 0:
        return 0
    # column position = rank by nonzero count (stable); empty columns get
    # negative positions and are never reached
    counts = np.bincount(jj, minlength=ncols)
    width = int(np.count_nonzero(counts))
    position = np.empty(ncols, dtype=np.intp)
    position[np.argsort(counts, kind="stable")] = np.arange(width - ncols, width)
    pos = position[jj]
    # an active row is nonzero in column c only if c is its leading column,
    # since every earlier column has been cleared: rows wait in buckets keyed
    # by their leading column
    starts = np.flatnonzero(np.diff(ii, prepend=-1))
    leads = np.minimum.reduceat(pos, starts).tolist()
    sizes = np.diff(starts, append=ii.size).tolist()
    entries = iter(zip(pos.tolist(), values.tolist()))
    buckets: dict[int, list[dict[int, int]]] = {}
    for lead, size in zip(leads, sizes):
        buckets.setdefault(lead, []).append(dict(islice(entries, size)))
    active, nnz, rank = len(sizes), ii.size, 0
    for c in range(width):
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pr = min(bucket, key=len)  # the sparsest row makes the least fill-in
        if gcd(pr[c], n) != 1:
            # a prime divides the pivot (an int value is not reduced first,
            # and may be a multiple of a small n): the primes part ways here
            buckets[c] = bucket
            return _finish_per_prime(buckets, active, nnz, c, width, rank, primes)
        rank += 1
        active -= 1
        nnz -= len(pr)
        if len(bucket) > 1:
            inv = pow(pr[c], -1, n)
            tail = [(j, v) for j, v in pr.items() if j != c]
            for ri in bucket:
                if ri is pr:
                    continue
                nnz -= len(ri)
                f = ri.pop(c) * inv % n
                for j, v in tail:
                    w = (ri.get(j, 0) - f * v) % n
                    if w:
                        ri[j] = w
                    else:
                        # n is composite, so f * v may vanish mod n where ri
                        # has no entry: a fill of zero, nothing to delete
                        ri.pop(j, None)
                if ri:
                    nnz += len(ri)
                    buckets.setdefault(min(ri), []).append(ri)
                else:
                    active -= 1
        if not active:
            break
        if nnz >= DENSE_SWITCH_DENSITY * active * (width - c - 1):
            return _finish_per_prime(buckets, active, nnz, c + 1, width, rank, primes)
    return rank


def _finish_per_prime(buckets, active: int, nnz: int, start: int, width: int, rank: int, primes) -> int:
    """``rank`` plus the rank of the ``active`` rows left in ``buckets``, which
    hold ``nnz`` entries in columns ``start`` to ``width - 1``, modulo each
    prime by the dense loop; the per-prime totals must agree."""
    rows = [row for bucket in buckets.values() for row in bucket]
    rem = Coo(
        np.repeat(np.arange(active), [len(row) for row in rows]),
        np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=nnz) - start,
        np.fromiter(chain.from_iterable(row.values() for row in rows), dtype=object, count=nnz),
        (active, width - start),
    )
    return _agreed(primes, [rank + _rank_dense(_residue_plane(rem, p), p) for p in primes])


def _rank_dense(a, p: int) -> int:
    """Rank over F_p of the uint64 array ``a`` by the dense loop; ``a`` is clobbered."""
    addmul = _addmul_longdouble if _LONG_DOUBLE_EXACT and p < 1 << 62 else _addmul_object
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        column = a[r:, c]
        nonzero = column.nonzero()[0]
        if nonzero.size == 0:
            continue
        pivot, *below = column[nonzero].tolist()
        piv = r + int(nonzero[0])
        if piv != r:
            row = a[r].copy()
            a[r] = a[piv]
            a[piv] = row
        if below:
            # row_i += f_i * row_r with f_i = -a[i, c] / a[r, c]; the pivot row
            # itself stays unnormalised, as no later step reads it
            inv = pow(pivot, -1, p)
            f = np.array([(p - x) * inv % p for x in below], dtype=np.uint64)
            cols = c + a[r, c:].nonzero()[0]
            block = ((r + nonzero[1:])[:, None], cols)
            a[block] = addmul(a[block], f, a[r, cols], p)
        r += 1
    return r
