"""Rank over F_p of a uint64 buffer of residues, sparse first.

``rank_mod_p_dense`` is the one mod-p elimination kernel: every modular rank
in the package ends here.  It clobbers its buffer and leaves it with
unspecified contents; only the rank is defined.

A matrix with at most ``SPARSE_ENTRY_DENSITY`` of its cells nonzero (most
Koszul blocks) is first eliminated as ``{col: residue}`` rows in Python ints,
the classic first stage for sparse systems over finite fields (LaMacchia and
Odlyzko, CRYPTO '90).  The rows are those of the shorter side (the transpose
has the same rank), and columns are taken in order of ascending nonzero count,
which keeps the fill-in low; both choices are valid for the rank only.  Once
the rows still active fill ``DENSE_SWITCH_DENSITY`` of the columns still
active, they are written into a fresh buffer and finished by the dense loop,
which also takes every denser matrix whole.

The dense loop pivots on the leftmost column and its first nonzero row, and
updates, at each step, only the rows that are nonzero in the pivot column and,
in them, only the columns where the pivot row is nonzero.  Its update ``acc + f * u mod p`` involves products of up to 124 bits.  Where long
double has a 64-bit mantissa (x86-64 Linux) it runs in uint64 with the quotient
estimated in long double, which is exact for primes below 2**62.  Elsewhere
(macOS arm64, Windows), and for larger primes, the same loop does the update in
numpy object dtype, that is, in exact Python-int arithmetic.
"""

from itertools import chain, islice

import numpy as np

_LONG_DOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63

# Both thresholds are shares of nonzero cells.  Koszul blocks are 2-14% dense
# with a handful of entries per row and column, and fill in slowly; the
# substitution slices are all above 10% and gain nothing from dict rows.  Past
# half full, a numpy step over a row beats a Python step per entry.
SPARSE_ENTRY_DENSITY = 0.10
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


def rank_mod_p_dense(a, p: int) -> int:
    """Return the rank of ``a`` (2-D uint64 numpy array of residues) over F_p.

    ``a`` is clobbered; its contents afterwards are unspecified.
    """
    if np.count_nonzero(a) > SPARSE_ENTRY_DENSITY * a.size:
        return _rank_dense(a, p)
    if a.shape[0] > a.shape[1]:
        # same rank; every row beyond the rank costs updates until it vanishes
        a = a.T
    ncols = a.shape[1]
    ii, jj = a.nonzero()
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
    entries = iter(zip(pos.tolist(), a[ii, jj].tolist()))
    buckets: dict[int, list[dict[int, int]]] = {}
    for lead, size in zip(leads, sizes):
        buckets.setdefault(lead, []).append(dict(islice(entries, size)))
    active, nnz, rank = len(sizes), ii.size, 0
    for c in range(width):
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pr = min(bucket, key=len)  # the sparsest row makes the least fill-in
        rank += 1
        active -= 1
        nnz -= len(pr)
        if len(bucket) > 1:
            inv = pow(pr[c], -1, p)
            tail = [(j, v) for j, v in pr.items() if j != c]
            for ri in bucket:
                if ri is pr:
                    continue
                nnz -= len(ri)
                f = ri.pop(c) * inv % p
                for j, v in tail:
                    w = (ri.get(j, 0) - f * v) % p
                    if w:
                        ri[j] = w
                    else:
                        del ri[j]
                if ri:
                    nnz += len(ri)
                    buckets.setdefault(min(ri), []).append(ri)
                else:
                    active -= 1
        if not active:
            break
        left = width - c - 1
        if nnz >= DENSE_SWITCH_DENSITY * active * left:
            rows = [row for bucket in buckets.values() for row in bucket]
            rem = np.zeros((active, left), dtype=np.uint64)
            at = np.repeat(np.arange(active), [len(row) for row in rows])
            to = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=nnz) - (c + 1)
            rem[at, to] = list(chain.from_iterable(row.values() for row in rows))
            return rank + _rank_dense(rem, p)
    return rank


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
