"""Pure-Python twin of the compiled elimination kernel, vectorised with numpy.

Same pivoting discipline as ``_speedups.pyx`` (leftmost column, first nonzero
row) on the same uint64 buffers, which it clobbers.  Each step updates only the
rows that are nonzero in the pivot column and, in them, only the columns where
the pivot row is nonzero: adding ``f * 0`` changes nothing, so after every step
the rows below the pivot hold exactly what the compiled kernel leaves there.

The update ``acc + f * u mod p`` involves products of up to 124 bits.  Where
long double has a 64-bit mantissa (x86-64 Linux) it runs in uint64 with the
quotient estimated in long double, which is exact for primes below 2**62.
Elsewhere (macOS arm64, Windows), and for larger primes, the same loop does the
update in numpy object dtype, that is, in exact Python-int arithmetic.
"""

import numpy as np

BACKEND_NAME = "python"

_LONG_DOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63


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
    """Return the rank of ``a`` (2-D uint64 numpy array) over F_p.  ``a`` is clobbered."""
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
