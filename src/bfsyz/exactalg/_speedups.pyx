# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled elimination kernel over prime fields.

Row-reduces a dense uint64 matrix modulo a prime of up to 62 bits, using
128-bit intermediates for the multiply-accumulate.  Pivoting is deterministic
(leftmost column, first nonzero row).  The pure-Python twin gives the same
rank; both clobber the buffer and leave its contents unspecified.
"""

cdef extern from *:
    ctypedef unsigned long long u128 "unsigned __int128"
    ctypedef long long i128 "__int128"

BACKEND_NAME = "compiled"


cdef unsigned long long _inv_mod(unsigned long long a, unsigned long long p) noexcept nogil:
    # extended Euclid on signed 128-bit accumulators
    cdef i128 t = 0, newt = 1, tmp
    cdef unsigned long long r = p, newr = a, q, tmpr
    while newr != 0:
        q = r // newr
        tmp = t - <i128> q * newt
        t = newt
        newt = tmp
        tmpr = r - q * newr
        r = newr
        newr = tmpr
    if t < 0:
        t += <i128> p
    return <unsigned long long> t


def rank_mod_p_dense(unsigned long long[:, ::1] a, unsigned long long p):
    """Return the rank of ``a`` over F_p.  ``a`` is clobbered."""
    cdef Py_ssize_t nrows = a.shape[0]
    cdef Py_ssize_t ncols = a.shape[1]
    cdef Py_ssize_t r = 0, i, j, c, piv
    cdef unsigned long long inv, f, v
    cdef u128 t
    if nrows == 0 or ncols == 0:
        return 0
    with nogil:
        for c in range(ncols):
            if r == nrows:
                break
            piv = -1
            for i in range(r, nrows):
                if a[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(c, ncols):
                    v = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = v
            inv = _inv_mod(a[r, c], p)
            if inv != 1:
                for j in range(c, ncols):
                    t = <u128> a[r, j] * inv
                    a[r, j] = <unsigned long long> (t % p)
            for i in range(r + 1, nrows):
                f = a[i, c]
                if f == 0:
                    continue
                f = p - f
                for j in range(c, ncols):
                    t = <u128> a[r, j] * f + a[i, j]
                    a[i, j] = <unsigned long long> (t % p)
            r += 1
    return r
