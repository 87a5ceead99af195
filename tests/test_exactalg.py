"""Exact linear algebra layer: rank, rref, kernels, modular agreement, IO."""

import hashlib
import random
import struct
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from bfsyz.errors import ConventionError, ResourceLimitError
from bfsyz.exactalg import (
    EXACT_DIM_LIMIT,
    KERNEL_BACKEND,
    ExactMatrix,
    blocked_rank_details,
    dump_matrix,
    is_prime,
    kernel_basis,
    load_matrix,
    random_prime,
    rank,
    rank_details,
)
from bfsyz.exactalg import _modp
from bfsyz.exactalg.matrix import (
    bareiss_rank_rows,
    column_echelon,
    independent_columns,
    mod_p_rank_rows,
    mod_p_rank_sparse,
    rref_rows,
)

import numpy as np
from blockref import (
    assert_primitive,
    clear_denominators,
    dense_rows,
    dict_rows,
    reference_kernel,
    reference_rref,
    sparse_rows,
    split_blocks,
    transpose,
    trim,
)


def matrix_from_rows(rows) -> ExactMatrix:
    """The QQ matrix with these dense rows."""
    ncols = len(rows[0]) if rows else 0
    assert all(len(row) == ncols for row in rows), "ragged rows"
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return ExactMatrix(len(rows), ncols, entries)


def planted_rank_matrix(rng, nrows, ncols, r):
    """Random integer matrix of rank exactly r (echelon base rows + combinations)."""
    assert r <= min(nrows, ncols)
    pivot_cols = sorted(rng.sample(range(ncols), r))
    base = []
    for k in range(r):
        row = [0] * ncols
        row[pivot_cols[k]] = rng.choice([1, 2, 3])
        for j in range(pivot_cols[k] + 1, ncols):
            row[j] = rng.randint(-5, 5)
        base.append(row)
    rows = []
    for i in range(nrows):
        if i < r:
            rows.append(base[i][:])
        else:
            row = [0] * ncols
            for k in range(r):
                c = rng.randint(-3, 3)
                if c:
                    row = [x + c * y for x, y in zip(row, base[k])]
            rows.append(row)
    rng.shuffle(rows)
    return rows


# ---------------------------------------------------------------------------
# rref / kernel on pinned examples


def test_rref_single_row():
    assert rref_rows([{0: 2, 1: 4}], 2) == ([{0: 1, 1: 2}], [0])


def test_kernel_of_sum_row():
    m = matrix_from_rows([[1, 1]])
    assert kernel_basis(m) == [{0: 1, 1: -1}]


def test_kernel_of_identity_is_empty():
    m = ExactMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert kernel_basis(m) == []


def test_kernel_of_zero_matrix_is_unit_vectors():
    m = ExactMatrix(2, 3)
    assert kernel_basis(m) == [{0: 1}, {1: 1}, {2: 1}]


def test_rref_idempotent_and_fraction_entries():
    rows = [[Fraction(1, 2), 1, 0], [1, 2, 1], [2, 4, 1]]
    reduced, pivots = rref_rows(sparse_rows(rows), 3)
    assert rref_rows(reduced, 3) == (reduced, pivots)
    assert pivots == [0, 2]
    assert rank(matrix_from_rows(rows), "exact") == 2


def test_kernel_vectors_are_primitive_and_annihilated():
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        r = rng.randint(0, min(nrows, ncols))
        rows = planted_rank_matrix(rng, nrows, ncols, r)
        m = matrix_from_rows(rows)
        ker = kernel_basis(m)
        assert len(ker) == ncols - rank(m, "exact")
        for vec in ker:
            assert_primitive(vec)
            for row in rows:
                assert sum(row[j] * v for j, v in vec.items()) == 0


def test_rref_rows_returns_sparse_dict_rows():
    # keys come out ascending whatever order the input rows list them in
    reduced, pivots = rref_rows([{3: 2, 0: 4, 1: 0}, {3: 1, 1: Fraction(1, 2)}], 5)
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 3: Fraction(1, 2)}, {1: 1, 3: 2}]
    assert [list(row) for row in reduced] == [[0, 3], [1, 3]]
    assert type(reduced[1][3]) is int


# ---------------------------------------------------------------------------
# rank modes


def test_planted_rank_exact_and_modular_agree():
    rng = random.Random(11)
    for trial in range(15):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        r = rng.randint(0, min(nrows, ncols))
        m = matrix_from_rows(planted_rank_matrix(rng, nrows, ncols, r))
        assert rank(m, "exact") == r
        res = rank_details(m, "modular", rng=random.Random(1000 + trial))
        assert res.rank == r
        assert res.mode in ("modular", "exact")
        if res.mode == "modular":
            assert len(res.primes) == 2
            assert res.primes[0] != res.primes[1]
            assert all(is_prime(p) for p in res.primes)


def test_auto_mode_small_matrix_is_exact():
    m = matrix_from_rows([[1, 2], [2, 4]])
    res = rank_details(m)
    assert res == (1, "exact", (), False)
    assert max(m.shape) <= EXACT_DIM_LIMIT


def test_prime_dividing_a_denominator_is_kept():
    # denominator 5 vanishes mod 5, and the prime is kept all the same: the
    # cleared row [1] has rank 1 modulo 5 as well
    m = matrix_from_rows([[Fraction(1, 5)]])
    res = rank_details(m, "modular", rng=random.Random(3), primes=[5, 7])
    assert res == (1, "modular", (5, 7), False)


def test_prime_dividing_a_denominator_escalates_on_disagreement():
    # the cleared rows [1, 5], [1, 0] have rank 1 mod 5 and 2 mod 7
    m = matrix_from_rows([[Fraction(1, 5), 1], [1, 0]])
    res = rank_details(m, "modular", rng=random.Random(3), primes=[5, 7])
    assert res == (2, "exact", (5, 7), True)


def test_cleared_row_drops_its_content():
    # [5/3, 10/3] clears to the primitive [1, 2], not to [5, 10], which vanishes mod 5
    m = matrix_from_rows([[Fraction(5, 3), Fraction(10, 3)]])
    res = rank_details(m, "modular", rng=random.Random(3), primes=[5, 7])
    assert res == (1, "modular", (5, 7), False)


def test_fraction_heavy_matrix_rank():
    rows = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
        [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
        [Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)],
    ]
    # Hilbert-type matrix, nonsingular
    assert rank(matrix_from_rows(rows), "exact") == 3
    assert rank(matrix_from_rows(rows), "modular", rng=random.Random(0)) == 3


# ---------------------------------------------------------------------------
# the sparse exact engine against dense reference engines


def reference_bareiss_rank(rows, ncols):
    """Dense Bareiss rank of integer rows; mutates ``rows``."""
    nrows = len(rows)
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), -1)
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pc = pr[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            for j in range(c + 1, ncols):
                ri[j] = (ri[j] * pc - f * pr[j]) // prev
            ri[c] = 0
        prev = pc
        r += 1
    return r


def _random_exact_rows(rng, nrows=None, ncols=None, kind=None):
    """A small matrix of one of the shapes the exact engine must handle
    (random unless given).

    Entries are stored as ExactMatrix stores them: integral values as int.
    """
    if nrows is None:
        nrows, ncols = rng.randint(0, 15), rng.randint(0, 15)
    if kind is None:
        kind = rng.choice(("fraction", "huge", "product", "small"))
    density = rng.choice((0.15, 0.5, 1.0))

    def entry():
        if rng.random() >= density:
            return 0
        if kind == "fraction":
            return trim(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        if kind == "huge":
            return rng.randint(-10**12, 10**12)
        return rng.randint(-9, 9)

    if kind == "product":
        inner = rng.randint(0, min(nrows, ncols))
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(x * y for x, y in zip(lrow, col)) for col in zip(*right)] if inner else [0] * ncols
                for lrow in left]
    else:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        if nrows and rng.random() < 0.5:
            rows[rng.randrange(nrows)] = [0] * ncols
        elif ncols:
            j = rng.randrange(ncols)
            for row in rows:
                row[j] = 0
    return rows, ncols


def _typed(rows):
    return [sorted((j, type(v), v) for j, v in row.items()) for row in rows]


def test_exact_engines_match_dense_references():
    rng = random.Random(23)
    cases = [_random_exact_rows(rng) for _ in range(300)]
    cases += [([], 4), ([[], [], []], 0), ([[0, 0, 0]] * 2, 3)]
    # tall blocks and wide ones, which the rank reduces along the other side
    shapes = [(rng.randint(16, 40), rng.randint(1, 8)) for _ in range(30)]
    cases += [_random_exact_rows(rng, *shape) for shape in shapes]
    cases += [_random_exact_rows(rng, ncols, nrows) for nrows, ncols in shapes]
    # column permutations of one matrix, which the rank reads by nonzero count
    base, ncols = _random_exact_rows(rng, 12, 15, "product")
    for _ in range(20):
        perm = rng.sample(range(ncols), ncols)
        cases.append(([[row[j] for j in perm] for row in base], ncols))
    for rows, ncols in cases:
        want_reduced, want_pivots = reference_rref(rows, ncols)
        int_rows = [clear_denominators(row) for row in rows]
        want_rank = reference_bareiss_rank(int_rows, ncols)
        assert want_rank == len(want_pivots)
        # the engines take {col: value} rows, with zero values or without
        # (zero rows as {}), and return reduced rows with ascending keys
        with_zeros = [dict(enumerate(row)) for row in rows]
        for given in (with_zeros, sparse_rows(rows)):
            snapshot = _typed(given)
            reduced, pivots = rref_rows(given, ncols)
            assert pivots == want_pivots
            assert _typed(reduced) == _typed(sparse_rows(want_reduced))
            assert all(list(row) == sorted(row) for row in reduced)
            assert bareiss_rank_rows(given, ncols) == want_rank
            assert _typed(given) == snapshot, "an exact engine mutated its input"


# ---------------------------------------------------------------------------
# the mod-p kernel against a Python-int reference

P50 = 2**50 + 55  # the smallest prime above 2**50
P61 = 2**61 - 1
P62 = 2**62 - 57  # the largest 62-bit prime
P64 = 2**64 - 59  # above the long-double range: the kernel computes with Python ints
KERNEL_PRIMES = (P50, P61, P62, P64)


def reference_rank_mod_p(rows, p):
    """Row reduction over F_p in Python ints, one cell at a time (leftmost
    column, first nonzero row), the loop the vectorised kernel replaced."""
    rows = [row[:] for row in rows]
    nrows, r = len(rows), 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [(y - f * x) % p for x, y in zip(rows[r], rows[i])]
        r += 1
        if r == nrows:
            break
    return r


def kernel_cases(rng, p):
    """Matrices over F_p (lists of rows): rank-deficient products, sparse,
    tall and wide, all entries p - 1, all zero, and zero columns."""
    cases = [[[0] * 7 for _ in range(5)], [[p - 1] * 9 for _ in range(6)]]
    for _ in range(6):
        nrows, ncols = rng.randint(1, 60), rng.randint(1, 60)
        k = rng.randint(0, min(nrows, ncols))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
        cases.append([[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left])
    for density in (0.01, 0.03, 0.05):
        for nrows, ncols in ((60, 12), (12, 60), (50, 50)):
            cases.append([
                [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ])
    zero_cols = [[rng.randrange(p) for _ in range(10)] for _ in range(8)]
    for row in zero_cols:
        row[0] = row[4] = row[9] = 0
    cases.append(zero_cols)
    return cases


def sparse_kernel_cases(rng, p):
    """Matrices over F_p at most 10% nonzero, which the kernel starts in its
    sparse phase: block diagonal, permutation-like, sparse rank-deficient
    products, zero rows and columns, single rows and columns, and a chain
    whose fill-in crosses into the dense finish."""

    def unit():
        return rng.randrange(1, p)

    def shuffled(rows):
        order = rng.sample(range(len(rows[0])), len(rows[0]))
        return [[row[j] for j in order] for row in rng.sample(rows, len(rows))]

    def product(left, right):
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]

    cases = []
    # twelve 4x5 blocks of rank <= 2 on the diagonal
    blocks = [[[0] * 60 for _ in range(4)] for _ in range(12)]
    for k, block in enumerate(blocks):
        values = product([[unit(), unit()] for _ in range(4)], [[unit() for _ in range(5)] for _ in range(2)])
        for row, vals in zip(block, values):
            row[5 * k:5 * k + 5] = vals
    cases.append(shuffled([row for block in blocks for row in block]))
    # a scaled permutation, then one row repeated (scaled) and one cleared
    perm = [[0] * 40 for _ in range(40)]
    for i, j in enumerate(rng.sample(range(40), 40)):
        perm[i][j] = unit()
    perm[3] = [x * 5 % p for x in perm[11]]
    perm[20] = [0] * 40
    cases.append(perm)
    # rank <= 6: each row of the left factor is one or two scaled units
    right = [[0] * 50 for _ in range(6)]
    for row in right:
        for j in rng.sample(range(50), 3):
            row[j] = unit()
    left = [[0] * 6 for _ in range(50)]
    for i, row in enumerate(left):
        for k in rng.sample(range(6), 2 if i % 5 == 0 else 1):
            row[k] = unit()
    cases.append(product(left, right))
    # about 6% nonzero with three zero rows and three zero columns
    holes = [[unit() if rng.random() < 0.06 else 0 for _ in range(36)] for _ in range(30)]
    for i in (0, 13, 29):
        holes[i] = [0] * 36
    for row in holes:
        row[2] = row[17] = row[35] = 0
    cases.append(holes)
    wide = [0] * 40
    wide[3], wide[21], wide[39] = unit(), unit(), unit()
    tall = [[0] for _ in range(40)]
    tall[7][0], tall[30][0] = unit(), unit()
    cases += [[wide], tall, [[0] * 39 + [unit()]]]
    # rows a_i = e_i + heavy_i and b_i = e_i + e_{i+1} over 40 light and 6
    # heavy columns, with heavy parts of rank 2: eliminating the light columns
    # spreads the heavy ones through the active part, which turns half full
    # well before the end (the kernel finishes a 12 x 46 remainder densely)
    u, v = [unit() for _ in range(6)], [unit() for _ in range(6)]
    chain = []
    for i in range(40):
        s, t = unit(), unit()
        chain.append([unit() if j == i else 0 for j in range(40)] + [(s * x + t * y) % p for x, y in zip(u, v)])
        chain.append([unit() if j in (i, i + 1) else 0 for j in range(40)] + [0] * 6)
    cases.append(chain)
    return cases


def cleared(row):
    """A dense row as the mod-p path takes it: a row holding a Fraction has
    its denominators cleared and its content divided out; others are kept."""
    if not any(isinstance(v, Fraction) for v in row):
        return row
    ints = clear_denominators(row)
    g = gcd(*ints)
    return [v // g for v in ints]


def kernel_coo(rows, order=None):
    """The nonzero entries of integer ``rows`` as the kernel takes them: a
    ``Coo`` record with values int64, else object.  The entries come shuffled
    (seeded), or in ``order``, a function that reorders the row-major list of
    (i, j, value) triples."""
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    if order is None:
        random.Random(len(entries)).shuffle(entries)
    else:
        entries = order(entries)
    ii, jj, flat = (list(t) for t in zip(*entries)) if entries else ([], [], [])
    fits = all(-(2**63) <= v < 2**63 for v in flat)
    values = np.array(flat, dtype=np.int64 if fits else object)
    shape = (len(rows), len(rows[0]) if rows else 0)
    return _modp.Coo(np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp), values, shape)


def check_ranks(rows, primes):
    """``mod_p_rank_rows`` and, for integer rows, the kernel itself give the
    reference rank when every prime's reference agrees, and otherwise raise
    ``PrimesDisagree`` carrying the per-prime reference ranks.  The reference
    reduces each row modulo p once it is ``cleared``, so a prime that divides
    a denominator is ranked like any other."""
    want = {p: reference_rank_mod_p([[v % p for v in cleared(row)] for row in rows], p) for p in primes}
    calls = [lambda: mod_p_rank_rows(rows, len(rows[0]), primes)]
    if all(type(v) is int for row in rows for v in row):
        calls.append(lambda: _modp.rank_mod_p_dense(kernel_coo(rows), primes))
    for call in calls:
        if len(set(want.values())) == 1:
            assert call() == want[primes[0]], primes
        else:
            with pytest.raises(_modp.PrimesDisagree) as err:
                call()
            assert err.value.ranks == want


def test_backends_agree_on_mod_p_rank():
    assert all(is_prime(p) for p in KERNEL_PRIMES)
    for k, p in enumerate(KERNEL_PRIMES):
        q = KERNEL_PRIMES[(k + 1) % len(KERNEL_PRIMES)]
        rng = random.Random(p % 1000)
        cases = kernel_cases(rng, p)
        sparse = sparse_kernel_cases(rng, p)
        assert all(np.count_nonzero(rows) <= _modp.SPARSE_ENTRY_DENSITY * np.size(rows) for rows in sparse)
        for rows in cases + sparse:
            check_ranks(rows, (p,))
            check_ranks(rows, (p, q))
            check_ranks(rows, (q, p))


def random_integer_rows(rng, nrows, ncols, density, values):
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_per_prime_references(seed):
    """Random sparse and dense matrices, rows holding Fractions, and values near
    and beyond +-2**63, at pairs of large primes (the ranks agree) and of small
    primes (they often do not)."""
    rng = random.Random(1000 + seed)
    big = [2**63 - 1, -(2**63), 2**63 - 2, -(2**63) + 1]
    beyond = [2**63, -(2**63) - 1, 2**64 + 5, -(2**70)]
    small = list(range(-9, 10))
    cases = []
    for density in (0.04, 0.08, 0.15, 0.2, 0.25, 0.3, 0.9):
        for values in (small, small + big, small + beyond):
            nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
            cases.append(random_integer_rows(rng, nrows, ncols, density, values))
    # rank-deficient: every row a small combination of three sparse rows
    base = random_integer_rows(rng, 3, 40, 0.05, small + big)
    cases.append([[sum(c * x for c, x in zip(coefs, col)) for col in zip(*base)]
                  for coefs in ([rng.randint(-2, 2) for _ in range(3)] for _ in range(25))])
    fractions = random_integer_rows(rng, 20, 20, 0.07, small)
    for row in fractions[::3]:
        j = rng.randrange(20)
        row[j] = Fraction(rng.choice([1, -3, 7, 2**64]), rng.choice([11, 13, 2**61 - 1]))
    cases.append(fractions)
    pairs = [(P61, P50), (P64, P62), (random_prime(rng), random_prime(rng)), (5, 7), (2, 3), (3, P61)]
    for rows in cases:
        for primes in pairs:
            if primes[0] == primes[1]:
                continue
            check_ranks(rows, primes)


def cycle_rows(n, first, last):
    """n x n, row i holding ones at columns i and i + 1 (mod n), except that the
    (0, 0) entry is ``first`` and the (n - 1, 0) entry is ``last``; its
    determinant is ``first - last`` for even n."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        rows[i][(i + 1) % n] = 1
    rows[0][0], rows[n - 1][0] = first, last
    return rows


@pytest.mark.parametrize("last, want", [(1, {5: 30, 7: 30}), (12, {5: 30, 7: 29})])
def test_kernel_splits_per_prime_at_a_zero_divisor_pivot(monkeypatch, last, want):
    # the first pivot is 5, a zero divisor mod 35: the shared stage ends there
    # and each prime finishes alone; det = 5 - last is 4 (ranks agree) or -7
    rows = cycle_rows(30, 5, last)
    assert np.count_nonzero(rows) <= _modp.SPARSE_ENTRY_DENSITY * np.size(rows)
    assert {p: reference_rank_mod_p([[v % p for v in row] for row in rows], p) for p in (5, 7)} == want
    starts = []
    finish = _modp._finish_per_prime

    def spy(buckets, active, nnz, start, *rest):
        starts.append(start)
        return finish(buckets, active, nnz, start, *rest)

    monkeypatch.setattr(_modp, "_finish_per_prime", spy)
    check_ranks(rows, (5, 7))
    assert starts and set(starts) == {0}


def test_kernel_fill_that_vanishes_mod_n_is_dropped():
    # mod 35 the pivot 2 of column 3 clears row 1 with f = -5 / 2 = 15; f times
    # the pivot row's -7 in column 23 is -105, zero mod 35 though neither
    # factor is, and row 1 holds no entry in column 23 to drop
    rows = [[0] * 29 for _ in range(3)]
    for (i, j), v in {(0, 3): 2, (0, 23): -7, (1, 3): -5, (1, 18): 2, (2, 18): 2, (2, 23): 10}.items():
        rows[i][j] = v
    with pytest.raises(_modp.PrimesDisagree) as err:
        _modp.rank_mod_p_dense(kernel_coo(rows), (5, 7))
    assert err.value.ranks == {5: 2, 7: 3}
    check_ranks(rows, (5, 7))


def test_kernel_starts_sparse_up_to_the_entry_density(monkeypatch):
    # the dense route scatters the whole matrix into a plane modulo each
    # prime; the shared stage works modulo p * q and hands on at most its
    # remainder, a smaller plane
    rng = random.Random(7)
    rows = random_integer_rows(rng, 24, 30, 0.2, list(range(-9, 10)))
    assert 0.10 < np.count_nonzero(rows) / np.size(rows) <= _modp.SPARSE_ENTRY_DENSITY
    planes = []
    plane = _modp._residue_plane
    monkeypatch.setattr(_modp, "_residue_plane", lambda a, p: planes.append((a.shape, p)) or plane(a, p))
    check_ranks(rows, (P61, P50))
    assert all(m * n < np.size(rows) for (m, n), _p in planes)
    planes.clear()
    dense = random_integer_rows(rng, 24, 30, 0.6, list(range(-9, 10)))
    assert np.count_nonzero(dense) > _modp.SPARSE_ENTRY_DENSITY * np.size(dense)
    check_ranks(dense, (P61, P50))
    assert planes == [((24, 30), P61), ((24, 30), P50)] * 2


def with_zero_values(entries):
    """``entries`` reversed, after explicit zeros in column 0 of their rows."""
    taken = {(i, j) for i, j, _v in entries}
    zeros = [(i, 0, 0) for i in sorted({i for i, _j, _v in entries}) if (i, 0) not in taken]
    return zeros + entries[::-1]


def test_kernel_reads_entries_in_any_order(monkeypatch):
    """The shared stage sees the same rows in the same order, and so hands the
    dense finish the same remainder, whatever order the entries come in: row
    major, reversed, shuffled, column major, or with zero values among them.
    Tall and wide blocks, values beyond +-2**63 and a prime above 2**63."""
    rng = random.Random(11)
    chain = sparse_kernel_cases(rng, P61)[-1]  # crosses into the dense finish
    tall = random_integer_rows(rng, 70, 9, 0.15, list(range(-9, 10)))
    wide = [list(col) for col in zip(*tall)]
    beyond = random_integer_rows(rng, 12, 40, 0.1, [2**63, -(2**63) - 1, 2**64 + 5, -(2**70), 3, -1])
    orders = [
        lambda e: e,
        lambda e: e[::-1],
        lambda e: random.Random(5).sample(e, len(e)),
        lambda e: sorted(e, key=lambda t: (t[1], t[0])),
        with_zero_values,
    ]
    handed = []
    finish = _modp._finish_per_prime

    def spy(buckets, *rest):
        handed.append(([list(row.items()) for bucket in buckets.values() for row in bucket], rest))
        return finish(buckets, *rest)

    monkeypatch.setattr(_modp, "_finish_per_prime", spy)
    finished = []
    for rows in (chain, tall, wide, beyond):
        for primes in ((P61, P50), (P64, P62), (5, 7)):
            runs = []
            for order in orders:
                handed.clear()
                try:
                    outcome = _modp.rank_mod_p_dense(kernel_coo(rows, order), primes)
                except _modp.PrimesDisagree as err:
                    outcome = err.ranks
                runs.append((outcome, list(handed)))
            assert all(run == runs[0] for run in runs), primes
            finished.append(bool(runs[0][1]))
            check_ranks(rows, primes)
    assert finished[0], "the chain no longer reaches the dense finish"
    assert 0 in kernel_coo(tall, with_zero_values).values.tolist()
    assert kernel_coo(beyond).values.dtype == object


def test_kernel_ranks_an_empty_block():
    none = np.array([], dtype=np.intp)
    for shape in ((0, 0), (0, 4), (4, 0), (5, 7), (7, 5)):
        for values in (np.array([], dtype=np.int64), np.array([], dtype=object)):
            assert _modp.rank_mod_p_dense(_modp.Coo(none, none, values, shape), (P61, P50)) == 0
    zeros = _modp.Coo(np.arange(3), np.arange(3), np.zeros(3, dtype=np.int64), (3, 6))
    assert _modp.rank_mod_p_dense(zeros, (P64, P62)) == 0


def test_sparse_block_is_never_densified_whole():
    # a scaled partial permutation of 200 rows, 100 more rows that repeat
    # some of them doubled: rank 200 in a 6000 x 6000 block, whose dense
    # int64 array alone would take 288 MB
    rng = random.Random(13)
    rows = rng.sample(range(6000), 300)
    cols = rng.sample(range(6000), 200)
    entries = {(i, j): rng.choice([-3, -1, 1, 2, 5]) for i, j in zip(rows, cols)}
    for i, j in zip(rows[200:], cols):
        entries[(i, j)] = 2 * entries[(rows[cols.index(j)], j)]
    tracemalloc.start()
    try:
        got = mod_p_rank_sparse(entries, 6000, 6000, (P61, P50))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 200
    assert peak < 4 * 2**20, f"peak {peak} bytes"


def test_disagreeing_primes_escalate_to_the_exact_rank():
    m = matrix_from_rows(cycle_rows(30, 5, 12))
    res = rank_details(m, "modular", primes=[5, 7])
    assert res == (30, "exact", (5, 7), True)
    assert rank(m, "exact") == 30


def test_kernel_rejects_a_repeated_prime():
    with pytest.raises(ValueError):
        _modp.rank_mod_p_dense(kernel_coo([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (P61, P61))
    with pytest.raises(ValueError):
        rank_details(matrix_from_rows([[1, 2], [3, 4]]), "modular", primes=[P50, P50])


@pytest.mark.parametrize("addmul", [
    pytest.param(_modp._addmul_longdouble, marks=pytest.mark.skipif(
        not _modp._LONG_DOUBLE_EXACT, reason="long double has no 64-bit mantissa here")),
    _modp._addmul_object,
])
@pytest.mark.parametrize("p", (P50, P61, P62))
def test_twin_update_is_exact(addmul, p):
    rng = random.Random(p % 997)
    edge = [0, 1, 2, p // 2, p - 2] + [rng.randrange(p) for _ in range(10)] + [p - 1]
    f = np.array(edge[1:], dtype=np.uint64)  # multipliers are never zero
    u = np.array(edge, dtype=np.uint64)  # 0 * f and (p - 1) * (p - 1) + (p - 1)
    acc = np.array([[rng.choice(edge) for _ in edge] for _ in edge[1:]], dtype=np.uint64)
    acc[-1, -1] = p - 1
    got = addmul(acc, f, u, p)
    assert got.dtype == np.uint64
    want = [[(int(acc[i, j]) + int(fi) * int(uj)) % p for j, uj in enumerate(u)] for i, fi in enumerate(f)]
    assert got.tolist() == want


def test_active_backend_is_named():
    assert KERNEL_BACKEND == "python"


# ---------------------------------------------------------------------------
# primes


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(561) and not is_prime(2**61 + 1)


def test_random_prime_bit_range():
    rng = random.Random(9)
    for _ in range(5):
        p = random_prime(rng)
        assert is_prime(p)
        assert 50 <= p.bit_length() <= 62


# ---------------------------------------------------------------------------
# resource guard


def test_dense_budget_guard():
    m = ExactMatrix(100000, 100000, {(0, 0): 1})
    with pytest.raises(ResourceLimitError):
        kernel_basis(m, mem_mb=1)
    with pytest.raises(ResourceLimitError):
        rank_details(m, "modular", rng=random.Random(0), mem_mb=1)


# ---------------------------------------------------------------------------
# blocked rank


def test_split_blocks_rejects_label_mixing():
    with pytest.raises(ConventionError):
        split_blocks({(0, 0): 1}, [1], [2])


def test_split_blocks_rejects_index_outside_labels():
    for entries in ({(2, 0): 1}, {(0, 3): 1}, {(-1, 0): 1}):
        with pytest.raises(ValueError):
            split_blocks(entries, [0, 0], [0, 0, 0])


def test_split_blocks_normalizes_entries():
    blocks = split_blocks({(0, 0): Fraction(4, 2), (1, 1): 0, (1, 0): Fraction(1, 3)}, [0, 0], [0, 0])
    ((_w, (_rows, _cols, sub)),) = blocks.items()
    assert sub == {(0, 0): 2, (1, 0): Fraction(1, 3)}
    assert type(sub[(0, 0)]) is int


def test_blocked_rank_matches_plain_rank():
    rng = random.Random(31)
    for trial in range(10):
        nrows, ncols = rng.randint(2, 9), rng.randint(2, 9)
        row_labels = [rng.randint(0, 2) for _ in range(nrows)]
        col_labels = [rng.randint(0, 2) for _ in range(ncols)]
        entries = {}
        for i in range(nrows):
            for j in range(ncols):
                if row_labels[i] == col_labels[j] and rng.random() < 0.7:
                    v = rng.randint(-4, 4)
                    if v:
                        entries[(i, j)] = v
        m = ExactMatrix(nrows, ncols, entries)
        expect = rank(m, "exact")
        blocks = split_blocks(entries, row_labels, col_labels)
        assert blocks.shape == (nrows, ncols) and len(blocks) == len(entries)
        got = blocked_rank_details(blocks, "exact")
        assert got.rank == expect
        got_mod = blocked_rank_details(blocks, "modular", rng=random.Random(trial))
        assert got_mod.rank == expect
        assert got_mod.mode in ("modular", "exact")


def test_blocked_kernel_matches_unblocked():
    from bfsyz.exactalg import blocked_kernel_basis

    rng = random.Random(41)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        row_labels = [rng.randint(0, 2) for _ in range(nrows)]
        col_labels = [rng.randint(0, 2) for _ in range(ncols)]
        entries = {}
        for i in range(nrows):
            for j in range(ncols):
                if row_labels[i] == col_labels[j] and rng.random() < 0.6:
                    v = rng.randint(-4, 4)
                    if v:
                        entries[(i, j)] = v
        m = ExactMatrix(nrows, ncols, entries)
        blocks = split_blocks(entries, row_labels, col_labels)
        ker = blocked_kernel_basis(blocks, col_labels)
        assert len(ker) == ncols - rank(m, "exact")
        assert ker == reference_kernel(m, col_labels)
        rows = dense_rows(m)
        for vec in ker:
            assert_primitive(vec)
            for row in rows:
                assert sum(row[j] * v for j, v in vec.items()) == 0
        # blocked kernel vectors are independent: stack and check rank
        if ker:
            km = ExactMatrix(len(ker), ncols, {(k, j): v for k, vec in enumerate(ker) for j, v in vec.items()})
            assert rank(km, "exact") == len(ker)
        # the column span's echelon basis is the unique rref of the transpose,
        # so a block embedded at the wrong indices shows up here
        cols, pivots = column_echelon(blocks, row_labels)
        reduced, full_pivots = rref_rows(dict_rows(transpose(m)), nrows)
        assert pivots == full_pivots
        got = {(c, i): v for c, vec in enumerate(cols) for i, v in vec.items()}
        assert got == {(c, i): v for c, row in enumerate(reduced) for i, v in row.items()}
        # leftmost-greedy per block is leftmost-greedy over the whole matrix
        assert independent_columns(blocks, col_labels) == rref_rows(dict_rows(m), ncols)[1]


def test_blocked_echelon_rejects_labels_that_miss_the_blocks():
    from bfsyz.exactalg import blocked_kernel_basis

    blocks = split_blocks({(0, 0): 1, (1, 1): 2}, [0, 1], [0, 1, 1])
    for labels in ([0, 1], [0, 0, 1], [0, 1, 2]):
        with pytest.raises(ValueError):
            blocked_kernel_basis(blocks, labels)
    with pytest.raises(ValueError):
        column_echelon(blocks, [1, 1])
    assert blocked_kernel_basis(blocks, [0, 1, 1]) == [{2: 1}]
    assert column_echelon(blocks, [0, 1]) == ([{0: 1}, {1: 1}], [0, 1])


def test_blocked_rank_keeps_a_prime_dividing_a_denominator():
    # 5 divides a denominator in block 0; both blocks still rank modulo 5 and 7
    entries = {(0, 0): Fraction(1, 5), (1, 1): 3}
    blocks = split_blocks(entries, [0, 1], [0, 1])
    res = blocked_rank_details(blocks, "modular", rng=random.Random(4), primes=[5, 7])
    assert res == (2, "modular", (5, 7), False)


def test_blocked_rank_empty_matrix():
    res = blocked_rank_details(split_blocks({}, [0, 1, 2], [0, 1, 2]))
    assert res.rank == 0 and res.mode == "exact"


# ---------------------------------------------------------------------------
# matrix container basics


def test_entries_validation():
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, {(0, 1): 1})
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, {(0, 0): 1.5})
    m = ExactMatrix(2, 2, {(0, 0): Fraction(4, 2), (1, 1): 0})
    assert m.entries == {(0, 0): 2}
    assert m.nnz == 1
    assert m.entry(1, 1) == 0


def test_entries_share_the_callers_key_tuples():
    # a built block and its checked copy hold one set of keys, not two
    entries = {(i, j): i - j for i in range(3) for j in range(4)}
    m = ExactMatrix(3, 4, entries)
    given = {key: key for key in entries}
    assert m.entries == {key: v for key, v in entries.items() if v}
    assert all(key is given[key] for key in m.entries)


def test_transpose_roundtrip():
    m = matrix_from_rows([[1, 2, 3], [0, 0, 4]])
    assert transpose(transpose(m)) == m
    assert transpose(m).shape == (3, 2)


# ---------------------------------------------------------------------------
# matrix file format


def write_v2(path, nrows, ncols, rows, cols, values, encoding, *, key="-", field="QQ", nnz=None):
    """A v2 file written by hand from its parts, with the right sha256 of the body."""
    n = len(rows)
    body = struct.pack(f"<{n}i", *rows) + struct.pack(f"<{len(cols)}i", *cols)
    if encoding == "i8":
        body += struct.pack(f"<{len(values)}q", *values)
    else:
        body += " ".join(values).encode()
    nnz = n if nnz is None else nnz
    digest = hashlib.sha256(body).hexdigest()
    path.write_bytes(
        f"BFSYZ-MAT v2 {nrows} {ncols} {field} {nnz} {encoding} {key} {digest}\n".encode() + body
    )


def header_of(path):
    return path.read_bytes().split(b"\n", 1)[0].decode().split(" ")


def test_io_roundtrips(tmp_path):
    cases = {
        "sparse": (ExactMatrix(5, 7, {(0, 0): 1, (4, 6): Fraction(-3, 7)}), "q"),
        "dense": (matrix_from_rows([[1, 2], [3, Fraction(5, 2)]]), "q"),
        # numpy casts a Fraction to int64 as its integer part, silently
        "fractions": (ExactMatrix(2, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(7, 3)}), "q"),
        "empty shape": (ExactMatrix(0, 0), "i8"),
        "no entries": (ExactMatrix(5, 7), "i8"),
        "int64 ends": (ExactMatrix(1, 3, {(0, 0): 2**63 - 1, (0, 1): -(2**63 - 1), (0, 2): -(2**63)}), "i8"),
        "beyond int64": (ExactMatrix(2, 1, {(0, 0): 2**63, (1, 0): -1}), "q"),
    }
    for name, (m, encoding) in cases.items():
        path = tmp_path / f"{name}.mat"
        dump_matrix(m, path)
        assert header_of(path)[6] == encoding, name
        back = load_matrix(path)
        assert back == m, name
        assert {k: type(v) for k, v in back.entries.items()} == {
            k: type(v) for k, v in m.entries.items()
        }, name


def test_io_gf_field(tmp_path):
    # exact matrices are over QQ alone: a file over another field is refused,
    # which a cache reads as a miss
    path = tmp_path / "g.mat"
    write_v2(path, 2, 2, [0], [1], [3], "i8", field="GF:7")
    with pytest.raises(ValueError, match="field"):
        load_matrix(path)


def test_io_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("NOT-A-MATRIX v1 1 1 dense QQ\n0\n")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_io_rejects_explicit_zero_in_sparse(tmp_path):
    path = tmp_path / "z.mat"
    write_v2(path, 2, 2, [0, 1], [0, 1], [3, 0], "i8")
    with pytest.raises(ValueError, match="zero"):
        load_matrix(path)
    write_v2(path, 2, 2, [0, 1], [0, 1], ["3", "0"], "q")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_io_golden_bytes(tmp_path):
    # v2 cache files must stay byte-identical: these bytes are the v2 format
    ints = ExactMatrix(2, 3, {(1, 2): -1, (0, 0): 7, (0, 2): 2**40})
    ints_body = struct.pack("<3i", 0, 0, 1) + struct.pack("<3i", 0, 2, 2) + struct.pack("<3q", 7, 2**40, -1)
    rationals = ExactMatrix(
        3, 5, {(2, 3): 2**70, (0, 1): -5, (1, 0): Fraction(-3, 7), (0, 0): Fraction(4, 2)}
    )
    rationals_body = (
        struct.pack("<4i", 0, 0, 1, 2) + struct.pack("<4i", 0, 1, 0, 3)
        + b"2 -5 -3/7 1180591620717411303424"
    )
    golden = {
        "demo-i8": (
            ints,
            b"BFSYZ-MAT v2 2 3 QQ 3 i8 demo-i8 "
            b"0a659e1102976106db081e9c147aaeb9ab18c91f9d1594f68b5ece6cc4fbd048\n" + ints_body,
        ),
        "demo-q": (
            rationals,
            b"BFSYZ-MAT v2 3 5 QQ 4 q demo-q "
            b"b5f9e10e88803c417ec70f3d7d8dd9023e1f30c0aab649158d2ef101326cc6cd\n" + rationals_body,
        ),
    }
    for key, (m, data) in golden.items():
        path = tmp_path / f"{key}.mat"
        dump_matrix(m, path, key=key)
        assert path.read_bytes() == data
        assert load_matrix(path, key=key) == m


def test_io_load_scalar_types(tmp_path):
    path = tmp_path / "t.mat"
    write_v2(path, 1, 4, [0] * 4, [0, 1, 2, 3], ["7", "-3/7", "2", "-9"], "q")
    back = load_matrix(path)
    got = [back.entry(0, j) for j in range(4)]
    assert got == [7, Fraction(-3, 7), 2, -9]
    assert [type(v) for v in got] == [int, Fraction, int, int]
    write_v2(path, 1, 2, [0, 0], [0, 1], [5, -2**62], "i8")
    assert [type(v) for v in load_matrix(path).entries.values()] == [int, int]
    for token in ("1/0", "4/2", "4/1", "-0", "+3", "0x10", "1.5", ""):
        write_v2(path, 1, 1, [0], [0], [token], "q")
        with pytest.raises(ValueError):
            load_matrix(path)


def test_io_roundtrips_int_subclass_entries(tmp_path):
    # a bool or another int subclass is stored as the int it equals, so the
    # file written from it is i8 and reads back
    class Count(int):
        pass

    m = ExactMatrix(2, 2, {(0, 0): True, (1, 1): Count(-3)})
    assert [type(v) for v in m.entries.values()] == [int, int]
    path = tmp_path / "b.mat"
    dump_matrix(m, path)
    assert load_matrix(path) == m


def damaged_files():
    """name -> writer(path, good_bytes) producing one kind of bad file."""
    def edit_body(fn):
        def write(path, good):
            header, body = good.split(b"\n", 1)
            path.write_bytes(header + b"\n" + fn(bytearray(body)))
        return write

    def flip(body):
        body[len(body) // 2] ^= 0x01
        return bytes(body)

    return {
        "truncated": edit_body(lambda body: bytes(body[: len(body) // 2])),
        "flipped byte": edit_body(flip),
        "extra byte": edit_body(lambda body: bytes(body) + b"\x00"),
        "v1": lambda path, good: path.write_text("BFSYZ-MAT v1 2 3 sparse QQ\n0 0 7/1\n"),
        "version": lambda path, good: path.write_bytes(good.replace(b" v2 ", b" v3 ", 1)),
        "field": lambda path, good: path.write_bytes(good.replace(b" QQ ", b" RR ", 1)),
        "encoding": lambda path, good: path.write_bytes(good.replace(b" i8 ", b" i4 ", 1)),
        "key": lambda path, good: path.write_bytes(good.replace(b" want ", b" else ", 1)),
        "row range": lambda path, good: write_v2(path, 2, 3, [0, 2], [0, 0], [1, 1], "i8", key="want"),
        "col range": lambda path, good: write_v2(path, 2, 3, [0, 1], [0, -1], [1, 1], "i8", key="want"),
        "order": lambda path, good: write_v2(path, 2, 3, [1, 0], [0, 0], [1, 1], "i8", key="want"),
        "repeat": lambda path, good: write_v2(path, 2, 3, [0, 0], [1, 1], [1, 1], "i8", key="want"),
        "token count": lambda path, good: write_v2(
            path, 2, 3, [0, 1], [0, 0], ["1", "2", "3"], "q", key="want"
        ),
        "nnz": lambda path, good: write_v2(path, 2, 3, [0, 1], [0, 0], [1, 1], "i8", key="want", nnz=3),
        "huge shape": lambda path, good: write_v2(path, 2**40, 3, [0], [0], [1], "i8", key="want"),
    }


@pytest.mark.parametrize("kind", sorted(damaged_files()))
def test_io_rejects_damaged_files(tmp_path, kind):
    path = tmp_path / "want.mat"
    dump_matrix(ExactMatrix(2, 3, {(0, 0): 7, (1, 2): -1}), path, key="want")
    good = path.read_bytes()
    assert load_matrix(path, key="want").nnz == 2
    damaged_files()[kind](path, good)
    assert path.read_bytes() != good
    with pytest.raises(ValueError):
        load_matrix(path, key="want")


def test_io_dump_rejects_indices_beyond_int32(tmp_path):
    with pytest.raises(ValueError):
        dump_matrix(ExactMatrix(2**31 + 1, 1, {(2**31, 0): 1}), tmp_path / "big.mat")
    with pytest.raises(ValueError):
        dump_matrix(ExactMatrix(1, 1), tmp_path / "k.mat", key="two words")
