"""sl2 layer: forms, transvectant, bases, q-characters, operators, duality."""

import random
from fractions import Fraction
from math import comb

import pytest

from bfsyz.errors import EquivarianceError
from bfsyz.exactalg import ExactMatrix, kernel_basis
from bfsyz.sl2rep import (
    HW_SOURCE_VECTORS_2_2,
    HW_TARGET_VECTORS_2_2,
    BinaryForm,
    QChar,
    char_identity_check,
    char_plethysm,
    char_wedge,
    coord_weight,
    coordinates_to_plain,
    hw_triple,
    plain_to_coordinates,
    plain_weight,
    plethysm_basis,
    plethysm_block,
    plethysm_counts,
    plethysm_index,
    transvectant,
    wedge_basis,
)


def x1_count(exp, n: int) -> int:
    """Total x1-degree of the plethysm monomial u^exp (inner degree n)."""
    return sum(e * (n - i) for i, e in enumerate(exp))


def random_form(rng, degree, lo=-5, hi=5):
    return BinaryForm(degree, [rng.randint(lo, hi) for _ in range(degree + 1)])


def random_poly(rng, m, n, terms=3):
    basis = plethysm_basis(m, n)
    out = {}
    for _ in range(terms):
        out[rng.choice(basis)] = rng.randint(-4, 4)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# binary forms


def test_form_arithmetic():
    f = BinaryForm(2, (1, 0, -1))
    g = BinaryForm(1, (1, 1))
    assert f.multiply(g).coeffs == (1, 1, -1, -1)
    assert g.power(2).coeffs == (1, 2, 1)
    assert g.power(0).coeffs == (1,)
    assert (f - f).is_zero()


def test_form_substitute():
    f = BinaryForm(2, (1, 0, 0))  # x1^2
    assert f.substitute(((1, 1), (0, 1))).coeffs == (1, 2, 1)
    g = BinaryForm(1, (1, 0))  # x1
    assert g.substitute(((0, 1), (1, 0))).coeffs == (0, 1)  # swap gives x2


def test_form_validation():
    with pytest.raises(ValueError):
        BinaryForm(2, (1, 2))
    with pytest.raises(ValueError):
        BinaryForm(1, (1, 2)).multiply(BinaryForm(1, (1, 2))) + BinaryForm(1, (1, 2))


def test_transvectant_pinned_example():
    f = BinaryForm(4, (1, 0, 0, 0, 0))  # x1^4
    g = BinaryForm(2, (0, 1, 0))        # x1 x2
    assert transvectant(f, g) == BinaryForm(4, (4, 0, 0, 0, 0))


def test_transvectant_antisymmetric_and_kills_powers():
    rng = random.Random(2)
    for _ in range(10):
        g = random_form(rng, rng.randint(1, 4))
        f = random_form(rng, rng.randint(1, 4))
        assert (transvectant(f, g) + transvectant(g, f)).is_zero()
        a = rng.randint(1, 3)
        assert transvectant(g.power(a), g).is_zero()


def test_transvectant_covariance():
    rng = random.Random(4)
    for _ in range(6):
        f = random_form(rng, 3)
        g = random_form(rng, 2)
        mat = ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), rng.randint(-3, 3)))
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        lhs = transvectant(f.substitute(mat), g.substitute(mat))
        rhs = transvectant(f, g).substitute(mat).scale(det)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# bases and weights


def test_plethysm_basis_order_and_count():
    basis = plethysm_basis(2, 2)
    assert basis == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    for m in range(4):
        for n in range(4):
            b = plethysm_basis(m, n)
            assert len(b) == comb(n + m, m)
            assert all(sum(e) == m for e in b)
            assert list(b) == sorted(b, reverse=True)
            assert plethysm_index(m, n)[b[-1]] == len(b) - 1


def test_wedge_basis_count():
    assert wedge_basis(2, 2) == ((0, 1), (0, 2), (1, 2))
    assert wedge_basis(0, 3) == ((),)
    for m in range(5):
        assert len(wedge_basis(m, 3)) == comb(4, m)


def test_plethysm_block_is_the_basis_filtered_by_s():
    for m in range(6):
        for n in range(6):
            basis = plethysm_basis(m, n)
            for s in range(-1, m * n + 2):
                want = tuple(e for e in basis if sum(i * x for i, x in enumerate(e)) == s)
                assert plethysm_block(m, n, s) == want, (m, n, s)
    assert plethysm_block(-1, 2, 0) == ()


def test_plethysm_counts_are_the_block_sizes():
    for m in range(7):
        for n in range(7):
            counts = plethysm_counts(m, n)
            assert len(counts) == m * n + 1
            assert counts == tuple(len(plethysm_block(m, n, s)) for s in range(m * n + 1))
            assert sum(counts) == comb(n + m, m)
    assert plethysm_counts(-1, 3) == ()


def test_weight_conventions():
    for e in plethysm_basis(3, 4):
        assert plain_weight(e, 4) == 2 * x1_count(e, 4) - 3 * 4
        assert coord_weight(e, 4) == -plain_weight(e, 4)


# ---------------------------------------------------------------------------
# q-characters

# The Gaussian binomials, by exact division of q-factorials: the reference
# that the counted characters char_plethysm and char_wedge are compared against.


def _qchar_divide(num: QChar, den: QChar) -> QChar:
    """Exact polynomial division; raises if the remainder is nonzero."""
    rem = list(num.coeffs)
    d = list(den.coeffs)
    if not d:
        raise ZeroDivisionError("division by zero q-polynomial")
    out = [0] * (len(rem) - len(d) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(d) - 1]
        if c % d[-1]:
            raise ArithmeticError("non-exact q-polynomial division")
        q = c // d[-1]
        out[k] = q
        if q:
            for i, dv in enumerate(d):
                rem[k + i] -= q * dv
    if any(rem):
        raise ArithmeticError("non-exact q-polynomial division")
    return QChar(out)


def q_bracket(k: int) -> QChar:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return QChar((1,) * k)


def q_factorial(n: int) -> QChar:
    out = QChar((1,))
    for k in range(1, n + 1):
        out = out * q_bracket(k)
    return out


def q_binomial(n: int, m: int) -> QChar:
    """Gaussian binomial [n choose m]_q via exact division of q-factorials."""
    if m < 0 or m > n:
        return QChar(())
    return _qchar_divide(q_factorial(n), q_factorial(m) * q_factorial(n - m))


def shifted(ch: QChar, k: int) -> QChar:
    """``ch`` multiplied by q^k."""
    return QChar((0,) * k + ch.coeffs) if ch.coeffs else ch


def wedge_char_shift(m: int) -> int:
    """The raw x1 -> q specialization of Wedge^m(Sym^n U) sits m(m-1)/2
    powers of q above the Gaussian binomial [n+1 choose m]_q."""
    return m * (m - 1) // 2


def test_q_binomial_values():
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(3, 0).coeffs == (1,)
    assert q_binomial(2, 5).is_zero()
    for n in range(7):
        for m in range(n + 1):
            qb = q_binomial(n, m)
            assert qb == q_binomial(n, n - m)
            assert sum(qb.coeffs) == comb(n, m)  # the dimension, q = 1
            assert qb.coeffs == qb.coeffs[::-1]  # symmetric


def char_plethysm_by_enumeration(m: int, n: int) -> QChar:
    """Reference: the character of Sym^m(Sym^n U) from the listed basis."""
    counts = [0] * (m * n + 1)
    for e in plethysm_basis(m, n):
        counts[x1_count(e, n)] += 1
    return QChar(counts)


def char_wedge_by_enumeration(m: int, n: int) -> QChar:
    """Reference: the character of Wedge^m(Sym^n U) from the listed basis."""
    if m > n + 1:
        return QChar(())
    counts = [0] * (m * n + 1 if m else 1)
    for t in wedge_basis(m, n):
        counts[sum(n - i for i in t)] += 1
    return QChar(counts)


def criterion_10_pairs():
    """The (m, n) of every plethysm and wedge character that the 75
    identities of the 5 x 5 range (a, b <= 5, i < b) multiply."""
    sym, wedge = set(), set()
    for a in range(1, 6):
        for b in range(1, 6):
            d = a * b
            for i in range(b):
                sym |= {(b - 1 - i, d), (i, d)}
                wedge |= {(i, d + b - 2), (b - 1 - i, d + b - 2)}
    return sorted(sym), sorted(wedge)


def test_counted_characters_equal_the_enumerated_ones():
    sym, wedge = criterion_10_pairs()
    assert len(sym) == 53 and len(wedge) == 55
    grid = [(m, n) for m in range(6) for n in range(7)]
    for m, n in sorted(set(sym) | set(grid)):
        assert char_plethysm(m, n) == char_plethysm_by_enumeration(m, n), (m, n)
    for m, n in sorted(set(wedge) | set(grid)):
        assert char_wedge(m, n) == char_wedge_by_enumeration(m, n), (m, n)


def test_char_plethysm_is_gaussian_binomial():
    for m in range(5):
        for n in range(5):
            assert char_plethysm(m, n) == q_binomial(m + n, m)


def test_char_wedge_shift_convention():
    for m in range(5):
        for n in range(m, 6):
            assert char_wedge(m, n) == shifted(q_binomial(n + 1, m), wedge_char_shift(m))
    assert char_wedge(5, 3).is_zero()


def is_genuine(ch: QChar) -> bool:
    """A character with no negative multiplicity."""
    return all(c >= 0 for c in ch.coeffs)


def test_qchar_ops():
    a = QChar((1, 1))
    assert (a * a).coeffs == (1, 2, 1)
    assert (a + a).coeffs == (2, 2)
    assert QChar((0, 0, 1, 2)).normalized().coeffs == (1, 2)
    assert QChar((0, 0)).is_zero()
    assert shifted(a, 2).coeffs == (0, 0, 1, 1)
    assert is_genuine(a) and not is_genuine(QChar((1, -1)))


def test_char_identity_small_grid():
    for a, b in [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
        for i in range(b):
            assert char_identity_check(a, b, i), (a, b, i)


# ---------------------------------------------------------------------------
# sl2 operators on plethysm (or coordinate-ring) monomial spaces
#
# Polynomials are sparse dicts {exponent tuple: coefficient}.  All four
# actions are derivations; "plain" acts on basis monomials u_i, "dual" on
# coordinate functions phi_i.


def _derivation(poly: dict, n: int, rate, step: int) -> dict:
    out: dict = {}
    for exp, coeff in poly.items():
        if not coeff:
            continue
        for i, e in enumerate(exp):
            if not e:
                continue
            r = rate(i)
            if not r:
                continue
            j = i + step
            if j < 0 or j > n:
                continue
            new = list(exp)
            new[i] -= 1
            new[j] += 1
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff * e * r
    return {k: v for k, v in out.items() if v}


def lowering_action(n: int, poly: dict) -> dict:
    """Plain lowering: derivation extending u_i -> (n-i) u_{i+1}."""
    return _derivation(poly, n, lambda i: n - i, +1)


def raising_action(n: int, poly: dict) -> dict:
    """Plain raising: derivation extending u_i -> i u_{i-1}."""
    return _derivation(poly, n, lambda i: i, -1)


def dual_lowering_action(n: int, poly: dict) -> dict:
    """Lowering on coordinate functions: phi_m -> (n-m+1) phi_{m-1}."""
    return _derivation(poly, n, lambda i: n - i + 1, -1)


def dual_raising_action(n: int, poly: dict) -> dict:
    """Raising on coordinate functions: phi_m -> (m+1) phi_{m+1}."""
    return _derivation(poly, n, lambda i: i + 1, +1)


def test_operator_commutators_give_weight():
    rng = random.Random(8)
    for m, n in [(1, 3), (2, 2), (2, 4), (3, 2)]:
        for e in plethysm_basis(m, n):
            v = {e: 1}
            rl = raising_action(n, lowering_action(n, v))
            lr = lowering_action(n, raising_action(n, v))
            diff = {k: rl.get(k, 0) - lr.get(k, 0) for k in set(rl) | set(lr)}
            diff = {k: c for k, c in diff.items() if c}
            expect = {e: plain_weight(e, n)} if plain_weight(e, n) else {}
            assert diff == expect
            # dual realization: same commutator gives the coordinate weight
            rl = dual_raising_action(n, dual_lowering_action(n, v))
            lr = dual_lowering_action(n, dual_raising_action(n, v))
            diff = {k: rl.get(k, 0) - lr.get(k, 0) for k in set(rl) | set(lr)}
            diff = {k: c for k, c in diff.items() if c}
            expect = {e: coord_weight(e, n)} if coord_weight(e, n) else {}
            assert diff == expect
        v = random_poly(rng, m, n)
        assert lowering_action(n, lowering_action(n, {})) == {}


def test_operator_weight_shifts():
    n, m = 3, 2
    for e in plethysm_basis(m, n):
        for key in lowering_action(n, {e: 1}):
            assert plain_weight(key, n) == plain_weight(e, n) - 2
        for key in raising_action(n, {e: 1}):
            assert plain_weight(key, n) == plain_weight(e, n) + 2
        for key in dual_lowering_action(n, {e: 1}):
            assert coord_weight(key, n) == coord_weight(e, n) - 2
        for key in dual_raising_action(n, {e: 1}):
            assert coord_weight(key, n) == coord_weight(e, n) + 2


def operator_matrix(action, m: int, n: int) -> dict:
    """Sparse matrix {(row, col): coeff} of an sl2 action on plethysm_basis(m, n)."""
    index = plethysm_index(m, n)
    entries = {}
    for col, exp in enumerate(plethysm_basis(m, n)):
        for key, val in action(n, {exp: 1}).items():
            entries[(index[key], col)] = val
    return entries


def test_operator_matrix_matches_action():
    entries = operator_matrix(lowering_action, 2, 2)
    basis = plethysm_basis(2, 2)
    index = plethysm_index(2, 2)
    for col, e in enumerate(basis):
        image = lowering_action(2, {e: 1})
        got = {r: v for (r, c), v in entries.items() if c == col}
        assert got == {index[k]: v for k, v in image.items()}


# ---------------------------------------------------------------------------
# self-duality


def test_duality_roundtrip():
    rng = random.Random(13)
    for m, n in [(2, 2), (2, 4), (3, 3)]:
        for _ in range(5):
            v = random_poly(rng, m, n)
            assert coordinates_to_plain(plain_to_coordinates(v, n), n) == v


def test_duality_intertwines_with_sign():
    # sigma . L_plain = - L_dual . sigma, and likewise for raising: the
    # twist is conjugation by a torus element, so sigma still matches up
    # weight spaces and highest weight vectors.
    rng = random.Random(17)
    for m, n in [(2, 2), (2, 4), (3, 2)]:
        for _ in range(5):
            v = random_poly(rng, m, n)
            lhs = plain_to_coordinates(lowering_action(n, v), n)
            rhs = dual_lowering_action(n, plain_to_coordinates(v, n))
            assert lhs == {k: -c for k, c in rhs.items()}
            lhs = plain_to_coordinates(raising_action(n, v), n)
            rhs = dual_raising_action(n, plain_to_coordinates(v, n))
            assert lhs == {k: -c for k, c in rhs.items()}


def test_duality_preserves_weight():
    for m, n in [(2, 4), (3, 2)]:
        for e in plethysm_basis(m, n):
            img = plain_to_coordinates({e: 1}, n)
            (key,) = img
            assert coord_weight(key, n) == plain_weight(e, n)


# ---------------------------------------------------------------------------
# highest weight vectors


def highest_weight_vectors(m: int, n: int, weight: int) -> list[dict]:
    """Plain-realization highest weight vectors of a given weight.

    Returns primitive integer vectors (as exponent dicts) spanning the kernel
    of the plain raising operator restricted to the weight space of
    Sym^m(Sym^n U).
    """
    basis = plethysm_basis(m, n)
    cols = [e for e in basis if plain_weight(e, n) == weight]
    if not cols:
        return []
    # raising sends weight w to w + 2
    target = [e for e in basis if plain_weight(e, n) == weight + 2]
    tindex = {e: k for k, e in enumerate(target)}
    entries = {}
    for j, e in enumerate(cols):
        for key, val in raising_action(n, {e: 1}).items():
            entries[(tindex[key], j)] = val
    mat = ExactMatrix(len(target), len(cols), entries)
    return [{cols[i]: v for i, v in vec.items()} for vec in kernel_basis(mat)]


def test_hw_vectors_sym2_sym2():
    assert highest_weight_vectors(2, 2, 4) == [{(2, 0, 0): 1}]
    assert highest_weight_vectors(2, 2, 2) == []
    assert highest_weight_vectors(2, 2, 0) == [{(1, 0, 1): 1, (0, 2, 0): -1}]


def test_pinned_hw_vectors_are_highest_weight():
    weights = (8, 4, 0)
    for v, w_expect in zip(HW_SOURCE_VECTORS_2_2, weights):
        assert raising_action(4, v) == {}
        assert all(plain_weight(e, 4) == w_expect for e in v)
    for w, w_expect in zip(HW_TARGET_VECTORS_2_2, weights):
        assert raising_action(2, w) == {}
        assert all(plain_weight(e, 2) == w_expect for e in w)


def identity_columns(exp) -> dict:
    """The identity map of Sym^2(Sym^2 U), one column at a time."""
    return {exp: 1}


def test_hw_triple_identity_map():
    v = {(1, 0, 1): 1, (0, 2, 0): -1}
    out = hw_triple(identity_columns, 2, 2, [(v, v)])
    assert out == [Fraction(1)]


def test_hw_triple_detects_non_proportional():
    v = {(1, 0, 1): 1, (0, 2, 0): -1}
    w = {(1, 0, 1): 1, (0, 2, 0): -2}
    with pytest.raises(EquivarianceError):
        hw_triple(identity_columns, 2, 2, [(v, w)])
