"""Binary forms, plethysm/wedge bases, q-characters, and highest-weight duality.

Conventions used throughout the package:

* A binary form of degree n is stored by its plain monomial coefficients,
  ``coeffs[i]`` multiplying x1^(n-i) x2^i.  No binomial scalings anywhere.
* ``plethysm_basis(m, n)`` indexes the monomial basis of Sym^m(Sym^n U) by
  exponent vectors (e_0, ..., e_n), sum m, in lexicographically descending
  order; the same order indexes degree-m monomials of a polynomial ring in
  n+1 variables, so plethysm spaces and coordinate rings share indexing.
* q-characters specialize x1 -> q, x2 -> 1, so char(Sym^n U) = 1 + q + ... +
  q^n.  Spaces isomorphic as sl2 representations can differ by a global power
  of q under this specialization (it remembers the ambient homogeneous
  degree); ``QChar.normalized`` strips that power and is what equality of
  sl2 characters means here.  The raw specialization of Wedge^m(Sym^n U)
  sits m(m-1)/2 powers of q above the Gaussian binomial [n+1 choose m]_q;
  the tests pin that shift.
* Two realizations of the sl2 action appear.  On basis vectors ("plain"),
  lowering is the derivation u_i -> (n-i) u_{i+1} and raising is
  u_i -> i u_{i-1}.  On coordinate functions ("dual"), which transform
  contragrediently, lowering acts as phi_m -> (n-m+1) phi_{m-1} and raising
  as phi_m -> (m+1) phi_{m+1}.  Coefficient-extraction matrices (the power
  maps) intertwine the dual realization; printed highest-weight vectors live
  in the plain realization.  ``hw_triple`` bridges the two through the
  symplectic self-duality fixed by x1 ^ x2 -> 1, reading the map one column
  at a time (``fhmaps.Slice.column``), so only the blocks at the weights of
  the vectors it pushes are built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import EquivarianceError

# ---------------------------------------------------------------------------
# binary forms and the transvectant


class BinaryForm:
    """Degree-n binary form; coeffs[i] is the coefficient of x1^(n-i) x2^i."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if degree < 0:
            raise ValueError("negative degree")
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(coeffs)}")
        self.degree = degree
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def derivative_x1(self) -> "BinaryForm":
        n = self.degree
        if n == 0:
            return BinaryForm(0, (0,))
        return BinaryForm(n - 1, tuple(self.coeffs[i] * (n - i) for i in range(n)))

    def derivative_x2(self) -> "BinaryForm":
        n = self.degree
        if n == 0:
            return BinaryForm(0, (0,))
        return BinaryForm(n - 1, tuple(self.coeffs[i + 1] * (i + 1) for i in range(n)))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(c * s for c in self.coeffs))

    def multiply(self, other: "BinaryForm") -> "BinaryForm":
        n, m = self.degree, other.degree
        out = [0] * (n + m + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return BinaryForm(n + m, tuple(out))

    def power(self, a: int) -> "BinaryForm":
        if a < 0:
            raise ValueError("negative power")
        result = BinaryForm(0, (1,))
        for _ in range(a):
            result = result.multiply(self)
        return result

    def substitute(self, mat) -> "BinaryForm":
        """Apply x1 -> m00 x1 + m01 x2, x2 -> m10 x1 + m11 x2."""
        (a, b), (c, d) = mat
        l1 = BinaryForm(1, (a, b))
        l2 = BinaryForm(1, (c, d))
        n = self.degree
        out = BinaryForm(n, (0,) * (n + 1))
        for i, coeff in enumerate(self.coeffs):
            if coeff:
                out = out + l1.power(n - i).multiply(l2.power(i)).scale(coeff)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        raise TypeError("BinaryForm is not hashable")

    def __repr__(self) -> str:
        n = self.degree
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x1^{n - i}*x2^{i}")
        return " + ".join(terms) if terms else "0"


def transvectant(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """First transvectant (Jacobian pairing) f_x1 g_x2 - f_x2 g_x1.

    Degree deg f + deg g - 2; vanishes identically iff f and g share every
    root, e.g. transvectant(G^a, G) = 0.
    """
    if f.degree == 0 and g.degree == 0:
        return BinaryForm(0, (0,))
    out = f.derivative_x1().multiply(g.derivative_x2()) - f.derivative_x2().multiply(
        g.derivative_x1()
    )
    return out


# ---------------------------------------------------------------------------
# bases


@lru_cache(maxsize=None)
def plethysm_basis(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors (e_0..e_n) with sum m, lexicographically descending.

    Indexes both the monomials of Sym^m(Sym^n U) and the degree-m monomials
    of a polynomial ring in n+1 ordered variables.  len = binom(n+m, m).
    """
    if m < 0:
        return ()
    return tuple(_compositions(m, n + 1))


def _compositions(total: int, parts: int):
    """``parts`` nonnegative integers with sum ``total``, lexicographically
    descending.  A module-level recursion, so a call leaves no reference
    cycle behind (a closure recursing through itself would)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def plethysm_counts(m: int, n: int) -> tuple[int, ...]:
    """counts[s]: the exponent vectors of ``plethysm_basis(m, n)`` with
    sum_i i*e_i = s, for s = 0..mn.

    These are the size-m multisets of {0..n} counted by their sum
    (partitions in an m x n box), grown one value at a time; no basis is
    listed.  s fixes the weight: 2s - mn in the coordinate realization.
    """
    if m < 0:
        return ()
    top = m * n
    # table[j][s]: size-j multisets of {0..i} with sum s; j runs upward, so
    # the value i added last may repeat
    table = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(m)]
    for i in range(n + 1):
        for j in range(1, m + 1):
            row = table[j]
            row[i:] = [x + y for x, y in zip(row[i:], table[j - 1])]
    return tuple(table[m])


def plethysm_block(m: int, n: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of ``plethysm_basis(m, n)`` with sum_i i*e_i = s,
    in the order of the basis.

    Lists one weight block without the rest of the basis: each e_i runs
    downward over the values that leave the remaining sum reachable, so
    every branch ends in a vector.
    """
    if m < 0 or not 0 <= s <= m * n:
        return ()
    out: list = []
    _fill_block(out, [0] * (n + 1), 0, m, s)
    return tuple(out)


def _fill_block(out: list, e: list, i: int, t: int, rest: int) -> None:
    """Append to ``out`` every completion of ``e[:i]`` that puts t more on
    indices i..n with weighted sum ``rest``, which is reachable.  A
    module-level recursion, so a call leaves no reference cycle behind."""
    n = len(e) - 1
    if i == n:
        e[n] = t
        out.append(tuple(e))
        return
    for c in range(min(t, (n * t - rest) // (n - i)), max(0, (i + 1) * t - rest) - 1, -1):
        e[i] = c
        _fill_block(out, e, i + 1, t - c, rest - i * c)


@lru_cache(maxsize=None)
def plethysm_index(m: int, n: int) -> dict:
    return {e: k for k, e in enumerate(plethysm_basis(m, n))}


@lru_cache(maxsize=None)
def wedge_basis(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """m-element subsets of {0..n} in lexicographic order; len = binom(n+1, m)."""
    return tuple(combinations(range(n + 1), m))


@lru_cache(maxsize=None)
def wedge_index(m: int, n: int) -> dict:
    return {t: k for k, t in enumerate(wedge_basis(m, n))}


def plain_weight(exp, n: int) -> int:
    """Torus weight of the basis monomial u^exp: sum e_i (n - 2i)."""
    return sum(e * (n - 2 * i) for i, e in enumerate(exp))


def coord_weight(exp, n: int) -> int:
    """Torus weight of the coordinate monomial phi^exp: sum e_i (2i - n)."""
    return -plain_weight(exp, n)


# ---------------------------------------------------------------------------
# q-characters


class QChar:
    """Integer polynomial in q; coeffs[k] is the multiplicity of q^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(int(c) for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def normalized(self) -> "QChar":
        """Strip the global q-power (sl2-character normal form)."""
        if not self.coeffs:
            return self
        low = 0
        while self.coeffs[low] == 0:
            low += 1
        return QChar(self.coeffs[low:])

    def __add__(self, other: "QChar") -> "QChar":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return QChar(out)

    def __mul__(self, other: "QChar") -> "QChar":
        if not self.coeffs or not other.coeffs:
            return QChar(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return QChar(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QChar):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QChar(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"q^{i}" if c == 1 else f"{c}q^{i}"))
        return "QChar(" + " + ".join(terms) + ")"


def char_plethysm(m: int, n: int) -> QChar:
    """Character of Sym^m(Sym^n U) from ``plethysm_counts``.

    The x1-degree of u^e is mn - sum_i i*e_i.  Equals the Gaussian binomial
    [m + n choose m]_q exactly (lowest weight already at q^0).
    """
    return QChar(plethysm_counts(m, n)[::-1])


def char_wedge(m: int, n: int) -> QChar:
    """Character of Wedge^m(Sym^n U) by counting m-subsets of {0..n} by sum.

    The x1-degree of the wedge of u_t for t in T is mn - sum(T).
    """
    if m > n + 1:
        return QChar(())
    top = m * n
    # table[j][s]: size-j subsets of {0..i} with sum s; j runs downward, so
    # the value i added last is used at most once
    table = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(m)]
    for i in range(n + 1):
        for j in range(min(m, i + 1), 0, -1):
            row = table[j]
            row[i:] = [x + y for x, y in zip(row[i:], table[j - 1])]
    return QChar(table[m][::-1])


def char_identity_check(a: int, b: int, i: int) -> bool:
    """Termwise character identity behind the two resolutions of length b-1.

    Compares Wedge^i(Sym^(d+b-2)U) (x) Sym^(b-1-i)(Sym^d U) against
    Sym^i(Sym^d U) (x) Wedge^(b-1-i)(Sym^(d+b-2)U) as sl2 characters
    (normalized q-polynomials).  Both sides are computed independently, by
    counting multisets and subsets by their sum and by polynomial
    multiplication; no Gaussian binomial or other shared shortcut.
    """
    d = a * b
    lhs = char_wedge(i, d + b - 2) * char_plethysm(b - 1 - i, d)
    rhs = char_plethysm(i, d) * char_wedge(b - 1 - i, d + b - 2)
    return lhs.normalized() == rhs.normalized()


def koszul_image_weights(n: int, i: int, j: int) -> dict:
    """{weight: dimension} of the image of the Koszul differential
    Wedge^i V (x) S_{j-i} -> Wedge^{i-1} V (x) S_{j-i+1}, V = Sym^n U and
    S = Sym(V), for i >= 1 and j > 0; zero dimensions are left out.

    The Koszul complex of S is exact in every degree j > 0 (Eisenbud,
    *Commutative Algebra*, Cor. 17.5), so the image is the alternating sum
    over k >= i of the characters of Wedge^k V (x) S_{j-k}.  The weight of
    x1-degree D is 2D - jn, the coordinate weight up to w -> -w, under which
    every such character is symmetric.
    """
    out: dict = {}
    for k in range(i, min(n + 1, j) + 1):
        for x1, c in enumerate((char_wedge(k, n) * char_plethysm(j - k, n)).coeffs):
            out[2 * x1 - j * n] = out.get(2 * x1 - j * n, 0) + (-1) ** (k - i) * c
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# self-duality and highest-weight proportionality scalars


def _duality_scalar(exp, n: int) -> Fraction:
    """Scalar s with sigma(u^exp) = s * phi^(reversed exp).

    sigma is the symplectic self-duality Sym^n U -> (Sym^n U)^dual induced by
    x1 ^ x2 -> 1, extended multiplicatively to plethysm monomials:
    sigma(u_i) = (-1)^i binom(n, i)^(-1) phi_{n-i}.
    """
    sign = -1 if sum(i * e for i, e in enumerate(exp)) % 2 else 1
    den = 1
    for i, e in enumerate(exp):
        if e:
            den *= comb(n, i) ** e
    return Fraction(sign, den)


def plain_to_coordinates(poly: dict, n: int) -> dict:
    """Apply the self-duality: plain plethysm monomials -> coordinate monomials."""
    out: dict = {}
    for exp, coeff in poly.items():
        rev = exp[::-1]
        val = coeff * _duality_scalar(exp, n)
        out[rev] = out.get(rev, 0) + val
    return {k: v for k, v in out.items() if v}


def coordinates_to_plain(poly: dict, n: int) -> dict:
    """Inverse of plain_to_coordinates."""
    out: dict = {}
    for exp, coeff in poly.items():
        rev = exp[::-1]
        val = coeff / _duality_scalar(rev, n)
        out[rev] = out.get(rev, 0) + val
    return {k: v for k, v in out.items() if v}


def hw_triple(column, n_src: int, n_dst: int, pairs) -> list:
    """Proportionality scalars of a coefficient-extraction map on hw vectors.

    ``column(exp)`` is the coordinate-realization map's column at the source
    monomial ``exp`` (inner degree ``n_src``), as ``{target monomial:
    coeff}`` (inner degree ``n_dst``).  ``pairs`` is a list of (v, w) with
    v, w plain-realization monomial dicts in the source and target.  Each v
    is pushed through the self-duality, the map, and the inverse
    self-duality; the result must be an exact rational multiple a_i * w_i
    (EquivarianceError otherwise).  Returns [a_i].
    """
    scalars = []
    for v, w in pairs:
        out_vec: dict = {}
        for exp, x in plain_to_coordinates(v, n_src).items():
            for mono, a in column(exp).items():
                out_vec[mono] = out_vec.get(mono, 0) + a * x
        image = coordinates_to_plain(out_vec, n_dst)
        w_clean = {k: v2 for k, v2 in w.items() if v2}
        if not image:
            scalars.append(Fraction(0))
            continue
        if set(image) != set(w_clean):
            raise EquivarianceError(
                f"image support {sorted(image)} does not match target vector support {sorted(w_clean)}"
            )
        first = next(iter(sorted(w_clean)))
        a = Fraction(image[first]) / Fraction(w_clean[first])
        for key, val in w_clean.items():
            if image[key] != a * val:
                raise EquivarianceError("image is not proportional to the target hw vector")
        scalars.append(a)
    return scalars


# Hard-coded highest weight vectors for the shipped power-map case
# (squares of binary quartics): sources in z-symbols (inner degree 4),
# targets in y-symbols (inner degree 2), plain realization.
HW_SOURCE_VECTORS_2_2 = (
    {(2, 0, 0, 0, 0): 1},                                    # weight 8: z0^2
    {(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1},               # weight 4: z0 z2 - z1^2
    {(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): -4, (0, 0, 2, 0, 0): 3},  # weight 0
)
HW_TARGET_VECTORS_2_2 = (
    {(4, 0, 0): 1},                                          # weight 8: y0^4
    {(2, 2, 0): 1, (3, 0, 1): -1},                           # weight 4: y0^2 y1^2 - y0^3 y2
    {(0, 4, 0): 1, (1, 2, 1): -2, (2, 0, 2): 1},             # weight 0
)

# Reference normalization of the classical degree-(2,4) coefficient
# isomorphism, stored (never recomputed) for the inequality check against the
# power-map triple.
CLASSICAL_REFERENCE_TRIPLE = (Fraction(1), Fraction(1, 4), Fraction(1, 2))
