"""Sparse rational polynomials, graded ideals, Hilbert functions, monomial ideals.

The rings here are standard graded (every variable has degree 1) with a torus
weight attached to each variable: variable i of a ring with n+1 variables has
weight 2i - n.  A ``GradedIdeal`` is generated by weight-homogeneous
polynomials (it refuses any other generator), so graded pieces split into
weight blocks and all echelon/rank work runs blockwise; results are identical
to the unblocked computation because distinct blocks touch disjoint monomial
sets.

Graded pieces are echelonized bases (columns = basis vectors over the degree-k
monomial basis) and can be cached to disk in the matrix file format, keyed by
an ideal fingerprint and the degree.  Cache writes go through a temp file and
an atomic rename, so concurrent writers are last-writer-wins with identical
deterministic content.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod
from pathlib import Path
from typing import NamedTuple

from .exactalg import (
    ExactMatrix,
    WeightBlocks,
    blocked_rank_details,
    dump_matrix,
    load_matrix,
    rank_details,  # noqa: F401 (unused; perfbench/spans.py REQUIRED_COPIES needs it)
)
from .exactalg.matrix import RankResult, _normalize_scalar, column_echelon, independent_columns
from .exactalg.matrix import rref_rows  # noqa: F401 (unused; perfbench/spans.py REQUIRED_COPIES needs it)
from .sl2rep import coord_weight, plethysm_basis, plethysm_block, plethysm_counts


def cache_directory(override=None) -> Path | None:
    """Cache root from ``override``, else BFSYZ_CACHE (None = disabled).

    The directory is created if needed; a path that names a file raises
    ``ValueError``, which the CLI reports as a usage error.
    """
    base = override if override is not None else os.environ.get("BFSYZ_CACHE")
    if not base:
        return None
    path = Path(base)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"cache path {str(path)!r} is not a directory") from None
    return path


def load_cached(path: Path, nrows: int, ncols: int | None = None) -> ExactMatrix | None:
    """The QQ matrix cached at ``path``, or None for a miss.

    A file that is absent, fails any check of ``load_matrix`` (a damaged body,
    another format version or field, a producer key other than the file
    stem) or is not ``nrows`` x ``ncols`` (any column count when ``ncols`` is
    None) is a miss; the caller rebuilds the matrix and rewrites the file.  An entry that exists but is not a regular file (a directory)
    cannot be rewritten either: it raises ``ValueError`` naming the path,
    which the CLI reports as a usage error.
    """
    if not path.exists():
        return None
    if not path.is_file():
        raise ValueError(f"cache entry {str(path)!r} is not a regular file")
    try:
        m = load_matrix(path, key=path.stem)
    except ValueError:
        return None
    if m.nrows != nrows or (ncols is not None and m.ncols != ncols):
        return None
    return m


def atomic_dump(matrix: ExactMatrix, path: Path) -> None:
    """Write ``matrix`` to ``path`` keyed by the file stem, through a temporary file."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        dump_matrix(matrix, tmp, key=path.stem)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class PolyRing:
    """QQ[prefix0 .. prefix{n}] with variable i carrying torus weight 2i - n."""

    __slots__ = ("nvars", "prefix")

    def __init__(self, nvars: int, prefix: str = "c"):
        if nvars < 1:
            raise ValueError("ring needs at least one variable")
        self.nvars = nvars
        self.prefix = prefix

    def variable_names(self) -> list[str]:
        return [f"{self.prefix}{i}" for i in range(self.nvars)]

    def monomials(self, k: int):
        """Degree-k exponent vectors, lexicographically descending."""
        if k < 0:
            return ()
        return plethysm_basis(k, self.nvars - 1)

    def monomial_weight(self, exp) -> int:
        return coord_weight(exp, self.nvars - 1)

    def dimension(self, k: int) -> int:
        if k < 0:
            return 0
        return comb(self.nvars - 1 + k, self.nvars - 1)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return MultiPoly(self, {(0,) * self.nvars: 1})

    def variable(self, i: int) -> "MultiPoly":
        exp = [0] * self.nvars
        exp[i] = 1
        return MultiPoly(self, {tuple(exp): 1})

    def monomial(self, exp) -> "MultiPoly":
        return MultiPoly(self, {tuple(exp): 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.nvars == other.nvars and self.prefix == other.prefix

    def __hash__(self):
        return hash((self.nvars, self.prefix))

    def __repr__(self) -> str:
        names = self.variable_names()
        shown = ", ".join(names) if len(names) <= 4 else f"{names[0]}..{names[-1]}"
        return f"PolyRing(QQ[{shown}])"


@lru_cache(maxsize=None)
def _monomial_weights(nvars: int, k: int) -> tuple[int, ...]:
    """Torus weights of the degree-k monomials in ``nvars`` variables, in basis order."""
    return tuple(coord_weight(e, nvars - 1) for e in plethysm_basis(k, nvars - 1))


def _pack(exp, base: int) -> int:
    """The exponent vector ``exp`` as the integer sum_i exp_i * base^i.

    With ``base`` above every exponent that occurs, packing is injective and
    turns a monomial product into one integer addition.
    """
    out = 0
    for e in reversed(exp):
        out = out * base + e
    return out


class MultiPoly:
    """Sparse polynomial {exponent tuple: coefficient}; zero coefficients dropped."""

    __slots__ = ("ring", "terms", "homogeneous_degree")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != ring.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {ring!r}")
            coeff = _normalize_scalar(coeff)
            if coeff:
                clean[exp] = coeff
        self.terms = clean
        degrees = {sum(e) for e in clean}
        self.homogeneous_degree = degrees.pop() if len(degrees) == 1 else None

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def weight(self) -> int | None:
        """Common torus weight of all terms, or None if mixed."""
        weights = {self.ring.monomial_weight(e) for e in self.terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            # scalars embed as constants, so sum() and friends work
            other = MultiPoly(self.ring, {(0,) * self.ring.nvars: other})
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return MultiPoly(self.ring, out)

    def __radd__(self, other) -> "MultiPoly":
        return self + other

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly(self.ring, {(0,) * self.ring.nvars: other})
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def scale(self, s) -> "MultiPoly":
        return MultiPoly(self.ring, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def power(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def __pow__(self, k: int) -> "MultiPoly":
        return self.power(k)

    def evaluate(self, point):
        """Value at a rational point (sequence of length nvars)."""
        if len(point) != self.ring.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for exp, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exp):
                if e:
                    v *= x**e
            total += v
        return total

    def to_json(self) -> dict:
        terms = []
        for exp in sorted(self.terms, reverse=True):
            f = Fraction(self.terms[exp])
            terms.append({"exp": list(exp), "coeff": f"{f.numerator}/{f.denominator}"})
        return {"vars": self.ring.variable_names(), "terms": terms}

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.ring.nvars: _normalize_scalar(other)}
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.variable_names()
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append((coeff, str(abs(coeff)) if coeff != 0 else "0"))
                continue
            if abs(coeff) == 1:
                parts.append((coeff, mono))
            else:
                parts.append((coeff, f"{abs(coeff)}*{mono}"))
        out = ""
        for coeff, text in parts:
            sign = "-" if coeff < 0 else "+"
            if not out:
                out = f"-{text}" if coeff < 0 else text
            else:
                out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


class PieceValue(NamedTuple):
    value: int
    rank: RankResult


class GradedIdeal:
    """Homogeneous ideal given by generators; graded pieces and their bases.

    The degree-k piece is span{m * g : g generator, m monomial of degree
    k - deg g}.  Every generator must be homogeneous and weight-homogeneous
    (``ValueError`` otherwise), so every piece computation runs per weight
    block.

    ``sl2_stable`` marks an ideal that SL2 maps to itself (the power ideal,
    its powers, the ideal of the power locus).  It is a claim about the
    ideal, not its generators, so it is not part of ``fingerprint()``: the
    generators may be redundant.  Each graded piece of a marked ideal is an
    SL2-representation, so dim (I_k)_w = dim (I_k)_{-w}: its dimensions, and
    the maps of a Koszul-homology module built from it (see
    ``homres.tor_betti``), are ranked on their weight >= 0 half only.  The
    rank driver still requires the weights of the products m * g of each
    degree to be symmetric under w -> -w, which refuses a wrongly marked
    ideal such as (c0^2) and also a stable one whose generators are spread
    unevenly over the weights.
    """

    __slots__ = ("ring", "generators", "sl2_stable")

    def __init__(self, ring: PolyRing, generators, *, sl2_stable: bool = False):
        gens = []
        for g in generators:
            if not isinstance(g, MultiPoly) or g.ring != ring:
                raise ValueError("generators must be MultiPoly in the ideal's ring")
            if g.is_zero():
                continue
            if g.homogeneous_degree is None:
                raise ValueError("generators must be homogeneous")
            if g.weight() is None:
                raise ValueError("generators must be weight-homogeneous")
            if any(g.terms == h.terms for h in gens):
                continue
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self.sl2_stable = sl2_stable

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.homogeneous_degree for g in self.generators)

    def fingerprint(self) -> str:
        """Stable content hash over the ring and canonically sorted generators."""
        canon = []
        for g in self.generators:
            terms = []
            for exp in sorted(g.terms, reverse=True):
                f = Fraction(g.terms[exp])
                terms.append([list(exp), f"{f.numerator}/{f.denominator}"])
            canon.append(terms)
        canon.sort()
        payload = json.dumps(
            {"nvars": self.ring.nvars, "prefix": self.ring.prefix, "gens": canon},
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def spanning_data(self, k: int) -> WeightBlocks:
        """The ``WeightBlocks`` of the degree-k spanning matrix.

        Rows are the degree-k monomials, in basis order; columns are the
        products m * g, generator by generator, each with its multipliers m
        of degree k - deg g in basis order.  Labels are torus weights: a
        monomial e has weight 2s - kn with s = sum_i i*e_i and n + 1
        variables, and m * g has the weight of m shifted by that of g, that
        is s(m) + s(g).  So the block shapes are counted
        (``sl2rep.plethysm_counts``), and the block at s lists only its own
        rows and, per generator, its own multipliers, those at s - s(g)
        (``sl2rep.plethysm_block``), packed (``_pack``) so that each term of
        m * g is one addition; no basis of a whole degree and no list of
        products is made.  A block is built the first time it is read,
        and local indices run in ascending global order.
        """
        n = self.ring.nvars - 1
        base = k + 1  # above every exponent of a degree-k product: see _pack
        gens = []  # (multiplier degree, s of the generator, its packed normalized terms)
        for g in self.generators:
            if g.homogeneous_degree <= k:
                sg = sum(i * e for i, e in enumerate(next(iter(g.terms))))
                terms = [(_pack(exp, base), _normalize_scalar(coeff)) for exp, coeff in g.terms.items()]
                gens.append((k - g.homogeneous_degree, sg, terms))
        listed: dict = {}  # (degree, s) -> packed monomials, shared by the generators

        def monomials(t: int, s: int):
            key = (t, s)
            if key not in listed:
                listed[key] = [_pack(e, base) for e in plethysm_block(t, n, s)]
            return listed[key]

        cols = [0] * (k * n + 1)
        for t, sg, _terms in gens:
            for s, c in enumerate(plethysm_counts(t, n)):
                cols[s + sg] += c
        shapes = {2 * s - k * n: (r, cols[s]) for s, r in enumerate(plethysm_counts(k, n))}

        def build(w):
            s = (w + k * n) // 2
            local = {e: i for i, e in enumerate(monomials(k, s))}
            sub = {}
            lc = 0
            for t, sg, terms in gens:
                for m in monomials(t, s - sg):
                    for exp, coeff in terms:
                        sub[(local[m + exp], lc)] = coeff
                    lc += 1
            return sub

        return WeightBlocks.lazy(shapes, build)

    def graded_piece(self, k: int, mem_mb=None, cache=None) -> ExactMatrix:
        """Echelonized basis of the degree-k piece.

        Rows = degree-k monomials, columns = reduced basis vectors ordered by
        pivot monomial; the piece dimension is the column count.  Exact
        arithmetic always (``column_echelon``, one weight block at a time); a
        block over the memory budget ``mem_mb`` raises ``ResourceLimitError``.
        Cached to disk when a cache directory is active.  A cached file that
        does not parse, or has the wrong row count, is recomputed and rewritten.
        """
        nrows = self.ring.dimension(k)
        cdir = cache_directory(cache)
        path = None
        if cdir is not None:
            path = cdir / f"piece-{self.fingerprint()}-deg{k}.mat"
            cached = load_cached(path, nrows)
            if cached is not None:
                return cached
        cols, _pivots = column_echelon(self.spanning_data(k), _monomial_weights(self.ring.nvars, k), mem_mb)
        basis = {(i, c): v for c, vec in enumerate(cols) for i, v in vec.items()}
        out = ExactMatrix(nrows, len(cols), basis)
        if path is not None:
            atomic_dump(out, path)
        return out

    def piece_dimension_details(
        self, k: int, mode: str = "auto", *, rng=None, mem_mb=None,
    ) -> RankResult:
        """dim I_k with provenance: the blocked rank of the spanning matrix.

        The mode is picked from the largest block the rank may eliminate.
        An ``sl2_stable`` ideal is ranked on its weight >= 0 half
        (``blocked_rank_details(..., weyl=True)``), upward, with the blocks
        above a surjective one of the same parity inferred; reports resting
        on such a dimension carry ``"symmetry": "sl2-weyl"``.  The columns
        are the formal products m * g, which span the SL2-representation I_k
        but need not form one when the generators are redundant, so no block
        is inferred from injectivity (``sl2_columns=False``).
        """
        if k < 0 or not self.generators or k < min(self.generator_degrees()):
            return RankResult(0, "exact")
        return blocked_rank_details(
            self.spanning_data(k), mode, rng=rng, mem_mb=mem_mb,
            weyl=self.sl2_stable, sl2_columns=False,
        )


def ideal_power(ideal: GradedIdeal, j: int) -> GradedIdeal:
    """The ideal generated by all j-fold products of generators.

    Products are deduplicated by degreewise span reduction: within each
    product degree only a maximal independent subset is kept (greedy in
    product order, per weight block), which leaves the ideal unchanged and
    keeps downstream matrices small.  A power of an SL2-stable ideal is
    SL2-stable.
    """
    if j < 1:
        raise ValueError("power must be at least 1")
    if j == 1:
        return ideal
    by_degree: dict[int, list[MultiPoly]] = {}
    for combo in combinations_with_replacement(ideal.generators, j):
        p = prod(combo, start=ideal.ring.one())  # nonzero, as the generators are
        by_degree.setdefault(p.homogeneous_degree, []).append(p)
    kept: list[MultiPoly] = []
    for deg in sorted(by_degree):
        # the degree-deg spanning matrix has one column per distinct product, at its weight
        group = GradedIdeal(ideal.ring, by_degree[deg])
        weights = [g.weight() for g in group.generators]
        kept.extend(group.generators[c] for c in independent_columns(group.spanning_data(deg), weights))
    return GradedIdeal(ideal.ring, kept, sl2_stable=ideal.sl2_stable)


def hilbert_function_details(
    ideal: GradedIdeal, k_max: int, mode: str = "auto", *, rng=None, mem_mb=None,
) -> list[PieceValue]:
    """HF(S/I)(k) for k = 0..k_max with per-degree rank provenance."""
    out = []
    for k in range(k_max + 1):
        res = ideal.piece_dimension_details(k, mode, rng=rng, mem_mb=mem_mb)
        out.append(PieceValue(ideal.ring.dimension(k) - res.rank, res))
    return out


def hilbert_function(ideal: GradedIdeal, k_max: int, mode: str = "auto", **kw) -> list[int]:
    """HF(S/I) in degrees 0..k_max."""
    return [pv.value for pv in hilbert_function_details(ideal, k_max, mode, **kw)]


# ---------------------------------------------------------------------------
# monomial ideals


def _divides(g, m) -> bool:
    return all(a <= b for a, b in zip(g, m))


class MonomialIdeal:
    """Monomial ideal held by its minimal generator set (pairwise non-divisible)."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, monomials):
        gens = []
        for exp in monomials:
            exp = tuple(exp)
            if len(exp) != ring.nvars or any(e < 0 for e in exp) or not any(exp):
                raise ValueError(f"bad monomial generator {exp}")
            gens.append(exp)
        gens = sorted(set(gens), reverse=True)
        minimal = [
            g for g in gens if not any(h != g and _divides(h, g) for h in gens)
        ]
        self.ring = ring
        self.generators = tuple(minimal)

    def _standard_layers(self, k_max: int) -> list[list[tuple[int, ...]]]:
        """The standard monomials of degrees 0..k_max, each lex-descending.

        Standard monomials form an order ideal, so degree k grows from degree
        k - 1: a standard m times x_i, for i at least the last index m
        raises, reaches every degree-k monomial whose divisors are standard
        exactly once, and taking the m in lex-descending order and i
        ascending keeps that order.  Such a product e = m * x_i lies in the
        ideal only through a generator g that divides e but not m, so
        g_i = e_i: the generators are indexed by (i, g_i), and only those at
        (i, e_i) are tested.
        """
        if k_max < 0:
            return []
        n = self.ring.nvars
        raising: dict = {}  # (i, g_i) -> the generators g with that exponent, g_i > 0
        for g in self.generators:
            for i, gi in enumerate(g):
                if gi:
                    raising.setdefault((i, gi), []).append(g)
        layer = [((0,) * n, 0)]  # (monomial, last index it raises)
        layers = [[(0,) * n]]
        for _ in range(k_max):
            grown = []
            for m, last in layer:
                for i in range(last, n):
                    e = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    if not any(_divides(g, e) for g in raising.get((i, e[i]), ())):
                        grown.append((e, i))
            layer = grown
            layers.append([e for e, _i in grown])
        return layers

    def __repr__(self) -> str:
        shown = ", ".join(str(self.ring.monomial(g)) for g in self.generators[:6])
        more = "..." if len(self.generators) > 6 else ""
        return f"MonomialIdeal({shown}{more})"


def initial_ideal_Jab(a: int, b: int) -> MonomialIdeal:
    """The monomial ideal {c_i^a} + {c_i^j c_{i+1}^(a-j) : 1 <= j <= a-1}.

    Lead-term model for the power ideal in QQ[c_0..c_b]; for a = 1 this is
    the maximal ideal.
    """
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    ring = PolyRing(b + 1, "c")
    gens = []
    for i in range(b + 1):
        exp = [0] * (b + 1)
        exp[i] = a
        gens.append(tuple(exp))
    for i in range(b):
        for j in range(1, a):
            exp = [0] * (b + 1)
            exp[i] = j
            exp[i + 1] = a - j
            gens.append(tuple(exp))
    return MonomialIdeal(ring, gens)


def monomial_quotient_hf(ideal: MonomialIdeal, k_max: int) -> list[int]:
    """HF of (ring modulo monomial ideal) in degrees 0..k_max: standard monomial counts."""
    return [len(layer) for layer in ideal._standard_layers(k_max)]
