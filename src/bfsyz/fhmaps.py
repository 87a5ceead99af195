"""Coefficient-extraction maps for powers of binary forms, and their matrices.

Fix a >= 1, b >= 1 and d = ab.  Write G = sum_i c_i x1^(b-i) x2^i for the
generic degree-b form.  Expanding G^a = sum_j P_j(c) x1^(d-j) x2^j defines the
power generators P_0..P_d, homogeneous of degree a in R = QQ[c_0..c_b].  The
substitution z_j -> P_j is a graded ring map QQ[z_0..z_d] -> R whose degree-k
slice alpha_k is a matrix from the degree-k z-monomials to the degree-ak
c-monomials.  Everything here is torus-equivariant (z_j and P_j both have
weight 2j - d), so ranks and kernels decompose by weight; blockwise results
are identical to unblocked ones because distinct weights touch disjoint
monomial sets.  A row e and a column beta both have weight 2s - abk, with
s = sum_i i*e_i (resp. sum_j j*beta_j), so the block shapes are counted
(``sl2rep.plethysm_counts``: Hermite reciprocity in character form) and a
block's rows and columns are listed alone (``sl2rep.plethysm_block``).
A slice is held as its weight blocks (``Slice``), each built the first
time it is read, from one product tree that the slice shares, validated and
cached on its own.  A rank reads only the blocks of weight >= 0 that it
eliminates (rank_w = rank_{-w}, as alpha_k is SL2-equivariant), and a
column (``Slice.column``) only the block at its weight; the full bases are
listed only where a kernel vector is read in global coordinates.  Reversing
the c_i swaps x1 and x2 in G, so P_j(rev c) = P_{d-j}(c): alpha_k has
entry (e, beta) = entry (rev e, rev beta), with no signs, and reversal sends
the block at w onto the block at -w.

Also here: the (d+b-1) x (b+1) matrix of linear forms in z whose rank drops
on the locus of powers (rows pair the generic degree-d form against the
degree-b monomial basis through the Jacobian pairing), its maximal minors,
the linear syzygy matrix phi of the P_j, and the term tables of the two
natural length-r complexes built from wedge powers.  The span of the minors
and the map whose kernel gives phi are spanning matrices of ideals
(``GradedIdeal.spanning_data``), held as weight blocks like the slices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import ConventionError
from .exactalg import (
    ExactMatrix,
    WeightBlocks,
    blocked_kernel_basis,
    blocked_rank_details,
    dump_matrix,  # noqa: F401 (unused; perfbench/spans.py REQUIRED_COPIES needs it)
    load_matrix,  # noqa: F401 (unused; perfbench/spans.py REQUIRED_COPIES needs it)
)
from .exactalg.matrix import RankResult, check_dense_budget, default_rng, escalate_deficit
from .polyring import (
    GradedIdeal,
    MultiPoly,
    PolyRing,
    _pack,
    atomic_dump,
    cache_directory,
    load_cached,
)
from .sl2rep import (
    CLASSICAL_REFERENCE_TRIPLE,
    HW_SOURCE_VECTORS_2_2,
    HW_TARGET_VECTORS_2_2,
    BinaryForm,
    char_identity_check,
    coord_weight,
    hw_triple,
    plethysm_basis,
    plethysm_block,
    plethysm_counts,
    transvectant,
)


# provenance of a rank that rests on rank_w = rank_{-w} (Weyl symmetry of an
# SL2-equivariant map), recorded in every report built on one
SYMMETRY = "sl2-weyl"


def _multinomial(a: int, exp) -> int:
    out = 1
    rest = a
    for e in exp:
        out *= comb(rest, e)
        rest -= e
    return out


class PowerGenerators(NamedTuple):
    a: int
    b: int
    d: int
    ring: PolyRing
    polys: tuple


def power_generators(a: int, b: int) -> PowerGenerators:
    """The coefficient polynomials P_0..P_d of (sum c_i x1^(b-i) x2^i)^a.

    P_j = sum over exponent vectors e (sum a, weighted sum j) of the
    multinomial coefficient times c^e; each P_j is homogeneous of degree a
    and weight-homogeneous of weight 2j - ab.
    """
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    d = a * b
    ring = PolyRing(b + 1, "c")
    polys = tuple(
        MultiPoly(ring, {e: _multinomial(a, e) for e in plethysm_block(a, b, j)})
        for j in range(d + 1)
    )
    return PowerGenerators(a, b, d, ring, polys)


def power_ideal(a: int, b: int) -> GradedIdeal:
    """The ideal of R generated by P_0..P_d, marked SL2-stable: the P_j span
    the copy of Sym^d U in the degree-a piece."""
    gens = power_generators(a, b)
    return GradedIdeal(gens.ring, list(gens.polys), sl2_stable=True)


def _slice_shapes(a: int, b: int, k: int) -> dict:
    """``{w: (nrows, ncols)}`` of alpha_k in weight order, counted: the rows
    and the columns of weight 2s - abk are the exponent vectors with
    sum_i i*e_i = s on each side."""
    rows, cols = plethysm_counts(a * k, b), plethysm_counts(k, a * b)
    return {
        2 * s - a * b * k: (r, c) for s, (r, c) in enumerate(zip(rows, cols)) if r or c
    }


class Slice(WeightBlocks):
    """The slice alpha_k: its degree data and its weight blocks, each built
    the first time it is read.

    The dimensions come from the counted block shapes.  The bases (rows:
    degree-ak c-monomials in ``plethysm_basis`` order, columns: degree-k
    z-monomials) and their weights are listed the first time one is read,
    once per slice; a rank and ``column`` read none of them.  Every block is read
    from its cache file ``fhw-a{a}-b{b}-k{k}-w{w}.mat`` (local indices) or
    built from the product tree the slice shares, validated and written
    there.  Every column P^beta of alpha_k is a nonzero polynomial, as the
    truth value of ``WeightBlocks`` requires.
    """

    def __init__(self, a: int, b: int, k: int, cdir):
        super().__init__({})
        self._shapes = _slice_shapes(a, b, k)
        self.a, self.b, self.k, self.d = a, b, k, a * b
        self._cdir = cdir
        self._product = None

    @property
    def source_dim(self) -> int:
        return self.shape[1]

    @property
    def target_dim(self) -> int:
        return self.shape[0]

    @cached_property
    def row_basis(self) -> tuple:
        return plethysm_basis(self.a * self.k, self.b)

    @cached_property
    def col_basis(self) -> tuple:
        return plethysm_basis(self.k, self.d)

    @cached_property
    def row_weights(self) -> tuple:
        return tuple(coord_weight(m, self.b) for m in self.row_basis)

    @cached_property
    def col_weights(self) -> tuple:
        return tuple(coord_weight(m, self.d) for m in self.col_basis)

    def _build(self, w) -> dict:
        """The entries of the block at weight w, in local indices: read from
        the block's cache file when one is active and holds it, else built,
        validated by ``ExactMatrix`` and written there."""
        nrows, ncols = self._shapes[w]
        path = None
        if self._cdir is not None:
            path = self._cdir / f"fhw-a{self.a}-b{self.b}-k{self.k}-w{w}.mat"
            matrix = load_cached(path, nrows, ncols)
            if matrix is not None:
                return matrix.entries
        matrix = ExactMatrix(nrows, ncols, self.build(w))
        if path is not None:
            atomic_dump(matrix, path)
        return matrix.entries

    def build(self, w: int) -> dict:
        """The entries of the block at weight w from the product tree,
        column by column, each column in the order of its product.  Only
        the block's own rows and columns are listed, in the order of the
        full bases, so local indices run in global order."""
        a, b, k = self.a, self.b, self.k
        s = (w + self.d * k) // 2
        # degree-ak monomials have exponents <= ak, so base ak + 1 packs them injectively
        base = a * k + 1
        if self._product is None:
            self._product = _product_tree(power_generators(a, b).polys, base)
        product = self._product
        # P^beta lies in the rows of the weight of beta: a row outside the
        # block is a KeyError, never an entry filed in the wrong block
        rows = {_pack(m, base): n for n, m in enumerate(plethysm_block(a * k, b, s))}
        entries: dict = {}
        for n, beta in enumerate(plethysm_block(k, self.d, s)):
            for exp, coeff in product(beta).items():
                entries[(rows[exp], n)] = coeff
        return entries

    def column(self, beta) -> dict:
        """The column of the z-monomial ``beta`` as ``{c-monomial: coeff}``,
        read from the one block at its weight."""
        s = sum(j * e for j, e in enumerate(beta))
        n = plethysm_block(self.k, self.d, s).index(tuple(beta))
        rows = plethysm_block(self.a * self.k, self.b, s)
        return {rows[i]: v for (i, j), v in self.entries(2 * s - self.d * self.k).items() if j == n}


def _product_tree(polys, base: int):
    """Memoized monomial products P^beta, keyed by the index vector beta.

    A product maps packed c-monomials (see ``polyring._pack``) to
    coefficients, so a monomial product is one integer addition.  Each
    product strips the leftmost nonzero index, so every product of degree t
    is one sparse multiplication on top of a degree t-1 product.  The walk down to a known
    product is a loop, not a recursion, so ``product`` holds no reference to
    itself: the tree is freed with its last user, not at the next pass of
    the cycle collector.  The products below beta are kept, beta's own is
    not: every column of a slice has the same degree, so none is another's
    prefix, and the largest products are held only while they are read.
    """
    memo: dict = {(0,) * len(polys): {0: 1}}
    packed = [{_pack(e, base): c for e, c in p.terms.items()} for p in polys]

    def product(beta):
        chain = []
        while (got := memo.get(beta)) is None:
            j = next(i for i, v in enumerate(beta) if v)
            chain.append((beta, j))
            parent = list(beta)
            parent[j] -= 1
            beta = tuple(parent)
        for depth in range(len(chain) - 1, -1, -1):
            beta, j = chain[depth]
            out: dict = {}
            pj = packed[j]
            for e1, c1 in got.items():
                for e2, c2 in pj.items():
                    key = e1 + e2
                    out[key] = out.get(key, 0) + c1 * c2
            got = out
            if depth:  # chain[0] is beta itself
                memo[beta] = out
        return got

    return product


def foulkes_howe(a: int, b: int, k: int, mem_mb=None, cache=None) -> Slice:
    """The degree-k slice of z_j -> P_j, held as its weight blocks (``Slice``).

    Column for the z-monomial z^beta is the coefficient vector of
    prod_j P_j^{beta_j} over the degree-ak c-monomials.  This counts the
    block shapes only, and charges the dense budget for the full shape up
    front, before anything is listed; each block is built from its own rows
    and columns, or read from the cache, the first time it is read.  k = 0
    gives the 1 x 1 identity.  With a cache directory active, each block is
    kept in its own file under the stem ``fhw-a{a}-b{b}-k{k}-w{w}``, in
    local indices; a file that does not parse, is keyed to another stem, or
    holds a matrix of another shape is a miss, and that block alone is
    rebuilt and rewritten.  Files ``fhw-a{a}-b{b}-k{k}`` of earlier
    releases, which held the whole weight >= 0 half, are never read.
    """
    if a < 1 or b < 1 or k < 0:
        raise ValueError("need a >= 1, b >= 1, k >= 0")
    fh = Slice(a, b, k, cache_directory(cache))
    check_dense_budget(*fh.shape, 16, mem_mb, "foulkes_howe")
    return fh


# the one prime of a full-rank certificate in ``auto`` (the Mersenne prime
# 2**61 - 1); it is fixed, so a rank settled on it draws no prime
FULL_RANK_PRIME = 2**61 - 1


def _rank_at_most(blocks: WeightBlocks, mode: str, bound, *, rng, mem_mb, weyl: bool = False) -> RankResult:
    """``blocked_rank_details(blocks, mode, ...)`` of a map whose rank over QQ
    is known to be at most ``bound`` (None: nothing is known).

    In ``auto`` the blocks are first ranked modulo ``FULL_RANK_PRIME`` alone.
    A rank mod p never exceeds the rank over QQ, so one that reaches
    ``bound`` is the rank over QQ: it comes back exact, with the prime as its
    provenance, and nothing is drawn from ``rng``.  Below ``bound`` the rank
    is taken in ``mode`` as if this had not been tried.
    """
    if mode == "auto" and bound is not None:
        one = blocked_rank_details(blocks, "modular", rng=rng, primes=[FULL_RANK_PRIME], mem_mb=mem_mb, weyl=weyl)
        if one.rank == bound:
            return one._replace(mode="exact")
    return blocked_rank_details(blocks, mode, rng=rng, mem_mb=mem_mb, weyl=weyl)


def fh_rank_details(fh: Slice, mode: str = "auto", *, rng=None, mem_mb=None) -> RankResult:
    """Weight-blocked rank of an alpha_k matrix with provenance.

    alpha_k is SL2-equivariant, so only its blocks of weight >= 0 count
    (``blocked_rank_details(..., weyl=True)``).  They are visited upward,
    and every block above an injective or a surjective one of its parity is
    inferred to be so too, not eliminated.  The slice is handed over as it
    is, so only the blocks that get eliminated are built (or read from the
    cache); on the bench slices that is the weight-0 block alone.  In
    ``auto`` a rank of min(source_dim, target_dim) modulo
    ``FULL_RANK_PRIME`` is exact (``_rank_at_most``); below it, the
    exact/modular choice is made on the largest block the rank may eliminate.  Reports resting on
    this rank say so with ``"symmetry": "sl2-weyl"``.
    """
    return _rank_at_most(fh, mode, min(fh.shape), rng=rng, mem_mb=mem_mb, weyl=True)


def fh_rank_report(
    a: int, b: int, k: int, mode: str = "auto", *, rng=None, mem_mb=None, cache=None,
) -> dict:
    """Rank report for alpha_k with one-sided-sound modular certification.

    A modular full-rank result certifies maximal rank over QQ (ranks can only
    drop under reduction).  So in ``auto`` a rank of
    min(source_dim, target_dim) modulo ``FULL_RANK_PRIME`` alone is reported
    ``"exact"`` with ``primes == [FULL_RANK_PRIME]``, and nothing is drawn
    from ``rng``; a lower one is retaken in the mode its largest block chooses.
    A modular rank deficit is never reported as a verdict: it forces exact
    escalation, and if that exceeds the resource budget the report is marked
    inconclusive.
    """
    if rng is None:
        rng = default_rng()
    fh = foulkes_howe(a, b, k, mem_mb, cache)
    result, settled = escalate_deficit(
        fh_rank_details(fh, mode, rng=rng, mem_mb=mem_mb),
        min(fh.source_dim, fh.target_dim),
        lambda: fh_rank_details(fh, "exact", mem_mb=mem_mb),
    )
    status = "ok" if settled else "inconclusive"
    report = {
        "a": a,
        "b": b,
        "k": k,
        "source_dim": fh.source_dim,
        "target_dim": fh.target_dim,
        "rank": result.rank,
        "injective": result.rank == fh.source_dim,
        "surjective": result.rank == fh.target_dim,
        "maximal_rank": result.rank == min(fh.source_dim, fh.target_dim),
        "mode": result.mode,
        "primes": list(result.primes),
        "escalated": result.escalated,
        "status": status,
        "symmetry": SYMMETRY,
    }
    if status == "inconclusive":
        # the modular rank is only a lower bound here
        report["rank_lower_bound"] = result.rank
        report["maximal_rank"] = None
        report["injective"] = None
        report["surjective"] = None
    return report


def ix_kernel_ideal(a: int, b: int, mem_mb=None, cache=None) -> GradedIdeal:
    """The ideal generated by ker(alpha_{b+1}) inside QQ[z_0..z_d].

    These degree-(b+1) kernel elements generate the full ideal of the power
    locus; the kernel is computed per weight block with primitive integer
    vectors.  The kernel of an SL2-equivariant map is SL2-stable, and the
    ideal is marked so.
    """
    fh = foulkes_howe(a, b, b + 1, mem_mb, cache)
    sring = PolyRing(fh.d + 1, "z")
    gens = [
        MultiPoly(sring, {fh.col_basis[i]: v for i, v in vec.items()})
        for vec in blocked_kernel_basis(fh, fh.col_weights, mem_mb)
    ]
    return GradedIdeal(sring, gens, sl2_stable=True)


# ---------------------------------------------------------------------------
# the rank-drop matrix of linear forms and its maximal minors


class LinearFormMatrix(NamedTuple):
    ring: PolyRing  # z-ring, d+1 variables
    nrows: int
    ncols: int
    entries: dict  # (r, j) -> degree-1 MultiPoly

    def entry(self, r: int, j: int) -> MultiPoly:
        return self.entries.get((r, j), self.ring.zero())


def omega_matrix(a: int, b: int) -> LinearFormMatrix:
    """The (d+b-1) x (b+1) matrix pairing a generic degree-d form with Sym^b.

    Column j holds the coefficients (rows: x2-degree r) of the Jacobian
    pairing of F = sum z_i x1^(d-i) x2^i with the monomial x1^(b-j) x2^j.
    Rank drops to at most b exactly on coefficient vectors of a-th powers.
    """
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    d = a * b
    ring = PolyRing(d + 1, "z")
    generic = BinaryForm(d, tuple(ring.variable(i) for i in range(d + 1)))
    entries = {}
    for j in range(b + 1):
        mono = [0] * (b + 1)
        mono[j] = 1
        pairing = transvectant(generic, BinaryForm(b, mono))
        for r, poly in enumerate(pairing.coeffs):
            if isinstance(poly, MultiPoly) and not poly.is_zero():
                entries[(r, j)] = poly
    return LinearFormMatrix(ring, d + b - 1, b + 1, entries)


def _det(rows: list[list[MultiPoly]], ring: PolyRing) -> MultiPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = ring.zero()
    for i in range(n):
        lead = rows[i][0]
        if lead.is_zero():
            continue
        minor = [row[1:] for t, row in enumerate(rows) if t != i]
        term = lead * _det(minor, ring)
        out = out + (term if i % 2 == 0 else -term)
    return out


def maximal_minors(m: LinearFormMatrix) -> list[MultiPoly]:
    """All maximal minors (size = column count), by row subset in lex order."""
    size = m.ncols
    out = []
    for subset in combinations(range(m.nrows), size):
        rows = [[m.entry(r, j) for j in range(size)] for r in subset]
        out.append(_det(rows, m.ring))
    return out


def minors_ideal(a: int, b: int) -> GradedIdeal:
    """The ideal of QQ[z_0..z_d] generated by the maximal minors of omega.

    ``GradedIdeal`` drops the zero and the repeated minors.  Its degree-(b+1)
    spanning matrix is the span of the minors, held as weight blocks whose
    rows are the z-monomials of each weight in ``plethysm_block`` order.
    """
    m = omega_matrix(a, b)
    return GradedIdeal(m.ring, maximal_minors(m))


def _annihilates(alpha: dict, vectors: dict) -> bool:
    """Whether the block entries ``alpha`` send every column of ``vectors``,
    a block whose rows are alpha's columns, to zero; exactly."""
    by_col: dict = {}
    for (r, c), v in alpha.items():
        by_col.setdefault(c, []).append((r, v))
    images: dict = {}
    for (c, j), x in vectors.items():
        image = images.setdefault(j, {})
        for r, v in by_col.get(c, ()):
            image[r] = image.get(r, 0) + v * x
    return not any(any(image.values()) for image in images.values())


def minors_generate_check(
    a: int, b: int, mode: str = "auto", *, rng=None, mem_mb=None, cache=None,
) -> dict:
    """Check span(maximal minors) = ker(alpha_{b+1}) in the degree-(b+1) piece.

    Containment is exact (every minor is annihilated by alpha_{b+1}); the
    dimension comparison uses the configured rank mode.  With containment
    established, a modular span rank equal to the kernel dimension certifies
    equality; a modular deficit escalates to exact before any negative
    verdict.  In ``auto``, once containment holds, the span rank is at most
    the kernel dimension, source_dim minus a rank of alpha that never
    overshoots, whatever alpha's mode; so a span rank reaching it modulo
    ``FULL_RANK_PRIME`` alone is exact.  The span then says ``"exact"`` with
    that prime and draws nothing from ``rng``.
    """
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    if rng is None:
        rng = default_rng()
    fh = foulkes_howe(a, b, b + 1, mem_mb, cache)
    span_blocks = minors_ideal(a, b).spanning_data(b + 1)

    # exact containment, alpha_w M_w = 0 at every weight w: the span's rows
    # at w are alpha_{b+1}'s columns at w, in the same order
    contained = all(_annihilates(fh.entries(w), sub) for w, (_r, _c, sub) in span_blocks.items())

    rank_alpha = fh_rank_details(fh, mode, rng=rng, mem_mb=mem_mb)
    # a rank of alpha never overshoots, so kernel_dim bounds dim ker alpha,
    # and with it the rank of a span inside ker alpha, whatever alpha's mode
    kernel_dim = fh.source_dim - rank_alpha.rank
    span = _rank_at_most(span_blocks, mode, kernel_dim if contained else None, rng=rng, mem_mb=mem_mb)
    span_settled = True
    if contained:
        span, span_settled = escalate_deficit(
            span, kernel_dim,
            lambda: blocked_rank_details(span_blocks, "exact", mem_mb=mem_mb),
        )
    # the kernel dimension rests on a non-maximal modular rank: escalate it too
    rank_alpha, alpha_settled = escalate_deficit(
        rank_alpha, min(fh.source_dim, fh.target_dim),
        lambda: fh_rank_details(fh, "exact", mem_mb=mem_mb),
    )
    kernel_dim = fh.source_dim - rank_alpha.rank
    status = "ok" if span_settled and alpha_settled else "inconclusive"
    equal = bool(contained and span.rank == kernel_dim)
    return {
        "a": a,
        "b": b,
        "minors": comb(a * b + b - 1, b + 1),
        "contained": contained,
        "span_dim": span.rank,
        "kernel_dim": kernel_dim,
        "equal": equal if status == "ok" else None,
        "mode": span.mode,
        "primes": sorted(set(span.primes) | set(rank_alpha.primes)),
        "status": status,
        "symmetry": SYMMETRY,
    }


# ---------------------------------------------------------------------------
# the linear syzygy matrix phi


class PhiMatrix(NamedTuple):
    a: int
    b: int
    d: int
    ring: PolyRing  # c-ring
    nrows: int  # d+1, one row per generator P_j
    ncols: int  # d+b-1
    entries: dict  # (j, col) -> degree-1 MultiPoly in c
    col_weights: tuple


def phi_matrix(a: int, b: int) -> PhiMatrix:
    """Linear syzygies among P_0..P_d, one column per syzygy.

    Columns span the kernel of the multiplication (z_j, c_i) -> P_j c_i into
    the degree-(a+1) c-monomials.  The kernel is computed per torus weight
    slice; each slice must be one-dimensional and the total must be d+b-1
    (the column space is a copy of Sym^(d+b-2)U), anything else is a
    convention violation.  Columns are weight-sorted primitive integer
    vectors.  For a = 1 the P_j are the c_i themselves, whose linear
    syzygies are the C(b+1, 2) Koszul ones; that count is d + b - 1 only for
    b <= 2, so a = 1 with b >= 3 raises ValueError.
    """
    if a == 1 and b >= 3:
        raise ValueError(
            f"a = 1 needs b <= 2: the {comb(b + 1, 2)} Koszul syzygies of the c_i "
            f"are not d + b - 1 = {2 * b - 1} columns"
        )
    gens = power_generators(a, b)
    d = gens.d
    ring = gens.ring
    # the multiplication is the degree-(a+1) spanning matrix of the P_j:
    # generator j, then its multipliers c_0..c_b, column (j, i) of weight
    # (2j - d) + (2i - b)
    pairs = [(j, i) for j in range(d + 1) for i in range(b + 1)]
    col_labels = [(2 * j - d) + (2 * i - b) for j, i in pairs]
    vectors = blocked_kernel_basis(GradedIdeal(ring, gens.polys).spanning_data(a + 1), col_labels)
    expected = d + b - 1
    if len(vectors) != expected:
        raise ConventionError(
            f"syzygy kernel dimension {len(vectors)} != {expected} for (a, b) = ({a}, {b})"
        )
    weighted = []
    for vec in vectors:
        weights = {col_labels[t] for t in vec}
        if len(weights) != 1:
            raise ConventionError("syzygy vector mixes torus weights")
        weighted.append((weights.pop(), vec))
    weighted.sort(key=lambda t: t[0])
    by_weight: dict = {}
    for w, _vec in weighted:
        by_weight[w] = by_weight.get(w, 0) + 1
    if any(count != 1 for count in by_weight.values()) or len(by_weight) != expected:
        raise ConventionError(
            f"syzygy weight multiplicities {by_weight} are not all 1 for (a, b) = ({a}, {b})"
        )
    phi_entries: dict = {}
    for colno, (_w, vec) in enumerate(weighted):
        for t, v in vec.items():
            j, i = pairs[t]
            key = (j, colno)
            poly = phi_entries.get(key, ring.zero())
            phi_entries[key] = poly + v * ring.variable(i)
    phi_entries = {k: p for k, p in phi_entries.items() if not p.is_zero()}
    return PhiMatrix(
        a, b, d, ring, d + 1, expected, phi_entries, tuple(w for w, _ in weighted)
    )


def phi_syzygy_check(phi: PhiMatrix) -> bool:
    """Exact check that the generator row composes to zero with phi."""
    gens = power_generators(phi.a, phi.b)
    for col in range(phi.ncols):
        total = phi.ring.zero()
        for j in range(phi.nrows):
            e = phi.entries.get((j, col))
            if e is not None:
                total = total + gens.polys[j] * e
        if not total.is_zero():
            return False
    return True


def skew_normalizable(phi: PhiMatrix) -> bool:
    """For b = 2: can row/column rescaling make the square matrix skew?

    Rows are reversed (row j of the reversed matrix is generator d - j) so
    that opposite entries share a torus weight; each nonzero entry is then a
    scalar times a single variable.  Skewness under diagonal rescaling
    reduces to: zero diagonal, symmetric support, and a consistent
    multiplicative cocycle u_s * q_st = -u_t * q_ts, checked by graph
    propagation with exact rationals.
    """
    if phi.b != 2:
        raise ValueError("skew normalization test applies to b = 2")
    n = phi.nrows
    if phi.ncols != n:
        return False

    def scalar_of(poly) -> Fraction | None:
        if len(poly.terms) != 1:
            return None
        ((exp, coeff),) = poly.terms.items()
        if sum(exp) != 1:
            return None
        return Fraction(coeff)

    q: dict = {}
    for s in range(n):
        for t in range(n):
            e = phi.entries.get((n - 1 - s, t))
            if e is None:
                continue
            val = scalar_of(e)
            if val is None:
                return False
            q[(s, t)] = val
    for s in range(n):
        if (s, s) in q:
            return False
    for (s, t) in q:
        if (t, s) not in q:
            return False
    u: dict = {}
    for start in range(n):
        if start in u:
            continue
        u[start] = Fraction(1)
        stack = [start]
        while stack:
            s = stack.pop()
            for t in range(n):
                if (s, t) not in q:
                    continue
                want = -u[s] * q[(s, t)] / q[(t, s)]
                if t in u:
                    if u[t] != want:
                        return False
                else:
                    u[t] = want
                    stack.append(t)
    return True


# ---------------------------------------------------------------------------
# term tables of the two wedge-power complexes


class TermPair(NamedTuple):
    i: int
    twist: int
    s_wedge_dim: int
    s_sym_dim: int
    s_dim: int
    w_wedge_dim: int
    w_sym_dim: int
    w_dim: int


class SrWrTerms(NamedTuple):
    a: int
    b: int
    r: int
    terms: tuple
    char_match: tuple | None  # per-i character equality, only for r = b-1


def sr_wr_terms(a: int, b: int, r: int) -> SrWrTerms:
    """Dimension/twist tables of the terms of the two length-r complexes.

    Position -i of the first complex is Wedge^i(Sym^(d+b-2)U) tensor
    Sym^(r-i)(Sym^d U); the second swaps the roles, Wedge^(r-i) tensor Sym^i.
    For r = b-1 the termwise character identity is verified exactly and the
    per-i outcomes are recorded.
    """
    if a < 1 or b < 1 or r < 0:
        raise ValueError("need a >= 1, b >= 1, r >= 0")
    d = a * b
    n_wedge = d + b - 2
    terms = []
    for i in range(r + 1):
        s_wedge = comb(n_wedge + 1, i)
        s_sym = comb(d + (r - i), r - i)
        w_wedge = comb(n_wedge + 1, r - i)
        w_sym = comb(d + i, i)
        terms.append(
            TermPair(i, -i, s_wedge, s_sym, s_wedge * s_sym, w_wedge, w_sym, w_wedge * w_sym)
        )
    match = None
    if r == b - 1:
        match = tuple(char_identity_check(a, b, i) for i in range(r + 1))
    return SrWrTerms(a, b, r, tuple(terms), match)


# ---------------------------------------------------------------------------
# the highest-weight proportionality triple for the shipped (2, 2) case


def hw_triple_report(mem_mb=None, cache=None) -> dict:
    """Proportionality scalars of alpha_2 for a = b = 2 on the three pinned
    highest weight vectors, against the stored classical reference triple.

    The two isomorphisms agree up to scale on each irreducible summand but
    with different scale patterns; the report records both triples and
    whether they differ after normalizing the first entry to 1.
    """
    fh = foulkes_howe(2, 2, 2, mem_mb, cache)
    pairs = list(zip(HW_SOURCE_VECTORS_2_2, HW_TARGET_VECTORS_2_2))
    triple = hw_triple(fh.column, 4, 2, pairs)
    norm = [x / triple[0] for x in triple]
    ref = list(CLASSICAL_REFERENCE_TRIPLE)
    ref_norm = [x / ref[0] for x in ref]
    return {
        "a": 2,
        "b": 2,
        "triple": norm,
        "reference": ref_norm,
        "differs": norm != ref_norm,
    }
