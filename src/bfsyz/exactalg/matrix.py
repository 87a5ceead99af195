"""Exact matrices over the rationals and prime fields.

Deterministic building blocks used by every other module:

* :class:`ExactMatrix` -- immutable sparse-storage matrix with an exact scalar
  type per entry (int / Fraction for field "QQ", residues for "GF:p").
* :func:`rank` / :func:`rank_details` -- rank in exact, modular, or auto mode.
  Modular mode draws ``CERTIFICATE_PRIMES`` distinct random 50-62 bit primes
  and escalates to exact arithmetic whenever the per-prime ranks disagree, so a
  reported modular rank always carries agreeing primes in its provenance.
* :func:`rref` -- fully reduced row echelon form; :func:`kernel_basis` --
  primitive integer kernel vectors (content 1, first nonzero entry positive).

All exact arithmetic runs through one engine, ``_echelon``: sparse
fraction-free elimination over primitive integer rows (Bareiss-style
integer-preserving updates, applied only to the rows the pivot touches), with
the sparsest row that is nonzero in the current column as pivot.  Rank does
not depend on the pivot order and the reduced row echelon form of a row space
is unique, so results depend only on the input, not on that choice.

Row-level engines (`bareiss_rank_rows`, `rref_rows`, `mod_p_rank_rows`, ...) are
exposed for the modules that assemble large matrices blockwise and do not want
to round-trip through ExactMatrix.  Label-preserving maps travel as
:class:`WeightBlocks`: Koszul slabs, graded-piece spanning matrices and
substitution slices are built as blocks, and :func:`split_blocks` files the
global entries of the other maps into them.  Every echelon form of such a map runs through one
blocked path, ``_blocked_echelon``, which takes the blocks and the labels
that give their full indices: check each block against the dense memory
budget, reduce it with ``rref_rows``.  :func:`column_echelon` (graded
pieces, images of the substitution maps) and :func:`blocked_kernel_basis`
are thin layers over it, and :func:`kernel_basis` is its one-block case.
Every rank of such a map goes through :func:`blocked_rank_details`.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from ..errors import ConventionError, EquivarianceError, ResourceLimitError
from . import _modp as _kernel
from . import primes as _primes

# the kernel's name in the CLI report envelope (``kernel_backend``)
KERNEL_BACKEND = "python"

# auto mode: matrices whose larger dimension exceeds this go modular
EXACT_DIM_LIMIT = 2000

# distinct primes that must agree on every modular rank
CERTIFICATE_PRIMES = 2

DEFAULT_MEM_MB = 4096

_EXACT_CELL_BYTES = 48  # conservative per-cell estimate for Fraction rows
_MOD_CELL_BYTES = 16  # an up-front worst case; the kernel holds one 8-byte residue plane at a time


def memory_budget_mb(override: int | None = None) -> int:
    """Memory budget in MiB: ``override``, else BFSYZ_MEM_MB, else the default.

    An override or a BFSYZ_MEM_MB that is not a positive integer raises
    ``ValueError``, which the CLI reports as a usage error.
    """
    if override is not None:
        if override < 1:
            raise ValueError(f"mem_mb must be a positive integer, got {override!r}")
        return override
    env = os.environ.get("BFSYZ_MEM_MB")
    if not env:
        return DEFAULT_MEM_MB
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"BFSYZ_MEM_MB must be a positive integer, got {env!r}")
    return value


def check_dense_budget(nrows: int, ncols: int, bytes_per_cell: int, mem_mb: int | None, what: str) -> None:
    budget = memory_budget_mb(mem_mb) * 1024 * 1024
    need = nrows * ncols * bytes_per_cell
    if need > budget:
        # the need rounds up, so a block over the budget never reads as within it
        raise ResourceLimitError(
            f"{what}: dense {nrows} x {ncols} needs ~{-(-need // (1024 * 1024))} MiB, "
            f"budget is {budget // (1024 * 1024)} MiB (set BFSYZ_MEM_MB to raise)"
        )


def resolve_seed(seed: int | None = None) -> int:
    """``seed`` when given, else BFSYZ_SEED (default 0); the one reader of BFSYZ_SEED.

    A BFSYZ_SEED that is not an integer raises ``ValueError`` naming the
    variable, which the CLI reports as a usage error.
    """
    if seed is not None:
        return int(seed)
    env = os.environ.get("BFSYZ_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"BFSYZ_SEED must be an integer, got {env!r}") from None


def default_rng() -> random.Random:
    """Seeded generator honouring BFSYZ_SEED (default 0)."""
    return random.Random(resolve_seed())


def _normalize_scalar(v):
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, np.integer):
        return int(v)
    raise TypeError(f"exact matrices accept int/Fraction entries, got {type(v).__name__}")


class ExactMatrix:
    """Immutable exact matrix; zero entries are never stored.

    ``field`` is "QQ" or "GF:<p>"; GF matrices hold plain int residues in
    [0, p).  After :func:`rref` the result carries ``pivot_cols``.
    """

    __slots__ = ("nrows", "ncols", "field", "entries", "pivot_cols")

    def __init__(self, nrows: int, ncols: int, entries=None, field: str = "QQ"):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry index ({i}, {j}) outside {nrows} x {ncols}")
                v = _normalize_scalar(v)
                if v:
                    clean[(i, j)] = v
        self.entries = clean
        self.pivot_cols: tuple[int, ...] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def to_rows(self, mem_mb: int | None = None) -> list[list]:
        check_dense_budget(self.nrows, self.ncols, _EXACT_CELL_BYTES, mem_mb, "to_rows")
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()}, self.field
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows} x {self.ncols}, nnz={self.nnz}, field={self.field})"


def _trusted_matrix(nrows: int, ncols: int, entries: dict, field: str = "QQ") -> ExactMatrix:
    """Wrap entries that are already in range, normalized and nonzero, without
    validating them again (the blocks of ``split_blocks``, a checked file)."""
    m = ExactMatrix.__new__(ExactMatrix)
    m.nrows = nrows
    m.ncols = ncols
    m.field = field
    m.entries = entries
    m.pivot_cols = None
    return m


def _sparse_rows(m: ExactMatrix, mem_mb: int | None = None) -> list[dict]:
    """``{col: value}`` rows of ``m`` for the exact engine.

    The engine's work is bounded like that of dense rows, so the budget check
    is the one of :meth:`ExactMatrix.to_rows`.
    """
    check_dense_budget(m.nrows, m.ncols, _EXACT_CELL_BYTES, mem_mb, "to_rows")
    rows: list[dict] = [{} for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


class RankResult(NamedTuple):
    rank: int
    mode: str  # "exact" or "modular"
    primes: tuple[int, ...] = ()
    escalated: bool = False


# ---------------------------------------------------------------------------
# row-level exact engines


def clear_denominators(row) -> list[int]:
    """Scale a row of int/Fraction by the lcm of denominators; returns ints."""
    mult = 1
    for v in row:
        if isinstance(v, Fraction):
            mult = lcm(mult, v.denominator)
    if mult == 1:
        return [int(v) for v in row]
    return [int(v * mult) for v in row]


def primitive_int_vector(vec) -> tuple[int, ...]:
    """Clear denominators, divide by the content, make first nonzero positive."""
    ints = clear_denominators(list(vec))
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


def _sparse_int_row(row) -> dict[int, int]:
    """Primitive ``{col: int}`` multiple of an int/Fraction row (zeros dropped).

    ``row`` is a dense list or a ``{col: value}`` dict.
    """
    if type(row) is dict:
        nz = {j: v for j, v in row.items() if v}
    else:
        nz = {j: v for j, v in enumerate(row) if v}
    den = 1
    for v in nz.values():
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    if den == 1:
        return _primitive({j: int(v) for j, v in nz.items()})
    return _primitive({j: int(v * den) for j, v in nz.items()})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(pr: dict[int, int], c: int, ri: dict[int, int]) -> dict[int, int]:
    """Primitive ``(pc/g)*ri - (f/g)*pr`` with ``g = gcd(pc, f)``; zero in column ``c``."""
    pc = pr[c]
    f = ri[c]
    g = gcd(pc, f)
    a = pc // g
    b = f // g
    out = dict(ri) if a == 1 else {j: a * v for j, v in ri.items()}
    for j, v in pr.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _echelon(rows, ncols: int) -> tuple[list[int], list[dict[int, int]]]:
    """Sparse fraction-free forward elimination of int/Fraction rows.

    Each row is a dense list or a ``{col: value}`` dict; neither is mutated.

    Returns the pivot columns (increasing) and the matching primitive integer
    pivot rows; the pivot row of column ``c`` is zero left of ``c``.  Columns
    are taken left to right.  An active row that is nonzero in column ``c``
    has its leading entry there, since every earlier column has been cleared,
    so rows wait in buckets keyed by their leading column.  The pivot is the
    sparsest row of the bucket (Markowitz); only the other rows of the bucket
    are updated, and each then moves to the bucket of its new leading column.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        sparse = _sparse_int_row(row)
        if sparse:
            buckets.setdefault(min(sparse), []).append(sparse)
    pivots: list[int] = []
    pivot_rows: list[dict[int, int]] = []
    for c in range(ncols):
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pr = min(bucket, key=len)
        for ri in bucket:
            if ri is pr:
                continue
            ri = _eliminate(pr, c, ri)
            if ri:
                buckets.setdefault(min(ri), []).append(ri)
        pivots.append(c)
        pivot_rows.append(pr)
    return pivots, pivot_rows


def bareiss_rank_rows(rows, ncols: int) -> int:
    """Rank over QQ of int/Fraction rows, dense lists or ``{col: value}`` dicts
    (not mutated): the pivot count of ``_echelon``."""
    return len(_echelon(rows, ncols)[0])


def rref_rows(rows, ncols: int):
    """Fully reduced row echelon form over QQ.

    ``rows`` is a list of int/Fraction rows, each a dense list or a
    ``{col: value}`` dict; a *new* list of nonzero dense reduced rows is
    returned together with the pivot column list, in increasing pivot order.
    Pivots are 1, pivot columns are zero elsewhere, and an entry is an int
    when it is integral and a Fraction otherwise.  The reduced echelon form of
    a row space is unique, so the output depends only on the row span, not on
    the pivot order of the sparse fraction-free elimination (see ``_echelon``)
    that computes it.  The rows are not mutated.
    """
    pivots, pivot_rows = _echelon(rows, ncols)
    # back substitution from the last pivot: a row used to clear its pivot
    # column is already zero in every later pivot column
    for k in range(len(pivots) - 1, 0, -1):
        c, pr = pivots[k], pivot_rows[k]
        for i in range(k):
            if c in pivot_rows[i]:
                pivot_rows[i] = _eliminate(pr, c, pivot_rows[i])
    reduced = []
    for c, pr in zip(pivots, pivot_rows):
        lead = pr[c]
        out = [0] * ncols
        for j, v in pr.items():
            out[j] = v // lead if v % lead == 0 else Fraction(v, lead)
        reduced.append(out)
    return reduced, pivots


def kernel_rows_from_rref(reduced, pivots, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer kernel basis from a reduced echelon form."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for k, pc in enumerate(pivots):
            v = reduced[k][f]
            if v:
                vec[pc] = -v
        basis.append(primitive_int_vector(vec))
    return basis


# ---------------------------------------------------------------------------
# modular engines


class _BadPrime(Exception):
    """A chosen prime divides a denominator; resample it."""


# read once: ``np.iinfo``'s ``min`` and ``max`` are properties, recomputed per read
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _cleared_values(entries, primes) -> np.ndarray:
    """The values of ``entries``, each row holding a Fraction scaled by the lcm
    of its denominators: int64, or object when a value does not fit.

    Scaling a row by a unit mod p keeps the rank mod p.  The content is never
    divided out, since a prime may divide it.  Raises ``_BadPrime(p)`` for the
    first of ``primes`` that divides a denominator.
    """
    dens: dict[int, int] = {}
    for (i, _j), v in entries.items():
        if isinstance(v, Fraction):
            dens[i] = lcm(dens.get(i, 1), v.denominator)
    common = lcm(*dens.values())
    for p in primes:
        if common % p == 0:
            raise _BadPrime(p)
    values = [
        v.numerator * (dens[i] // v.denominator) if isinstance(v, Fraction) else int(v) * dens.get(i, 1)
        for (i, _j), v in entries.items()
    ]
    if all(_INT64_MIN <= v <= _INT64_MAX for v in values):
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def mod_p_rank_rows(rows, ncols: int, primes, mem_mb: int | None = None) -> int:
    """Rank of dense int/Fraction rows modulo each of ``primes`` (see ``mod_p_rank_sparse``)."""
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return mod_p_rank_sparse(entries, len(rows), ncols, primes, mem_mb)


def mod_p_rank_sparse(entries, nrows: int, ncols: int, primes, mem_mb: int | None = None) -> int:
    """Rank of a sparse entry dict {(i, j): value} modulo each of the distinct ``primes``.

    The entries go to one kernel call as they are, as coordinate arrays; the
    kernel builds a dense array only for what fills in, and raises
    ``PrimesDisagree`` when the primes give different ranks.
    """
    if nrows == 0 or ncols == 0:
        return 0
    check_dense_budget(nrows, ncols, _MOD_CELL_BYTES, mem_mb, "mod_p_rank")
    ij = np.fromiter(chain.from_iterable(entries), dtype=np.intp, count=2 * len(entries)).reshape(-1, 2)
    # a list of ints that all fit infers int64; anything else (a Fraction, a
    # big int) takes the slow path
    values = np.array(list(entries.values()))
    if values.dtype != np.int64:
        values = _cleared_values(entries, primes)
    return int(_kernel.rank_mod_p_dense(_kernel.Coo(ij[:, 0], ij[:, 1], values, (nrows, ncols)), primes))


def draw_primes(rng: random.Random) -> list[int]:
    """The ``CERTIFICATE_PRIMES`` distinct primes of one modular certificate."""
    return _primes.distinct_random_primes(rng, CERTIFICATE_PRIMES)


# ---------------------------------------------------------------------------
# public rank / rref / kernel operations


def _resolve_mode(mode: str, nrows: int, ncols: int) -> str:
    if mode == "auto":
        return "exact" if max(nrows, ncols) <= EXACT_DIM_LIMIT else "modular"
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def rank_details(
    m: ExactMatrix,
    mode: str = "auto",
    *,
    rng: random.Random | None = None,
    primes: list[int] | None = None,
    mem_mb: int | None = None,
) -> RankResult:
    """Rank with provenance.

    Modular mode computes the rank for ``CERTIFICATE_PRIMES`` distinct random
    primes (or the given ``primes``) in one kernel call; a prime that divides a
    denominator is replaced, in place, by a fresh draw before the call.  On
    any disagreement it recomputes exactly (``escalated=True``).  Exact mode
    is sparse fraction-free elimination over primitive integer rows with a
    sparsest-row pivot (``bareiss_rank_rows``).
    """
    use = _resolve_mode(mode, m.nrows, m.ncols)
    if m.nnz == 0:
        return RankResult(0, "exact")
    if use == "exact":
        return RankResult(bareiss_rank_rows(_sparse_rows(m, mem_mb), m.ncols), "exact")

    if rng is None:
        rng = default_rng()
    chosen = list(primes) if primes else draw_primes(rng)
    rejected: list[int] = []
    while True:
        try:
            r = mod_p_rank_sparse(m.entries, m.nrows, m.ncols, chosen, mem_mb)
        except _BadPrime as bad:
            # the replacement avoids every chosen and every rejected prime
            (p,) = bad.args
            rejected.append(p)
            chosen[chosen.index(p)] = _primes.distinct_random_primes(rng, 1, tuple(chosen + rejected))[0]
            continue
        except _kernel.PrimesDisagree:
            exact = bareiss_rank_rows(_sparse_rows(m, mem_mb), m.ncols)
            return RankResult(exact, "exact", tuple(chosen), escalated=True)
        return RankResult(r, "modular", tuple(chosen))


def rank(m: ExactMatrix, mode: str = "auto", **kw) -> int:
    return rank_details(m, mode, **kw).rank


def rref(m: ExactMatrix, mem_mb: int | None = None) -> ExactMatrix:
    """Reduced row echelon form (same shape, zero rows kept, pivots recorded)."""
    reduced, pivots = rref_rows(_sparse_rows(m, mem_mb), m.ncols)
    entries = {}
    for i, row in enumerate(reduced):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    out = ExactMatrix(m.nrows, m.ncols, entries, m.field)
    out.pivot_cols = tuple(pivots)
    return out


def kernel_basis(m: ExactMatrix, mem_mb: int | None = None) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel, free columns in order.

    Each vector has content 1 and positive first nonzero entry; the identity
    matrix yields [] and a full-space kernel yields unit vectors.  This is
    the one-block case of :func:`blocked_kernel_basis` (every label 0).
    """
    return blocked_kernel_basis(WeightBlocks({0: (m.nrows, m.ncols, m.entries)}), [0] * m.ncols, mem_mb)


# ---------------------------------------------------------------------------
# weight-blocked rank for label-preserving (equivariant) matrices


class WeightBlocks:
    """A label-preserving sparse map, stored as its label blocks.

    ``blocks`` maps every label of the map, in increasing order, to
    ``(nrows, ncols, entries)``: the shape of its block and a
    ``{(row, col): value}`` dict in local indices, which run in increasing
    order of the full map's indices.  Values are normalized as
    :class:`ExactMatrix` stores them (ints where integral, no zeros).  The
    block shapes add up to the full shape; a block may hold no entries.
    ``len()`` is the number of stored entries, so an empty map is falsy.

    The rank driver reads a map through ``shapes()``, ``entries(w)`` and its
    truth value only, and asks for the entries of the blocks it eliminates
    alone; a subclass may build each block then (``fhmaps.SliceBlocks``).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(sub) for _r, _c, sub in self.blocks.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightBlocks):
            return NotImplemented
        return self.blocks == other.blocks

    __hash__ = None

    def items(self):
        return self.blocks.items()

    def shapes(self) -> dict:
        """``{label: (nrows, ncols)}`` in label order."""
        return {w: (r, c) for w, (r, c, _sub) in self.blocks.items()}

    def entries(self, w) -> dict:
        """The entries of the block at label ``w``, in local indices."""
        return self.blocks[w][2]

    @property
    def shape(self) -> tuple[int, int]:
        shapes = self.shapes().values()
        return sum(r for r, _c in shapes), sum(c for _r, c in shapes)

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"WeightBlocks({rows} x {cols}, nnz={len(self)}, labels={list(self.blocks)})"


def split_blocks(entries, row_labels, col_labels) -> WeightBlocks:
    """The :class:`WeightBlocks` of a map given as global sparse entries.

    For the callers whose entries come with global indices (the complexes
    of ``exactness_check``, the minors span, the phi syzygies); Koszul
    slabs, spanning matrices and substitution slices are built as blocks.
    Every nonzero entry must connect a row and a column with equal labels,
    otherwise the map is not equivariant for the labelling and a
    ConventionError is raised; an index outside the label lists raises
    ValueError.
    """
    rows_by: dict = {}
    cols_by: dict = {}
    for i, w in enumerate(row_labels):
        rows_by.setdefault(w, []).append(i)
    for j, w in enumerate(col_labels):
        cols_by.setdefault(w, []).append(j)
    sub: dict = {w: {} for w in set(rows_by) | set(cols_by)}
    row_pos = {}
    for w, ids in rows_by.items():
        for k, i in enumerate(ids):
            row_pos[i] = (w, k)
    col_pos = {}
    for w, ids in cols_by.items():
        for k, j in enumerate(ids):
            col_pos[j] = (w, k)
    for (i, j), v in entries.items():
        try:
            wi, ki = row_pos[i]
            wj, kj = col_pos[j]
        except KeyError:
            raise ValueError(
                f"entry index ({i}, {j}) outside {len(row_labels)} x {len(col_labels)}"
            ) from None
        if wi != wj:
            raise ConventionError(
                f"entry ({i}, {j}) connects label {wj} to label {wi}; matrix is not label-preserving"
            )
        if type(v) is not int:
            v = _normalize_scalar(v)
        if v:
            sub[wi][(ki, kj)] = v
    return WeightBlocks({
        w: (len(rows_by.get(w, ())), len(cols_by.get(w, ())), sub[w]) for w in sorted(sub)
    })


def _blocked_echelon(blocks: WeightBlocks, labels, mem_mb: int | None = None, *, transpose: bool = False):
    """Reduced row echelon form of each block of a label-preserving map.

    Reduces the rows of each block, or with ``transpose`` its columns.
    ``labels`` are the labels of the reduced rows' coordinates: the map's
    column labels, or with ``transpose`` its row labels; they give the full
    matrix's indices and must match the block shapes (``ValueError``
    otherwise).  Yields ``(ids, reduced, pivots)`` per label, in label order:
    ``ids`` lists the full-matrix indices of the block's coordinates, and
    ``reduced`` and ``pivots`` are ``rref_rows`` of its rows (pivots index
    ``ids``).  A block with no entries is not reduced: its ``reduced`` and
    ``pivots`` are empty.  Each reduced block is held to the dense budget of
    :meth:`ExactMatrix.to_rows`, so one over ``mem_mb`` raises
    ``ResourceLimitError``.
    """
    side = 0 if transpose else 1
    ids: dict = {}
    for i, w in enumerate(labels):
        ids.setdefault(w, []).append(i)
    if {w: len(v) for w, v in ids.items()} != {w: s[side] for w, s in blocks.shapes().items() if s[side]}:
        raise ValueError("the labels do not match the block shapes")
    for w, (nrows, ncols, sub) in blocks.items():
        if transpose:
            nrows, ncols = ncols, nrows
        if not sub:
            yield ids.get(w, []), [], []
            continue
        check_dense_budget(nrows, ncols, _EXACT_CELL_BYTES, mem_mb, "to_rows")
        rows: list[dict] = [{} for _ in range(nrows)]
        if transpose:
            for (j, i), v in sub.items():
                rows[i][j] = v
        else:
            for (i, j), v in sub.items():
                rows[i][j] = v
        reduced, pivots = rref_rows(rows, ncols)
        yield ids[w], reduced, pivots


def column_echelon(blocks: WeightBlocks, row_labels, mem_mb: int | None = None):
    """Echelonized basis of the column span of a label-preserving map.

    ``blocks`` is the map's :class:`WeightBlocks` and ``row_labels`` its row
    labels, which give the full row indices.  Returns (columns, pivots):
    columns[c] is a {row: coeff} dict whose smallest nonzero row is
    pivots[c], with coefficient 1 there and 0 in every other pivot row; the
    pivot rows are strictly increasing.  It is the reduced echelon form of
    the transpose, reduced per label block (blocks never interact), so the
    pivot coordinates of a vector in the span are its coefficients in this
    basis.
    """
    found = []
    for ids, reduced, pivots in _blocked_echelon(blocks, row_labels, mem_mb, transpose=True):
        for row, p in zip(reduced, pivots):
            found.append((ids[p], {ids[j]: v for j, v in enumerate(row) if v}))
    found.sort(key=lambda t: t[0])
    return [vec for _p, vec in found], [p for p, _v in found]


def blocked_kernel_basis(blocks: WeightBlocks, col_labels, mem_mb: int | None = None) -> list[tuple[int, ...]]:
    """Primitive integer kernel basis of a label-preserving map, blockwise.

    ``blocks`` is the map's :class:`WeightBlocks` and ``col_labels`` its
    column labels, which give the full column indices.  The kernel of a
    block-diagonal matrix is the direct sum of the block kernels; vectors
    come out ordered by (label, free column order within the block) and are
    embedded back into the full column index space.
    """
    ncols = len(col_labels)
    out: list[tuple[int, ...]] = []
    for ids, reduced, pivots in _blocked_echelon(blocks, col_labels, mem_mb):
        for vec in kernel_rows_from_rref(reduced, pivots, len(ids)):
            full = [0] * ncols
            for k, v in enumerate(vec):
                full[ids[k]] = v
            out.append(tuple(full))
    return out


def _check_weyl_shapes(blocks: WeightBlocks, sl2_columns: bool) -> None:
    """Raise ``EquivarianceError`` unless the row and the column block sizes
    are equal at w and -w, and the sizes of each side that is an
    SL2-representation (the rows always, the columns when ``sl2_columns``)
    do not grow from w to w + 2 for w >= 0 (a missing label has size 0), as
    weight multiplicities never do."""
    shapes = blocks.shapes()
    for side, k in (("row", 0), ("column", 1)):
        def size(w):
            return shapes[w][k] if w in shapes else 0

        if any(size(-w) != shape[k] for w, shape in shapes.items()):
            raise EquivarianceError(
                f"{side} labels are not symmetric under w -> -w, so the map "
                "cannot be SL2-equivariant"
            )
        if k == 1 and not sl2_columns:
            continue
        w = min((w for w, shape in shapes.items() if w >= 2 and shape[k] > size(w - 2)), default=None)
        if w is not None:
            raise EquivarianceError(
                f"{side} block sizes grow from weight {w - 2} to {w} "
                f"({size(w - 2)} -> {size(w)}), which no SL2-representation's "
                "weight multiplicities do"
            )


def blocked_rank_details(
    blocks: WeightBlocks,
    mode: str = "auto",
    *,
    rng: random.Random | None = None,
    primes: list[int] | None = None,
    mem_mb: int | None = None,
    weyl: bool = False,
    sl2_columns: bool = True,
) -> RankResult:
    """Rank of a label-preserving map as the sum of its block ranks.

    The one rank driver of blocked maps.  ``blocks`` is a
    :class:`WeightBlocks`: Koszul slabs and spanning matrices are built that
    way, substitution slices build each block when the driver reads its
    entries (so only the eliminated blocks are built), and callers that hold
    global entries (complexes, the minors span) pass them through
    :func:`split_blocks` first.  Only the blocks that get eliminated are
    read through ``entries(w)``; the shape checks, the mode choice and
    inferred blocks read ``shapes()``, and the empty-map shortcut reads
    ``bool(blocks)``, which a slice answers from its shapes.

    The exact/modular decision is made once from the *full* shape, the sum
    of the block shapes (so provenance matches the unblocked computation);
    every block that is ranked runs in that mode with a shared prime set.
    Without ``weyl`` every block is ranked, in label order.  The reported
    primes are those the blocks actually used, in first-use order: a block
    resamples a prime that one of its denominators vanishes modulo.

    ``weyl=True`` declares the map SL2-equivariant with the labels as torus
    weights.  The Weyl element carries the weight-w block onto the weight -w
    block, so rank_w = rank_{-w} over QQ and only the blocks with label >= 0
    count: the total is rank_0 + 2 * sum_{w > 0} rank_w.  Blocks with a
    negative label may hold no entries (a half-built map); their entries are
    ignored.  The cokernel of the map is an SL2-representation, and so is
    its kernel when the columns index a weight basis of one (``sl2_columns``,
    the default); a representation with nothing in weight w has nothing in
    any higher weight of the same parity.  So the blocks of weight >= 0 are
    visited upward, and once a block is surjective (rank = its row count, or
    no rows) every later block of its parity is surjective too and its rank
    is its row count; likewise, with ``sl2_columns``, for injective and the
    column count.  Such a block is never eliminated nor held to the budget.
    A spanning matrix, whose columns are formal products m * g of possibly
    redundant generators, passes ``sl2_columns=False``: its image is still
    SL2-stable, so rank_w = rank_{-w} and surjectivity carries upward, but
    its kernel need not be a representation.  A block of full rank modulo a
    prime has full rank over QQ, so an inferred rank is exact whichever mode
    settled the block below it, and a halved modular total is still a lower
    bound of the true rank.  For rows and for columns, the shape of the
    block at w must equal that at -w (a missing label has shape 0 x 0); and
    the row sizes, and with ``sl2_columns`` the column sizes, must not grow
    from w to w + 2 for w >= 0, as weight multiplicities never do; otherwise
    ``EquivarianceError`` is raised.  Only SL2-stable constructions set the
    flag (see ``homres.tor_betti``, ``fhmaps.fh_rank_details`` and
    ``polyring.GradedIdeal.piece_dimension_details``).
    """
    if weyl:
        _check_weyl_shapes(blocks, sl2_columns)
    use = _resolve_mode(mode, *blocks.shape)
    if not blocks:
        return RankResult(0, "exact")
    if use == "modular":
        if rng is None:
            rng = default_rng()
        chosen = list(primes) if primes else draw_primes(rng)
    else:
        chosen = []
    total = 0
    escalated = False
    used: dict[int, None] = {}
    # the parities w % 2 known to be injective (surjective) from a lower block
    injective: set[int] = set()
    surjective: set[int] = set()
    shapes = blocks.shapes()
    labels = sorted(w for w in shapes if w >= 0) if weyl else list(shapes)
    for w in labels:
        nrows, ncols = shapes[w]
        if w % 2 in injective:
            r = ncols
        elif w % 2 in surjective:
            r = nrows
        elif not (sub := blocks.entries(w)):
            r = 0
        else:
            block = _trusted_matrix(nrows, ncols, sub)
            if use == "exact":
                r = bareiss_rank_rows(_sparse_rows(block, mem_mb), ncols)
            else:
                res = rank_details(block, "modular", rng=rng, primes=chosen, mem_mb=mem_mb)
                r = res.rank
                escalated = escalated or res.escalated
                used.update(dict.fromkeys(res.primes))
        if weyl:
            if r == ncols and sl2_columns:
                injective.add(w % 2)
            if r == nrows:
                surjective.add(w % 2)
        total += 2 * r if weyl and w > 0 else r
    if use == "exact":
        return RankResult(total, "exact")
    # blocks that disagreed were settled exactly; the rest carry double-prime
    # confidence, so the aggregate is reported at modular strength
    return RankResult(total, "modular", tuple(used), escalated=escalated)
