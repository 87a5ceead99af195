"""Exact matrices over the rationals.

Deterministic building blocks used by every other module:

* :class:`ExactMatrix` -- immutable sparse-storage matrix over QQ, each entry
  an int where integral, else a Fraction.
* :func:`rank` / :func:`rank_details` -- rank in exact, modular, or auto mode.
  Modular mode ranks modulo ``CERTIFICATE_PRIMES`` distinct random 50-62 bit
  primes, or the primes handed in, and keeps them once they are chosen: a
  prime that divides a denominator is an unlucky prime like any other, as a
  rank mod p never exceeds the rank over QQ.  Whenever the per-prime ranks
  disagree it escalates to exact arithmetic, so a reported modular rank
  always carries agreeing primes, exactly the ones it used, in its provenance.
* :func:`kernel_basis` -- primitive integer kernel vectors (content 1,
  lowest-index entry positive).

All exact arithmetic runs through one engine, ``_echelon``: sparse
fraction-free elimination over primitive integer rows (Bareiss-style
integer-preserving updates, applied only to the rows the pivot touches), with
the sparsest row that is nonzero in the current column as pivot.  Rank does
not depend on the pivot order and the reduced row echelon form of a row space
is unique, so results depend only on the input, not on that choice.  The rank
alone (``bareiss_rank_rows``) eliminates along the shorter side, with the
columns in ascending nonzero count; echelon forms keep the column order.

The exact engine has one row format, in and out: a ``{col: value}`` dict.
``bareiss_rank_rows`` and ``rref_rows`` take their rows so (a zero value is
dropped), ``rref_rows`` returns its reduced rows so, and a kernel vector is
a ``{col: int}`` dict; what the engine returns has ascending keys and no
zero value.  Only ``mod_p_rank_rows``, outside the exact engine, takes
dense rows.  A row that holds a Fraction is cleared by one rule, in the exact
engine and on its way to the mod-p kernel alike (``_sparse_int_row``): its
denominators are cleared and its content is divided out.

Label-preserving maps travel as :class:`WeightBlocks`, built block by
block where they are made: Koszul slabs, graded-piece spanning matrices
(which also serve as the minors span and the syzygy map of ``phi_matrix``)
and substitution slices build each block the first time it is read, and the
pieces of an explicit complex file each entry straight into its block; none
is assembled with global indices only to be split again.
Every echelon form of such a map runs through one blocked path,
``_blocked_echelon``, which takes the blocks and the labels that give their
full indices: check each block against the dense memory budget, reduce it
with ``rref_rows``.  :func:`column_echelon` (graded pieces, images of the
substitution maps), :func:`independent_columns` (``polyring.ideal_power``)
and :func:`blocked_kernel_basis` are thin layers over it, and
:func:`kernel_basis` is its one-block case.
Every rank of such a map goes through :func:`blocked_rank_details`.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from ..errors import EquivarianceError, ResourceLimitError
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
    if isinstance(v, (int, np.integer)):
        # a bool or another int subclass is stored as the plain int it equals
        return int(v)
    raise TypeError(f"exact matrices accept int/Fraction entries, got {type(v).__name__}")


class ExactMatrix:
    """Immutable exact matrix; zero entries are never stored.

    Entries are rationals.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        if entries:
            # the caller's key tuples are kept, not rebuilt: a block's entries
            # and its checked copy then share them
            for key, v in entries.items():
                i, j = key
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry index ({i}, {j}) outside {nrows} x {ncols}")
                v = _normalize_scalar(v)
                if v:
                    clean[key if type(key) is tuple else (i, j)] = v
        self.entries = clean

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows} x {self.ncols}, nnz={self.nnz})"


def _trusted_matrix(nrows: int, ncols: int, entries: dict) -> ExactMatrix:
    """Wrap entries that are already in range, normalized and nonzero, without
    validating them again (a block of a :class:`WeightBlocks`, a checked file)."""
    m = ExactMatrix.__new__(ExactMatrix)
    m.nrows = nrows
    m.ncols = ncols
    m.entries = entries
    return m


def _sparse_rows(m: ExactMatrix, mem_mb: int | None = None) -> list[dict]:
    """``{col: value}`` rows of ``m`` for the exact engine.

    The engine's work is bounded like that of dense rows, so ``m`` is held
    to the dense budget of exact rows.
    """
    check_dense_budget(m.nrows, m.ncols, _EXACT_CELL_BYTES, mem_mb, "exact rows")
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


def _sparse_int_row(row: dict) -> dict[int, int]:
    """Primitive ``{col: int}`` multiple of a ``{col: int/Fraction}`` row, zeros dropped."""
    nz = {j: v for j, v in row.items() if v}
    if all(type(v) is int for v in nz.values()):
        return _primitive(nz)
    den = 1
    for v in nz.values():
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    return _primitive({j: int(v * den) for j, v in nz.items()})


def _int_rows(rows) -> list[dict[int, int]]:
    """The nonzero rows of ``rows`` as ``_sparse_int_row`` makes them."""
    return [sparse for sparse in map(_sparse_int_row, rows) if sparse]


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


def _echelon(rows: list[dict[int, int]], ncols: int) -> tuple[list[int], list[dict[int, int]]]:
    """Sparse fraction-free forward elimination of a list of nonzero
    primitive ``{col: int}`` rows (``_int_rows``).  The list is emptied, so
    that a row is freed once it is eliminated; the rows are not mutated.

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
        buckets.setdefault(min(row), []).append(row)
    rows.clear()
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
    """Rank over QQ of ``{col: value}`` rows of int/Fraction values (not
    mutated): the pivot count of ``_echelon``.

    Two choices are made for the rank alone, the two that the mod-p kernel
    makes: the elimination runs along the shorter side, counted in nonzero
    rows and columns (the transpose has the same rank, and every row beyond
    the rank costs updates until it vanishes), and the columns are taken in
    ascending order of their nonzero count, ties in column order, which
    keeps the fill-in low.
    """
    int_rows = _int_rows(rows)
    counts = Counter(chain.from_iterable(int_rows))
    transpose = len(int_rows) > len(counts)
    if transpose:
        counts = {i: len(row) for i, row in enumerate(int_rows)}
    position = {j: p for p, j in enumerate(sorted(sorted(counts), key=counts.__getitem__))}
    # the rows are renumbered (or transposed) one at a time, each dropped
    # once it is copied, so a single copy of the matrix is held
    if transpose:
        by_col: dict[int, dict[int, int]] = {}
        for i in range(len(int_rows) - 1, -1, -1):
            p = position[i]
            for j, v in int_rows.pop().items():
                by_col.setdefault(j, {})[p] = v
        int_rows = [_primitive(col) for col in by_col.values()]
        del by_col
    else:
        for k, row in enumerate(int_rows):
            int_rows[k] = {position[j]: v for j, v in row.items()}
    return len(_echelon(int_rows, len(position))[0])


def rref_rows(rows, ncols: int):
    """Fully reduced row echelon form over QQ.

    ``rows`` is a list of ``{col: value}`` rows of int/Fraction values; a
    *new* list of the nonzero reduced rows, each a ``{col: value}`` dict with
    ascending keys and no zero value, is returned together with the pivot
    column list, in increasing pivot order.  Pivots are 1, pivot columns are
    zero elsewhere, and a value is an int when it is integral and a Fraction
    otherwise.  The reduced echelon form of a row space is unique, so the
    output depends only on the row span, not on the pivot order of the
    sparse fraction-free elimination (see ``_echelon``) that computes it.
    The rows are not mutated.
    """
    pivots, pivot_rows = _echelon(_int_rows(rows), ncols)
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
        out = {}
        for j in sorted(pr):
            v = pr[j]
            out[j] = v // lead if v % lead == 0 else Fraction(v, lead)
        reduced.append(out)
    return reduced, pivots


# ---------------------------------------------------------------------------
# modular engines


# read once: ``np.iinfo``'s ``min`` and ``max`` are properties, recomputed per read
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def mod_p_rank_rows(rows, ncols: int, primes, mem_mb: int | None = None) -> int:
    """Rank of dense int/Fraction rows modulo each of ``primes`` (see ``mod_p_rank_sparse``)."""
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return mod_p_rank_sparse(entries, len(rows), ncols, primes, mem_mb)


def mod_p_rank_sparse(entries, nrows: int, ncols: int, primes, mem_mb: int | None = None) -> int:
    """Rank of a sparse entry dict {(i, j): value} modulo each of the distinct ``primes``.

    The entries go to one kernel call as coordinate arrays, as they are,
    except that a row holding a Fraction is cleared first (``_sparse_int_row``);
    the kernel builds a dense array only for what fills in, and raises
    ``PrimesDisagree`` when the primes give different ranks.  A prime that
    divides a denominator only lowers the rank mod p, like any unlucky prime.
    """
    if nrows == 0 or ncols == 0:
        return 0
    check_dense_budget(nrows, ncols, _MOD_CELL_BYTES, mem_mb, "mod_p_rank")
    # a list of ints that all fit infers int64; anything else (a Fraction, a
    # big int) takes the slow path
    values = np.array(list(entries.values()))
    if values.dtype != np.int64:
        # each row holding a Fraction is cleared as the exact engine clears
        # it; an integer row goes as it is, as on the fast path
        rows: dict[int, dict] = {}
        for (i, j), v in entries.items():
            rows.setdefault(i, {})[j] = v
        entries = {}
        for i, row in rows.items():
            if any(isinstance(v, Fraction) for v in row.values()):
                row = _sparse_int_row(row)
            entries.update(((i, j), int(v)) for j, v in row.items())
        # an explicit check: numpy infers uint64, not object, for ints in [2**63, 2**64)
        fits = all(_INT64_MIN <= v <= _INT64_MAX for v in entries.values())
        values = np.array(list(entries.values()), dtype=np.int64 if fits else object)
    ij = np.fromiter(chain.from_iterable(entries), dtype=np.intp, count=2 * len(entries)).reshape(-1, 2)
    return int(_kernel.rank_mod_p_dense(_kernel.Coo(ij[:, 0], ij[:, 1], values, (nrows, ncols)), primes))


def draw_primes(rng: random.Random) -> list[int]:
    """The ``CERTIFICATE_PRIMES`` distinct primes of one modular certificate."""
    return _primes.distinct_random_primes(rng, CERTIFICATE_PRIMES)


# ---------------------------------------------------------------------------
# public rank / kernel operations


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

    Modular mode computes the rank modulo ``CERTIFICATE_PRIMES`` distinct
    random primes (or the given ``primes``) in one kernel call, and reports
    exactly those primes.  A prime that divides a denominator is kept: it can
    only lower the rank mod p, which the other prime or the escalation then
    catches.  On any disagreement it recomputes exactly (``escalated=True``).
    Exact mode is sparse fraction-free elimination over primitive integer
    rows with a sparsest-row pivot (``bareiss_rank_rows``).
    """
    use = _resolve_mode(mode, m.nrows, m.ncols)
    if m.nnz == 0:
        return RankResult(0, "exact")
    if use == "exact":
        return RankResult(bareiss_rank_rows(_sparse_rows(m, mem_mb), m.ncols), "exact")

    if rng is None:
        rng = default_rng()
    chosen = tuple(primes) if primes else tuple(draw_primes(rng))
    try:
        r = mod_p_rank_sparse(m.entries, m.nrows, m.ncols, chosen, mem_mb)
    except _kernel.PrimesDisagree:
        exact = bareiss_rank_rows(_sparse_rows(m, mem_mb), m.ncols)
        return RankResult(exact, "exact", chosen, escalated=True)
    return RankResult(r, "modular", chosen)


def rank(m: ExactMatrix, mode: str = "auto", **kw) -> int:
    return rank_details(m, mode, **kw).rank


def escalate_deficit(result: RankResult, bound: int, exact_rank) -> tuple[RankResult, bool]:
    """Settle a modular rank below ``bound`` exactly, before any negative verdict.

    The one deficit-escalation rule.  Returns ``(result, settled)``.  A
    modular rank below ``bound`` is recomputed by ``exact_rank()`` and
    reported exact with the modular primes and ``escalated=True``.  If that
    overruns the resource budget the modular result comes back with
    ``settled`` False: it is only a lower bound, so the caller's verdict
    turns inconclusive.
    """
    if result.mode != "modular" or result.rank >= bound:
        return result, True
    try:
        exact = exact_rank()
    except ResourceLimitError:
        return result, False
    return RankResult(exact.rank, "exact", result.primes, escalated=True), True


def kernel_basis(m: ExactMatrix, mem_mb: int | None = None) -> list[dict[int, int]]:
    """Primitive integer basis of the right kernel, free columns in order.

    Each vector is a ``{col: int}`` dict with ascending keys, no zero value,
    content 1 and a positive lowest-index entry; the identity matrix yields
    [] and a full-space kernel yields unit vectors ``{j: 1}``.  This is the
    one-block case of :func:`blocked_kernel_basis` (every label 0).
    """
    return blocked_kernel_basis(WeightBlocks({0: (m.nrows, m.ncols, m.entries)}), [0] * m.ncols, mem_mb)


# ---------------------------------------------------------------------------
# weight-blocked rank for label-preserving (equivariant) matrices


class WeightBlocks:
    """A label-preserving sparse map, stored as its label blocks.

    The map has a block ``(nrows, ncols, entries)`` at every label, in
    increasing label order: the shape of the block and a ``{(row, col):
    value}`` dict in local indices, which run in increasing order of the
    full map's indices.  Values are normalized as :class:`ExactMatrix`
    stores them (ints where integral, no zeros).  The block shapes add up to
    the full shape; a block may hold no entries.

    ``WeightBlocks(blocks)`` holds a map whose blocks are built already
    (``{label: (nrows, ncols, entries)}``); :meth:`lazy` one that builds
    each block the first time ``entries(w)`` reads it, and keeps it.
    :func:`blocked_rank_details` reads ``shapes()``, the truth value and the
    entries of the blocks it eliminates only, so those are the blocks that
    get built; ``blocks``, ``items()``, ``len()`` (the number of entries)
    and ``==`` build whatever is still missing.  A map is falsy when it has no entry;
    a block not built yet that has rows and columns counts as nonzero, so
    a lazy producer builds a nonzero vector in every column.
    """

    __slots__ = ("_shapes", "_built", "_make")

    def __init__(self, blocks: dict):
        self._shapes = {w: (r, c) for w, (r, c, _sub) in blocks.items()}
        self._built = {w: sub for w, (_r, _c, sub) in blocks.items()}
        self._make = None

    @classmethod
    def lazy(cls, shapes: dict, build) -> "WeightBlocks":
        """The map with block shapes ``{label: (nrows, ncols)}`` in label
        order, whose block at w is ``build(w)``, called once, on the first
        read of a block with rows and columns."""
        out = cls({})
        out._shapes, out._make = shapes, build
        return out

    def _build(self, w) -> dict:
        return self._make(w)

    def entries(self, w) -> dict:
        """The entries of the block at label ``w``, in local indices."""
        sub = self._built.get(w)
        if sub is None:
            nrows, ncols = self._shapes[w]
            sub = self._built[w] = self._build(w) if nrows and ncols else {}
        return sub

    @property
    def blocks(self) -> dict:
        return {w: (r, c, self.entries(w)) for w, (r, c) in self._shapes.items()}

    def items(self):
        return self.blocks.items()

    def shapes(self) -> dict:
        """``{label: (nrows, ncols)}`` in label order."""
        return dict(self._shapes)

    def __len__(self) -> int:
        return sum(len(self.entries(w)) for w in self._shapes)

    def __bool__(self) -> bool:
        built = self._built
        return any(built[w] if w in built else r and c for w, (r, c) in self._shapes.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightBlocks):
            return NotImplemented
        return self.blocks == other.blocks

    __hash__ = None

    @property
    def shape(self) -> tuple[int, int]:
        shapes = self._shapes.values()
        return sum(r for r, _c in shapes), sum(c for _r, c in shapes)

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"{type(self).__name__}({rows} x {cols}, built={sorted(self._built)})"


def _ids_by_label(labels) -> dict:
    """``{label: the indices with that label, ascending}``, so that local
    order within a label is global order."""
    ids: dict = {}
    for i, w in enumerate(labels):
        ids.setdefault(w, []).append(i)
    return ids


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
    exact rows, so one over ``mem_mb`` raises ``ResourceLimitError``.
    """
    side = 0 if transpose else 1
    ids = _ids_by_label(labels)
    if {w: len(v) for w, v in ids.items()} != {w: s[side] for w, s in blocks.shapes().items() if s[side]}:
        raise ValueError("the labels do not match the block shapes")
    for w, (nrows, ncols, sub) in blocks.items():
        if transpose:
            nrows, ncols = ncols, nrows
        if not sub:
            yield ids.get(w, []), [], []
            continue
        check_dense_budget(nrows, ncols, _EXACT_CELL_BYTES, mem_mb, "exact rows")
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
            found.append((ids[p], {ids[j]: v for j, v in row.items()}))
    found.sort(key=lambda t: t[0])
    return [vec for _p, vec in found], [p for p, _v in found]


def independent_columns(blocks: WeightBlocks, col_labels) -> list[int]:
    """The leftmost-greedy maximal independent column subset, ascending, of
    the label-preserving map ``blocks`` with column labels ``col_labels``:
    the pivot columns of each block.  Distinct labels touch disjoint rows, so
    this is the leftmost-greedy subset of the whole matrix."""
    return sorted(ids[p] for ids, _reduced, pivots in _blocked_echelon(blocks, col_labels) for p in pivots)


def blocked_kernel_basis(blocks: WeightBlocks, col_labels, mem_mb: int | None = None) -> list[dict[int, int]]:
    """Primitive integer kernel basis of a label-preserving map, blockwise.

    ``blocks`` is the map's :class:`WeightBlocks` and ``col_labels`` its
    column labels, which give the full column indices.  The kernel of a
    block-diagonal matrix is the direct sum of the block kernels: one vector
    per free column of each block's reduced echelon form, ordered by (label,
    free column).  Each vector is a ``{col: int}`` dict in full column
    indices with ascending keys and no zero value; it has content 1 and a
    positive lowest-index entry.
    """
    out: list[dict[int, int]] = []
    for ids, reduced, pivots in _blocked_echelon(blocks, col_labels, mem_mb):
        pivot_set = set(pivots)
        # free column f's vector: 1 at f, minus column f of each reduced row
        # at that row's pivot.  Pivots ascend and a row reaches only columns
        # right of its pivot, so the keys come in ascending order.
        free: dict[int, dict] = {f: {} for f in range(len(ids)) if f not in pivot_set}
        for p, row in zip(pivots, reduced):
            for j, v in row.items():
                if j != p:
                    free[j][ids[p]] = -v
        for f, vec in free.items():
            vec[ids[f]] = 1
            vec = _sparse_int_row(vec)
            if next(iter(vec.values())) < 0:
                vec = {j: -v for j, v in vec.items()}
            out.append(vec)
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
    incoming: tuple[RankResult, dict] | None = None,
    block_ranks: dict | None = None,
    strengths: dict | None = None,
) -> RankResult:
    """Rank of a label-preserving map as the sum of its block ranks.

    The one rank driver of blocked maps.  ``blocks`` is a
    :class:`WeightBlocks`: Koszul slabs, spanning matrices and substitution
    slices build each block when the rank reads its entries, and the pieces
    of an explicit complex come built.  Only the blocks that get eliminated are
    read through ``entries(w)``, so only they are built; the shape checks,
    the mode choice and inferred blocks read ``shapes()``, and the
    empty-map shortcut reads ``bool(blocks)``.  A ``block_ranks`` dict, when
    given, receives ``{label: rank}`` of every visited block of nonzero
    rank, inferred ones included.  A ``strengths`` dict, when given,
    receives ``{label: strength}`` of every visited block (see below).

    The exact/modular decision is made once from the *full* shape, the sum
    of the block shapes (so provenance matches the unblocked computation);
    every block that is ranked runs in that mode with a shared prime set.
    Without ``weyl`` every block is ranked, in label order.  The reported
    primes are the shared ones when a block was ranked modulo them, followed
    by those of a modular ``incoming`` rank that the result leans on.

    ``weyl=True`` declares the map SL2-equivariant with the labels as torus
    weights.  The Weyl element carries the weight-w block onto the weight -w
    block, so rank_w = rank_{-w} over QQ and only the blocks with label >= 0
    count: the total is rank_0 + 2 * sum_{w > 0} rank_w, and the blocks
    with a negative label are never read.  The cokernel of the map is an
    SL2-representation, and so is its kernel when the columns index a weight
    basis of one (``sl2_columns``, the default); a representation with
    nothing in weight w has nothing in any higher weight of the same
    parity.  So the blocks of weight >= 0 are
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

    ``incoming`` is ``(rank, block_ranks)`` of an SL2-equivariant map d_in
    into the columns with d o d_in = 0 (used with ``weyl`` and
    ``sl2_columns``).  The homology ker d / im d_in is then a
    representation, so its weight multiplicities H_w = C_w - r_w - in_w (C_w
    the column count) never grow from w to w + 2 for w >= 0: once H_w = 0,
    every later block of that parity gets r = C - in, uneliminated.  A
    modular rank is a lower bound, so a computed H_w = 0 is a true zero.
    The inferred ranks are exact when d_in is; when d_in is modular they
    are upper bounds, and the result is modular with d_in's primes, so the
    caller passes one only where nothing else reads this rank.

    The strength of a visited block is ``"exact"`` when Bareiss found its
    rank, or it has full rank modulo a prime, or it was inferred injective
    or surjective, or the homology walk inferred it from an exact d_in;
    ``"lower"`` when it was eliminated modulo a prime below full rank, so
    that its rank is a lower bound; and ``"leaned"`` when the walk inferred
    it as C_w - in_w from a modular d_in, so that it is no lower bound, and
    exact once d_in's block at w is (``homres.tor_betti`` settles both
    kinds through the homology at the map's ends).
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
    walk_in = incoming[1] if weyl and sl2_columns and incoming else None
    total = 0
    escalated = False
    leaned = False
    ranked_mod_p = False
    # the parities w % 2 known to be injective (surjective) from a lower
    # block, and those where the homology at the columns has vanished
    injective: set[int] = set()
    surjective: set[int] = set()
    vanished: set[int] = set()
    shapes = blocks.shapes()
    labels = sorted(w for w in shapes if w >= 0) if weyl else list(shapes)
    for w in labels:
        nrows, ncols = shapes[w]
        strength = "exact"
        if w % 2 in vanished:
            r = ncols - walk_in.get(w, 0)
            leaned = True
            if incoming[0].mode != "exact":
                strength = "leaned"
        elif w % 2 in injective:
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
                ranked_mod_p = True
                if res.mode == "modular" and r < min(nrows, ncols):
                    strength = "lower"
        if strengths is not None:
            strengths[w] = strength
        if weyl:
            if r == ncols and sl2_columns:
                injective.add(w % 2)
            if r == nrows:
                surjective.add(w % 2)
            if walk_in is not None and r + walk_in.get(w, 0) == ncols:
                vanished.add(w % 2)
        if r and block_ranks is not None:
            block_ranks[w] = r
        total += 2 * r if weyl and w > 0 else r
    used = tuple(chosen) if ranked_mod_p else ()
    if leaned and incoming[0].mode == "modular":
        used += tuple(p for p in incoming[0].primes if p not in used)
    elif use == "exact":
        return RankResult(total, "exact")
    # blocks that disagreed were settled exactly; the rest carry double-prime
    # confidence, so the aggregate is reported at modular strength
    return RankResult(total, "modular", used, escalated=escalated)
