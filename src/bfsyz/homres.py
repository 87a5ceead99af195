"""Graded Betti numbers via Koszul homology, regularity, explicit complexes.

The homology route needs only the graded pieces of a module and its
multiplication-by-variable maps: beta_{i,i+t} is the middle homology
dimension of

    Wedge^{i+1} V (x) M_{t-1} -> Wedge^i V (x) M_t -> Wedge^{i-1} V (x) M_{t+1}

with the contraction differential.  Every map in sight is torus equivariant,
so ranks run per weight block; modular entries are certified upper bounds
(two-prime agreement) and carry their primes, exact entries are
unconditional.  Resource overruns mark entries unknown, never guessed.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import ConventionError, InconclusiveError, ResourceLimitError
from .exactalg import (
    ExactMatrix,
    RankResult,
    WeightBlocks,
    blocked_rank_details,
    default_rng,
    kernel_basis,
    memory_budget_mb,
)
from .exactalg.matrix import _normalize_scalar, column_echelon, escalate_deficit, resolve_seed
from .exactalg.matrix import rref_rows  # noqa: F401 (unused; perfbench/spans.py REQUIRED_COPIES needs it)
from .fhmaps import (
    SYMMETRY,
    fh_rank_report,
    foulkes_howe,
    phi_matrix,
    power_generators,
    power_ideal,
)
from .polyring import (
    GradedIdeal,
    MultiPoly,
    PolyRing,
    MonomialIdeal,
    PieceValue,
    hilbert_function_details,
    ideal_power,
    initial_ideal_Jab,
    monomial_quotient_hf,
)
from .sl2rep import (
    coord_weight,
    koszul_image_weights,
    plethysm_basis,
    plethysm_index,
    wedge_basis,
    wedge_index,
)


# ---------------------------------------------------------------------------
# graded modules


class GradedModule:
    """Nonnegatively graded module with enough structure for Koszul homology.

    The homology machinery uses three accessors: ``dimension(k)`` and
    ``basis_weights(k)`` describe the degree-k component, and
    ``mult_adjacency(k)`` gives the multiplication maps M_k -> M_{k+1}, one
    column-adjacency table per ring variable.  Two constructions:

    * ``from_ideal``: components are the echelonized graded pieces of a
      GradedIdeal; coordinates of x_v * f are read off at pivot monomials.
    * ``power_quotient``: the coordinate ring of the power locus presented on
      its small side, as images of the substitution maps alpha_k; the
      variable z_j acts as multiplication by the degree-a generator P_j.
      Components in degree >= b use the full target monomial basis, guarded
      by a surjectivity certificate for that degree (a modular full-rank
      certificate is sound: ranks only drop under reduction mod p).

    ``weyl`` is True when SL2 acts on the module compatibly with the ring,
    so that every Koszul differential is SL2-equivariant: ``power_quotient``
    always, ``from_ideal`` when the ideal is SL2-stable
    (``GradedIdeal.sl2_stable``).  Koszul homology then ranks only the
    weight >= 0 half of each differential (see ``tor_betti``).
    """

    __slots__ = (
        "ring",
        "kind",
        "_ideal",
        "_gens",
        "_min_degree",
        "_pieces",
        "_mult",
        "_mode",
        "_rng",
        "_mem_mb",
        "_cache",
        "_certificates",
        "_sides",
        "weyl",
    )

    def __init__(self, ring: PolyRing, kind: str):
        self.ring = ring
        self.kind = kind
        self._ideal = None
        self._gens = None
        self._min_degree = 0
        self._pieces: dict = {}
        self._mult: dict = {}
        self._mode = "auto"
        self._rng = None
        self._mem_mb = None
        self._cache = None
        self._certificates: dict = {}
        self._sides: dict = {}
        self.weyl = False

    @classmethod
    def from_ideal(cls, ideal: GradedIdeal, *, mem_mb=None, cache=None) -> "GradedModule":
        mod = cls(ideal.ring, "ideal")
        mod._ideal = ideal
        mod._mem_mb = mem_mb
        mod._cache = cache
        mod._min_degree = min(ideal.generator_degrees(), default=1)
        mod.weyl = ideal.sl2_stable
        return mod

    @classmethod
    def power_quotient(
        cls, a: int, b: int, *, mode: str = "auto", rng=None, mem_mb=None, cache=None,
    ) -> "GradedModule":
        gens = power_generators(a, b)
        mod = cls(PolyRing(gens.d + 1, "z"), "power_quotient")
        mod._gens = gens
        mod._mode = mode
        mod._rng = rng if rng is not None else default_rng()
        mod._mem_mb = mem_mb
        mod._cache = cache
        mod.weyl = True
        return mod

    # -- component accessors

    def dimension(self, k: int) -> int:
        return self._piece(k)["dim"]

    def basis_weights(self, k: int):
        """Torus weights aligned with the degree-k basis (of the pivot monomials)."""
        return self._piece(k)["weights"]

    def _piece(self, k: int) -> dict:
        if k not in self._pieces:
            self._pieces[k] = getattr(self, "_piece_" + self.kind)(k)
        return self._pieces[k]

    @staticmethod
    def _empty_piece() -> dict:
        return {"dim": 0, "weights": [], "cols": [], "lookup": {}}

    def _piece_ideal(self, k: int) -> dict:
        if k < self._min_degree:
            return self._empty_piece()
        matrix = self._ideal.graded_piece(k, self._mem_mb, self._cache)
        monos = self.ring.monomials(k)
        cols: list[dict] = [{} for _ in range(matrix.ncols)]
        pivot = [None] * matrix.ncols
        for (i, j), v in matrix.entries.items():
            cols[j][monos[i]] = v
            if pivot[j] is None or i < pivot[j]:
                pivot[j] = i
        lookup = {monos[p]: j for j, p in enumerate(pivot)}
        weights = [self.ring.monomial_weight(monos[p]) for p in pivot]
        return {"dim": matrix.ncols, "weights": weights, "cols": cols, "lookup": lookup}

    def _piece_power_quotient(self, k: int) -> dict:
        if k < 0:
            return self._empty_piece()
        a, b = self._gens.a, self._gens.b
        if k < b:
            fh = foulkes_howe(a, b, k, self._mem_mb, self._cache)
            raw_cols, pivots = column_echelon(fh, fh.row_weights, self._mem_mb)
            cols = [{fh.row_basis[i]: v for i, v in vec.items()} for vec in raw_cols]
            return {
                "dim": len(cols),
                "weights": [fh.row_weights[p] for p in pivots],
                "cols": cols,
                "lookup": {fh.row_basis[p]: idx for idx, p in enumerate(pivots)},
            }
        self._certify_surjective(k)
        monos = plethysm_basis(a * k, b)
        return {
            "dim": len(monos),
            "weights": [coord_weight(m, b) for m in monos],
            "cols": [{m: 1} for m in monos],
            "lookup": plethysm_index(a * k, b),
        }

    def _certify_surjective(self, k: int) -> None:
        if k in self._certificates:
            return
        a, b = self._gens.a, self._gens.b
        report = fh_rank_report(
            a, b, k, self._mode, rng=self._rng, mem_mb=self._mem_mb, cache=self._cache,
        )
        if report["surjective"] is not True:
            raise InconclusiveError(
                f"cannot certify surjectivity of the degree-{k} substitution map "
                f"(status: {report['status']})"
            )
        self._certificates[k] = report

    # -- multiplication maps

    def mult_adjacency(self, k: int):
        """Per-variable column adjacency of M_k -> M_{k+1}.

        mult_adjacency(k)[v][c] is a tuple of (row, coeff) pairs describing
        x_v times the c-th basis element of M_k in the basis of M_{k+1};
        coefficients are ints where integral and never zero.  Each degree
        is checked once: x_v must
        carry weight w to w + wt(x_v), so that every Koszul slab entry joins
        a row and a column of equal weight (``ConventionError`` otherwise).
        """
        if k not in self._mult:
            adj = getattr(self, "_mult_" + self.kind)(k)
            self._check_weights(k, adj)
            self._mult[k] = adj
        return self._mult[k]

    def _check_weights(self, k: int, adj) -> None:
        src = self.basis_weights(k)
        dst = self.basis_weights(k + 1)
        for v, (vw, cols) in enumerate(zip(_variable_weights(self.ring), adj)):
            for c, pairs in enumerate(cols):
                want = src[c] + vw
                for r, _coeff in pairs:
                    if dst[r] != want:
                        raise ConventionError(
                            f"variable {v} carries basis element {c} of degree {k} (weight "
                            f"{src[c]}) to element {r} of weight {dst[r]}, not {want}"
                        )

    def _mult_ideal(self, k: int):
        return self._mult_by_polys(k, [self.ring.variable(v) for v in range(self.ring.nvars)])

    def _mult_power_quotient(self, k: int):
        return self._mult_by_polys(k, list(self._gens.polys))

    def _mult_by_polys(self, k: int, actions):
        """Adjacency of multiplication by actions[v], via pivot coordinates.

        Valid because the target basis is echelonized: the coefficient of a
        span element on basis vector r is its coefficient at the r-th pivot
        monomial (full monomial bases are the degenerate all-pivot case).
        """
        src = self._piece(k)
        dst = self._piece(k + 1)
        lookup = dst["lookup"]
        nv = self.ring.nvars
        acc: list[list[dict]] = [[{} for _ in range(src["dim"])] for _ in range(nv)]
        for c, coldict in enumerate(src["cols"]):
            for exp, coeff in coldict.items():
                for v in range(nv):
                    bucket = acc[v][c]
                    for pexp, pcoeff in actions[v].terms.items():
                        t = tuple(x + y for x, y in zip(exp, pexp))
                        r = lookup.get(t)
                        if r is None:
                            continue
                        s = bucket.get(r, 0) + coeff * pcoeff
                        if s:
                            bucket[r] = s
                        elif r in bucket:
                            del bucket[r]
        return [
            tuple(
                tuple(sorted((r, s if type(s) is int else _normalize_scalar(s)) for r, s in b.items()))
                for b in acc[v]
            )
            for v in range(nv)
        ]


# ---------------------------------------------------------------------------
# Koszul homology


def koszul_slab(module: GradedModule, i: int, t: int, mem_mb=None):
    """Weight blocks of d(i, t): Wedge^i V (x) M_t -> Wedge^{i-1} V (x) M_{t+1}.

    Sign convention: contraction with alternating signs by ascending variable
    index, d(e_T (x) m) = sum over positions pos of (-1)^pos e_{T minus
    T[pos]} (x) x_{T[pos]} m.  Rows and columns are ordered by wedge index,
    then module basis index.  Returns ``(nrows, ncols, blocks)``, with
    ``blocks`` a ``WeightBlocks`` keyed by torus weight, each built the first
    time it is read.
    The block shapes add up to ``(nrows, ncols)``, also when M_t or M_{t+1}
    is 0 and the slab has no entry (it is then falsy).

    The differential preserves weight: the weight of e_T (x) m is that of T
    plus that of m, so the block shapes are counts, dim(Wedge^i V (x) M_t)_w
    = sum over T of the number of basis elements of M_t of weight w - wt(T),
    and the block at w is built from the m of weight w - wt(T) for each T.
    A local index is the count of the block's rows (columns) before it, so
    local indices run in ascending global order.  That the entry of x_v * m
    lands in the block of m's column is the weight check of
    ``GradedModule.mult_adjacency``.  The memory estimate is that of the
    full slab, whichever blocks get read.
    """
    nv = module.ring.nvars
    if not 1 <= i <= nv:
        raise ValueError(f"wedge index {i} out of range for {nv} variables")
    dim_t = module.dimension(t) if t >= 0 else 0
    dim_t1 = module.dimension(t + 1) if t + 1 >= 0 else 0
    wsrc = wedge_basis(i, nv - 1)
    wdst = wedge_basis(i - 1, nv - 1)
    widx = wedge_index(i - 1, nv - 1)
    nrows = len(wdst) * dim_t1
    ncols = len(wsrc) * dim_t
    if dim_t == 0 or dim_t1 == 0:
        # no entries: the blocks are the weight spaces of the side that is
        # not 0, if any, and each has no rows or no columns, so none is built
        shapes = {}
        if dim_t1:
            counts = _slab_side(module, i - 1, t + 1, keep=True)[2]
            shapes = {w: (counts[w], 0) for w in sorted(counts)}
        elif dim_t:
            counts = _slab_side(module, i, t, keep=False)[2]
            shapes = {w: (0, counts[w]) for w in sorted(counts)}
        return nrows, ncols, WeightBlocks.lazy(shapes, None)
    adj = module.mult_adjacency(t)
    est = sum(sum(len(p) for p in adj[v]) for v in range(nv)) * comb(nv - 1, i - 1)
    if est * 100 > memory_budget_mb(mem_mb) * 1024 * 1024:
        raise ResourceLimitError(f"koszul slab ({i}, {t}) needs roughly {est} entries")
    src_weights, col_local, col_counts = _slab_side(module, i, t, keep=False)
    _dst_weights, row_local, row_counts = _slab_side(module, i - 1, t + 1, keep=True)
    col_local, row_local = col_local.tolist(), row_local.tolist()
    by_weight: dict = {}  # the module basis indices of each weight
    for c, w in enumerate(module.basis_weights(t)):
        by_weight.setdefault(w, []).append(c)

    def build(w):
        sub = {}
        for T, tw, lcs in zip(wsrc, src_weights, col_local):
            cols = [(c, lcs[c]) for c in by_weight.get(w - tw, ())]
            for p, v in enumerate(T):
                rl, av = row_local[widx[T[:p] + T[p + 1 :]]], adj[v]
                if p % 2:
                    for c, lc in cols:
                        for r, coeff in av[c]:
                            sub[(rl[r], lc)] = -coeff
                else:
                    for c, lc in cols:
                        for r, coeff in av[c]:
                            sub[(rl[r], lc)] = coeff
        return sub

    labels = sorted(row_counts.keys() | col_counts.keys())
    shapes = {w: (row_counts.get(w, 0), col_counts.get(w, 0)) for w in labels}
    return nrows, ncols, WeightBlocks.lazy(shapes, build)


def _slab_side(module: GradedModule, i: int, t: int, keep: bool):
    """``(wedge_weights, local, counts)`` of the basis of Wedge^i V (x) M_t.

    The torus weights of the wedge basis, then ``_local_indices`` of the
    basis.  The rows of
    d(i + 1, t - 1) are the columns of d(i, t), which ``tor_betti`` ranks
    next, so a side is built once: with ``keep`` it is kept, as its compact
    array, until the column use takes it back out.
    """
    side = module._sides.pop((i, t), None)
    if side is None:
        varw = _variable_weights(module.ring)
        wedge_weights = [sum(varw[v] for v in T) for T in wedge_basis(i, module.ring.nvars - 1)]
        side = (wedge_weights, *_local_indices(wedge_weights, module.basis_weights(t)))
        if keep:
            module._sides[(i, t)] = side
    return side


def _variable_weights(ring: PolyRing) -> list[int]:
    nv = ring.nvars
    return [ring.monomial_weight(tuple(1 if u == v else 0 for u in range(nv))) for v in range(nv)]


def _local_indices(wedge_weights, module_weights):
    """Local indices and block sizes of the basis of Wedge (x) M, wedge-major.

    Returns ``(local, counts)``: ``local[k, m]`` (an int32 array) is the
    number of basis elements of the weight of (k-th wedge element) (x) (m-th
    module element) that come before it, and counts[w] is the dimension of
    the weight-w space, the convolution of the two weight multisets.
    """
    total = np.add.outer(
        np.asarray(wedge_weights, dtype=np.int64), np.asarray(module_weights, dtype=np.int64)
    )
    # a stable sort by weight keeps each weight's basis elements in order, so
    # an element's local index is its place in its run of equal weights
    order = np.argsort(total, axis=None, kind="stable")
    weights = total.ravel()[order]
    starts = np.flatnonzero(np.diff(weights, prepend=weights[:1] - 1))
    sizes = np.diff(starts, append=weights.size)
    local = np.empty(weights.size, dtype=np.int32)
    local[order] = np.arange(weights.size) - np.repeat(starts, sizes)
    return local.reshape(total.shape), dict(zip(weights[starts].tolist(), sizes.tolist()))


def provenance(res) -> dict:
    """The proof strength of a ``RankResult`` or ``BettiEntry`` as a report
    record: its mode, then its primes and its escalation when it has any."""
    rec = {"mode": res.mode}
    if res.primes:
        rec["primes"] = list(res.primes)
    if res.escalated:
        rec["escalated"] = True
    return rec


class BettiEntry(NamedTuple):
    value: int
    mode: str
    primes: tuple = ()
    escalated: bool = False


class BettiTable:
    """Graded Betti numbers over a window, with per-entry provenance.

    entries maps (i, j) -> BettiEntry, j the total degree; zero values are
    kept because a certified zero is the point of off-strand checks.
    unknown holds (i, j) pairs whose computation hit the resource budget.
    Window metadata: all (i, j) with 0 <= i <= i_max, i <= j <= min(j_max,
    i + t_max) are present in entries or unknown.  full_degree, for the
    table of an ideal I, is the least k with I_k = S_k when ``tor_betti``
    saw one (it looks up to degree t_max + 1), else None; ``regularity``
    rests on it, and ``to_json`` does not write it.
    """

    __slots__ = ("nvars", "i_max", "t_max", "j_max", "entries", "unknown", "meta", "full_degree")

    def __init__(self, nvars, i_max, t_max, j_max, entries, unknown, meta=None, full_degree=None):
        self.nvars = nvars
        self.i_max = i_max
        self.t_max = t_max
        self.j_max = j_max
        self.entries = dict(entries)
        self.unknown = set(unknown)
        self.meta = dict(meta or {})
        self.full_degree = full_degree

    def covers(self, i: int, j: int) -> bool:
        return (i, j) in self.entries or (i, j) in self.unknown

    def value(self, i: int, j: int) -> int:
        if (i, j) in self.unknown:
            raise InconclusiveError(f"entry ({i}, {j}) exceeded the resource budget")
        if (i, j) not in self.entries:
            raise KeyError(f"entry ({i}, {j}) is outside the computed window")
        return self.entries[(i, j)].value

    def nonzero(self) -> dict:
        return {key: e.value for key, e in self.entries.items() if e.value}

    def to_json(self) -> dict:
        items = []
        for key in sorted(self.entries):
            e = self.entries[key]
            items.append({"i": key[0], "j": key[1], "value": e.value, **provenance(e)})
        return {
            "nvars": self.nvars,
            "i_max": self.i_max,
            "t_max": self.t_max,
            "j_max": self.j_max,
            "entries": items,
            "unknown": sorted(list(k) for k in self.unknown),
            "meta": dict(self.meta),
        }

    def render(self, convention: str = "total") -> str:
        """Text grid, one row per strand: row r lists beta_{i, i+r}.

        convention="total" labels rows by the strand r (entries have total
        degree i + r); convention="internal" prints the same grid labelling
        rows as the internal degree of Tor_i in total degree i + j.  The
        header names the labelling in use.
        """
        if convention not in ("total", "internal"):
            raise ValueError(f"unknown convention {convention!r}")
        label = "j" if convention == "internal" else "r"
        head = (
            f"rows {label} = internal degree: cell (row, col i) = dim Tor_i in total degree i + {label}"
            if convention == "internal"
            else f"rows {label} = strand: cell (row, col i) = beta_(i, i+{label})"
        )
        strands = sorted({j - i for (i, j) in self.entries} | {j - i for (i, j) in self.unknown})
        cols = list(range(self.i_max + 1))
        grid = [[label + ":"] + [str(i) for i in cols]]
        for r in strands:
            row = [str(r)]
            for i in cols:
                key = (i, i + r)
                if key in self.unknown:
                    row.append("?")
                elif key in self.entries:
                    v = self.entries[key].value
                    row.append(str(v) if v else ".")
                else:
                    row.append(" ")
            grid.append(row)
        widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
        lines = [head]
        for row in grid:
            lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
        return "\n".join(lines)


def tor_betti(
    module: GradedModule,
    i_max: int,
    j_max: int,
    mode: str = "auto",
    *,
    t_max: int | None = None,
    seed=None,
    mem_mb=None,
    threads: int = 1,
) -> BettiTable:
    """Graded Betti numbers beta_{i,j} = dim Tor_i(M, QQ)_j by Koszul homology.

    Window: 0 <= i <= i_max, i <= j <= j_max, and j - i <= t_max when the
    strand cap is given.  Each entry is

        beta_{i,j} = dim(Wedge^i V (x) M_{j-i}) - rank d(i, j-i) - rank d(i+1, j-i-1)

    with each rank shared by the two entries it borders.  Each d(i, t) is
    built by ``koszul_slab`` as weight blocks, whose weights
    ``GradedModule.mult_adjacency`` checks before any slab is built, and
    ranked by ``blocked_rank_details`` in the requested mode; modular values
    are two-prime-certified upper bounds and record their primes.  A slab
    over the memory budget marks its entries unknown.  Each rank draws
    primes from its own (seed, i, t)-keyed generator and each anti-diagonal
    i + t is one task, so results do not depend on ``threads``.  With
    ``module.weyl`` only the weight >= 0 half of a slab is ranked
    (``weyl=True``), and ``meta["symmetry"]`` is ``"sl2-weyl"``.

    Three rules replace or certify elimination.  (1) If M presents S/I as a cyclic
    module (``power_quotient``, never an ideal) with dim M_u = dim S_u for
    u <= t + 1, d(i, t) is the Koszul differential of S, which is exact in
    degree j = i + t > 0 (Eisenbud, *Commutative Algebra*, Cor. 17.5); so
    rank d(i, t) = sum_{k >= i} (-1)^(k-i) dim(Wedge^k V (x) S_{j-k}), per
    weight: exact, and no slab is built.  (2) Tor_i(M)_j is the homology of
    a complex of SL2-representations, so its weight multiplicities never
    grow from w to w + 2 for w >= 0.  Each anti-diagonal runs in descending
    i and hands the block ranks of d(i + 1, t - 1) to those of d(i, t)
    (``blocked_rank_details(..., incoming=...)``) when they are exact, or
    when (i - 1, i + t) lies outside the window, so that the upper bounds a
    modular incoming rank gives reach no other entry.  (3) In ``auto``, d o
    d = 0 certifies modular ranks: H_w = C_w - r_out,w - r_in,w >= 0 over QQ
    and a rank mod p never exceeds the true one, so where the homology mod p
    vanishes at a weight both block ranks are exact (``_settle_by_homology``
    runs this to a fixpoint after every rank).  A map whose blocks all
    settle is exact, and so is an entry whose two ranks are, or whose
    modular value is 0: H'_w >= H_w >= 0 at every weight, by rank mod p <=
    rank at the eliminated ones and by (2) at the inferred ones.  The pass
    changes no rank, prime or draw, only modes, so the entry keeps the primes
    that were used.  The table's ``full_degree`` is, for a module of an
    ideal I, the least k with I_k = S_k up to one past the window's top
    strand, which ``regularity`` needs.
    """
    nv = module.ring.nvars
    base_seed = resolve_seed(seed)
    cap = j_max if t_max is None else t_max
    window = [
        (i, j)
        for i in range(i_max + 1)
        for j in range(i, min(j_max, i + cap) + 1)
    ]
    if not window:
        raise ValueError("empty Betti window")
    t_hi = max(j - i for i, j in window)
    for t in range(t_hi + 2):
        module.dimension(t)
    for t in range(t_hi + 1):
        module.mult_adjacency(t)
    in_window = set(window)

    need = set()
    for i, j in window:
        t = j - i
        if 1 <= i <= nv:
            need.add((i, t))
        if i + 1 <= nv and t >= 1:
            need.add((i + 1, t - 1))
    # M = S/I agrees with S in the degrees below ``free``
    free = 0
    while (
        module.kind == "power_quotient" and free <= t_hi + 1
        and module.dimension(free) == module.ring.dimension(free)
    ):
        free += 1
    zero = RankResult(0, "exact")
    # (i, t) -> (rank, block ranks), or the budget error, and the block
    # strengths and shapes of each slab with entries; each task writes the
    # keys of its own anti-diagonal only
    ranks: dict = {}
    failed: dict = {}
    strengths: dict = {}
    shapes: dict = {}

    def diagonal_task(keys):
        for i, t in keys:
            incoming = (zero, {}) if i == nv or t == 0 else ranks.get((i + 1, t - 1))
            if incoming and incoming[0].mode != "exact" and (i - 1, i + t) in in_window:
                incoming = None
            block_ranks = {}
            try:
                if t + 1 < free:
                    block_ranks = koszul_image_weights(nv - 1, i, i + t)
                    res = RankResult(sum(block_ranks.values()), "exact")
                elif blocks := koszul_slab(module, i, t, mem_mb)[2]:
                    shapes[(i, t)] = blocks.shapes()
                    strengths[(i, t)] = {}
                    res = blocked_rank_details(
                        blocks, mode, rng=random.Random(f"{base_seed}:koszul:{i}:{t}"), mem_mb=mem_mb,
                        weyl=module.weyl, incoming=incoming, block_ranks=block_ranks,
                        strengths=strengths[(i, t)],
                    )
                else:
                    res = zero
                blocks = None  # not held while the next slab is built
                ranks[(i, t)] = res, block_ranks
            except ResourceLimitError as exc:
                failed[(i, t)] = str(exc)
        for i, t in keys:  # the row sides no slab here took (see _slab_side)
            module._sides.pop((i - 1, t + 1), None)

    # one task per anti-diagonal i + t, in descending i: d(i + 1, t - 1)
    # feeds d(i, t) and shares a side with it
    diagonals: dict = {}
    for i, t in sorted(need, reverse=True):
        diagonals.setdefault(i + t, []).append((i, t))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(diagonal_task, diagonals.values()))
    else:
        for keys in diagonals.values():
            diagonal_task(keys)

    if mode == "auto":
        _settle_by_homology(nv, ranks, strengths, shapes)

    entries: dict = {}
    unknown = set()
    for i, j in window:
        t = j - i
        if i > nv:
            entries[(i, j)] = BettiEntry(0, "exact")
            continue
        out_key = (i, t) if i >= 1 else None
        in_key = (i + 1, t - 1) if i + 1 <= nv and t >= 1 else None
        if out_key in failed or in_key in failed:
            unknown.add((i, j))
            continue
        # the gate above hands d(i, t) a modular incoming rank only when d(i,
        # t) maps into no entry of the window, so no rank into an entry leans
        if "leaned" in strengths.get(in_key, {}).values():
            raise AssertionError(f"the rank into entry ({i}, {j}) leans on a modular rank")
        r_out = ranks.get(out_key, (zero,))[0]
        r_in = ranks.get(in_key, (zero,))[0]
        value = comb(nv, i) * module.dimension(t) - r_out.rank - r_in.rank
        if value < 0:
            raise ConventionError(f"negative Betti number at (i, j) = ({i}, {j})")
        used = [r for r in (r_out, r_in) if r.rank or r.primes]
        modular = any(r.mode == "modular" for r in used) and not (mode == "auto" and value == 0)
        primes = tuple(sorted({p for r in used for p in r.primes}))
        entries[(i, j)] = BettiEntry(
            value, "modular" if modular else "exact", primes, any(r.escalated for r in used)
        )
    meta = {"mode": mode, "module": module.kind, "seed": base_seed}
    if module.weyl:
        meta["symmetry"] = SYMMETRY
    full_degree = None
    if module.kind == "ideal":
        full_degree = next(
            (k for k in range(t_hi + 2) if module.dimension(k) == module.ring.dimension(k)), None
        )
    return BettiTable(nv, i_max, cap, j_max, entries, unknown, meta, full_degree)


def _settle_by_homology(nv: int, ranks: dict, strengths: dict, shapes: dict) -> None:
    """Certify the Koszul block ranks that d o d = 0 pins, in place.

    At a spot (i, t) and weight w, H_w = C_w - r_out,w - r_in,w >= 0 over
    QQ, with C_w = dim(Wedge^i V (x) M_t)_w, r_out,w the rank of d(i, t) and
    r_in,w that of d(i + 1, t - 1) at w.  A ``"lower"`` block rank is at most
    the true one, so when both blocks are exact or lower and C_w - r_out,w -
    r_in,w = 0, then H_w = 0 and both are exact.  A ``"leaned"`` block of
    d(i, t) is C_w - r_in,w where H_w = 0 (``blocked_rank_details``), so it
    is exact once r_in,w is.  The zero maps (out of i = 0, into i = nv or
    t = 0) are exact 0, and so is a missing block.  The two rules run to a
    fixpoint over every spot either of whose maps was ranked (both only
    ever turn a block exact, so the order of visits does not matter); a map
    whose blocks all end exact turns exact, with its primes and escalation
    kept.
    No rank changes.  Under Weyl halving only the blocks of weight >= 0 are
    visited, and they settle the rest, since rank_w = rank_-w over QQ.
    """
    spots = {spot for i, t in ranks for spot in ((i, t), (i - 1, t + 1))}
    sides = []  # (out key, in key, C_w, weights) of the spots to settle
    for i, t in spots:
        keys = ((i, t) if i >= 1 else None, (i + 1, t - 1) if i < nv and t >= 1 else None)
        if any(key is not None and key not in ranks for key in keys):
            continue  # a map not computed, or over the budget
        out_key, in_key = keys
        if out_key in shapes:
            cols = {w: shape[1] for w, shape in shapes[out_key].items()}
        elif in_key in shapes:
            cols = {w: shape[0] for w, shape in shapes[in_key].items()}
        else:
            continue  # both maps are exact by formula, or zero
        weights = set(strengths.get(out_key, ())) | set(strengths.get(in_key, ()))
        sides.append((out_key, in_key, cols, weights))

    def strength(key, w):
        return strengths[key].get(w, "exact") if key in strengths else "exact"

    def block_rank(key, w):
        return ranks[key][1].get(w, 0) if key is not None else 0

    changed = True
    while changed:
        changed = False
        for out_key, in_key, cols, weights in sides:
            for w in weights:
                s_out, s_in = strength(out_key, w), strength(in_key, w)
                if s_out == "leaned":
                    if s_in == "exact":
                        strengths[out_key][w] = "exact"
                        changed = True
                elif "lower" in (s_out, s_in) and s_in != "leaned" and (
                    cols.get(w, 0) == block_rank(out_key, w) + block_rank(in_key, w)
                ):
                    for key, s in ((out_key, s_out), (in_key, s_in)):
                        if s == "lower":
                            strengths[key][w] = "exact"
                    changed = True
    for key, (res, block_ranks) in ranks.items():
        if res.mode == "modular" and all(s == "exact" for s in strengths.get(key, {}).values()):
            ranks[key] = res._replace(mode="exact"), block_ranks


def first_syzygy_table(table: BettiTable) -> BettiTable:
    """Betti table of the kernel of the augmentation of a cyclic module.

    For M with beta_{0,0} = 1 and no other generators, the minimal
    resolution of the kernel ideal is the truncation: beta_{i,j}(ker) =
    beta_{i+1,j}(M) for all j > 0.  Strand-0 entries of the result are
    literal zeros (a module living in positive degrees has no Tor_i in
    total degree i).
    """
    for (i, j), e in table.entries.items():
        if i == 0 and e.value != (1 if j == 0 else 0):
            raise ConventionError("table is not the table of a cyclic module generated in degree 0")
    entries = {}
    for (i, j), e in table.entries.items():
        if i >= 1 and j > 0:
            entries[(i - 1, j)] = e
    unknown = {(i - 1, j) for (i, j) in table.unknown if i >= 1}
    i_max = table.i_max - 1
    for i in range(i_max + 1):
        entries.setdefault((i, i), BettiEntry(0, "exact"))
    meta = dict(table.meta)
    meta["shifted"] = True
    return BettiTable(table.nvars, i_max, table.t_max + 1, table.j_max, entries, unknown, meta)


class PowerLocusBetti(NamedTuple):
    ideal_table: BettiTable
    quotient_table: BettiTable
    module: GradedModule


def power_locus_betti(
    a: int,
    b: int,
    mode: str = "auto",
    *,
    i_max: int | None = None,
    t_max: int | None = None,
    seed=None,
    mem_mb=None,
    cache=None,
    threads: int = 1,
) -> PowerLocusBetti:
    """Betti tables of the power-locus ideal and of its coordinate ring.

    The coordinate ring is presented on its small side (power_quotient), and
    the ideal table is its homological shift.  Default window: strands up to
    b+1 on the quotient side, so the ideal table carries its linear strand
    plus one full strand above it, enough for the off-strand certificate and
    for regularity.
    """
    d = a * b
    if i_max is None:
        i_max = d + 2
    if t_max is None:
        t_max = b + 1
    rng = random.Random(f"{resolve_seed(seed)}:certificates:{a}:{b}")
    module = GradedModule.power_quotient(
        a, b, mode=mode, rng=rng, mem_mb=mem_mb, cache=cache
    )
    quotient = tor_betti(
        module, i_max, i_max + t_max, mode, t_max=t_max, seed=seed,
        mem_mb=mem_mb, threads=threads,
    )
    quotient.meta.update({"a": a, "b": b})
    ideal = first_syzygy_table(quotient)
    return PowerLocusBetti(ideal, quotient, module)


# ---------------------------------------------------------------------------
# regularity, numerator, generator counts


def _check_rows_visible(table: BettiTable) -> None:
    """Raise InconclusiveError if an entry is unknown, or i_max is below the
    variable count, so that a homological row of the resolution may be unseen."""
    if table.unknown:
        raise InconclusiveError(f"table has {len(table.unknown)} unknown entries")
    if table.i_max < table.nvars:
        raise InconclusiveError(
            f"window too narrow: i_max = {table.i_max} is below the variable count {table.nvars}"
        )


def regularity(table: BettiTable) -> int:
    """max{j - i : beta_{i,j} != 0} of an ideal's table, where the window is known to hold it.

    If I_k = S_k then S/I vanishes from degree k on, so reg I = reg(S/I) + 1
    <= k: no strand of I above k is nonzero.  The maximum is trusted only
    when that k is known (``BettiTable.full_degree``), the window holds
    every strand up to k for every i <= i_max, no entry is unknown, and
    i_max is at least the variable count (so every homological row of the
    resolution is visible).  Anything short of that raises
    InconclusiveError rather than underreporting: a zero strand alone
    proves nothing, as (x0^2, x1^5) shows, with only beta_{0,2} in strands
    0-3 and regularity 6.
    """
    _check_rows_visible(table)
    k = table.full_degree
    if k is None:
        raise InconclusiveError("no degree k with I_k = S_k is known, so no strand bounds the regularity")
    for i in range(table.i_max + 1):
        for t in range(k + 1):
            if (i, i + t) not in table.entries:
                raise InconclusiveError(
                    f"window too narrow: I_{k} = S_{k}, and strand {t} is not fully computed"
                )
    strands = [j - i for (i, j), e in table.entries.items() if e.value]
    if not strands:
        raise InconclusiveError("table has no nonzero entries")
    return max(strands)


def projective_dimension(table: BettiTable) -> int:
    """max{i : some beta_{i,j} != 0} over the window.

    The value is the window's: every homological row is visible (i_max is
    at least the variable count) and no entry is unknown, but a nonzero
    entry in a strand beyond the window would go unseen.
    """
    _check_rows_visible(table)
    rows = [i for (i, _j), e in table.entries.items() if e.value]
    if not rows:
        raise InconclusiveError("table has no nonzero entries")
    return max(rows)


def euler_characteristic_ok(module: GradedModule, table: BettiTable, j: int) -> bool:
    """Exact per-degree consistency of the table with the slab dimensions.

    In total degree j the alternating sum of dim(Wedge^i V (x) M_{j-i})
    equals the alternating sum of beta_{i,j}: every rank appears once with
    each sign.  All entries (i, j) for i up to min(nvars, j) must be in the
    window.
    """
    nv = module.ring.nvars
    lhs = 0
    rhs = 0
    for i in range(min(nv, j) + 1):
        lhs += (-1) ** i * comb(nv, i) * module.dimension(j - i)
        if (i, j) in table.unknown:
            raise InconclusiveError(f"entry ({i}, {j}) is unknown")
        if (i, j) not in table.entries:
            raise InconclusiveError(f"entry ({i}, {j}) is outside the window")
        rhs += (-1) ** i * table.entries[(i, j)].value
    return lhs == rhs


def compare_hilbert_functions(
    ideal: GradedIdeal, model: MonomialIdeal, k_max: int, mode: str = "auto", *, rng=None, mem_mb=None,
) -> tuple[list[int], list[PieceValue]]:
    """HF of S/model and of S/ideal in degrees 0..k_max, settled for comparison.

    The second list holds ``PieceValue(HF(S/ideal)(k), rank)``, the rank of
    the degree-k piece with its provenance.  A modular piece dimension of
    ``ideal`` is only a lower bound, so a degree whose quotient value
    exceeds the model's rests on a modular deficit: it is escalated to exact
    against the model's dim I_k before any negative verdict
    (``escalate_deficit``).  An escalation over the resource budget raises
    InconclusiveError.
    """
    hf_model = monomial_quotient_hf(model, k_max)
    hf_ideal = []
    for k, piece in enumerate(hilbert_function_details(ideal, k_max, mode, rng=rng, mem_mb=mem_mb)):
        full = ideal.ring.dimension(k)
        res, settled = escalate_deficit(
            piece.rank, full - hf_model[k],
            lambda: ideal.piece_dimension_details(k, "exact", mem_mb=mem_mb),
        )
        if not settled:
            raise InconclusiveError(f"the exact rank of the degree-{k} piece is over the resource budget")
        hf_ideal.append(PieceValue(full - res.rank, res))
    return hf_model, hf_ideal


def initial_ideal_regularity(
    a: int, b: int, mode: str = "auto", *, rng=None, mem_mb=None,
) -> dict:
    """Regularity of the power ideal through its monomial lead-term model.

    The monomial model is Artinian with top nonzero quotient degree
    c(a - 1) where c = floor((b + 2) / 2).  The report compares the quotient
    Hilbert functions of the two ideals through one degree past the top; on
    agreement, vanishing there pins the quotient's length (zero in one
    degree stays zero in all later ones), so reg of the ideal is the top
    degree plus one.  Disagreement, once every modular deficit behind it has
    escalated (``compare_hilbert_functions``), leaves value None; a rank
    budget failure raises InconclusiveError.  ``hf_power_provenance`` gives
    the proof strength of each degree of ``hf_power`` (``provenance``).  The
    power ideal's piece dimensions are ranked on their weight >= 0 half,
    which ``"symmetry": "sl2-weyl"`` records.
    """
    c = (b + 2) // 2
    top = c * (a - 1)
    ideal = power_ideal(a, b)
    hf_initial, pieces = compare_hilbert_functions(
        ideal, initial_ideal_Jab(a, b), top + 1, mode, rng=rng, mem_mb=mem_mb,
    )
    hf_power = [piece.value for piece in pieces]
    report = {
        "a": a,
        "b": b,
        "top_degree": top,
        "hf_initial": hf_initial,
        "hf_power": hf_power,
        "hf_power_provenance": [provenance(piece.rank) for piece in pieces],
        "hf_agree": hf_initial == hf_power,
        "value": None,
    }
    if ideal.sl2_stable:
        report["symmetry"] = SYMMETRY
    if not report["hf_agree"]:
        return report
    if hf_power[top + 1] != 0 or (top > 0 and hf_power[top] == 0):
        raise InconclusiveError(
            "quotient does not vanish exactly past the predicted top degree"
        )
    report["value"] = top + 1
    return report


# ---------------------------------------------------------------------------
# closed-form cross-checks


def explicit_betti_formula(a: int, b: int) -> dict:
    """Alternating-sum closed form for the coordinate ring's Betti numbers.

    Returns {i: beta_i} for i = 1..d, where beta_i sits in total degree
    b + i.
    """
    d = a * b
    out = {}
    for i in range(1, d + 1):
        s = 0
        for t in range(i):
            term = comb(d + 1, t) * (comb(d + b + i - t, d) - comb(d + a * (i - t) + b, b))
            s += term if (i + t - 1) % 2 == 0 else -term
        out[i] = s
    return out


def verify_explicit_betti(a: int, b: int, computed: BettiTable) -> dict:
    """Compare a computed table against the closed-form Betti numbers.

    Accepts the coordinate-ring table (entries at (i, b+i)) or the ideal
    table (entries at (i-1, b+i), one homological step down); which one is
    detected from the shift flag in the table metadata.  Also evaluates the
    first and last closed forms, the projective dimension, and off-strand
    vanishing over the window.

    The expected projective dimension comes from the closed form: the last i
    with beta_i != 0 (one less for the ideal table), 0 for a quotient table
    whose beta_i all vanish.  The top values vanish when b = 1, and every
    value does when a = 1 (the zero ideal); an ideal table without a
    nonzero value is then expected, fully computed, with pd ``None``.
    """
    d = a * b
    formula = explicit_betti_formula(a, b)
    shifted = bool(computed.meta.get("shifted"))
    rows = []
    ok = True
    for i in range(1, d + 1):
        key = (i - 1, b + i) if shifted else (i, b + i)
        value = computed.value(*key)
        match = value == formula[i]
        ok = ok and match
        rows.append({"i": i, "total_degree": b + i, "expected": formula[i], "computed": value, "match": match})
    beta1 = comb(d + b + 1, b + 1) - comb(d + a + b, b)
    betad = comb(d - a + b, b) - comb(d + b - 1, b - 1)
    closed = {
        "beta_1": {"value": beta1, "match": beta1 == formula[1]},
        "beta_d": {"value": betad, "match": betad == formula[d]},
    }
    ok = ok and closed["beta_1"]["match"] and closed["beta_d"]["match"]
    strand = b + 1 if shifted else b
    violations = []
    for (i, j), e in computed.entries.items():
        if not e.value:
            continue
        if not shifted and (i, j) == (0, 0):
            continue
        if j - i != strand:
            violations.append([i, j, e.value])
    off_strand_ok = not violations
    ok = ok and off_strand_ok
    top = max((i for i, v in formula.items() if v), default=0)
    if shifted and not top:
        # the zero ideal: a fully computed table with no nonzero entry
        covered = not computed.unknown and not computed.nonzero()
        pd_report = {"expected": None, "computed": None, "match": covered}
        if computed.unknown:
            pd_report["reason"] = f"table has {len(computed.unknown)} unknown entries"
    else:
        pd_expected = top - 1 if shifted else top
        try:
            pd_value = projective_dimension(computed)
            pd_report = {"expected": pd_expected, "computed": pd_value, "match": pd_value == pd_expected}
        except InconclusiveError as exc:
            pd_report = {"expected": pd_expected, "computed": None, "match": False, "reason": str(exc)}
    ok = ok and pd_report["match"]
    return {
        "a": a,
        "b": b,
        "d": d,
        "table_kind": "ideal" if shifted else "quotient",
        "entries": rows,
        "closed_forms": closed,
        "off_strand": {"ok": off_strand_ok, "violations": sorted(violations)},
        "projective_dimension": pd_report,
        "ok": ok,
    }


def power_strand_formula(a: int, b: int) -> dict:
    """Expected nonzero table of the (b-1)-st power, keyed by (i, total degree)."""
    d = a * b
    out: dict = {}
    for i in range(b):
        out[(i, i + d - a)] = out.get((i, i + d - a), 0) + comb(d + b - 1 - i, d) * comb(d + b - 1, i)
    for i in range(2, b + 1):
        out[(i, i + d - 1)] = out.get((i, i + d - 1), 0) + comb(d + b - 1, b - i) * comb(d + i - 2, d)
    return {key: v for key, v in out.items() if v}


def regularity_formula(a: int, b: int) -> int:
    """Regularity of the power ideal for parameters (a, b) predicted by the paper."""
    return ((b + 2) // 2) * a - b // 2


def compare_table(table: BettiTable, expected: dict):
    """(ok, rows): ``table`` against a closed form keyed (i, total degree).

    The rows cover every expected key and every nonzero computed entry; an
    entry outside the table's window is reported as computed None.
    """
    rows = []
    ok = True
    for key in sorted(set(expected) | set(table.nonzero())):
        want = expected.get(key, 0)
        got = table.value(*key) if table.covers(*key) else None
        match = got == want
        ok = ok and match
        rows.append({"i": key[0], "j": key[1], "expected": want, "computed": got, "match": match})
    return ok, rows


def _regularity_report(table: BettiTable, expected: int) -> dict:
    """The regularity of ``table`` against ``expected``; an unknown entry leaves it undecided."""
    try:
        value = regularity(table)
    except InconclusiveError as exc:
        return {"expected": expected, "computed": None, "match": False, "reason": str(exc)}
    return {"expected": expected, "computed": value, "match": value == expected}


def verify_power_betti(a: int, b: int, computed: BettiTable) -> dict:
    """Compare a computed table of the (b-1)-st power against its two strands.

    The expected table is concentrated in internal degrees d-a and d-1; the
    comparison (``compare_table``) covers every expected entry and every
    other nonzero entry, which shows up as a row expecting 0, and the
    regularity is recomputed (expected d-1).
    """
    if a < 2 or b < 2:
        raise ValueError("the two-strand shape needs a >= 2 and b >= 2")
    ok, rows = compare_table(computed, power_strand_formula(a, b))
    reg_report = _regularity_report(computed, a * b - 1)
    return {
        "a": a,
        "b": b,
        "power": b - 1,
        "entries": rows,
        "regularity": reg_report,
        "ok": ok and reg_report["match"],
    }


def power_ideal_betti(
    a: int,
    b: int,
    power: int,
    mode: str = "auto",
    *,
    t_max: int | None = None,
    seed=None,
    mem_mb=None,
    cache=None,
    threads: int = 1,
) -> BettiTable:
    """Betti table of a power of the power ideal, computed directly.

    The module is the power itself inside its b+1 variable ring, so the
    window is cheap; the default strand cap is d (one above the expected
    top strand d-1 of the (b-1)-st power).
    """
    d = a * b
    if t_max is None:
        t_max = d
    ideal = ideal_power(power_ideal(a, b), power) if power > 1 else power_ideal(a, b)
    module = GradedModule.from_ideal(ideal, mem_mb=mem_mb, cache=cache)
    i_max = module.ring.nvars
    table = tor_betti(
        module, i_max, i_max + t_max, mode, t_max=t_max, seed=seed,
        mem_mb=mem_mb, threads=threads,
    )
    table.meta.update({"a": a, "b": b, "power": power})
    return table


def ia3_expected_table(a: int) -> dict:
    """Closed-form table of the cubic-range power ideal, keyed (i, total degree).

    For a = 1 the ideal degenerates to the maximal ideal of the quartic ring
    and the honest reference is its Koszul resolution.
    """
    if a == 1:
        return {(i, i + 1): comb(4, i + 1) for i in range(4)}
    return {
        (0, a): 3 * a + 1,
        (1, a + 1): 3 * a + 2,
        (1, 2 * a): comb(a + 1, 2),
        (2, 2 * a + 1): a * a + a + 2,
        (3, 2 * a + 2): comb(a + 1, 2),
    }


def verify_ia3_resolution(
    a: int,
    mode: str = "auto",
    *,
    seed=None,
    mem_mb=None,
    cache=None,
    threads: int = 1,
) -> dict:
    """Compute the b = 3 power ideal's Betti table and compare the closed form.

    The expected shape: 3a+1 generators in degree a, first syzygies 3a+2 in
    degree a+1 and binom(a+1, 2) in degree 2a, then a^2+a+2 in degree 2a+1
    and binom(a+1, 2) in degree 2a+2.  The a = 1 case collapses to the
    maximal ideal; it is compared against the Koszul table instead and
    flagged as outside the intended range of the closed form.
    """
    table = power_ideal_betti(
        a, 3, 1, mode, t_max=2 * a if a > 1 else 2, seed=seed, mem_mb=mem_mb, cache=cache, threads=threads,
    )
    ok, rows = compare_table(table, ia3_expected_table(a))
    reg_report = _regularity_report(table, 2 * a - 1 if a > 1 else 1)
    ok = ok and reg_report["match"]
    modes = sorted({e.mode for e in table.entries.values()})
    report = {
        "a": a,
        "b": 3,
        "in_closed_form_range": a >= 2,
        "entries": rows,
        "regularity": reg_report,
        "modes": modes,
        "ok": ok,
    }
    if a == 1:
        report["note"] = (
            "degenerate case: the generators span the full degree-1 piece, so the "
            "reference table is the Koszul resolution of the maximal ideal"
        )
    return report


def coker_hilbert(
    a: int, b: int, k_max: int, mode: str = "auto", *, rng=None, mem_mb=None, cache=None,
) -> list[int]:
    """dim coker(alpha_k) for k = 0..k_max from certified ranks.

    A full-rank modular certificate already pins the rank down exactly (it
    is an upper bound meeting the lower bound), and a deficient modular rank
    is escalated inside the rank report; a degree whose certificate fails
    raises InconclusiveError rather than contributing a guess.
    """
    if rng is None:
        rng = default_rng()
    out = []
    for k in range(k_max + 1):
        report = fh_rank_report(a, b, k, mode, rng=rng, mem_mb=mem_mb, cache=cache)
        if report["status"] != "ok":
            raise InconclusiveError(f"rank of the degree-{k} substitution map is uncertified")
        out.append(report["target_dim"] - report["rank"])
    return out


# ---------------------------------------------------------------------------
# explicit complexes


class ExplicitComplex:
    """A finite complex of twisted free modules with polynomial differentials.

    Positions are homological: gen_degrees[p] lists the generator degrees of
    the position-p term, diffs[p] is the matrix of d: F_{p+1} -> F_p as a
    {(row, col): MultiPoly} dict, and gen_weights[p] lists the torus weights
    of the position-p generators.  Construction validates entry homogeneity
    and weights and that consecutive differentials compose to zero, exactly;
    violations raise ConventionError, because they are construction bugs.
    """

    __slots__ = ("ring", "gen_degrees", "gen_weights", "diffs")

    def __init__(self, ring: PolyRing, gen_degrees, diffs, gen_weights):
        self.ring = ring
        self.gen_degrees = tuple(tuple(int(g) for g in degs) for degs in gen_degrees)
        gen_weights = tuple(tuple(int(w) for w in ws) for ws in gen_weights)
        if len(gen_weights) != len(self.gen_degrees) or any(
            len(ws) != len(degs) for ws, degs in zip(gen_weights, self.gen_degrees)
        ):
            raise ValueError("gen_weights must match gen_degrees shape")
        self.gen_weights = gen_weights
        if len(diffs) != len(self.gen_degrees) - 1:
            raise ValueError("need one differential per adjacent pair of positions")
        clean = []
        for p, block in enumerate(diffs):
            tgt = self.gen_degrees[p]
            src = self.gen_degrees[p + 1]
            out = {}
            for (r, c), poly in block.items():
                if poly.is_zero():
                    continue
                if not (0 <= r < len(tgt) and 0 <= c < len(src)):
                    raise ValueError(f"entry ({r}, {c}) outside d_{p + 1}")
                if poly.ring != ring:
                    raise ValueError("differential entries must live in the complex's ring")
                if poly.homogeneous_degree != src[c] - tgt[r]:
                    raise ConventionError(
                        f"entry ({r}, {c}) of d_{p + 1} is not homogeneous of degree {src[c] - tgt[r]}"
                    )
                if poly.weight() != gen_weights[p + 1][c] - gen_weights[p][r]:
                    raise ConventionError(
                        f"entry ({r}, {c}) of d_{p + 1} breaks the weight labelling"
                    )
                out[(r, c)] = poly
            clean.append(out)
        self.diffs = tuple(clean)
        self._check_squares()

    def _check_squares(self) -> None:
        for p in range(len(self.diffs) - 1):
            inner = self.diffs[p + 1]
            outer_by_mid: dict = {}
            for (r, mid), poly in self.diffs[p].items():
                outer_by_mid.setdefault(mid, []).append((r, poly))
            acc: dict = {}
            for (mid, c), poly in inner.items():
                for r, outer_poly in outer_by_mid.get(mid, ()):
                    key = (r, c)
                    prod = outer_poly * poly
                    acc[key] = acc[key] + prod if key in acc else prod
            for key, poly in acc.items():
                if not poly.is_zero():
                    raise ConventionError(
                        f"d_{p + 1} composed with d_{p + 2} is nonzero at {key}"
                    )

    def term_dimension(self, p: int, t: int) -> int:
        if not 0 <= p < len(self.gen_degrees):
            return 0
        return sum(self.ring.dimension(t - g) for g in self.gen_degrees[p])

    def piece_blocks(self, p: int, t: int) -> WeightBlocks:
        """d_{p+1} in degree t, F_{p+1}(t) -> F_p(t), as its weight blocks.

        Rows and columns are (generator, monomial) pairs, generator-major.
        Each pair is labelled by its weight (the generator's plus the
        monomial's) and takes the next local index of its label, so local
        order is global order.  The constructor's weight check puts every
        entry in its column's block.
        """
        ring = self.ring

        def side(q: int):
            # {(generator, monomial): (label, local index)} and {label: size}
            where: dict = {}
            sizes: dict = {}
            for g, deg in enumerate(self.gen_degrees[q]):
                for m in ring.monomials(t - deg):
                    w = self.gen_weights[q][g] + ring.monomial_weight(m)
                    where[(g, m)] = (w, sizes.get(w, 0))
                    sizes[w] = sizes.get(w, 0) + 1
            return where, sizes

        rows, nrows = side(p)
        cols, ncols = side(p + 1)
        sub: dict = {w: {} for w in nrows.keys() | ncols.keys()}
        src = self.gen_degrees[p + 1]
        for (r, c), poly in self.diffs[p].items():
            for m in ring.monomials(t - src[c]):
                w, j = cols[(c, m)]
                block = sub[w]
                for pe, pc in poly.terms.items():
                    block[(rows[(r, tuple(x + y for x, y in zip(m, pe)))][1], j)] = pc
        return WeightBlocks({w: (nrows.get(w, 0), ncols.get(w, 0), sub[w]) for w in sorted(sub)})


def koszul_complex(ring: PolyRing) -> ExplicitComplex:
    """The Koszul complex on the ring variables, positions 0..nvars.

    Position p is free on the p-subsets of the variables with generators in
    degree p; the differential contracts with the same ascending-index sign
    convention as the homology slabs.
    """
    nv = ring.nvars
    varw = _variable_weights(ring)
    bases = [wedge_basis(p, nv - 1) for p in range(nv + 1)]
    gen_degrees = [tuple(p for _ in basis) for p, basis in enumerate(bases)]
    gen_weights = [tuple(sum(varw[v] for v in T) for T in basis) for basis in bases]
    diffs = []
    for p in range(nv):
        idx = wedge_index(p, nv - 1)
        block = {}
        for c, T in enumerate(bases[p + 1]):
            for pos, v in enumerate(T):
                rest = T[:pos] + T[pos + 1 :]
                entry = ring.variable(v)
                block[(idx[rest], c)] = -entry if pos % 2 else entry
        diffs.append(block)
    return ExplicitComplex(ring, gen_degrees, diffs, gen_weights)


def exactness_check(
    C: ExplicitComplex,
    degree_window,
    mode: str = "auto",
    *,
    seed=None,
    mem_mb=None,
) -> dict:
    """Homology dimensions of the complex over an internal-degree window.

    degree_window is (lo, hi) inclusive, or a bare upper bound meaning
    (0, hi).  Homology at position p in degree t has dimension
    dim F_p(t) - rank d_p(t) - rank d_{p+1}(t); ranks run per weight block
    in the requested mode with seeded primes and are shared between the two
    positions they border.
    """
    lo, hi = (0, degree_window) if isinstance(degree_window, int) else degree_window
    if lo > hi:
        raise ValueError("empty degree window")
    base_seed = resolve_seed(seed)
    npos = len(C.gen_degrees)
    cache: dict = {}

    def rank_of(p: int, t: int) -> RankResult:
        # rank of d_{p+1}: F_{p+1}(t) -> F_p(t); outside positions are zero
        if p < 0 or p >= npos - 1:
            return RankResult(0, "exact")
        key = (p, t)
        if key not in cache:
            rng = random.Random(f"{base_seed}:complex:{p}:{t}")
            cache[key] = blocked_rank_details(C.piece_blocks(p, t), mode, rng=rng, mem_mb=mem_mb)
        return cache[key]

    homology = {}
    for t in range(lo, hi + 1):
        for p in range(npos):
            h = C.term_dimension(p, t) - rank_of(p - 1, t).rank - rank_of(p, t).rank
            if h < 0:
                raise ConventionError(f"negative homology dimension at position {p}, degree {t}")
            homology[(p, t)] = h
    nonzero = sorted([p, t, h] for (p, t), h in homology.items() if h)
    return {
        "window": [lo, hi],
        "homology": homology,
        "nonzero": nonzero,
        "exact_in_positive_positions": all(h == 0 for (p, _t), h in homology.items() if p > 0),
        "modes": sorted({r.mode for r in cache.values()}) or ["exact"],
        "primes": sorted({q for r in cache.values() for q in r.primes}),
    }


def resolution_check(
    C: ExplicitComplex,
    ideal: GradedIdeal,
    degree_window,
    mode: str = "auto",
    *,
    seed=None,
    mem_mb=None,
) -> dict:
    """Certify degreewise that the complex resolves the ideal.

    Homology must vanish at every positive position over the window and the
    position-0 homology dimensions must match the ideal's graded pieces; an
    augmentation-compatible surjection with matching dimensions pins the
    cokernel down to the ideal itself.  When the ideal's piece dimensions
    are Weyl-halved (``GradedIdeal.sl2_stable``) the certificate says so
    with ``"symmetry": "sl2-weyl"``.
    """
    report = exactness_check(C, degree_window, mode, seed=seed, mem_mb=mem_mb)
    lo, hi = report["window"]
    rng = random.Random(f"{resolve_seed(seed)}:piece-dims")
    dims = []
    matched = True
    for t in range(lo, hi + 1):
        res = ideal.piece_dimension_details(t, mode, rng=rng, mem_mb=mem_mb)
        dims.append(res.rank)
        if report["homology"][(0, t)] != res.rank:
            matched = False
    certificate = {
        "window": [lo, hi],
        "resolves": matched and report["exact_in_positive_positions"],
        "cokernel_matches_ideal": matched,
        "ideal_dimensions": dims,
        "homology": report,
    }
    if ideal.sl2_stable:
        certificate["symmetry"] = SYMMETRY
    return certificate


# ---------------------------------------------------------------------------
# the two-strand resolution of the (b-1)-st power


class PowerResolution(NamedTuple):
    a: int
    b: int
    complex: ExplicitComplex
    augmentation: tuple
    ideal: GradedIdeal
    attempts: int
    solution_dim: int
    certificate: dict


def power_resolution(
    a: int,
    b: int,
    mode: str = "auto",
    *,
    seed=None,
    mem_mb=None,
    max_attempts: int = 4,
    window_hi: int | None = None,
) -> PowerResolution:
    """Build and certify the two-strand resolution of the (b-1)-st power.

    The complex is a mapping cone.  The first tower puts the linear-syzygy
    matrix phi on wedge factors of its column space against symmetric
    multi-indices over the degree-a generators; the second tower runs the
    dual pattern and enters with a global sign.  The connecting blocks have
    degree-a entries and are exactly the unknowns of the d^2 = 0 equations:
    the solution space is computed exactly (torus weights cut each entry to
    a small slice of monomials), a seeded random member is drawn, and the assembled complex is certified degreewise as a
    resolution of the power.  An unlucky member (the zero map is always a
    solution) fails certification and is retried with a fresh draw; running
    out of attempts raises InconclusiveError, never a verdict against the
    expected shape.  b = 2 reproduces the three-term shape with a single
    connecting column.  The certificate covers degrees 0..``window_hi``
    (default d + b); a window below d + b - 1, the top generator degree,
    misses the last connecting block and raises ``ValueError``.
    """
    if b < 2:
        raise ValueError("the cone construction needs b >= 2")
    top = a * b + b - 1
    if window_hi is not None and window_hi < top:
        raise ValueError(f"window_hi {window_hi} stops below {top} = d + b - 1, the top generator degree")
    base_seed = resolve_seed(seed)
    phi = phi_matrix(a, b)
    d = phi.d
    cring = phi.ring
    nphi = phi.ncols
    colw = phi.col_weights

    sgens = []
    for p in range(b):
        Ts = wedge_basis(p, nphi - 1)
        gs = plethysm_basis(b - 1 - p, d)
        sgens.append([(T, g) for T in Ts for g in gs])
    wgens: list = [[], []]
    for p in range(2, b + 1):
        gs = plethysm_basis(p - 2, d)
        Ts = wedge_basis(b - p, nphi - 1)
        wgens.append([(g, T) for g in gs for T in Ts])

    def s_weight(T, g):
        return sum(colw[c] for c in T) + coord_weight(g, d)

    def w_weight(g, T):
        return -(coord_weight(g, d) + sum(colw[c] for c in T))

    gen_degrees = []
    gen_weights = []
    for p in range(b + 1):
        degs: list[int] = []
        ws: list[int] = []
        if p < b:
            degs += [d - a + p] * len(sgens[p])
            ws += [s_weight(T, g) for (T, g) in sgens[p]]
        if p >= 2:
            degs += [d + p - 1] * len(wgens[p])
            ws += [w_weight(g, T) for (g, T) in wgens[p]]
        gen_degrees.append(tuple(degs))
        gen_weights.append(tuple(ws))

    def add_poly(block, key, poly):
        block[key] = block[key] + poly if key in block else poly

    def s_block(q):
        # first-tower block of d: position q -> q-1, local indices
        tgt_index = {gen: r for r, gen in enumerate(sgens[q - 1])}
        block: dict = {}
        for c, (T, g) in enumerate(sgens[q]):
            for pos, col in enumerate(T):
                rest = T[:pos] + T[pos + 1 :]
                for j in range(d + 1):
                    poly = phi.entries.get((j, col))
                    if poly is None:
                        continue
                    g2 = list(g)
                    g2[j] += 1
                    r = tgt_index[(rest, tuple(g2))]
                    add_poly(block, (r, c), -poly if pos % 2 else poly)
        return block

    def w_block(p):
        # second-tower block of d: position p -> p-1, cone sign folded in
        tgt_index = {gen: r for r, gen in enumerate(wgens[p - 1])}
        block: dict = {}
        for c, (g, T) in enumerate(wgens[p]):
            inT = set(T)
            for j in range(d + 1):
                if not g[j]:
                    continue
                g2 = list(g)
                g2[j] -= 1
                g2 = tuple(g2)
                for col in range(nphi):
                    if col in inT:
                        continue
                    poly = phi.entries.get((j, col))
                    if poly is None:
                        continue
                    before = sum(1 for u in T if u < col)
                    r = tgt_index[(g2, tuple(sorted(T + (col,))))]
                    scale = -g[j] if before % 2 == 0 else g[j]
                    add_poly(block, (r, c), scale * poly)
        return block

    sblocks = {q: s_block(q) for q in range(1, b)}
    wblocks = {p: w_block(p) for p in range(3, b + 1)}

    mono_by_weight: dict = {}
    for m in cring.monomials(a):
        mono_by_weight.setdefault(cring.monomial_weight(m), []).append(m)

    unknowns: list = []
    slots: dict = {}
    for q in range(1, b):
        for s1, (T, g) in enumerate(sgens[q]):
            ws1 = s_weight(T, g)
            for w2, (g2, T2) in enumerate(wgens[q + 1]):
                monos = mono_by_weight.get(w_weight(g2, T2) - ws1, ())
                if not monos:
                    continue
                ids = []
                for m in monos:
                    ids.append((m, len(unknowns)))
                    unknowns.append((q, s1, w2, m))
                slots[(q, s1, w2)] = ids

    equations: list[dict] = []
    for q in range(1, b):
        srows: dict = {}
        for (s2, s1), poly in sblocks[q].items():
            srows.setdefault(s1, []).append((s2, poly))
        wcols: dict = {}
        if q >= 2:
            for (w1, w2), poly in wblocks[q + 1].items():
                wcols.setdefault(w2, []).append((w1, poly))
        for w2 in range(len(wgens[q + 1])):
            acc: dict = {}
            for s1 in range(len(sgens[q])):
                ids = slots.get((q, s1, w2))
                if not ids:
                    continue
                for s2, poly in srows.get(s1, ()):
                    for pe, pc in poly.terms.items():
                        for m, u in ids:
                            key = (s2, tuple(x + y for x, y in zip(pe, m)))
                            lin = acc.setdefault(key, {})
                            lin[u] = lin.get(u, 0) + pc
            for w1, poly in wcols.get(w2, ()):
                for s2 in range(len(sgens[q - 1])):
                    ids = slots.get((q - 1, s2, w1))
                    if not ids:
                        continue
                    for pe, pc in poly.terms.items():
                        for m, u in ids:
                            key = (s2, tuple(x + y for x, y in zip(pe, m)))
                            lin = acc.setdefault(key, {})
                            lin[u] = lin.get(u, 0) + pc
            for lin in acc.values():
                lin = {u: v for u, v in lin.items() if v}
                if lin:
                    equations.append(lin)

    # the solution space of the d^2 = 0 equations, exactly
    entries = {(r, u): v for r, eq in enumerate(equations) for u, v in eq.items()}
    basis_vectors = kernel_basis(ExactMatrix(len(equations), len(unknowns), entries), mem_mb)

    gens = power_generators(a, b)
    aug = []
    for (_T, g) in sgens[0]:
        poly = cring.one()
        for j, e in enumerate(g):
            for _ in range(e):
                poly = poly * gens.polys[j]
        aug.append(poly)
    ideal = ideal_power(power_ideal(a, b), b - 1) if b > 2 else power_ideal(a, b)
    hi = d + b if window_hi is None else window_hi

    certificate = None
    for attempt in range(1, max_attempts + 1):
        rng = random.Random(f"{base_seed}:cone:{a}:{b}:{attempt}")
        coeffs = [rng.randint(-9, 9) for _ in basis_vectors]
        redraws = 0
        while basis_vectors and not any(coeffs) and redraws < 8:
            coeffs = [rng.randint(-9, 9) for _ in basis_vectors]
            redraws += 1
        fvals: dict = {}
        for cf, vec in zip(coeffs, basis_vectors):
            if not cf:
                continue
            for u, v in vec.items():
                fvals[u] = fvals.get(u, 0) + cf * v
        diffs = []
        for p in range(1, b + 1):
            block: dict = {}
            if p < b:
                for key, poly in sblocks[p].items():
                    block[key] = poly
            col_off = len(sgens[p]) if p < b else 0
            q = p - 1
            for (qq, s1, w2), ids in slots.items():
                if qq != q:
                    continue
                terms = {}
                for m, u in ids:
                    v = fvals.get(u, 0)
                    if v:
                        terms[m] = v
                if terms:
                    block[(s1, col_off + w2)] = MultiPoly(cring, terms)
            if p >= 3:
                row_off = len(sgens[p - 1])
                for (w1, w2), poly in wblocks[p].items():
                    block[(row_off + w1, col_off + w2)] = poly
            diffs.append(block)
        cone = ExplicitComplex(cring, gen_degrees, diffs, gen_weights)
        for c in range(len(gen_degrees[1])):
            total = cring.zero()
            for (r, cc), poly in diffs[0].items():
                if cc == c:
                    total = total + aug[r] * poly
            if not total.is_zero():
                raise ConventionError("augmentation does not annihilate the first differential")
        certificate = resolution_check(
            cone, ideal, (0, hi), mode, seed=seed, mem_mb=mem_mb
        )
        if certificate["resolves"]:
            return PowerResolution(
                a, b, cone, tuple(aug), ideal, attempt, len(basis_vectors), certificate
            )
    raise InconclusiveError(
        f"no certified connecting map after {max_attempts} draws for (a, b) = ({a}, {b})"
    )
