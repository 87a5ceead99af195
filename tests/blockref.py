"""References for maps held as weight blocks, and dense exact references.

The package builds every label-preserving map as ``WeightBlocks`` where it
is made and reads it block by block; nothing in it holds a map with global
indices.  The tests compare those blocks against maps built independently
with global indices, through the two conversions kept here:
``split_blocks`` files global entries into their blocks, refusing an entry
that connects two labels, and ``slice_matrix`` assembles a substitution
slice with global indices.

The exact engine takes and returns ``{col: value}`` rows only.  The dense
references it is compared against live here: ``dense_rows`` spreads a
matrix over all its columns, ``reference_rref`` is dense Fraction
Gauss-Jordan, and ``reference_kernel`` reads a primitive kernel basis off
it, block by block.
"""

from fractions import Fraction
from math import gcd, lcm

from bfsyz.errors import ConventionError
from bfsyz.exactalg import ExactMatrix, WeightBlocks
from bfsyz.exactalg.matrix import _ids_by_label, _normalize_scalar


def split_blocks(entries, row_labels, col_labels) -> WeightBlocks:
    """The :class:`WeightBlocks` of a map given as global sparse entries.

    Local indices run in global order within a label, and values are
    normalized as ``ExactMatrix`` stores them, zeros dropped.  Every label
    of either side gets a block.  An entry that connects a row and a column
    with different labels raises ConventionError (the map is not
    label-preserving); an index outside the label lists raises ValueError.
    """
    rows_by, cols_by = _ids_by_label(row_labels), _ids_by_label(col_labels)
    row_pos = {i: (w, k) for w, ids in rows_by.items() for k, i in enumerate(ids)}
    col_pos = {j: (w, k) for w, ids in cols_by.items() for k, j in enumerate(ids)}
    sub: dict = {w: {} for w in rows_by.keys() | cols_by.keys()}
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
        v = _normalize_scalar(v)
        if v:
            sub[wi][(ki, kj)] = v
    return WeightBlocks({
        w: (len(rows_by.get(w, ())), len(cols_by.get(w, ())), sub[w]) for w in sorted(sub)
    })


def slice_matrix(fh) -> ExactMatrix:
    """A slice (``fhmaps.Slice``) with global indices, every block built.

    The entries come column by column in global column order, each column
    in the order of its block, which a freshly built slice lists as the
    product of the column does.
    """
    rows, cols = _ids_by_label(fh.row_weights), _ids_by_label(fh.col_weights)
    entries = []
    for w in fh.shapes():
        r, c = rows[w], cols[w]
        entries.extend(((r[i], c[j]), v) for (i, j), v in fh.entries(w).items())
    entries.sort(key=lambda entry: entry[0][1])
    return ExactMatrix(*fh.shape, dict(entries))


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.ncols, m.nrows, {(j, i): v for (i, j), v in m.entries.items()})


def dense_rows(m: ExactMatrix) -> list[list]:
    """The rows of ``m``, each a list over all its columns."""
    rows = [[0] * m.ncols for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def sparse_rows(rows) -> list[dict]:
    """Dense rows as the ``{col: value}`` rows the exact engine takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def dict_rows(m: ExactMatrix) -> list[dict]:
    """The rows of ``m`` as the ``{col: value}`` rows the exact engine takes."""
    return sparse_rows(dense_rows(m))


def clear_denominators(row) -> list[int]:
    """Scale a dense row of int/Fraction by the lcm of denominators; returns ints."""
    mult = 1
    for v in row:
        if isinstance(v, Fraction):
            mult = lcm(mult, v.denominator)
    return [int(v * mult) for v in row]


def trim(v):
    """A Fraction that is integral as the int it equals; any other value as it is."""
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


def reference_rref(rows, ncols):
    """Dense Fraction Gauss-Jordan, leftmost column / first nonzero row pivoting."""
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][c]), -1)
        if piv < 0:
            continue
        work[r], work[piv] = work[piv], work[r]
        pr = work[r]
        lead = pr[c]
        if lead != 1:
            inv = Fraction(1) / Fraction(lead)
            for j in range(c, ncols):
                if pr[j]:
                    pr[j] = trim(pr[j] * inv)
        for i in range(nrows):
            f = work[i][c]
            if i != r and f:
                for j in range(c, ncols):
                    if pr[j]:
                        work[i][j] = trim(work[i][j] - f * pr[j])
        pivots.append(c)
        r += 1
    return work[:r], pivots


def reference_kernel(m: ExactMatrix, col_labels) -> list[dict]:
    """Primitive integer kernel basis of the label-preserving map ``m``, as
    ``{col: int}`` dicts in global indices, from ``reference_rref`` of the
    dense columns of each label, labels ascending.

    Each free column f gives e_f minus column f of the reduced rows at their
    pivots, cleared of denominators, divided by its content and signed so
    that its lowest-index entry is positive; within a label the free
    columns ascend.
    """
    by_row: dict = {}
    for (i, j), v in m.entries.items():
        by_row.setdefault(i, {})[j] = v
    vectors = []
    for w, cols in sorted(_ids_by_label(col_labels).items()):
        rows = [[row.get(j, 0) for j in cols] for row in by_row.values()]
        reduced, pivots = reference_rref([row for row in rows if any(row)], len(cols))
        for f in range(len(cols)):
            if f in pivots:
                continue
            vec = [0] * len(cols)
            vec[f] = 1
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f]
            ints = clear_denominators(vec)
            g = gcd(*ints)
            sign = 1 if next(v for v in ints if v) > 0 else -1
            vectors.append({cols[k]: sign * v // g for k, v in enumerate(ints) if v})
    return vectors


def assert_primitive(vec) -> None:
    """A kernel vector as the engine returns it: a ``{col: int}`` dict with
    no zero value, ascending keys, content 1 and a positive lowest-index
    entry."""
    assert vec and all(type(v) is int and v for v in vec.values()), vec
    assert list(vec) == sorted(vec), vec
    assert gcd(*vec.values()) == 1 and vec[min(vec)] > 0, vec
