"""References for maps held as weight blocks.

The package builds every label-preserving map as ``WeightBlocks`` where it
is made and reads it block by block; nothing in it holds a map with global
indices.  The tests compare those blocks against maps built independently
with global indices, through the two conversions kept here:
``split_blocks`` files global entries into their blocks, refusing an entry
that connects two labels, and ``slice_matrix`` assembles a substitution
slice with global indices.
"""

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
