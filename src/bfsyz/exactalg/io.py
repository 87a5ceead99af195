"""Versioned text serialization for exact matrices.

Format (line-oriented, ASCII):

    BFSYZ-MAT v1 <rows> <cols> <sparse|dense> <field>

followed by either one ``row col value`` line per nonzero entry (sparse; no
explicit zeros allowed) or one whitespace-separated line per row (dense).
Rationals are written as ``num/den`` decimal strings (``/1`` included), prime
field residues as plain integers.  Field tokens: ``QQ`` or ``GF:<p>``.
Round-trips are exact and byte-stable for a given matrix.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .matrix import ExactMatrix

MAGIC = "BFSYZ-MAT"
VERSION = "v1"


def _format_scalar(v, rational: bool) -> str:
    if rational:
        if type(v) is int:
            return f"{v}/1"
        f = Fraction(v)
        return f"{f.numerator}/{f.denominator}"
    return str(int(v))


def _parse_scalar(tok: str, rational: bool):
    if rational:
        if "/" not in tok:
            return int(tok)
        num, den = tok.split("/", 1)
        if den == "1":
            return int(num)
        den = int(den)
        if den == 0:
            raise ValueError(f"zero denominator in {tok!r}")
        f = Fraction(int(num), den)
        return int(f) if f.denominator == 1 else f
    return int(tok)


def dump_matrix(m: ExactMatrix, path) -> None:
    """Write ``m`` choosing sparse layout when under 1/3 dense occupancy."""
    path = Path(path)
    cells = m.nrows * m.ncols
    sparse = cells == 0 or m.nnz * 3 < cells
    rational = m.field == "QQ"
    lines = [f"{MAGIC} {VERSION} {m.nrows} {m.ncols} {'sparse' if sparse else 'dense'} {m.field}"]
    if sparse:
        for (i, j) in sorted(m.entries):
            lines.append(f"{i} {j} {_format_scalar(m.entries[(i, j)], rational)}")
    else:
        for i in range(m.nrows):
            lines.append(
                " ".join(_format_scalar(m.entry(i, j), rational) for j in range(m.ncols))
            )
    path.write_text("\n".join(lines) + "\n")


def load_matrix(path) -> ExactMatrix:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != MAGIC or header[1] != VERSION:
            raise ValueError(f"{path}: not a {MAGIC} {VERSION} file")
        nrows, ncols = int(header[2]), int(header[3])
        layout, field = header[4], header[5]
        if layout not in ("sparse", "dense"):
            raise ValueError(f"{path}: unknown layout {layout!r}")
        if field != "QQ" and not field.startswith("GF:"):
            raise ValueError(f"{path}: unknown field {field!r}")
        rational = field == "QQ"
        entries = {}
        if layout == "sparse":
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                i_s, j_s, v_s = line.split()
                v = _parse_scalar(v_s, rational)
                if not v:
                    raise ValueError(f"{path}: explicit zero stored at ({i_s}, {j_s})")
                entries[(int(i_s), int(j_s))] = v
        else:
            i = 0
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                toks = line.split()
                if len(toks) != ncols:
                    raise ValueError(f"{path}: row {i} has {len(toks)} entries, expected {ncols}")
                for j, tok in enumerate(toks):
                    v = _parse_scalar(tok, rational)
                    if v:
                        entries[(i, j)] = v
                i += 1
            if i != nrows:
                raise ValueError(f"{path}: {i} dense rows, expected {nrows}")
    return ExactMatrix(nrows, ncols, entries, field)
