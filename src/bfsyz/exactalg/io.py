"""Checked binary serialization for exact matrices (format ``v2``).

A file is one ASCII header line followed by a binary body::

    BFSYZ-MAT v2 <rows> <cols> <field> <nnz> <values> <key> <sha256>

* ``field`` is ``QQ``, the one field an exact matrix is over; ``nnz`` counts
  the stored entries, none of which is zero.
* The body holds ``nnz`` little-endian int32 row indices, then ``nnz`` int32
  column indices, in strictly increasing (row, col) order, then the values.
* ``values`` is ``i8`` (``nnz`` little-endian int64) when every value is a
  Python int that fits in int64, else ``q``: space-separated ASCII tokens,
  each a decimal int or a canonical ``n/d`` with d > 1.
* ``key`` names the producer (``-`` for none); a cache file's key is its file
  stem, so a file copied over another slice's name does not load as that
  slice.  ``sha256`` is the hex digest of the body.

:func:`load_matrix` raises ``ValueError`` on anything else: another magic or
version (every ``v1`` file), a field other than ``QQ``, an unknown value
encoding, a key or sha256 mismatch, a body of the wrong length or token
count, an index out of range, entries out of order or repeated, a
non-canonical rational, a stored zero.  The checks run on numpy arrays, and the entries of a file that passes
them are not validated a second time by ``ExactMatrix``.  Round trips are
exact and the bytes depend only on the matrix and the key.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

import numpy as np

from .matrix import ExactMatrix, _trusted_matrix

MAGIC = "BFSYZ-MAT"
VERSION = "v2"

_INDEX_LIMIT = 2**31
# entries are decoded into the dict this many at a time, which keeps the
# transient Python lists of a large file small
_CHUNK = 32768

_COUNT = re.compile(r"0|[1-9][0-9]*")
_KEY = re.compile(r"[!-~]+")
_TOKEN = re.compile(rb"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def _format_q(v) -> str:
    if type(v) is int:
        return str(v)
    return f"{v.numerator}/{v.denominator}"


def _parse_q(tok: bytes):
    m = _TOKEN.fullmatch(tok)
    if m is None:
        raise ValueError(f"bad value token {tok[:40]!r}")
    num = int(m[1])
    if m[2] is None:
        return num
    den = int(m[2])
    if den == 1 or gcd(num, den) != 1:
        raise ValueError(f"non-canonical rational {tok[:40]!r}")
    return Fraction(num, den)


def dump_matrix(m: ExactMatrix, path, key: str | None = None) -> None:
    """Write ``m`` to ``path`` in format v2, with producer ``key`` (``-`` if None)."""
    key = "-" if key is None else key
    if not _KEY.fullmatch(key):
        raise ValueError(f"matrix key {key!r} must be printable ASCII without spaces")
    if max(m.nrows, m.ncols) > _INDEX_LIMIT:
        raise ValueError(f"{m.nrows} x {m.ncols} matrix has indices beyond int32")
    nnz = len(m.entries)
    ij = np.fromiter(chain.from_iterable(m.entries), dtype=np.int64, count=2 * nnz)
    rows, cols = ij[0::2], ij[1::2]
    order = np.argsort(rows * m.ncols + cols)  # the keys are distinct
    values = list(m.entries.values())
    packed = None
    # the type test matters: numpy casts a Fraction to int64 silently
    if set(map(type, values)) <= {int}:
        try:
            packed = np.fromiter(values, dtype=np.int64, count=nnz)
        except OverflowError:
            pass
    parts = [rows[order].astype("<i4").tobytes(), cols[order].astype("<i4").tobytes()]
    if packed is not None:
        encoding = "i8"
        parts.append(packed[order].astype("<i8").tobytes())
    else:
        encoding = "q"
        parts.append(" ".join([_format_q(values[k]) for k in order.tolist()]).encode("ascii"))
    body = b"".join(parts)
    header = (
        f"{MAGIC} {VERSION} {m.nrows} {m.ncols} QQ {nnz} {encoding} {key} "
        f"{hashlib.sha256(body).hexdigest()}\n"
    )
    Path(path).write_bytes(header.encode("ascii") + body)


def _header(path, data: bytes):
    end = data.find(b"\n")
    if end < 0:
        raise ValueError(f"{path}: no header line")
    tokens = data[:end].decode("ascii").split(" ")
    if len(tokens) != 9 or tokens[0] != MAGIC or tokens[1] != VERSION:
        raise ValueError(f"{path}: not a {MAGIC} {VERSION} file")
    _, _, nrows, ncols, field, nnz, encoding, key, digest = tokens
    for name, tok in (("rows", nrows), ("cols", ncols), ("nnz", nnz)):
        if not _COUNT.fullmatch(tok):
            raise ValueError(f"{path}: bad {name} count {tok!r}")
    if field != "QQ":
        raise ValueError(f"{path}: field {field!r} is not QQ")
    if encoding not in ("i8", "q"):
        raise ValueError(f"{path}: unknown value encoding {encoding!r}")
    nrows, ncols = int(nrows), int(ncols)
    if max(nrows, ncols) > _INDEX_LIMIT:
        raise ValueError(f"{path}: {nrows} x {ncols} has indices beyond int32")
    return nrows, ncols, int(nnz), encoding, key, digest, end + 1


def load_matrix(path, key: str | None = None) -> ExactMatrix:
    """Read a v2 file; with ``key`` given, the file's producer key must equal it."""
    data = Path(path).read_bytes()
    nrows, ncols, nnz, encoding, file_key, digest, start = _header(path, data)
    if key is not None and file_key != key:
        raise ValueError(f"{path}: holds {file_key!r}, expected {key!r}")
    body = memoryview(data)[start:]
    if len(body) < 8 * nnz or encoding == "i8" and len(body) != 16 * nnz:
        raise ValueError(f"{path}: body of {len(body)} bytes does not hold {nnz} entries")
    if hashlib.sha256(body).hexdigest() != digest:
        raise ValueError(f"{path}: sha256 of the body does not match the header")
    rows = np.frombuffer(body, dtype="<i4", count=nnz)
    cols = np.frombuffer(body, dtype="<i4", count=nnz, offset=4 * nnz)
    if nnz:
        if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
            raise ValueError(f"{path}: entry index outside {nrows} x {ncols}")
        flat = rows.astype(np.int64) * ncols + cols
        if not (flat[1:] > flat[:-1]).all():
            raise ValueError(f"{path}: entries not in strictly increasing (row, col) order")
    if encoding == "i8":
        packed = np.frombuffer(body, dtype="<i8", count=nnz, offset=8 * nnz)
        if np.count_nonzero(packed) != nnz:
            raise ValueError(f"{path}: explicit zero stored")
        values = None
    else:
        text = bytes(body[8 * nnz:])
        tokens = text.split(b" ") if text else []
        if len(tokens) != nnz:
            raise ValueError(f"{path}: {len(tokens)} value tokens for {nnz} entries")
        values = [_parse_q(tok) for tok in tokens]
    entries: dict = {}
    for lo in range(0, nnz, _CHUNK):
        hi = lo + _CHUNK
        chunk = packed[lo:hi].tolist() if values is None else values[lo:hi]
        entries.update(zip(zip(rows[lo:hi].tolist(), cols[lo:hi].tolist()), chunk))
    return _trusted_matrix(nrows, ncols, entries)
