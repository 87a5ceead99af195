"""Spans around the public functions of each bfsyz layer, from outside the package.

A traced pass rebinds the functions listed in ``_targets`` -- in their
defining module and in every bfsyz module that imported a copy with
``from ... import`` -- to wrappers that record a span (name, start, end,
parent span, job id and a few counts) in memory.  ``traced`` restores the
originals afterwards.  ``layer_metrics`` turns one pass's spans into the
per-layer metrics; a span's self time is its duration minus the part of it
that its child spans cover.  The package itself carries no tracing code.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# from-imported copies that must be rebound; a wrapper that misses one of
# these silently under-counts its layer
REQUIRED_COPIES = (
    ("bfsyz.homres", "rref_rows"),
    ("bfsyz.polyring", "rref_rows"),
    ("bfsyz.homres", "blocked_rank_details"),
    ("bfsyz.fhmaps", "blocked_rank_details"),
    ("bfsyz.polyring", "blocked_rank_details"),
    ("bfsyz.fhmaps", "load_matrix"),
    ("bfsyz.fhmaps", "dump_matrix"),
    ("bfsyz.polyring", "load_matrix"),
    ("bfsyz.polyring", "dump_matrix"),
    ("bfsyz.polyring", "rank_details"),
)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.records: list[dict] = []
        self.job: str | None = None
        self._open: list[dict] = []

    def begin(self, name: str) -> dict:
        rec = {
            "id": len(self.records),
            "parent": self._open[-1]["id"] if self._open else None,
            "job": self.job,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._open.append(rec)
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        if self._open.pop() is not rec:
            raise RuntimeError(f"span {rec['name']} closed out of order")


def _wrap(tracer: Tracer, name: str, fn, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if attrs is not None:
            rec.update(attrs(args, result))
        return result

    wrapper.bench_original = fn
    return wrapper


def _cells(args, result):
    return {"cells": len(args[0]) * args[1]}


def _kernel(args, result):
    m, n = args[0].shape
    return {"cells": m * n, "ops": result * m * n}


def _rank(args, result):
    return {"mode": result.mode, "escalated": result.escalated, "blocked": False}


def _blocked_rank(args, result):
    return {"mode": result.mode, "escalated": result.escalated, "blocked": True}


def _targets():
    """(owner, attribute, span name, attrs) for every wrapped function."""
    from bfsyz import fhmaps, homres, polyring
    from bfsyz.exactalg import io, matrix

    return (
        (matrix._kernel, "rank_mod_p_dense", "exactalg.kernel", _kernel),
        (matrix, "mod_p_rank_sparse", "exactalg.densify", lambda a, r: {"nnz": len(a[0])}),
        (
            matrix, "mod_p_rank_rows", "exactalg.densify",
            lambda a, r: {"nnz": sum(len(row) - row.count(0) for row in a[0])},
        ),
        (matrix, "bareiss_rank_rows", "exactalg.bareiss", _cells),
        (matrix, "rref_rows", "exactalg.rref", _cells),
        (matrix, "rank_details", "exactalg.rank", _rank),
        (matrix, "blocked_rank_details", "exactalg.rank", _blocked_rank),
        (io, "load_matrix", "exactalg.io.load", lambda a, r: {"bytes": os.path.getsize(a[0])}),
        (io, "dump_matrix", "exactalg.io.dump", lambda a, r: {"bytes": os.path.getsize(a[1])}),
        (fhmaps, "foulkes_howe", "fhmaps.build", None),
        (fhmaps, "fh_rank_report", "fhmaps.report", None),
        (homres, "koszul_slab", "homres.slab", lambda a, r: {"nnz": len(r[2])}),
        (homres, "tor_betti", "homres.tor", None),
        (matrix.ExactMatrix, "__init__", "exactalg.matrix.init", None),
        (polyring.GradedIdeal, "graded_piece", "polyring.piece", None),
        (polyring.GradedIdeal, "spanning_data", "polyring.spanning", None),
        (homres.GradedModule, "mult_adjacency", "homres.mult", None),
    )


def _bfsyz_modules():
    return [m for name, m in list(sys.modules.items()) if name == "bfsyz" or name.startswith("bfsyz.")]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target, including its from-imported copies; restore on exit."""
    patches = []  # (owner, attribute, original)
    try:
        for owner, attr, name, attrs in _targets():
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, name, original, attrs)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, key) for mod in _bfsyz_modules()
                    for key, value in list(vars(mod).items()) if value is original
                ]
            for holder, key in holders:
                patches.append((holder, key, original))
                setattr(holder, key, wrapper)
        missed = [
            f"{mod}.{attr}" for mod, attr in REQUIRED_COPIES
            if not hasattr(getattr(sys.modules[mod], attr), "bench_original")
        ]
        if missed:
            raise RuntimeError(f"tracing wrappers missed {missed}")
        yield
    finally:
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)
    left = [
        f"{holder.__name__}.{key}" for holder, key, _ in patches
        if hasattr(getattr(holder, key), "bench_original")
    ]
    if left:
        raise RuntimeError(f"tracing wrappers not restored: {left}")


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans

# name, unit, better -- the order in which the table is printed
LAYER_METRICS = (
    ("exactalg.kernel.calls", "count", "lower"),
    ("exactalg.kernel.self_s", "s", "lower"),
    ("exactalg.kernel.cells", "count", "lower"),
    ("exactalg.kernel.ops_bound", "ops", "lower"),
    ("exactalg.densify.calls", "count", "lower"),
    ("exactalg.densify.self_s", "s", "lower"),
    ("exactalg.densify.nnz", "count", "lower"),
    ("exactalg.bareiss.calls", "count", "lower"),
    ("exactalg.bareiss.self_s", "s", "lower"),
    ("exactalg.bareiss.cells", "count", "lower"),
    ("exactalg.rref.calls", "count", "lower"),
    ("exactalg.rref.self_s", "s", "lower"),
    ("exactalg.rref.cells", "count", "lower"),
    ("exactalg.rank.calls", "count", "lower"),
    ("exactalg.rank.blocks", "count", "lower"),
    ("exactalg.rank.self_s", "s", "lower"),
    ("exactalg.rank.modular", "count", "lower"),
    ("exactalg.rank.escalated", "count", "lower"),
    ("exactalg.rank.escalation_ratio", "ratio", "lower"),
    ("exactalg.matrix.init_calls", "count", "lower"),
    ("exactalg.matrix.init_s", "s", "lower"),
    ("exactalg.io.load_calls", "count", "lower"),
    ("exactalg.io.load_s", "s", "lower"),
    ("exactalg.io.load_bytes", "B", "lower"),
    ("exactalg.io.dump_calls", "count", "lower"),
    ("exactalg.io.dump_s", "s", "lower"),
    ("exactalg.io.dump_bytes", "B", "lower"),
    ("exactalg.io.hit_ratio", "ratio", "higher"),
    ("fhmaps.build_calls", "count", "lower"),
    ("fhmaps.build_s", "s", "lower"),
    ("fhmaps.report_calls", "count", "lower"),
    ("polyring.piece_calls", "count", "lower"),
    ("polyring.piece_s", "s", "lower"),
    ("polyring.spanning_s", "s", "lower"),
    ("homres.slab_calls", "count", "lower"),
    ("homres.slab_s", "s", "lower"),
    ("homres.slab_nnz", "count", "lower"),
    ("homres.mult_s", "s", "lower"),
    ("homres.tor_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _self_time(span: dict, children: list) -> float:
    """The span's duration minus the union of its children's intervals."""
    covered = 0.0
    lo = hi = None
    for c in sorted(children, key=lambda c: c["start"]):
        if hi is None or c["start"] > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = c["start"], c["end"]
        else:
            hi = max(hi, c["end"])
    if hi is not None:
        covered += hi - lo
    return (span["end"] - span["start"]) - covered


def layer_metrics(records: list) -> dict:
    """Per-layer metrics of one traced pass (every name but trace.overhead_ratio)."""
    by_id = {r["id"]: r for r in records}
    kids = defaultdict(list)
    named = defaultdict(list)
    for r in records:
        named[r["name"]].append(r)
        if r["parent"] is not None:
            kids[r["parent"]].append(r)
    own = {r["id"]: _self_time(r, kids[r["id"]]) for r in records}

    def self_s(name):
        return sum(own[r["id"]] for r in named[name])

    def total(name, key):
        return sum(r.get(key, 0) for r in named[name])

    def under_rank(r):
        p = r["parent"]
        while p is not None:
            if by_id[p]["name"] == "exactalg.rank":
                return True
            p = by_id[p]["parent"]
        return False

    ranks = named["exactalg.rank"]
    outer = [r for r in ranks if not under_rank(r)]
    # a blocked rank runs one rank_details (modular) or one Bareiss (exact) per block
    blocks = sum(
        sum(c["name"] in ("exactalg.rank", "exactalg.bareiss") for c in kids[r["id"]])
        if r.get("blocked") else 1
        for r in outer
    )
    attempts = [
        r for r in ranks
        if r.get("blocked") is False and (r["mode"] == "modular" or r["escalated"])
    ]
    escalated = sum(r["escalated"] for r in attempts)
    loads = len(named["exactalg.io.load"])
    dumps = len(named["exactalg.io.dump"])
    wall = sum(r["end"] - r["start"] for r in named["job"])
    layer_self = sum(v for i, v in own.items() if by_id[i]["name"] != "job")
    return {
        "exactalg.kernel.calls": len(named["exactalg.kernel"]),
        "exactalg.kernel.self_s": self_s("exactalg.kernel"),
        "exactalg.kernel.cells": total("exactalg.kernel", "cells"),
        "exactalg.kernel.ops_bound": total("exactalg.kernel", "ops"),
        "exactalg.densify.calls": len(named["exactalg.densify"]),
        "exactalg.densify.self_s": self_s("exactalg.densify"),
        "exactalg.densify.nnz": total("exactalg.densify", "nnz"),
        "exactalg.bareiss.calls": len(named["exactalg.bareiss"]),
        "exactalg.bareiss.self_s": self_s("exactalg.bareiss"),
        "exactalg.bareiss.cells": total("exactalg.bareiss", "cells"),
        "exactalg.rref.calls": len(named["exactalg.rref"]),
        "exactalg.rref.self_s": self_s("exactalg.rref"),
        "exactalg.rref.cells": total("exactalg.rref", "cells"),
        "exactalg.rank.calls": len(outer),
        "exactalg.rank.blocks": blocks,
        "exactalg.rank.self_s": self_s("exactalg.rank"),
        "exactalg.rank.modular": len(attempts),
        "exactalg.rank.escalated": escalated,
        "exactalg.rank.escalation_ratio": escalated / len(attempts) if attempts else 0.0,
        "exactalg.matrix.init_calls": len(named["exactalg.matrix.init"]),
        "exactalg.matrix.init_s": self_s("exactalg.matrix.init"),
        "exactalg.io.load_calls": loads,
        "exactalg.io.load_s": self_s("exactalg.io.load"),
        "exactalg.io.load_bytes": total("exactalg.io.load", "bytes"),
        "exactalg.io.dump_calls": dumps,
        "exactalg.io.dump_s": self_s("exactalg.io.dump"),
        "exactalg.io.dump_bytes": total("exactalg.io.dump", "bytes"),
        # every cache miss is rebuilt and written back, so misses = dumps
        "exactalg.io.hit_ratio": loads / (loads + dumps) if loads + dumps else 0.0,
        "fhmaps.build_calls": sum(
            all(c["name"] != "exactalg.io.load" for c in kids[r["id"]])
            for r in named["fhmaps.build"]
        ),
        "fhmaps.build_s": self_s("fhmaps.build"),
        "fhmaps.report_calls": len(named["fhmaps.report"]),
        "polyring.piece_calls": len(named["polyring.piece"]),
        "polyring.piece_s": self_s("polyring.piece"),
        "polyring.spanning_s": self_s("polyring.spanning"),
        "homres.slab_calls": len(named["homres.slab"]),
        "homres.slab_s": self_s("homres.slab"),
        "homres.slab_nnz": total("homres.slab", "nnz"),
        "homres.mult_s": self_s("homres.mult"),
        "homres.tor_s": self_s("homres.tor"),
        "other.self_s": wall - layer_self,
    }
