"""Workloads of the bfsyz benchmark: job lists, closed-form references, digests.

Each job calls one public bfsyz function the way a researcher does at the
desk (mode ``auto``, one thread, the default memory budget) and is checked
against a reference computed here from the paper's closed forms, never from
the package under test.  bfsyz is imported only when a job list is built, so
the orchestrator can read the workload names without importing the package.

Why these workloads (shares are of the pure-Python kernel build):

* ``koszul-betti`` -- power-locus Betti tables (acceptance criterion 4).  The
  mod-p kernel and Bareiss exact rank dominate; echelon forms and the disk
  cache do no work.  A kernel or exact-rank change shows here.
* ``hilbert-reg`` -- regularity by the monomial lead-term model and by Betti
  windows (criterion 6).  Fraction echelon forms in ``graded_piece`` share
  the time with the kernel, which separates an echelon change from a kernel
  change.
* ``fh-slices`` -- substitution-map slices ranked cold (build, write the
  cache) and warm (read it), like two ``bfsyz fh-rank --cache DIR`` calls.
  The only workload where slice construction, ``ExactMatrix`` construction,
  cache reads and writes and densification do real work.  It mixes exact
  (larger side <= 2000) and modular slices.  The (2, 5, 6) slice of the
  full list is left out so that three passes fit in one run.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from math import comb
from typing import Callable, NamedTuple

WORKLOADS = ("koszul-betti", "hilbert-reg", "fh-slices")

MODE = "auto"

# per-layer call counters that must be nonzero on a workload, so that a
# wrapper that no longer sees its layer is noticed
PRIMARY_LAYERS = {
    "koszul-betti": (
        "exactalg.kernel.calls",
        "exactalg.bareiss.calls",
        "exactalg.rank.calls",
        "homres.slab_calls",
    ),
    "hilbert-reg": (
        "exactalg.rref.calls",
        "exactalg.rank.calls",
        "polyring.piece_calls",
    ),
    "fh-slices": (
        "exactalg.kernel.calls",
        "exactalg.densify.calls",
        "exactalg.rank.calls",
        "exactalg.matrix.init_calls",
        "exactalg.io.load_calls",
        "exactalg.io.dump_calls",
        "fhmaps.build_calls",
        "fhmaps.report_calls",
    ),
}

# workloads that run without a cache directory: every io counter must read 0
UNCACHED = ("koszul-betti", "hilbert-reg")

FH_SLICES = ((3, 4, 4), (2, 6, 4), (3, 4, 5))


# ---------------------------------------------------------------------------
# closed forms from the paper


def reg_formula(a: int, b: int) -> int:
    """Castelnuovo-Mumford regularity of the power ideal (P_0..P_d)."""
    return ((b + 2) // 2) * a - b // 2


def power_locus_betti_numbers(a: int, b: int) -> dict:
    """{i: beta_i} of the power locus' coordinate ring, beta_i in degree b + i.

    beta_i = sum_{t < i} (-1)^(i+t-1) C(d+1, t) (C(d+b+i-t, d) - C(d+a(i-t)+b, b)).
    """
    d = a * b
    return {
        i: sum(
            (-1) ** (i + t - 1)
            * comb(d + 1, t)
            * (comb(d + b + i - t, d) - comb(d + a * (i - t) + b, b))
            for t in range(i)
        )
        for i in range(1, d + 1)
    }


# the linear strand of the power-locus ideal at a = b = 2, pinned in the paper
PINNED_STRAND_2_2 = (7, 10, 5, 1)


def slice_dims(a: int, b: int, k: int) -> tuple[int, int]:
    """(source, target) dimensions of alpha_k: C(k+d, d) x C(ak+b, b)."""
    d = a * b
    return comb(k + d, d), comb(a * k + b, b)


# ---------------------------------------------------------------------------
# jobs


class Outcome(NamedTuple):
    report: dict  # canonical JSON report; its digest is the determinism check
    modes: list  # proof strength of every value whose report carries a mode
    problems: list  # reference mismatches; empty when the job verifies


class Job(NamedTuple):
    id: str
    seed_key: str  # jobs sharing a key get the same library seed
    run: Callable  # (seed, cache_dir) -> result; the timed part
    check: Callable  # result -> Outcome; not timed


def job_seed(run_seed: int, key: str) -> int:
    """The library seed of one job, derived from the run's workload seed."""
    digest = hashlib.sha256(f"{run_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def digest(report) -> str:
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def jobs(workload: str) -> list:
    if workload == "koszul-betti":
        if tuple(power_locus_betti_numbers(2, 2).values()) != PINNED_STRAND_2_2:
            raise AssertionError("the closed form misses the pinned (2, 2) strand")
        return [
            Job(f"power_locus_betti({a},{b})", f"power_locus_betti({a},{b})",
                partial(_power_locus, a, b), partial(_check_power_locus, a, b))
            for a, b in ((2, 2), (3, 2), (2, 3))
        ]
    if workload == "hilbert-reg":
        monomial = [
            Job(f"initial_ideal_regularity({a},{b})", f"initial_ideal_regularity({a},{b})",
                partial(_monomial_route, a, b), partial(_check_monomial_route, a, b))
            for a in (1, 2, 3, 4) for b in (1, 2, 3, 4, 5)
        ]
        betti = [
            Job(f"power_ideal_betti({a},{b})", f"power_ideal_betti({a},{b})",
                partial(_betti_route, a, b), partial(_check_betti_route, a, b))
            for a in (1, 2, 3) for b in (1, 2, 3)
        ]
        return monomial + betti
    if workload == "fh-slices":
        # cold builds the slice and writes the cache, warm reads it back; both
        # get the same seed, so their reports must be byte-identical
        return [
            Job(f"fh_rank_report({a},{b},{k})/{phase}", f"fh_rank_report({a},{b},{k})",
                partial(_slice, a, b, k), partial(_check_slice, a, b, k))
            for a, b, k in FH_SLICES for phase in ("cold", "warm")
        ]
    raise ValueError(f"unknown workload {workload!r}")


# The run functions look the library function up at call time, so that the
# tracing wrappers, installed after the job list is built, see the call.


def _power_locus(a, b, seed, cache):
    from bfsyz import homres

    return homres.power_locus_betti(a, b, MODE, seed=seed, threads=1)


def _check_power_locus(a, b, result) -> Outcome:
    beta = power_locus_betti_numbers(a, b)
    # the ideal table is the quotient table shifted one homological step
    expected = {(i - 1, b + i): beta[i] for i in beta}
    table = result.ideal_table
    problems = []
    if table.unknown:
        problems.append(f"unknown entries {sorted(table.unknown)}")
    got = {key: e.value for key, e in table.entries.items() if e.value}
    if got != expected:
        problems.append(f"nonzero entries {got} != closed form {expected}")
    return Outcome(table.to_json(), [e.mode for e in table.entries.values()], problems)


def _monomial_route(a, b, seed, cache):
    from bfsyz import homres

    return homres.initial_ideal_regularity(a, b, MODE, rng=random.Random(seed))


def _check_monomial_route(a, b, report) -> Outcome:
    problems = []
    if not report["hf_agree"]:
        problems.append("Hilbert functions of the ideal and its lead-term model differ")
    if report["value"] != reg_formula(a, b):
        problems.append(f"regularity {report['value']} != {reg_formula(a, b)}")
    return Outcome(report, [], problems)


def _betti_route(a, b, seed, cache):
    from bfsyz import homres

    table = homres.power_ideal_betti(
        a, b, 1, MODE, t_max=reg_formula(a, b) + 1, seed=seed, threads=1
    )
    return table, homres.regularity(table)


def _check_betti_route(a, b, result) -> Outcome:
    table, value = result
    problems = []
    if value != reg_formula(a, b):
        problems.append(f"regularity {value} != {reg_formula(a, b)}")
    top = max(j - i for (i, j), e in table.entries.items() if e.value)
    if top != reg_formula(a, b):
        problems.append(f"top nonzero strand {top} != {reg_formula(a, b)}")
    report = {"table": table.to_json(), "regularity": value}
    return Outcome(report, [e.mode for e in table.entries.values()], problems)


def _slice(a, b, k, seed, cache):
    from bfsyz import fhmaps

    return fhmaps.fh_rank_report(a, b, k, MODE, rng=random.Random(seed), cache=cache)


def _check_slice(a, b, k, report) -> Outcome:
    source, target = slice_dims(a, b, k)
    problems = []
    if (report["source_dim"], report["target_dim"]) != (source, target):
        problems.append(f"shape {report['source_dim']} x {report['target_dim']} != {source} x {target}")
    if report["status"] != "ok":
        problems.append(f"status {report['status']}")
    if report["rank"] != min(source, target) or report["maximal_rank"] is not True:
        problems.append(f"rank {report['rank']} is not the maximal {min(source, target)}")
    return Outcome(report, [report["mode"]], problems)
