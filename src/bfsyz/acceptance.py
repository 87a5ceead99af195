"""Pinned desk-scale acceptance checks, one pass/fail line each.

Eleven criteria, each a self-contained verification with hard-coded expected
values.  Exact checks have zero tolerance; every modular rank that feeds a
verdict is double-prime agreed or escalated to exact arithmetic by the rank
layer.  `run_all` returns JSON-ready result rows; the `repro` subcommand and
the acceptance test suite both drive it.
"""

from __future__ import annotations

import random
import tempfile
import time
from fractions import Fraction
from math import comb, gcd

from .errors import InconclusiveError, ResourceLimitError
from .exactalg import blocked_kernel_basis
from .fhmaps import (
    fh_rank_report,
    foulkes_howe,
    hw_triple_report,
    minors_generate_check,
    power_generators,
    power_ideal,
    sr_wr_terms,
)
from .homres import (
    betti_reference,
    check_betti,
    explicit_betti_formula,
    initial_ideal_regularity,
    koszul_complex,
    power_ideal_betti,
    power_locus_betti,
    projective_dimension,
    regularity_formula,
)
from .polyring import MultiPoly, PolyRing, hilbert_function, ideal_power
from .sl2rep import BinaryForm, transvectant


def _check(ok, detail: str = "") -> None:
    """Fail the criterion with ``detail`` unless ``ok``.  Unlike ``assert``,
    which ``python -O`` strips, this check always runs."""
    if not ok:
        raise AssertionError(detail)


def _power_ideal_verdict(ctx, a, b, power, mode="auto", *, t_max=None, **reference):
    """A power-ideal table in ``mode``, and its ``check_betti`` verdict
    against ``reference``, which reruns the table in ``"exact"`` to
    escalate a failed check that read a modular entry."""
    def table(mode):
        return power_ideal_betti(
            a, b, power, mode, t_max=t_max, seed=ctx["seed"], mem_mb=ctx["mem_mb"],
            cache=ctx["cache"], threads=ctx["threads"],
        )

    first = table(mode)
    return first, check_betti(first, exact_table=lambda: table("exact"), **reference)


def _verified(verdict, mismatch: str) -> None:
    """Take over a ``check_betti`` verdict: an inconclusive one leaves the
    criterion inconclusive, and a mismatch fails it with ``mismatch``."""
    if verdict.status == "inconclusive":
        raise InconclusiveError(verdict.reason)
    _check(verdict.status == "verified", mismatch)


def _criterion_1(ctx) -> str:
    """Maximal rank over the small grid, plus the square 495-dimensional slice."""
    checked = 0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for k in range(b + 2):
                rng = random.Random(f"{ctx['seed']}:acc1:{a}:{b}:{k}")
                r = fh_rank_report(a, b, k, rng=rng, mem_mb=ctx["mem_mb"], cache=ctx["cache"])
                _check(r["status"] == "ok", f"({a},{b},{k}) inconclusive")
                _check(r["maximal_rank"], f"({a},{b},{k}) rank {r['rank']} not maximal")
                checked += 1
    rng = random.Random(f"{ctx['seed']}:acc1:big")
    big = fh_rank_report(2, 4, 4, rng=rng, mem_mb=ctx["mem_mb"], cache=ctx["cache"])
    _check(big["status"] == "ok", "(2,4,4) inconclusive")
    _check((big["source_dim"], big["target_dim"]) == (495, 495), "(2,4,4) dimensions off")
    _check(big["injective"] and big["surjective"], f"(2,4,4) rank {big['rank']} not bijective")
    return f"{checked} grid slices maximal; (2,4,4) bijective at dimension 495"


def _criterion_2(ctx) -> str:
    """The proportionality triple, and its disagreement with the classical one."""
    rep = hw_triple_report(mem_mb=ctx["mem_mb"], cache=ctx["cache"])
    expected = [Fraction(1), Fraction(-1, 3), Fraction(4, 3)]
    _check(rep["triple"] == expected, f"triple {rep['triple']} != {expected}")
    _check(rep["reference"] == [Fraction(1), Fraction(1, 4), Fraction(1, 2)])
    _check(rep["differs"], "triple unexpectedly matches the classical reference")
    return "triple (1, -1/3, 4/3) exact, differing from (1, 1/4, 1/2)"


def _criterion_3(ctx) -> str:
    """Single-strand table (7, 10, 5, 1) at (2, 2), all ranks exact."""
    res = power_locus_betti(
        2, 2, "exact", seed=ctx["seed"], mem_mb=ctx["mem_mb"],
        cache=ctx["cache"], threads=ctx["threads"],
    )
    table = res.ideal_table
    _check(not table.unknown, "resource budget left entries unknown")
    expected = {(0, 3): 7, (1, 4): 10, (2, 5): 5, (3, 6): 1}
    got = {key: table.value(*key) for key in table.nonzero()}
    _check(got == expected, f"nonzero entries {got} != {expected}")
    _check(all(e.mode == "exact" for e in table.entries.values()), "non-exact entry found")
    # the rows hold every nonzero entry, so a verified table is zero off the strand
    verdict = check_betti(table, entries=betti_reference("ix", 2, 2))
    _verified(verdict, f"off the closed form: {verdict.entries}")
    _check(projective_dimension(table) == 3, "projective dimension != 3")
    return "strand (7, 10, 5, 1) exact; off-strand zero over the window; pd 3"


def _criterion_4(ctx) -> str:
    """Computed power-locus tables against the three closed forms."""
    totals = []
    for a, b in ((2, 2), (3, 2), (2, 3), (4, 2)):
        def ideal_table(mode, a=a, b=b):
            return power_locus_betti(
                a, b, mode, seed=ctx["seed"], mem_mb=ctx["mem_mb"],
                cache=ctx["cache"], threads=ctx["threads"],
            ).ideal_table

        verdict = check_betti(
            ideal_table("auto"), entries=betti_reference("ix", a, b), exact_table=lambda: ideal_table("exact"),
        )
        _verified(verdict, f"({a},{b}) disagrees: {verdict.entries}")
        # the first and last closed forms against the alternating sum
        d = a * b
        formula = explicit_betti_formula(a, b)
        _check(comb(d + b + 1, b + 1) - comb(d + a + b, b) == formula[1], f"({a},{b}) beta_1 form off")
        _check(comb(d - a + b, b) - comb(d + b - 1, b - 1) == formula[d], f"({a},{b}) beta_d form off")
        for key, e in verdict.table.entries.items():
            if e.mode == "modular":
                _check(len(e.primes) >= 2 or e.escalated, f"single-prime entry {key}")
        totals.append(f"({a},{b}) " + ", ".join(str(r["computed"]) for r in verdict.entries))
    return "; ".join(totals)


def _criterion_5(ctx) -> str:
    """Minor spans equal the kernel pieces, with the pinned dimensions."""
    expected = {(2, 2): 7, (3, 2): 29, (2, 3): 45, (3, 3): 260}
    for (a, b), dim in expected.items():
        rng = random.Random(f"{ctx['seed']}:acc5:{a}:{b}")
        rep = minors_generate_check(a, b, rng=rng, mem_mb=ctx["mem_mb"], cache=ctx["cache"])
        _check(rep["status"] == "ok", f"({a},{b}) inconclusive")
        _check(rep["kernel_dim"] == dim, f"({a},{b}) kernel {rep['kernel_dim']} != {dim}")
        _check(rep["contained"] and rep["equal"], f"({a},{b}) span {rep['span_dim']} != kernel")
    return "kernel dimensions 7, 29, 45, 260; minors span each kernel piece"


def _criterion_6(ctx) -> str:
    """Regularity by Betti windows and by the monomial lead-term model."""
    direct = 0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            formula = regularity_formula(a, b)
            _, verdict = _power_ideal_verdict(ctx, a, b, 1, t_max=formula + 1, regularity=formula)
            _verified(verdict, f"({a},{b}) Betti route {verdict.regularity['computed']} != {formula}")
            direct += 1
    monomial = 0
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4, 5):
            formula = regularity_formula(a, b)
            rng = random.Random(f"{ctx['seed']}:acc6:{a}:{b}")
            rep = initial_ideal_regularity(a, b, rng=rng, mem_mb=ctx["mem_mb"])
            _check(rep["hf_agree"], f"({a},{b}) Hilbert functions diverge")
            _check(
                rep["value"] == formula, f"({a},{b}) monomial route {rep['value']} != {formula}"
            )
            monomial += 1
    return f"{direct} Betti-route and {monomial} monomial-route values match floor((b+2)/2)a - floor(b/2)"


def _criterion_7(ctx) -> str:
    """Resolutions over the cubic range: a = 2 exact, a = 3 modular."""
    def cubic(a, mode):
        return _power_ideal_verdict(
            ctx, a, 3, 1, mode, t_max=2 * a, entries=betti_reference("iab", a, 3), regularity=regularity_formula(a, 3),
        )

    _, rep2 = cubic(2, "exact")
    _verified(rep2, f"a = 2 table off: {rep2.report()}")
    got2 = {(r["i"], r["j"]): r["computed"] for r in rep2.entries}
    _check(got2 == {(0, 2): 7, (1, 3): 8, (1, 4): 3, (2, 5): 8, (3, 6): 3}, f"a = 2 shape {got2}")
    table3, rep3 = cubic(3, "modular")
    _verified(rep3, f"a = 3 table off: {rep3.report()}")
    _check(any(e.mode == "modular" for e in table3.entries.values()), "a = 3 run did not exercise the modular path")
    return "a = 2 exact (7, 8 | 3, 8, 3); a = 3 modular, regularity 5"


def _criterion_8(ctx) -> str:
    """Two-strand tables of the (b-1)-st power, with regularity d - 1."""
    seen = []
    for a, b in ((2, 2), (3, 2), (2, 3)):
        _, verdict = _power_ideal_verdict(
            ctx, a, b, b - 1, entries=betti_reference("iab-pow", a, b, b - 1),
            regularity=regularity_formula(a, b, b - 1),
        )
        _verified(verdict, f"({a},{b}) power table off: {verdict.report()}")
        seen.append(f"({a},{b}) reg {verdict.regularity['computed']}")
    return "both strands match; " + ", ".join(seen)


def _criterion_9(ctx) -> str:
    """The b-th power fills the whole degree-d piece."""
    dims = []
    for a, b in ((2, 2), (2, 3), (3, 2)):
        d = a * b
        rng = random.Random(f"{ctx['seed']}:acc9:{a}:{b}")
        hf = hilbert_function(ideal_power(power_ideal(a, b), b), d, rng=rng, mem_mb=ctx["mem_mb"])
        _check(hf[d] == 0, f"({a},{b}) degree-{d} quotient has dimension {hf[d]}")
        dims.append(comb(d + b, b))
    return f"degree-d pieces saturate at dimensions {dims[0]}, {dims[1]}, {dims[2]}"


def _criterion_10(ctx) -> str:
    """Exact q-polynomial identities across the 5 x 5 range."""
    checked = 0
    for a in range(1, 6):
        for b in range(1, 6):
            # the termwise identities of the two length-(b-1) complexes
            for i, holds in enumerate(sr_wr_terms(a, b, b - 1).char_match):
                _check(holds, f"identity fails at ({a},{b},{i})")
                checked += 1
    _check(checked == 75)
    return "75 character identities hold exactly"


def _criterion_11(ctx) -> str:
    """Property suites: transvectant, multiplicativity, squares, kernels, cache."""
    rng = random.Random(f"{ctx['seed']}:acc11:omega")
    vanished = 0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            d = a * b
            for _ in range(100):
                g = BinaryForm(b, [rng.randint(-9, 9) for _ in range(b + 1)])
                _check(transvectant(g.power(a), g).is_zero(), f"pairing with G^{a} nonzero")
                f = BinaryForm(d, [rng.randint(-9, 9) for _ in range(d + 1)])
                u, v = rng.randint(-4, 4), rng.randint(-4, 4)
                mat = ((1 + u * v, u), (v, 1))
                lhs = transvectant(f.substitute(mat), g.substitute(mat))
                _check(lhs == transvectant(f, g).substitute(mat), "equivariance failed")
                vanished += 1

    rng = random.Random(f"{ctx['seed']}:acc11:mult")
    for a, b in ((2, 2), (2, 3)):
        pg = power_generators(a, b)
        lo = foulkes_howe(a, b, b, ctx["mem_mb"], ctx["cache"])
        hi = foulkes_howe(a, b, b + 1, ctx["mem_mb"], ctx["cache"])
        for _ in range(10):
            beta = rng.choice(lo.col_basis)
            j = rng.randrange(len(pg.polys))
            lifted = list(beta)
            lifted[j] += 1
            _check(
                MultiPoly(pg.ring, hi.column(lifted)) == pg.polys[j] * MultiPoly(pg.ring, lo.column(beta)),
                f"column lifting broke at ({a},{b})",
            )

    for nv in (3, 4):
        koszul_complex(PolyRing(nv, "z"))  # constructor proves d^2 = 0 exactly

    kernel_count = 0
    for a, b in ((2, 2), (3, 2)):
        fh = foulkes_howe(a, b, b + 1, ctx["mem_mb"], ctx["cache"])
        for vec in blocked_kernel_basis(fh, fh.col_weights, ctx["mem_mb"]):
            _check(gcd(*vec.values()) == 1 and vec[min(vec)] > 0, "kernel vector not primitive")
            acc: dict = {}
            for j, vc in vec.items():
                for mono, val in fh.column(fh.col_basis[j]).items():
                    acc[mono] = acc.get(mono, 0) + val * vc
            _check(all(x == 0 for x in acc.values()), "kernel vector not annihilated")
            kernel_count += 1

    with tempfile.TemporaryDirectory() as tmp:
        cold = foulkes_howe(2, 2, 2, ctx["mem_mb"], tmp)
        warm = foulkes_howe(2, 2, 2, ctx["mem_mb"], tmp)
        _check(cold == warm, "cache replay changed the matrix")
        first = power_locus_betti(2, 2, seed=ctx["seed"], mem_mb=ctx["mem_mb"], cache=tmp)
        second = power_locus_betti(2, 2, seed=ctx["seed"], mem_mb=ctx["mem_mb"], cache=tmp)
        _check(
            first.ideal_table.to_json() == second.ideal_table.to_json(),
            "cached rerun changed the table",
        )

    return (
        f"{vanished} pairing/equivariance draws; 20 column liftings; "
        f"Koszul squares vanish; {kernel_count} primitive kernel vectors; cache replay stable"
    )


CRITERIA = (
    (1, "substitution-map slices reach maximal rank", _criterion_1),
    (2, "highest-weight proportionality triple", _criterion_2),
    (3, "power-locus Betti table at (2, 2)", _criterion_3),
    (4, "closed-form Betti cross-check", _criterion_4),
    (5, "maximal minors span the kernel piece", _criterion_5),
    (6, "power-ideal regularity two ways", _criterion_6),
    (7, "cubic-range resolutions", _criterion_7),
    (8, "two-strand tables of the top proper power", _criterion_8),
    (9, "top power saturates its generation degree", _criterion_9),
    (10, "termwise character identities", _criterion_10),
    (11, "property suites", _criterion_11),
)


def run_one(number: int, *, seed=0, mem_mb=None, cache=None, threads=1) -> dict:
    by_number = {n: (name, fn) for n, name, fn in CRITERIA}
    if number not in by_number:
        raise ValueError(f"no criterion {number}")
    name, fn = by_number[number]
    ctx = {"seed": seed, "mem_mb": mem_mb, "cache": cache, "threads": threads}
    start = time.monotonic()
    try:
        details = fn(ctx)
        status = "pass"
    except AssertionError as exc:
        status = "fail"
        details = str(exc) or "assertion failed"
    except (InconclusiveError, ResourceLimitError) as exc:
        status = "inconclusive"
        details = str(exc)
    elapsed = time.monotonic() - start
    return {
        "number": number,
        "name": name,
        "status": status,
        "details": details,
        "elapsed_s": round(elapsed, 2),
    }


def run_all(*, seed=0, mem_mb=None, cache=None, threads=1, only=None) -> list[dict]:
    numbers = [only] if only is not None else [n for n, _, _ in CRITERIA]
    return [
        run_one(n, seed=seed, mem_mb=mem_mb, cache=cache, threads=threads) for n in numbers
    ]


def overall_status(results) -> str:
    statuses = {r["status"] for r in results}
    if "fail" in statuses:
        return "mismatch"
    if "inconclusive" in statuses:
        return "inconclusive"
    return "verified"


def render_line(result: dict) -> str:
    tag = {"pass": "PASS", "fail": "FAIL", "inconclusive": "INCONCLUSIVE"}[result["status"]]
    return (
        f"[{result['number']:>2}] {tag:<12} ({result['elapsed_s']:6.2f}s) "
        f"{result['name']}: {result['details']}"
    )
