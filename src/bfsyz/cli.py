"""Command-line front end: every computation and verification, reproducibly.

Exit codes: 0 verified (or computed, for commands with no reference value),
1 certified mismatch, 2 inconclusive (budget or certification failure),
3 usage error.  Reports are deterministic for a fixed seed and embed the
parameters, the mode and seed of a command that takes them, the primes, and
the library version; JSON output is sorted and stable byte for byte across
reruns.  Each command offers only the options it reads.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import InconclusiveError, ResourceLimitError
from .exactalg import KERNEL_BACKEND
from .exactalg.matrix import resolve_seed
from .fhmaps import (
    SYMMETRY,
    fh_rank_report,
    hw_triple_report,
    minors_generate_check,
    phi_matrix,
    phi_syzygy_check,
    power_generators,
    power_ideal,
    skew_normalizable,
)
from .homres import (
    betti_reference,
    check_betti,
    compare_hilbert_functions,
    initial_ideal_regularity,
    power_ideal_betti,
    power_locus_betti,
    power_resolution,
    provenance,
    regularity_formula,
)
from .polyring import cache_directory, initial_ideal_Jab
from .sl2rep import CLASSICAL_REFERENCE_TRIPLE, char_identity_check

EXIT_VERIFIED = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


_OPTIONS = {
    "--mode": dict(choices=["auto", "exact", "modular"], default="auto"),
    "--seed": dict(type=int, default=None, help="default: BFSYZ_SEED or 0"),
    "--cache": dict(default=None, help="matrix cache directory (default: BFSYZ_CACHE)"),
    "--mem-mb": dict(type=_positive, default=None, help="memory budget override"),
    "--threads": dict(
        type=_positive, default=1,
        help="threads ranking the Koszul differentials (default 1); the mod-p kernel's "
        "sparse stage holds the GIL, so more threads may not run faster",
    ),
}

# the options of every command that ranks: it picks a mode, draws primes from
# the seed, may read the matrix cache and is held to the memory budget
_RANKING = ("--mode", "--seed", "--cache", "--mem-mb")


def _add_common(parser, *options):
    """Add the named ``_OPTIONS``, then ``--format`` and ``--out``, which every command takes."""
    for flag in options:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, set):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(args, report: dict, text_lines=None) -> None:
    if args.format == "text" and text_lines is not None:
        payload = "\n".join(text_lines) + "\n"
    else:
        payload = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


def _check_out(path) -> None:
    """Refuse an ``--out`` path that names a directory or lies in a missing
    one with ``ValueError`` naming it, before anything is computed."""
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"--out {path!r} is a directory")
    if not target.parent.is_dir():
        raise ValueError(f"--out {path!r}: no directory {str(target.parent)!r}")


def _envelope(command: str, args, parameters: dict, status: str, body: dict) -> dict:
    """The report: ``mode`` and ``seed`` appear only for the commands that take them."""
    report = {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "kernel_backend": KERNEL_BACKEND,
        "status": status,
    }
    if "mode" in args:
        report["mode"] = args.mode
    if "seed" in args:
        report["seed"] = resolve_seed(args.seed)
    report.update(body)
    return report


def _status_exit(status: str) -> int:
    return {
        "verified": EXIT_VERIFIED,
        "computed": EXIT_VERIFIED,
        "mismatch": EXIT_MISMATCH,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[status]


def _table_primes(table) -> list[int]:
    return sorted({p for e in table.entries.values() for p in e.primes})


def _symmetry(record: dict) -> dict:
    """The ``symmetry`` field of a table's meta or a certificate whose ranks were halved, else {}."""
    return {"symmetry": record["symmetry"]} if "symmetry" in record else {}


def _banner(table, convention: str = "total") -> list[str]:
    return table.render(convention).splitlines()


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_fh_rank(args) -> int:
    rng = random.Random(f"{resolve_seed(args.seed)}:fh-rank")
    report = fh_rank_report(
        args.a, args.b, args.k, args.mode, rng=rng, mem_mb=args.mem_mb, cache=args.cache,
    )
    if report["status"] != "ok":
        status = "inconclusive"
    elif report["maximal_rank"]:
        status = "verified"
    else:
        status = "mismatch"
    body = {"report": report, "bijective": bool(report.get("injective") and report.get("surjective"))}
    out = _envelope("fh-rank", args, {"a": args.a, "b": args.b, "k": args.k}, status, body)
    _emit(args, out)
    return _status_exit(status)


def _cmd_gens(args) -> int:
    pg = power_generators(args.a, args.b)
    body = {
        "d": pg.d,
        "generators": [str(p) for p in pg.polys],
        "degrees": [p.homogeneous_degree for p in pg.polys],
        "weights": [p.weight() for p in pg.polys],
    }
    out = _envelope("gens", args, {"a": args.a, "b": args.b}, "computed", body)
    lines = [f"generators of the degree-{args.a} power ideal, b = {args.b} (d = {pg.d}):"]
    lines += [f"  P_{j} = {s}" for j, s in enumerate(body["generators"])]
    _emit(args, out, lines)
    return EXIT_VERIFIED


def _power_ideal_table(args, power: int, t_max: int | None = None):
    """``table(mode)``: the table of the power ``power`` of the command's power
    ideal in ``mode``, under its seed, budget, cache and threads; a verdict
    calls it again with ``"exact"`` to escalate."""
    return lambda mode: power_ideal_betti(
        args.a, args.b, power, mode, t_max=t_max, seed=resolve_seed(args.seed),
        mem_mb=args.mem_mb, cache=args.cache, threads=args.threads,
    )


def _cmd_betti(args) -> int:
    if args.j is not None and args.target != "iab-pow":
        raise ValueError(f"--j applies to --target iab-pow only, not --target {args.target}")
    if args.target == "iab-pow" and args.j is None:
        raise ValueError("--target iab-pow needs --j")
    power = args.j or 1
    params = {"a": args.a, "b": args.b, "target": args.target}
    body: dict = {}

    def locus_table(mode):
        res = power_locus_betti(
            args.a, args.b, mode, seed=resolve_seed(args.seed),
            mem_mb=args.mem_mb, cache=args.cache, threads=args.threads,
        )
        body["quotient_table"] = res.quotient_table.to_json()
        return res.ideal_table

    compute = locus_table if args.target == "ix" else _power_ideal_table(args, power)
    table = compute(args.mode)
    reference = betti_reference(args.target, args.a, args.b, power)
    if reference is None:
        # with nothing to compare against, an entry left unknown on the budget
        # leaves the table unfinished
        status = "inconclusive" if table.unknown else "computed"
        body["reference"] = None
    else:
        verdict = check_betti(table, entries=reference, exact_table=lambda: compute("exact"))
        status, table = verdict.status, verdict.table
        body["reference"] = verdict.report()
    body.update({"table": table.to_json(), "primes": _table_primes(table)})
    if args.target == "ix":
        lines = [f"Betti table of the power-locus ideal, a = {args.a}, b = {args.b}:"]
        label = "closed-form comparison"
    else:
        params["power"] = power
        name = "power ideal" if power == 1 else f"power-ideal power {power}"
        lines = [f"Betti table of the {name}, a = {args.a}, b = {args.b}:"]
        label = "reference comparison"
    lines += _banner(table, args.convention)
    if reference is not None:
        lines.append(f"{label}: " + {"verified": "ok", "mismatch": "MISMATCH"}.get(status, "INCONCLUSIVE"))
    _emit(args, _envelope("betti", args, params, status, body), lines)
    return _status_exit(status)


def _reg_betti_route(args, formula: int) -> tuple[dict, bool]:
    compute = _power_ideal_table(args, 1, formula + 1)
    verdict = check_betti(compute(args.mode), regularity=formula, exact_table=lambda: compute("exact"))
    if verdict.status == "inconclusive":
        raise InconclusiveError(verdict.reason)
    route = {"route": "betti", "value": verdict.regularity["computed"], "primes": _table_primes(verdict.table)}
    route.update(_symmetry(verdict.table.meta))
    if verdict.escalated:
        route["escalated"] = True
    return route, verdict.status == "verified"


def _reg_initial_route(args) -> dict:
    rng = random.Random(f"{resolve_seed(args.seed)}:reg-initial")
    report = initial_ideal_regularity(
        args.a, args.b, args.mode, rng=rng, mem_mb=args.mem_mb,
    )
    report["route"] = "initial"
    return report


def _cmd_reg(args) -> int:
    formula = regularity_formula(args.a, args.b)
    routes = []
    ok = True
    if args.route in ("betti", "both"):
        route, ok = _reg_betti_route(args, formula)
        routes.append(route)
    if args.route in ("initial", "both"):
        routes.append(_reg_initial_route(args))
        ok = ok and routes[-1]["value"] == formula
    status = "verified" if ok else "mismatch"
    body = {"formula": formula, "routes": routes}
    out = _envelope("reg", args, {"a": args.a, "b": args.b, "route": args.route}, status, body)
    lines = [f"regularity of the power ideal, a = {args.a}, b = {args.b}: formula = {formula}"]
    for r in routes:
        lines.append(f"  {r['route']} route: {r['value']}")
    lines.append("agreement: " + ("ok" if ok else "MISMATCH"))
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_initial_ideal(args) -> int:
    a, b = args.a, args.b
    c = (b + 2) // 2
    kmax = args.kmax if args.kmax is not None else c * (a - 1) + 1
    J = initial_ideal_Jab(a, b)
    rng = random.Random(f"{resolve_seed(args.seed)}:initial")
    ideal = power_ideal(a, b)
    hf_j, pieces = compare_hilbert_functions(
        ideal, J, kmax, args.mode, rng=rng, mem_mb=args.mem_mb,
    )
    hf_i = [piece.value for piece in pieces]
    agree = hf_j == hf_i
    status = "verified" if agree else "mismatch"
    body = {
        "generators": [str(J.ring.monomial(g)) for g in J.generators],
        "generator_count": len(J.generators),
        "hf_initial_quotient": hf_j,
        "hf_power_quotient": hf_i,
        "hf_power_provenance": [provenance(piece.rank) for piece in pieces],
        "agree_through": kmax,
        "agree": agree,
    }
    if ideal.sl2_stable:
        body["symmetry"] = SYMMETRY
    out = _envelope("initial-ideal", args, {"a": a, "b": b, "kmax": kmax}, status, body)
    lines = [
        f"monomial model of the power ideal, a = {a}, b = {b}: {len(J.generators)} generators",
        f"HF comparison through degree {kmax}: " + ("ok" if agree else "MISMATCH"),
        f"  quotient by monomial model: {hf_j}",
        f"  quotient by power ideal:    {hf_i}",
    ]
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_minors_check(args) -> int:
    rng = random.Random(f"{resolve_seed(args.seed)}:minors")
    report = minors_generate_check(
        args.a, args.b, args.mode, rng=rng, mem_mb=args.mem_mb, cache=args.cache,
    )
    if report["status"] != "ok":
        status = "inconclusive"
    else:
        status = "verified" if report["equal"] else "mismatch"
    out = _envelope("minors-check", args, {"a": args.a, "b": args.b}, status, {"report": report})
    _emit(args, out)
    return _status_exit(status)


def _cmd_phi(args) -> int:
    phi = phi_matrix(args.a, args.b)
    syzygy = phi_syzygy_check(phi)
    entries = {f"({j},{c})": str(p) for (j, c), p in sorted(phi.entries.items())}
    body = {
        "shape": [phi.nrows, phi.ncols],
        "column_weights": list(phi.col_weights),
        "entries": entries,
        "syzygy_ok": syzygy,
    }
    if args.b == 2:
        body["skew_normalizable"] = skew_normalizable(phi)
    status = "verified" if syzygy else "mismatch"
    out = _envelope("phi", args, {"a": args.a, "b": args.b}, status, body)
    lines = [f"linear syzygy matrix, a = {args.a}, b = {args.b}: {phi.nrows} x {phi.ncols}"]
    for (j, c), p in sorted(phi.entries.items()):
        lines.append(f"  [{j},{c}] {p}")
    lines.append("generator row annihilates phi: " + ("yes" if syzygy else "NO"))
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_char_check(args) -> int:
    failures = []
    checked = 0
    for a in range(1, args.a_max + 1):
        for b in range(1, args.b_max + 1):
            for i in range(b):
                checked += 1
                if not char_identity_check(a, b, i):
                    failures.append({"a": a, "b": b, "i": i})
    status = "verified" if not failures else "mismatch"
    body = {"checked": checked, "failures": failures}
    out = _envelope(
        "char-check", args, {"a_max": args.a_max, "b_max": args.b_max}, status, body
    )
    lines = [f"character identities checked: {checked}, failures: {len(failures)}"]
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_hw_triple(args) -> int:
    report = hw_triple_report(mem_mb=args.mem_mb, cache=args.cache)
    expected = (Fraction(1), Fraction(-1, 3), Fraction(4, 3))
    matches = tuple(report["triple"]) == expected and report["differs"]
    status = "verified" if matches else "mismatch"
    body = {
        "report": report,
        "expected_triple": [str(x) for x in expected],
        "classical_reference": [str(x) for x in CLASSICAL_REFERENCE_TRIPLE],
    }
    out = _envelope("hw-triple", args, {"a": 2, "b": 2}, status, body)
    lines = [
        "highest-weight proportionality triple (a = b = 2):",
        f"  computed:  {[str(x) for x in report['triple']]}",
        f"  reference: {[str(x) for x in report['reference']]}",
        f"  differs from classical reference: {report['differs']}",
    ]
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_coker_hf(args) -> int:
    from .homres import coker_hilbert

    rng = random.Random(f"{resolve_seed(args.seed)}:coker")
    values = coker_hilbert(
        args.a, args.b, args.kmax, args.mode, rng=rng, mem_mb=args.mem_mb, cache=args.cache,
    )
    body = {
        "values": values,
        "vanishes_from_b_on": all(v == 0 for v in values[args.b :]),
        "symmetry": SYMMETRY,
    }
    out = _envelope("coker-hf", args, {"a": args.a, "b": args.b, "kmax": args.kmax}, "computed", body)
    lines = [f"substitution-map cokernel dimensions, k = 0..{args.kmax}: {values}"]
    _emit(args, out, lines)
    return EXIT_VERIFIED


def _cmd_conjecture_scan(args) -> int:
    a, b = args.a, args.b
    entries = []
    any_differs = False
    any_inconclusive = False
    for j in range(1, args.jmax + 1):
        predicted = regularity_formula(a, b, j)
        entry = {"j": j, "predicted": predicted}
        compute = _power_ideal_table(args, j, predicted + 2)
        try:
            verdict = check_betti(compute(args.mode), regularity=predicted, exact_table=lambda: compute("exact"))
            reason = verdict.reason
        except (InconclusiveError, ResourceLimitError) as exc:
            verdict, reason = None, str(exc)
        if verdict is None or verdict.status == "inconclusive":
            entry.update({"computed": None, "status": "inconclusive", "reason": reason})
            any_inconclusive = True
        else:
            entry["computed"] = verdict.regularity["computed"]
            entry["primes"] = _table_primes(verdict.table)
            entry.update(_symmetry(verdict.table.meta))
            if verdict.escalated:
                entry["escalated"] = True
            entry["status"] = "matches" if verdict.status == "verified" else "differs"
            any_differs = any_differs or entry["status"] == "differs"
        entries.append(entry)
    if any_differs:
        status = "mismatch"
    elif any_inconclusive:
        status = "inconclusive"
    else:
        status = "verified"
    body = {"label": "evidence", "entries": entries}
    out = _envelope("conjecture-scan", args, {"a": a, "b": b, "jmax": args.jmax}, status, body)
    lines = [f"regularity of ideal powers, a = {a}, b = {b} (evidence, not proof):"]
    for e in entries:
        lines.append(
            f"  j = {e['j']}: computed {e['computed']} vs predicted {e['predicted']} -> {e['status']}"
        )
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_exactness(args) -> int:
    res = power_resolution(
        args.a, args.b, args.mode, seed=resolve_seed(args.seed),
        mem_mb=args.mem_mb, window_hi=args.window_hi,
    )
    cert = res.certificate
    status = "verified" if cert["resolves"] else "mismatch"
    body = {
        "shape": [
            {"position": p, "degrees": sorted(set(degs)), "rank": len(degs)}
            for p, degs in enumerate(res.complex.gen_degrees)
        ],
        "attempts": res.attempts,
        "solution_dim": res.solution_dim,
        "certificate": {
            "window": cert["window"],
            "resolves": cert["resolves"],
            "cokernel_matches_ideal": cert["cokernel_matches_ideal"],
            "ideal_dimensions": cert["ideal_dimensions"],
            "nonzero_homology": cert["homology"]["nonzero"],
            "modes": cert["homology"]["modes"],
            "primes": cert["homology"]["primes"],
            **_symmetry(cert),
        },
    }
    out = _envelope("exactness", args, {"a": args.a, "b": args.b}, status, body)
    lines = [f"explicit resolution of the power, a = {args.a}, b = {args.b}:"]
    for item in body["shape"]:
        lines.append(f"  position {item['position']}: rank {item['rank']} in degrees {item['degrees']}")
    lines.append(f"certified exact over degrees {cert['window']}: {cert['resolves']}")
    _emit(args, out, lines)
    return _status_exit(status)


def _cmd_repro(args) -> int:
    from . import acceptance

    results = acceptance.run_all(
        seed=resolve_seed(args.seed), mem_mb=args.mem_mb, cache=args.cache,
        threads=args.threads, only=args.only,
    )
    overall = acceptance.overall_status(results)
    body = {"criteria": results, "overall": overall}
    out = _envelope("repro", args, {"only": args.only}, overall, body)
    lines = [acceptance.render_line(r) for r in results]
    lines.append(f"overall: {overall}")
    _emit(args, out, lines)
    return _status_exit(overall)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="bfsyz", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bfsyz {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fh-rank", help="rank certificate of one substitution-map slice")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--k", type=_nonnegative, required=True)
    _add_common(p, *_RANKING)
    p.set_defaults(handler=_cmd_fh_rank)

    p = sub.add_parser("gens", help="generators of the power ideal")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gens)

    p = sub.add_parser("betti", help="Betti table of a power-locus or power-ideal module")
    p.add_argument("--target", choices=["ix", "iab", "iab-pow"], required=True)
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--j", type=_positive, default=None, help="power for --target iab-pow")
    p.add_argument("--convention", choices=["total", "internal"], default="total")
    _add_common(p, *_RANKING, "--threads")
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser("reg", help="regularity of the power ideal, two routes")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--route", choices=["betti", "initial", "both"], default="both")
    _add_common(p, *_RANKING, "--threads")
    p.set_defaults(handler=_cmd_reg)

    p = sub.add_parser("initial-ideal", help="monomial model and Hilbert-function comparison")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--kmax", type=_nonnegative, default=None)
    _add_common(p, "--mode", "--seed", "--mem-mb")
    p.set_defaults(handler=_cmd_initial_ideal)

    p = sub.add_parser("minors-check", help="maximal minors against the kernel piece")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    _add_common(p, *_RANKING)
    p.set_defaults(handler=_cmd_minors_check)

    p = sub.add_parser("phi", help="linear syzygy matrix of the power generators")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("char-check", help="termwise character identities over a range")
    p.add_argument("--a-max", type=_positive, default=5)
    p.add_argument("--b-max", type=_positive, default=5)
    _add_common(p)
    p.set_defaults(handler=_cmd_char_check)

    p = sub.add_parser("hw-triple", help="highest-weight proportionality triple at a = b = 2")
    _add_common(p, "--cache", "--mem-mb")
    p.set_defaults(handler=_cmd_hw_triple)

    p = sub.add_parser("coker-hf", help="cokernel dimensions of the substitution maps")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--kmax", type=_nonnegative, required=True)
    _add_common(p, *_RANKING)
    p.set_defaults(handler=_cmd_coker_hf)

    p = sub.add_parser("conjecture-scan", help="regularity of ideal powers vs the predicted formula")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--jmax", type=_positive, required=True)
    _add_common(p, *_RANKING, "--threads")
    p.set_defaults(handler=_cmd_conjecture_scan)

    p = sub.add_parser("exactness", help="build and certify the explicit power resolution")
    p.add_argument("--a", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--window-hi", type=_nonnegative, default=None)
    _add_common(p, "--mode", "--seed", "--mem-mb")
    p.set_defaults(handler=_cmd_exactness)

    p = sub.add_parser("repro", help="run the acceptance suite and emit a pass/fail manifest")
    p.add_argument("--only", type=int, default=None, help="run a single criterion by number")
    # each criterion runs in its pinned mode, so repro takes no --mode
    _add_common(p, "--seed", "--cache", "--mem-mb", "--threads")
    p.set_defaults(handler=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            if args.out:
                _check_out(args.out)
            if "cache" in args:
                # one reading of --cache / BFSYZ_CACHE: a path that names a file is a usage error
                args.cache = cache_directory(args.cache)
            return args.handler(args)
        except (InconclusiveError, ResourceLimitError) as exc:
            report = {
                "command": args.subcommand,
                "status": "inconclusive",
                "reason": str(exc),
                "version": __version__,
            }
            # a failed write of the report is a usage error, as for any other report
            _emit(args, report)
            return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"bfsyz {args.subcommand}: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
