"""Benchmark of bfsyz: certified workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, with whichever kernel backend that gives (nothing is
built).  A run is closed-loop and single-threaded: it runs passes over the
workload's full job list, each in a fresh worker process, one after another:
at least three, and more while another pass still fits in ``--seconds``.
Every job is checked against closed forms from the paper (see
``workloads.py``).  On a shared 2-CPU host the speed of a fixed Python loop
drifts by up to 1.75x over tens of seconds to minutes, so a pass covers a
whole job list and timings are medians over passes.

Seeds: every library seed is derived from ``--seed``.  Pass 2 runs at a
second seed and must give the same verdicts and proof strengths; all other
passes must give byte-identical reports (sha256 of the canonical JSON), and
so must jobs that repeat one call at one seed (a slice ranked cold and warm).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median time from launching a worker to its ``ready``, over the
passes and four launches that only set up),
``peak_rss_mb`` (median worker peak RSS), ``exact_share`` (share of moded
values certified exact) and ``verified_share`` (share of jobs that verify).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``spans.py``, medians over the traced passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run facts, samples and the spans
are kept under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_PROBES = 4  # extra launches that only set up, so setup_s is a median of 7+
SECOND_SEED_PASS = 2
DEADLINE_S = 170  # a run must end within 180 s
# settings a caller's shell could use to change a workload
CLEARED_ENV = ("BFSYZ_CACHE", "BFSYZ_SEED", "BFSYZ_MEM_MB", "BFSYZ_PURE", "PYTHONPATH")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    # keep numpy's BLAS pool from starting threads: the workloads are single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workload, seed, pass_no, traced, work, spans_file, deadline, probe=False) -> dict:
    """Run one pass in a fresh worker; with ``probe`` the worker only sets up."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--pass", str(pass_no), "--trace", str(int(traced)),
        "--work", str(work), "--spans", str(spans_file),
    ] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or code != 0 or not (lines or probe):
        raise BenchError(f"pass {pass_no} worker failed (exit {code})")
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = setup_s
    return result


def count_failures(passes) -> list:
    """(pass, job id, reason) for every job that fails a check."""
    failures = []
    reports = {}  # (seed, seed key) -> digest
    strengths = {}  # job id -> (exact, moded)
    for p in passes:
        for job in p["jobs"]:
            if job["problems"]:
                failures.append((p["pass"], job["id"], "; ".join(job["problems"])))
                continue
            # one call at one seed gives one report: across passes, and between
            # jobs that repeat a call (a slice ranked cold, then warm)
            if reports.setdefault((p["seed"], job["seed_key"]), job["digest"]) != job["digest"]:
                failures.append((p["pass"], job["id"], "report differs from an earlier one at its seed"))
            # the second seed must certify the same values at the same strength
            strength = (job["exact"], job["moded"])
            if strengths.setdefault(job["id"], strength) != strength:
                failures.append((p["pass"], job["id"], "proof strength differs from an earlier pass"))
    return failures


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bfsyz").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_facts(passes) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **passes[0]["facts"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def end_to_end(passes, setups, failures, attempted) -> dict:
    exact = sum(j["exact"] for p in passes for j in p["jobs"])
    moded = sum(j["moded"] for p in passes for j in p["jobs"])
    failed_jobs = {(p, j) for p, j, _ in failures}
    n = len(passes)
    return {  # name -> (value, unit, sample count)
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", n),
        "exact_share": (exact / moded if moded else 0.0, "ratio", moded),
        "verified_share": (1 - len(failed_jobs) / attempted, "ratio", attempted),
    }


def per_layer(passes, spans_file, workload) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced passes) and coverage problems."""
    by_pass = {}
    with spans_file.open() as fh:
        for line in fh:
            rec = json.loads(line)
            by_pass.setdefault(rec.pop("pass"), []).append(rec)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    samples = [spans.layer_metrics(by_pass.get(p["pass"], [])) for p in traced]
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
    )
    problems = [
        f"{name} is 0 on {workload}, its primary workload"
        for name in workloads.PRIMARY_LAYERS[workload] if not values[name]
    ]
    if workload in workloads.UNCACHED:
        problems += [
            f"{name} is {values[name]} on uncached {workload}"
            for name in values if name.startswith("exactalg.io.") and values[name]
        ]
    return {
        name: (values[name], unit, len(traced)) for name, unit, _ in spans.LAYER_METRICS
    }, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bfsyz" / "__init__.py").is_file():
        print(f"error: no bfsyz sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    work = ROOT / ".perfbench_work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = work / f"{stem}.spans.jsonl"
    spans_file.unlink(missing_ok=True)
    spans_file.touch()

    passes = []
    try:
        probes = [
            run_pass(args.workload, args.seed, -1, False, tmp, spans_file, deadline, probe=True)
            for _ in range(SETUP_PROBES)
        ]
        last = 0.0
        while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= args.seconds:
            k = len(passes)
            seed = args.seed + 1 if k == SECOND_SEED_PASS else args.seed
            traced = bool(args.trace) and k % 2 == 1
            t0 = time.perf_counter()
            passes.append(run_pass(args.workload, seed, k, traced, tmp, spans_file, deadline))
            last = time.perf_counter() - t0
            p = passes[-1]
            print(f"pass {k} seed {seed} {'traced' if traced else 'untraced'}: "
                  f"wall {p['wall_s']:.3f} s, setup {p['setup_s']:.3f} s, "
                  f"rss {p['peak_rss_mb']:.1f} MB", flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes + passes]

    attempted = sum(len(p["jobs"]) for p in passes)
    failures = count_failures(passes)
    for pass_no, jid, reason in failures:
        print(f"FAILED pass {pass_no} {jid}: {reason}", file=sys.stderr)
    if args.trace:
        metrics, problems = per_layer(passes, spans_file, args.workload)
    else:
        metrics, problems = end_to_end(passes, setups, failures, attempted), []
        spans_file.unlink()
    for problem in problems:
        print(f"COVERAGE {problem}", file=sys.stderr)

    facts = run_facts(passes)
    failed = len({(p, j) for p, j, _ in failures})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "setup_samples": setups, "passes": passes,
        "failures": failures, "coverage_problems": problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (work / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("facts " + json.dumps(facts))
    width = max(len(k) for k in metrics)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<5}  (n={n})")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
