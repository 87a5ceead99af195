"""One pass of a benchmark workload, in a fresh process.

The process sets up (interpreter start, ``import bfsyz``, backend
resolution, a fresh temporary cache directory), prints ``ready``, then runs
the workload's jobs one after another and prints one JSON line: per-job
digests and verdicts, the summed job time and the process's peak RSS.  With
``--trace 1`` the jobs run under the span wrappers and the spans are appended
to ``--spans`` as JSON lines.  ``run.py`` starts this script; it is not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bfsyz
import numpy

import spans
import workloads


def run_jobs(jobs, seed: int, cache: str, tracer) -> list:
    results = []
    for job in jobs:
        lib_seed = workloads.job_seed(seed, job.seed_key)
        rec = None
        if tracer is not None:
            tracer.job = job.id
            rec = tracer.begin("job")
        error = None
        t0 = time.perf_counter()
        try:
            result = job.run(lib_seed, cache)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            error = exc
        seconds = time.perf_counter() - t0
        if rec is not None:
            tracer.end(rec)
        if error is None:
            try:
                outcome = job.check(result)
            except Exception as exc:  # so is a report the check cannot read
                error = exc
        if error is not None:
            traceback.print_exception(error)
            outcome = workloads.Outcome(None, [], [f"{type(error).__name__}: {error}"])
        results.append({
            "id": job.id,
            "seed_key": job.seed_key,
            "seconds": seconds,
            "digest": workloads.digest(outcome.report),
            "problems": outcome.problems,
            "exact": sum(m == "exact" for m in outcome.modes),
            "moded": len(outcome.modes),
        })
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_no", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="directory for the temporary cache")
    ap.add_argument("--spans", required=True, help="JSONL file the spans are appended to")
    ap.add_argument("--probe", action="store_true", help="exit once set up, running no job")
    args = ap.parse_args(argv)

    cache = tempfile.mkdtemp(prefix="cache-", dir=args.work)
    try:
        jobs = workloads.jobs(args.workload)
        print("ready", flush=True)
        if args.probe:
            return 0
        if args.trace:
            tracer = spans.Tracer()
            with spans.traced(tracer):
                results = run_jobs(jobs, args.seed, cache, tracer)
        else:
            tracer = None
            results = run_jobs(jobs, args.seed, cache, None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    if tracer is not None:
        with Path(args.spans).open("a") as fh:
            for rec in tracer.records:
                fh.write(json.dumps({"pass": args.pass_no, **rec}) + "\n")
    print(json.dumps({
        "pass": args.pass_no,
        "seed": args.seed,
        "traced": bool(args.trace),
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
        "facts": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "kernel_backend": bfsyz.KERNEL_BACKEND,
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
