"""Benchmark the modular elimination kernel: compiled extension vs pure Python.

Two views of the same question.  The microbenchmark times rank_mod_p_dense on
random matrices of several densities with both backends loaded side by side in
one process, and the pure-Python twin's dense loop alone next to them: at low
density the twin eliminates sparse rows first, so the table shows where that
beats its dense loop and where the compiled (dense) kernel still wins.  The
end-to-end run times a fixed rank certification workload in subprocesses, once
as installed and once with BFSYZ_PURE=1 forcing the fallback.

Usage: python3 benchmarks/bench_modrank.py [--sizes 100,200,300]
       [--densities 0.02,0.05,0.3] [--repeats 3]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

from bfsyz.exactalg import _fallback
from bfsyz.exactalg.primes import random_prime

try:
    from bfsyz.exactalg import _speedups
except ImportError:
    _speedups = None

END_TO_END = (
    "import random, time; "
    "from bfsyz.fhmaps import fh_rank_report; "
    "from bfsyz.exactalg import KERNEL_BACKEND; "
    "t = time.perf_counter(); "
    "r = fh_rank_report(2, 4, 4, 'modular', rng=random.Random(0)); "
    "assert r['rank'] == 495 and r['status'] == 'ok'; "
    "print(f'{KERNEL_BACKEND} {time.perf_counter() - t:.4f}')"
)


def random_matrix(rng: random.Random, n: int, p: int, density: float) -> np.ndarray:
    arr = np.zeros((n, n), dtype=np.uint64)
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                arr[i, j] = rng.randrange(1, p)
    return arr


def time_backend(fn, arr: np.ndarray, p: int, repeats: int) -> tuple[float, int]:
    best = []
    rank = None
    for _ in range(repeats):
        start = time.perf_counter()
        rank = fn(arr.copy(), p)
        best.append(time.perf_counter() - start)
    return min(best), rank


def microbenchmark(sizes, densities, repeats: int, seed: int) -> None:
    rng = random.Random(seed)
    p = random_prime(rng)
    print(f"rank_mod_p_dense, prime {p}, best of {repeats}; the twin starts sparse "
          f"at density <= {_fallback.SPARSE_ENTRY_DENSITY}")
    header = f"{'n':>6} {'density':>8} {'twin':>10} {'dense loop':>11} {'compiled':>10} {'twin/compiled':>14}"
    print(header)
    print("-" * len(header))
    for density in densities:
        for n in sizes:
            arr = random_matrix(rng, n, p, density)
            t_py, r_py = time_backend(_fallback.rank_mod_p_dense, arr, p, repeats)
            t_loop, r_loop = time_backend(_fallback._rank_dense, arr, p, repeats)
            if r_loop != r_py:
                raise SystemExit(f"twin paths disagree at n = {n}, density {density}: {r_py} vs {r_loop}")
            row = f"{n:>6} {density:>8} {t_py:>9.4f}s {t_loop:>10.4f}s"
            if _speedups is None:
                print(f"{row} {'absent':>10}")
                continue
            t_c, r_c = time_backend(_speedups.rank_mod_p_dense, arr, p, repeats)
            if r_py != r_c:
                raise SystemExit(f"backends disagree at n = {n}, density {density}: {r_py} vs {r_c}")
            print(f"{row} {t_c:>9.4f}s {t_py / t_c:>13.1f}x")


def end_to_end() -> None:
    print("\nfull rank certification of the square 495-dimensional slice, modular mode")
    for label, env_extra in (("installed", {}), ("BFSYZ_PURE=1", {"BFSYZ_PURE": "1"})):
        env = dict(os.environ, **env_extra)
        proc = subprocess.run(
            [sys.executable, "-c", END_TO_END], env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"end-to-end run failed under {label}:\n{proc.stderr}")
        backend, elapsed = proc.stdout.split()
        print(f"  {label:>12}: backend {backend:<8} {float(elapsed):8.4f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100,200,300")
    parser.add_argument("--densities", default="0.02,0.05,0.3")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-end-to-end", action="store_true")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    densities = [float(d) for d in args.densities.split(",") if d]
    microbenchmark(sizes, densities, args.repeats, args.seed)
    if not args.skip_end_to_end:
        end_to_end()


if __name__ == "__main__":
    main()
