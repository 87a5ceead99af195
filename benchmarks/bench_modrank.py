"""Benchmark the modular elimination kernel: sparse first against its dense loop.

Times rank_mod_p_dense on random matrices of several densities, and the
kernel's dense loop alone next to it: at low density the kernel eliminates
sparse rows first, so the table shows where that beats the dense loop.  Both
paths must give the same rank on every matrix.

Usage: python3 benchmarks/bench_modrank.py [--sizes 100,200,300]
       [--densities 0.02,0.05,0.3] [--repeats 3]
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from bfsyz.exactalg import _modp
from bfsyz.exactalg.primes import random_prime


def random_matrix(rng: random.Random, n: int, p: int, density: float) -> np.ndarray:
    arr = np.zeros((n, n), dtype=np.uint64)
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                arr[i, j] = rng.randrange(1, p)
    return arr


def best_time(fn, arr: np.ndarray, p: int, repeats: int) -> tuple[float, int]:
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
    print(f"rank_mod_p_dense, prime {p}, best of {repeats}; the kernel starts sparse "
          f"at density <= {_modp.SPARSE_ENTRY_DENSITY}")
    header = f"{'n':>6} {'density':>8} {'kernel':>10} {'dense loop':>11} {'kernel/loop':>12}"
    print(header)
    print("-" * len(header))
    for density in densities:
        for n in sizes:
            arr = random_matrix(rng, n, p, density)
            t_kernel, r_kernel = best_time(_modp.rank_mod_p_dense, arr, p, repeats)
            t_loop, r_loop = best_time(_modp._rank_dense, arr, p, repeats)
            if r_loop != r_kernel:
                raise SystemExit(f"kernel paths disagree at n = {n}, density {density}: {r_kernel} vs {r_loop}")
            print(f"{n:>6} {density:>8} {t_kernel:>9.4f}s {t_loop:>10.4f}s {t_kernel / t_loop:>11.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100,200,300")
    parser.add_argument("--densities", default="0.02,0.05,0.3")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    densities = [float(d) for d in args.densities.split(",") if d]
    microbenchmark(sizes, densities, args.repeats, args.seed)


if __name__ == "__main__":
    main()
