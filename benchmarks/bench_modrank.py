"""Benchmark the modular elimination kernel: sparse first against its dense
loop, and one two-prime call against two one-prime calls.

Times rank_mod_p_dense on random matrices of several densities, and the
kernel's dense loop alone next to it: at low density the kernel eliminates
sparse rows first, so the table shows where that beats the dense loop.  It
also times one call with two primes, as every modular certificate makes,
against one call per prime: at low density the two primes share one sparse
elimination modulo their product.  Every path must give the same rank on
every matrix.

Usage: python3 benchmarks/bench_modrank.py [--sizes 100,200,300]
       [--densities 0.02,0.05,0.3] [--repeats 3]
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from bfsyz.exactalg import _modp
from bfsyz.exactalg.primes import distinct_random_primes


def random_matrix(rng: random.Random, n: int, p: int, density: float) -> np.ndarray:
    arr = np.zeros((n, n), dtype=np.uint64)
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                arr[i, j] = rng.randrange(1, p)
    return arr


def best_time(fn, arr: np.ndarray, repeats: int) -> tuple[float, int]:
    """Best time of ``fn`` on fresh copies of ``arr``, and its result."""
    best = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(arr.copy())
        best.append(time.perf_counter() - start)
    return min(best), result


def microbenchmark(sizes, densities, repeats: int, seed: int) -> None:
    rng = random.Random(seed)
    p, q = distinct_random_primes(rng, 2)
    print(f"rank_mod_p_dense, primes {p} and {q}, best of {repeats}; the kernel starts sparse "
          f"at density <= {_modp.SPARSE_ENTRY_DENSITY}")
    header = (f"{'n':>6} {'density':>8} {'kernel':>10} {'dense loop':>11} {'kernel/loop':>12}"
              f" {'2 primes':>10} {'2 x 1 prime':>12} {'2/(2x1)':>8}")
    print(header)
    print("-" * len(header))
    for density in densities:
        for n in sizes:
            arr = random_matrix(rng, n, p, density)
            t_kernel, r_kernel = best_time(lambda a: _modp.rank_mod_p_dense(a, (p,)), arr, repeats)
            t_loop, r_loop = best_time(lambda a: _modp._rank_dense(a, p), arr, repeats)
            t_two, r_two = best_time(lambda a: _modp.rank_mod_p_dense(a, (p, q)), arr, repeats)
            t_each, r_each = best_time(
                lambda a: (_modp.rank_mod_p_dense(a.copy(), (p,)), _modp.rank_mod_p_dense(a, (q,))), arr, repeats
            )
            if len({r_kernel, r_loop, r_two, *r_each}) != 1:
                raise SystemExit(
                    f"kernel paths disagree at n = {n}, density {density}: kernel {r_kernel}, "
                    f"dense loop {r_loop}, two primes {r_two}, one prime each {r_each}"
                )
            print(f"{n:>6} {density:>8} {t_kernel:>9.4f}s {t_loop:>10.4f}s {t_kernel / t_loop:>11.2f}x"
                  f" {t_two:>9.4f}s {t_each:>11.4f}s {t_two / t_each:>7.2f}x")


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
