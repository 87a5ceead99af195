"""Benchmark the modular elimination kernel: one two-prime call against the
dense loop run once per prime; and the exact rank on tall matrices.

Every modular certificate ranks a matrix, given as its entries, modulo two
primes in one call of rank_mod_p_dense.  A matrix at most
SPARSE_ENTRY_DENSITY nonzero starts sparse: it is eliminated once modulo the
product of the primes, and only what is left once the rows fill in goes to
the dense loop, once per prime.  A denser matrix runs the dense loop whole,
once per prime.  The table times
that call on random matrices of several densities, names the route each
matrix takes, and sets it against two runs of the dense loop alone, one per
prime: where the ratio is below 1 the sparse start pays.  Both must give the
same rank on every matrix.

The second table times the exact rank, bareiss_rank_rows, on tall n x n/4
matrices drawn the same way at the same sizes and densities, with small
integer entries as in the package's blocks, given as they are and transposed.
The rank eliminates along the shorter side, with the columns in ascending
nonzero count; the last column times the elimination of the tall rows in
column order, which is what rref_rows runs, and the ratio sets the rank
against it.  All three must give the same rank.

The third table ranks the weight-0 block of each bench slice alpha_k
(fhmaps.foulkes_howe), the one block a rank of these slices eliminates,
three ways: modulo fhmaps.FULL_RANK_PRIME alone, which settles a full rank
in auto; modulo two drawn primes, a modular certificate; and exactly with
bareiss_rank_rows.  Each time includes the conversion its rank path makes
from the block's entries.  The slices are those of perfbench's fh-slices
workload.  All three must give the same rank.

Usage: python3 benchmarks/bench_modrank.py [--sizes 100,200,300]
       [--densities 0.02,0.1,0.15,0.2,0.25,0.3] [--repeats 3]
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from bfsyz.exactalg import _modp
from bfsyz.exactalg.matrix import (
    _echelon,
    _int_rows,
    _sparse_rows,
    _trusted_matrix,
    bareiss_rank_rows,
    draw_primes,
    mod_p_rank_sparse,
)
from bfsyz.exactalg.primes import distinct_random_primes
from bfsyz.fhmaps import FULL_RANK_PRIME, foulkes_howe


# the slices of perfbench's fh-slices workload (perfbench/workloads.py)
FH_SLICES = ((3, 4, 4), (2, 6, 4), (3, 4, 5))


def random_matrix(rng: random.Random, n: int, p: int, density: float) -> _modp.Coo:
    """An n x n matrix with each cell nonzero, a unit mod ``p``, with chance ``density``."""
    cells = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
    values = [rng.randrange(1, p) for _ in cells]
    ij = np.array(cells, dtype=np.intp).reshape(-1, 2)
    return _modp.Coo(ij[:, 0], ij[:, 1], np.array(values, dtype=np.int64), (n, n))


def random_rows(rng: random.Random, nrows: int, ncols: int, density: float) -> list[dict[int, int]]:
    """An nrows x ncols matrix as ``{col: value}`` rows, each cell nonzero, in
    -9..9, with chance ``density``."""
    return [
        {j: rng.choice((-1, 1)) * rng.randint(1, 9) for j in range(ncols) if rng.random() < density}
        for _ in range(nrows)
    ]


def transposed(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def best_time(fn, arr, repeats: int) -> tuple[float, int]:
    """Best time of ``fn`` on ``arr``, which it leaves as it is, and its result."""
    best = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(arr)
        best.append(time.perf_counter() - start)
    return min(best), result


def microbenchmark(sizes, densities, repeats: int, seed: int) -> None:
    rng = random.Random(seed)
    p, q = distinct_random_primes(rng, 2)
    print(f"rank_mod_p_dense at primes {p} and {q}, best of {repeats}; the kernel starts sparse "
          f"at density <= {_modp.SPARSE_ENTRY_DENSITY}")
    header = (f"{'n':>6} {'density':>8} {'route':>13} {'2 primes':>10} {'2 x dense loop':>15}"
              f" {'ratio':>7}")
    print(header)
    print("-" * len(header))
    for density in densities:
        for n in sizes:
            arr = random_matrix(rng, n, p, density)
            share = arr.values.size / n**2
            route = "sparse first" if share <= _modp.SPARSE_ENTRY_DENSITY else "dense"
            t_two, r_two = best_time(lambda a: _modp.rank_mod_p_dense(a, (p, q)), arr, repeats)
            t_loop, r_loop = best_time(
                lambda a: [_modp._rank_dense(_modp._residue_plane(a, r), r) for r in (p, q)], arr, repeats
            )
            if len({r_two, *r_loop}) != 1:
                raise SystemExit(
                    f"kernel paths disagree at n = {n}, density {density}: two-prime call "
                    f"{r_two}, dense loop per prime {r_loop}"
                )
            print(f"{n:>6} {share:>8.3f} {route:>13} {t_two:>9.4f}s {t_loop:>14.4f}s"
                  f" {t_two / t_loop:>6.2f}x")


def exact_microbenchmark(sizes, densities, repeats: int, seed: int) -> None:
    rng = random.Random(seed)
    print(f"bareiss_rank_rows on n x n/4 matrices with entries in -9..9, best of {repeats}; "
          "it eliminates along the shorter side")
    header = (f"{'n':>6} {'density':>8} {'rank':>5} {'tall':>10} {'transposed':>11}"
              f" {'tall rows in column order':>26} {'ratio':>7}")
    print(header)
    print("-" * len(header))
    for density in densities:
        for n in sizes:
            ncols = max(n // 4, 1)
            rows = random_rows(rng, n, ncols, density)
            wide = transposed(rows, ncols)
            share = sum(map(len, rows)) / (n * ncols)
            t_tall, r_tall = best_time(lambda a: bareiss_rank_rows(a, ncols), rows, repeats)
            t_wide, r_wide = best_time(lambda a: bareiss_rank_rows(a, n), wide, repeats)
            t_long, r_long = best_time(lambda a: len(_echelon(_int_rows(a), ncols)[0]), rows, repeats)
            if len({r_tall, r_wide, r_long}) != 1:
                raise SystemExit(
                    f"exact ranks disagree at n = {n}, density {density}: tall {r_tall}, "
                    f"transposed {r_wide}, tall rows in column order {r_long}"
                )
            print(f"{n:>6} {share:>8.3f} {r_tall:>5} {t_tall:>9.4f}s {t_wide:>10.4f}s"
                  f" {t_long:>25.4f}s {t_tall / t_long:>6.2f}x")


def slice_microbenchmark(slices, repeats: int, seed: int) -> None:
    primes = draw_primes(random.Random(seed))
    print(f"weight-0 blocks of the slices alpha_k, best of {repeats}")
    header = (f"{'a,b,k':>7} {'block':>11} {'density':>8} {'rank':>5} {'1 prime':>10}"
              f" {'2 primes':>10} {'bareiss':>10}")
    print(header)
    print("-" * len(header))
    for a, b, k in slices:
        block = foulkes_howe(a, b, k)
        nrows, ncols = block.shapes()[0]
        entries = block.entries(0)
        share = len(entries) / (nrows * ncols)
        t_one, r_one = best_time(lambda e: mod_p_rank_sparse(e, nrows, ncols, [FULL_RANK_PRIME]), entries, repeats)
        t_two, r_two = best_time(lambda e: mod_p_rank_sparse(e, nrows, ncols, primes), entries, repeats)
        t_exact, r_exact = best_time(
            lambda e: bareiss_rank_rows(_sparse_rows(_trusted_matrix(nrows, ncols, e)), ncols), entries, repeats
        )
        if len({r_one, r_two, r_exact}) != 1:
            raise SystemExit(
                f"ranks of the weight-0 block of alpha_{k} at (a, b) = ({a}, {b}) disagree: one prime "
                f"{r_one}, two primes {r_two}, bareiss {r_exact}"
            )
        print(f"{f'{a},{b},{k}':>7} {f'{nrows}x{ncols}':>11} {share:>8.3f} {r_one:>5}"
              f" {t_one * 1e3:>8.2f}ms {t_two * 1e3:>8.2f}ms {t_exact * 1e3:>8.2f}ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100,200,300")
    parser.add_argument("--densities", default="0.02,0.1,0.15,0.2,0.25,0.3")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    densities = [float(d) for d in args.densities.split(",") if d]
    microbenchmark(sizes, densities, args.repeats, args.seed)
    print()
    exact_microbenchmark(sizes, densities, args.repeats, args.seed)
    print()
    slice_microbenchmark(FH_SLICES, args.repeats, args.seed)


if __name__ == "__main__":
    main()
