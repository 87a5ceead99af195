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

The fourth table is the crossover that sets matrix.EXACT_DIM_LIMIT, the
largest block side that auto ranks exactly: the exact rank, bareiss_rank_rows,
against one two-prime kernel call, each timed from the block's entries,
conversion included.  It runs on random n x n blocks of two kinds: Koszul-like,
entries +-1..3 with 1-3% of cells nonzero, and spanning-like, entries of 3 to
5 bits with 5-12% nonzero.  A rank is not run at a side where its time,
projected from its runs at the smaller sides, exceeds --cap seconds.  Random
sparse blocks fill in as they are eliminated, which costs Bareiss far more
than the kernel.  The fifth table therefore ranks the package's own blocks:
every block that the auto runs in PACKAGE_RUNS eliminate, all of them exactly
(the limit lifted), binned by their larger side.  Both ranks must agree on
every block.

Usage: python3 benchmarks/bench_modrank.py [--sizes 100,200,300]
       [--densities 0.02,0.1,0.15,0.2,0.25,0.3] [--repeats 3]
       [--sides 100,250,500,1000,1500,2000,2500] [--cap 5]
"""

from __future__ import annotations

import argparse
import math
import random
import time

import numpy as np

from bfsyz import homres
from bfsyz.exactalg import _modp, matrix
from bfsyz.exactalg.matrix import (
    _echelon,
    _int_rows,
    _rank_rows,
    _trusted_matrix,
    bareiss_rank_rows,
    draw_primes,
    mod_p_rank_sparse,
)
from bfsyz.exactalg.primes import distinct_random_primes
from bfsyz.fhmaps import FULL_RANK_PRIME, foulkes_howe


# the slices of perfbench's fh-slices workload (perfbench/workloads.py)
FH_SLICES = ((3, 4, 4), (2, 6, 4), (3, 4, 5))

# the crossover table's kinds of block: name, entry magnitudes, densities
BLOCK_KINDS = (
    ("Koszul-like", range(1, 4), (0.01, 0.03)),
    ("spanning-like", range(4, 32), (0.05, 0.12)),
)

# auto runs whose eliminated blocks the package-block table ranks: Koszul
# slabs (perfbench's koszul-betti at (2, 3), and (3, 3)) and spanning matrices
# (hilbert-reg's lead-term route at (4, 5), and (4, 6))
PACKAGE_RUNS = (
    ("Koszul", "power_locus_betti(2,3)", lambda: homres.power_locus_betti(2, 3, seed=1)),
    ("Koszul", "power_locus_betti(3,3)", lambda: homres.power_locus_betti(3, 3, seed=1)),
    ("spanning", "initial_ideal_regularity(4,5)",
     lambda: homres.initial_ideal_regularity(4, 5, rng=random.Random(1))),
    ("spanning", "initial_ideal_regularity(4,6)",
     lambda: homres.initial_ideal_regularity(4, 6, rng=random.Random(1))),
)

# the package-block table's bins of the larger block side
SIDE_BINS = (250, 500, 1000, 2000, 4000, 8000, 16000)


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
        t_exact, r_exact = best_time(lambda e: exact_rank(nrows, ncols, e), entries, repeats)
        if len({r_one, r_two, r_exact}) != 1:
            raise SystemExit(
                f"ranks of the weight-0 block of alpha_{k} at (a, b) = ({a}, {b}) disagree: one prime "
                f"{r_one}, two primes {r_two}, bareiss {r_exact}"
            )
        print(f"{f'{a},{b},{k}':>7} {f'{nrows}x{ncols}':>11} {share:>8.3f} {r_one:>5}"
              f" {t_one * 1e3:>8.2f}ms {t_two * 1e3:>8.2f}ms {t_exact * 1e3:>8.2f}ms")


def random_block(rng: random.Random, n: int, density: float, magnitudes) -> dict:
    """An n x n block as ``{(i, j): value}``: ``round(density * n * n)`` cells
    drawn at random, each +- a magnitude drawn from ``magnitudes``."""
    cells = rng.sample(range(n * n), round(density * n * n))
    return {divmod(c, n): rng.choice((-1, 1)) * rng.choice(magnitudes) for c in cells}


def exact_rank(nrows: int, ncols: int, entries: dict) -> int:
    """The exact rank as a blocked rank in auto takes it from a block's entries."""
    return bareiss_rank_rows(*_rank_rows(_trusted_matrix(nrows, ncols, entries)))


def projected(runs, n: int) -> float:
    """The time of a run at side ``n``, projected from the ``(side, seconds)``
    of the earlier ones: as the cube of the side, or as fast as the last
    two runs grew when that is faster."""
    if not runs:
        return 0.0
    (n1, t1), power = runs[-1], 3.0
    if len(runs) > 1 and runs[-2][1] > 0 and t1 > 0:
        n0, t0 = runs[-2]
        power = max(power, math.log(t1 / t0) / math.log(n1 / n0))
    return t1 * (n / n1) ** power


def crossover_microbenchmark(sides, repeats: int, seed: int, cap: float) -> None:
    rng = random.Random(seed)
    primes = draw_primes(rng)
    print(f"bareiss_rank_rows against one two-prime kernel call on random n x n blocks, from the "
          f"entries, best of {repeats}; '-' where the time projected from the smaller n "
          f"(see projected) is over {cap} s")
    header = f"{'kind':>13} {'n':>6} {'density':>8} {'rank':>5} {'2 primes':>10} {'bareiss':>10} {'ratio':>7}"
    print(header)
    print("-" * len(header))
    for kind, magnitudes, densities in BLOCK_KINDS:
        for density in densities:
            runs: dict = {"2 primes": [], "bareiss": []}  # (n, seconds) of each run
            for n in sides:
                entries = random_block(rng, n, density, magnitudes)
                ranks = {
                    "2 primes": lambda e: mod_p_rank_sparse(e, n, n, primes),
                    "bareiss": lambda e: exact_rank(n, n, e),
                }
                times, got = {}, set()
                for name, rank in ranks.items():
                    if projected(runs[name], n) > cap:
                        continue
                    times[name], r = best_time(rank, entries, repeats)
                    runs[name].append((n, times[name]))
                    got.add(r)
                if len(got) > 1:
                    raise SystemExit(f"ranks of a {kind} block at n = {n}, density {density} disagree: {got}")
                cells = [f"{times[name]:>9.4f}s" if name in times else f"{'-':>10}" for name in ranks]
                ratio = f"{times['bareiss'] / times['2 primes']:>6.2f}x" if len(times) == 2 else f"{'-':>7}"
                rank = f"{got.pop():>5}" if got else f"{'-':>5}"
                print(f"{kind:>13} {n:>6} {len(entries) / n**2:>8.3f} {rank} {' '.join(cells)} {ratio}")


def eliminated_blocks(run) -> list:
    """``(nrows, ncols, entries)`` of every block that ``run()`` eliminates,
    each ranked exactly: the limit is lifted while it runs."""
    seen = []
    rank_rows, limit = matrix._rank_rows, matrix.EXACT_DIM_LIMIT

    def spy(m, mem_mb=None):
        seen.append((m.nrows, m.ncols, m.entries))
        return rank_rows(m, mem_mb)

    matrix._rank_rows, matrix.EXACT_DIM_LIMIT = spy, float("inf")
    try:
        run()
    finally:
        matrix._rank_rows, matrix.EXACT_DIM_LIMIT = rank_rows, limit
    return seen


def package_microbenchmark(runs, repeats: int, seed: int) -> None:
    primes = draw_primes(random.Random(seed))
    print(f"the blocks that auto runs eliminate, ranked both ways from the entries, best of {repeats}; "
          f"EXACT_DIM_LIMIT = {matrix.EXACT_DIM_LIMIT}")
    header = (f"{'kind':>9} {'larger side':>12} {'blocks':>7} {'density':>8} {'2 primes':>10}"
              f" {'bareiss':>10} {'ratio':>7}")
    print(header)
    print("-" * len(header))
    bins: dict = {}
    for kind, name, run in runs:
        for nrows, ncols, entries in eliminated_blocks(run):
            t_mod, r_mod = best_time(lambda e: mod_p_rank_sparse(e, nrows, ncols, primes), entries, repeats)
            t_exact, r_exact = best_time(lambda e: exact_rank(nrows, ncols, e), entries, repeats)
            if r_mod != r_exact:
                raise SystemExit(f"a {nrows} x {ncols} block of {name}: two primes {r_mod}, bareiss {r_exact}")
            side = max(nrows, ncols)
            edge = next((e for e in SIDE_BINS if side <= e), side)
            acc = bins.setdefault((kind, edge), [0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] = max(acc[1], len(entries) / (nrows * ncols))
            acc[2] += t_mod
            acc[3] += t_exact
    for (kind, edge), (count, density, t_mod, t_exact) in sorted(bins.items()):
        print(f"{kind:>9} {f'<= {edge}':>12} {count:>7} {density:>8.3f} {t_mod:>9.4f}s {t_exact:>9.4f}s"
              f" {t_exact / t_mod:>6.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100,200,300")
    parser.add_argument("--densities", default="0.02,0.1,0.15,0.2,0.25,0.3")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sides", default="100,250,500,1000,1500,2000,2500")
    parser.add_argument("--cap", type=float, default=5.0)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    densities = [float(d) for d in args.densities.split(",") if d]
    microbenchmark(sizes, densities, args.repeats, args.seed)
    print()
    exact_microbenchmark(sizes, densities, args.repeats, args.seed)
    print()
    slice_microbenchmark(FH_SLICES, args.repeats, args.seed)
    print()
    crossover_microbenchmark([int(s) for s in args.sides.split(",") if s], args.repeats, args.seed, args.cap)
    print()
    package_microbenchmark(PACKAGE_RUNS, args.repeats, args.seed)


if __name__ == "__main__":
    main()
