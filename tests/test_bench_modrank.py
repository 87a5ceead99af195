"""The kernel, exact-rank and slice-block microbenchmarks run at tiny sizes, so they keep up with the engines' internals."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_modrank.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_modrank", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_microbenchmark_runs_at_a_tiny_size(capsys):
    bench = load_bench()
    bench.microbenchmark([12], [0.1, 0.6], 1, 0)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5, lines
    assert "sparse first" in lines[3] and lines[4].split()[2] == "dense", lines


def test_exact_microbenchmark_runs_at_tiny_sizes(capsys):
    bench = load_bench()
    bench.exact_microbenchmark([12, 20], [0.3, 1.0], 1, 0)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7, lines
    # a full 20 x 5 matrix: the tall, transposed and column-order ranks agree on 5
    assert lines[-1].split()[:3] == ["20", "1.000", "5"], lines


def test_slice_microbenchmark_runs_on_the_smallest_bench_slice(capsys):
    bench = load_bench()
    bench.slice_microbenchmark([(3, 4, 4)], 1, 0)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4, lines
    # the 86 x 86 weight-0 block has full rank by every route
    assert lines[-1].split()[:4] == ["3,4,4", "86x86", "0.330", "86"], lines


def test_crossover_microbenchmark_runs_at_tiny_sides(capsys):
    bench = load_bench()
    bench.crossover_microbenchmark([12, 24], 1, 0, 5.0)
    lines = capsys.readouterr().out.splitlines()
    # a header of three lines, then both sides at the two densities of each kind
    assert len(lines) == 3 + 2 * 2 * 2, lines
    assert [line.split()[:2] for line in lines[3:5]] == [["Koszul-like", "12"], ["Koszul-like", "24"]], lines
    assert lines[-1].split()[:2] == ["spanning-like", "24"], lines
    # no time projected from 12 to 24 is near the cap, so every rank ran
    assert all("-" not in line.split()[3:] for line in lines[3:]), lines


def test_projected_time_grows_at_least_as_the_cube():
    bench = load_bench()
    assert bench.projected([], 100) == 0.0
    assert bench.projected([(100, 1.0)], 200) == 8.0
    # runs that grew as the fifth power are projected on at that rate
    assert bench.projected([(100, 1.0), (200, 32.0)], 400) == 1024.0


def test_package_microbenchmark_ranks_the_blocks_of_a_small_run(capsys):
    from bfsyz import homres
    from bfsyz.exactalg import matrix

    bench = load_bench()
    runs = [("Koszul", "power_locus_betti(2,2)", lambda: homres.power_locus_betti(2, 2, seed=1))]
    bench.package_microbenchmark(runs, 1, 0)
    lines = capsys.readouterr().out.splitlines()
    # every block of (2, 2) has a side of at most 250
    assert len(lines) == 4, lines
    assert lines[-1].split()[:3] == ["Koszul", "<=", "250"], lines
    # the limit is back in place
    assert matrix.EXACT_DIM_LIMIT == 2000
