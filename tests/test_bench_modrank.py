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
