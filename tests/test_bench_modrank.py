"""The kernel microbenchmark runs at one tiny size, so it keeps up with the kernel's internals."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_modrank.py"


def test_microbenchmark_runs_at_a_tiny_size(capsys):
    spec = importlib.util.spec_from_file_location("bench_modrank", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.microbenchmark([12], [0.1, 0.6], 1, 0)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5, lines
    assert "sparse first" in lines[3] and lines[4].split()[2] == "dense", lines
