"""The per-layer tracer of perfbench/spans.py can still wrap the package.

``spans.traced`` rebinds every traced function, including the from-imported
copies listed in ``REQUIRED_COPIES``, and fails when one is missing; a
rename in the package that drops such a name breaks ``run.py --trace 1``.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from bfsyz import fhmaps, homres, polyring  # noqa: E402
from bfsyz.exactalg import matrix  # noqa: E402
from bfsyz.fhmaps import power_ideal  # noqa: E402


def test_traced_wraps_every_required_copy_and_restores_it():
    originals = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr in spans.REQUIRED_COPIES}
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for mod, attr in spans.REQUIRED_COPIES:
            assert getattr(sys.modules[mod], attr).bench_original is originals[(mod, attr)]
        power_ideal(2, 2).graded_piece(3)
    assert {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr in originals} == originals
    assert matrix.rref_rows is homres.rref_rows is polyring.rref_rows
    names = {rec["name"] for rec in tracer.records}
    assert {"polyring.piece", "polyring.spanning", "exactalg.rref"} <= names
    assert all(rec["job"] is None and rec["end"] is not None for rec in tracer.records)


def test_traced_slice_ranks_cover_the_fh_slices_primary_layers(tmp_path):
    # a cold then a warm modular slice rank, as the fh-slices workload runs
    # them: the blocks are built, validated, written and read inside the
    # rank, and every layer that --trace 1 requires of fh-slices must see a call
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for _ in ("cold", "warm"):
            fhmaps.fh_rank_report(2, 3, 3, "modular", rng=random.Random(1), cache=str(tmp_path))
    names = {rec["name"] for rec in tracer.records}
    assert {
        "exactalg.matrix.init", "exactalg.io.load", "exactalg.io.dump",
        "exactalg.kernel", "fhmaps.build",
    } <= names
    values = spans.layer_metrics(tracer.records)
    assert [name for name in workloads.PRIMARY_LAYERS["fh-slices"] if not values[name]] == []
