"""Acceptance gate: the eleven pinned criteria, one pass/fail line each."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfsyz
from bfsyz import acceptance

PACKAGE = Path(bfsyz.__file__).parent


@pytest.mark.parametrize("number", [n for n, _, _ in acceptance.CRITERIA])
def test_criterion(number, capsys):
    result = acceptance.run_one(number)
    line = acceptance.render_line(result)
    with capsys.disabled():
        print(line)
    assert result["status"] == "pass", line


def test_overall_manifest_verifies():
    results = acceptance.run_all(only=2)
    assert acceptance.overall_status(results) == "verified"
    bad = [dict(r, status="fail") for r in results]
    assert acceptance.overall_status(bad) == "mismatch"
    undecided = [dict(r, status="inconclusive") for r in results]
    assert acceptance.overall_status(undecided) == "inconclusive"


def test_criterion_11_kernel_bases_keep_the_memory_budget(monkeypatch):
    budgets = []
    kernel = acceptance.blocked_kernel_basis

    def recording(blocks, col_labels, mem_mb=None):
        budgets.append(mem_mb)
        return kernel(blocks, col_labels, mem_mb)

    monkeypatch.setattr(acceptance, "blocked_kernel_basis", recording)
    assert acceptance.run_one(11, mem_mb=4000)["status"] == "pass"
    assert budgets and set(budgets) == {4000}


def test_a_mismatch_fails_under_python_O():
    # ``python -O`` strips assert statements; a wrong regularity must still fail
    code = (
        "from bfsyz import acceptance, homres\n"
        "homres.regularity = lambda table: -1\n"
        "r = acceptance.run_one(6)\n"
        "print(r['status'], r['details'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "fail (1,1) Betti route -1 != 1"


def test_package_has_no_assert_statements():
    # checks made with assert vanish under ``python -O``, so the package
    # raises its errors explicitly
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
