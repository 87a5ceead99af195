"""Every name a package module imports is read there, or is a from-imported
copy that the per-layer tracer must rebind (``REQUIRED_COPIES`` in
perfbench/spans.py)."""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def imported_but_unread(tree: ast.Module) -> set[str]:
    """The names bound by the module's imports that no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_unread_import_is_a_required_copy():
    modules = sorted(path for path in (SRC / "bfsyz").rglob("*.py") if path.name != "__init__.py")
    assert modules
    unread = {}
    for path in modules:
        name = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for attr in imported_but_unread(ast.parse(path.read_text(encoding="utf-8"))):
            unread[(name, attr)] = path
    extra = sorted(set(unread) - set(spans.REQUIRED_COPIES))
    assert not extra, f"imported but never read: {extra}"
