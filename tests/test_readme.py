"""The README's Library example runs as printed and gives the values its comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
    assert values == [True, {(0, 3): 7, (1, 4): 10, (2, 5): 5, (3, 6): 1}, 5, "verified"]
