"""Properties of the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgesat"


def test_no_assert_statements():
    # `python -O` strips assert statements; correctness checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and found == []
