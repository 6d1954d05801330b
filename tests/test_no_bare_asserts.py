"""No check in the package may live in a bare assert: python -O strips them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicasai"


def test_no_bare_assert_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
