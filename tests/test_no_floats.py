"""No floating point in the package: no float literal and no float( call,
apart from INF = float("inf"), the valuation of 0, in exactnum.  Every
number the package prints is exact, so a float anywhere else is a value
rounded in silence.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicasai"
# (file stem, the name the float is bound to): why that float is there
ALLOWED = {
    ("exactnum", "INF"): "the valuation of 0, compared with >= and min against int valuations",
}


def floats(source: str) -> list[tuple[int, str | None]]:
    """(line, owner) of each float literal and float( call, the owner being
    the name a one-target assignment binds, else the enclosing function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            owner = node.targets[0].id
        if (
            isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        ):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_floats():
    source = 'x = 0.5\nINF = float("inf")\ndef f(v):\n    return v * 1e3 + 2j\ny, z = 1, "1.5"\n'
    assert floats(source) == [(1, "x"), (2, "INF"), (4, "f"), (4, "f")]


def test_no_float_outside_exactnum_inf():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {(path.stem, owner): f"{path.name}:{line}" for path in files for line, owner in floats(path.read_text())}
    assert {k: v for k, v in found.items() if k not in ALLOWED} == {}
    # an allowed float that is gone leaves a stale entry
    assert set(ALLOWED) <= set(found)
