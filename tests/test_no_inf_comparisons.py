"""No comparison against INF, the float valuation of 0, outside the functions
allowed below: a valuation known to be finite needs no test, and one that
may be infinite compares correctly with >= and min as it stands.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicasai"
# (file stem, enclosing function): why that function compares against INF
ALLOWED = {
    ("hilbert", "_v_str"): 'prints an infinite valuation as "inf" in the JSON report',
}


def inf_comparisons(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each comparison with the name INF as an operand."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Name) and x.id == "INF" or isinstance(x, ast.Attribute) and x.attr == "INF"
            for x in (node.left, *node.comparators)
        ):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_an_inf_comparison():
    source = "x = v == INF\ndef f(v):\n    return v >= 0 or exactnum.INF is v\ndef g(v):\n    return min(v, INF)\n"
    assert inf_comparisons(source) == [(1, None), (3, "f")]


def test_no_inf_comparison_outside_the_allowed_functions():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {
        (path.stem, func): f"{path.name}:{line}"
        for path in files
        for line, func in inf_comparisons(path.read_text())
    }
    assert {k: v for k, v in found.items() if k not in ALLOWED} == {}
    # an allowed function that no longer compares against INF leaves a stale entry
    assert set(ALLOWED) <= set(found)
