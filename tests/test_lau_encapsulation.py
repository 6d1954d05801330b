"""Private integer forms stay in their modules.

No module of the package but exactnum, and no demo, may write a Lau's
coefficients: assign or delete .terms (or an entry of it), or touch the
private integer form _nums / _den.  A Lau is shared by memos and caches
(inverse_l_factor, _root_factors, _y_value_from_data, complete_homog), so
one written in place would change every later result that reads it.

Likewise no module but padicgrp, and no demo or test, may read or write a
Mat2's integer block _xy / _d: other modules read it through
Mat2.int_block() and build one through Mat2.from_ints, which keep the
block canonical, so equality and hashing stay tuple comparisons.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRIVATE = {"_nums", "_den"}
MAT2_PRIVATE = {"_xy", "_d"}


def private_uses(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each attribute access to one of names."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and node.attr in names]


def lau_writes(source: str) -> list[tuple[int, str]]:
    """(line, what) of each assignment to .terms or .terms[...] and each use
    of a private integer field of a Lau."""
    found = private_uses(source, PRIVATE)
    for node in ast.walk(ast.parse(source)):
        targets = {ast.Assign: "targets", ast.AugAssign: "target", ast.AnnAssign: "target", ast.Delete: "targets"}
        if type(node) in targets:
            written = getattr(node, targets[type(node)])
            for t in written if isinstance(written, list) else [written]:
                t = t.value if isinstance(t, ast.Subscript) else t
                if isinstance(t, ast.Attribute) and t.attr == "terms":
                    found.append((node.lineno, "terms"))
    return sorted(found)


def test_scan_finds_every_kind_of_write():
    source = "f.terms = {}\nf.terms[e] = 1\ndel g.terms[e]\nf.terms[e] += c\nn = f._nums\nf._den = 2\nx = f.terms[e]\n"
    assert lau_writes(source) == [(1, "terms"), (2, "terms"), (3, "terms"), (4, "terms"), (5, "_nums"), (6, "_den")]


def test_only_exactnum_writes_lau_coefficients():
    files = sorted((ROOT / "src" / "padicasai").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    found = {
        f"{path.relative_to(ROOT)}:{line}": what
        for path in files
        if path.name != "exactnum.py"
        for line, what in lau_writes(path.read_text())
    }
    assert found == {}


def test_scan_finds_every_use_of_the_mat2_block():
    source = "xy = g._xy\ng._d = 2\nd = g.int_block()[1]\nfor n in m._xy: pass\n"
    assert sorted(private_uses(source, MAT2_PRIVATE)) == [(1, "_xy"), (2, "_d"), (4, "_xy")]


def test_only_padicgrp_uses_the_mat2_block():
    files = [
        path
        for folder in (ROOT / "src" / "padicasai", ROOT / "demos", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name != "padicgrp.py"
    ]
    found = {
        f"{path.relative_to(ROOT)}:{line}": what
        for path in files
        for line, what in private_uses(path.read_text(), MAT2_PRIVATE)
    }
    assert found == {}
