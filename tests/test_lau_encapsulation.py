"""Private integer forms stay in their modules.

No module of the package but exactnum, and no demo, may write a Lau's
coefficients: assign or delete .terms (or an entry of it), or touch the
private integer form _nums / _den.  A Lau is shared by the memos
(euler_poly, _shintani, _y_value_from_data), so one written in place would
change every later result that reads it.

For the same reason no module but heckealg, and no demo or test, may write
an EulerPoly's coefficient list: euler_poly shares one instance per
(kind, p), which keeps the values derived from coeffs.  Assigning .coeffs,
an item or slice of it, or calling a list-mutating method on it is a write.

Likewise no module but padicgrp, and no demo or test, may read or write a
Mat2's integer block _xy / _d: other modules read it through
Mat2.int_block() and build one through Mat2.from_ints, which keep the
block canonical, so equality and hashing stay tuple comparisons.

And no module but whitzeta, and no demo, may write a SchwartzFn's .cells or
.level: the constructor writes a function at its coarsest level, so
equality is a comparison of (p, level, cells).  In the tests the one write
is raw_writing in test_whitzeta, the differential oracle of that writing.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRIVATE = {"_nums", "_den"}
MAT2_PRIVATE = {"_xy", "_d"}
LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse", "__setitem__", "__delitem__"}
DICT_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}


@lru_cache(maxsize=None)
def nodes(source: str) -> tuple:
    """Every node of the source's tree: each file is parsed and walked once
    for all the scans below."""
    return tuple(ast.walk(ast.parse(source)))


def private_uses(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each attribute access to one of names."""
    return [(node.lineno, node.attr) for node in nodes(source) if isinstance(node, ast.Attribute) and node.attr in names]


def attribute_writes(source: str, attr: str, mutators: set[str] = frozenset()) -> list[tuple[int, str]]:
    """(line, attr) of each assignment or deletion of .attr or .attr[...],
    and of each call .attr.m(...) with m in mutators."""
    found = []
    for node in nodes(source):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            node, stored = node.value, True
        else:
            stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in mutators:
            node, stored = node.func.value, True
        if stored and isinstance(node, ast.Attribute) and node.attr == attr:
            found.append((node.lineno, attr))
    return found


def lau_writes(source: str) -> list[tuple[int, str]]:
    """(line, what) of each assignment to .terms or .terms[...] and each use
    of a private integer field of a Lau."""
    return sorted(private_uses(source, PRIVATE) + attribute_writes(source, "terms"))


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


def test_scan_finds_every_kind_of_coeffs_write():
    source = (
        "P.coeffs = []\nP.coeffs[0] = c\ndel P.coeffs[1:]\nP.coeffs += [c]\nP.coeffs.append(c)\n"
        "P.coeffs.sort()\na, P.coeffs = 1, []\nx = P.coeffs[0]\nn = len(P.coeffs)\ny = P.coeffs.index(c)\n"
    )
    found = sorted(attribute_writes(source, "coeffs", LIST_MUTATORS))
    assert found == [(line, "coeffs") for line in range(1, 8)]


def test_only_heckealg_writes_euler_coefficients():
    files = [
        path
        for folder in (ROOT / "src" / "padicasai", ROOT / "demos", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name != "heckealg.py"
    ]
    found = {
        f"{path.relative_to(ROOT)}:{line}": what
        for path in files
        for line, what in attribute_writes(path.read_text(), "coeffs", LIST_MUTATORS)
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


def schwartz_writes(source: str) -> list[tuple[int, str]]:
    """(line, attr) of each write of .cells or .level, an entry of them, or
    a dict-mutating call on them."""
    return sorted(attribute_writes(source, "cells", DICT_MUTATORS) + attribute_writes(source, "level", DICT_MUTATORS))


def test_scan_finds_every_kind_of_schwartz_write():
    source = (
        "phi.cells = {}\nphi.cells[c] = 1\ndel phi.cells[c]\nphi.level, phi.cells = 1, {}\n"
        "phi.cells.update(d)\nphi.level += 1\nx = phi.cells.get(c)\nn = phi.level\n"
    )
    assert schwartz_writes(source) == [(1, "cells"), (2, "cells"), (3, "cells"), (4, "cells"), (4, "level"), (5, "cells"), (6, "level")]


def test_only_whitzeta_writes_schwartz_cells():
    files = [
        path
        for folder in (ROOT / "src" / "padicasai", ROOT / "demos", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name != "whitzeta.py"
    ]
    found = [
        (str(path.relative_to(ROOT)), line, what)
        for path in files
        for line, what in schwartz_writes(path.read_text())
    ]
    oracle = "tests/test_whitzeta.py"
    (helper,) = [
        node
        for node in nodes((ROOT / oracle).read_text())
        if isinstance(node, ast.FunctionDef) and node.name == "raw_writing"
    ]
    lines = {line for path, line, _ in found if path == oracle and helper.lineno <= line <= helper.end_lineno}
    # one statement of the helper writes both, and nothing else writes either
    assert found == [(oracle, line, what) for line in lines for what in ("cells", "level")]
