"""No module of the package, its tests or its demos may import a name it never reads.

A package __init__ imports to export, so it is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (file stem, name): why the import stays although the module never reads it
ALLOWED = {
    ("heckemod", "plocal_smith"): "bench/spans.py REQUIRED_SITES traces that import site",
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os, sys\nfrom a.b import c as d, e\nimport f.g\nd(e, f)\n") == [(1, "os"), (1, "sys")]


def test_no_unused_imports_in_package_or_tests():
    files = [path for d in ("src/padicasai", "tests", "demos") for path in sorted((ROOT / d).glob("*.py"))]
    found = {
        (path.stem, name): f"{path.relative_to(ROOT)}:{line}"
        for path in files
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    }
    assert {k: v for k, v in found.items() if k not in ALLOWED} == {}
    # an allowed import that is read again, or gone, leaves a stale entry
    assert set(ALLOWED) <= set(found)
