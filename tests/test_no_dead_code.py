"""No function, class or method of the package goes unread.

A top-level function or class, or a non-dunder method of a top-level
class, defined in src/padicasai must be read somewhere in the package, the
bench or the demos, or be exported by the package __init__.  A read is a
name, an attribute or a string constant (the bench's tracer names the
functions it wraps by string); a method is matched by its bare name, so the
scan errs towards keeping code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "padicasai"
# definition: why it stays although nothing outside the tests reads it
ALLOWED = {
    "exactnum.QuadElem.conj": "a field operation that the tests' oracles use",
    "exactnum.QuadElem.is_unit": "a field operation that the tests' oracles use",
}


def definitions(source: str) -> list[tuple[int, str, str]]:
    """(line, qualified name, bare name) of each top-level function and class
    and each non-dunder method of a top-level class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    out.append((sub.lineno, f"{node.name}.{sub.name}", sub.name))
    return out


def reads(source: str) -> set[str]:
    """Every name, attribute and identifier-like string constant read."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def exported(source: str) -> set[str]:
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread(modules: dict[str, str], readers: list[str], exports: set[str]) -> list[str]:
    """module.qualified name, with its line, of each definition in modules
    that no source in readers reads and exports does not hold."""
    read = set().union(*map(reads, readers))
    return [
        f"{mod}.{qual}:{line}"
        for mod, source in modules.items()
        for line, qual, bare in definitions(source)
        if bare not in read and bare not in exports
    ]


def test_scan_finds_an_unread_definition():
    mod = (
        "class A:\n"
        "    def used(self): ...\n"
        "    def unused(self): ...\n"
        "    def __eq__(self, other): ...\n"
        "def f(): ...\n"
        "def g(): ...\n"
        "def h(): return A().used()\n"
    )
    assert unread({"m": mod}, [mod, "TARGETS = ['g']"], {"h"}) == ["m.A.unused:3", "m.f:5"]


def test_no_unread_definitions_in_the_package():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    readers = [path.read_text() for d in ("src/padicasai", "bench", "demos") for path in sorted((ROOT / d).glob("*.py"))]
    found = {entry.split(":")[0]: entry for entry in unread(modules, readers, exported((SRC / "__init__.py").read_text()))}
    assert {k: v for k, v in found.items() if k not in ALLOWED} == {}
    # an allowed definition that is read again, or gone, leaves a stale entry
    assert set(ALLOWED) <= set(found)
