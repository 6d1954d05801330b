"""One JSON writer: no json.dump or json.dumps in the package.  Every printed
document goes through exactnum.json_dumps, which keeps the stdout
determinism contract (indent 2, sorted keys, ASCII escapes, int keys in
numeric order) in one place.  json.loads and json.load stay allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicasai"
WRITERS = {"dump", "dumps"}


def json_writers(source: str) -> list[int]:
    """Lines that use json.dump or json.dumps, through any name the json
    module is imported as, or import either from json."""
    tree = ast.parse(source)
    names = {"json"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name for a in node.names if a.name == "json"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json" and any(a.name in WRITERS for a in node.names):
            found.add(node.lineno)
        elif (
            isinstance(node, ast.Attribute) and node.attr in WRITERS
            and isinstance(node.value, ast.Name) and node.value.id in names
        ):
            found.add(node.lineno)
    return sorted(found)


def test_scan_finds_json_writers():
    source = (
        "import json\nimport json as j\nfrom json import dumps\n"
        "x = json.loads(s)\ny = json.dumps(x)\nj.dump(x, f)\n"
        "w = functools.partial(json.dumps, indent=2)\nz = obj.dumps()\n"
    )
    assert json_writers(source) == [3, 5, 6, 7]


def test_no_json_writer_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f"{path.name}:{line}" for path in files for line in json_writers(path.read_text())}
    assert found == set()
