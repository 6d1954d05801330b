"""Memo keys stay structural: every parameter of an lru_cache in the package
is annotated as int, str, bool, tuple or QuadCtx.

A memo keyed on a Mat2, SchwartzFn, TestVector, HeckeElem or Lau would hand
a repeated computation on an equal object back from the cache: the bench's
repeated passes would time cache hits that a single command never sees.

The set of memos is pinned too: each is process-wide state with its own
size and its own "treat as immutable" contract, so adding one is an edit of
KEPT with the reason it pays for itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicasai"
KEY_TYPES = {"int", "str", "bool", "tuple", "QuadCtx"}
MEMOS = {"lru_cache", "cache"}
# memoized function: what the memo saves
KEPT = {
    "euler_poly": "each (kind, p) Euler polynomial and its derived values, built once and shared",
    "_t_inverse_cosets": "the single cosets of K t^-1 K per (context, case), read by every hecke_apply",
    "_y_value_from_data": "the inner integral of a row-data class, recurring within and across zeta calls",
    "_shintani": "the zeta engine's constants per (splitting type, p): root factors, cofactors, R, Delta, omega X^2",
}


def _is_memo(dec) -> bool:
    node = dec.func if isinstance(dec, ast.Call) else dec
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in MEMOS


def _key_type(ann) -> str | None:
    """The annotation's type name: tuple[int, ...] reads as tuple."""
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    return ann.id if isinstance(ann, ast.Name) else None


def memo_defs(source: str) -> list[ast.FunctionDef]:
    """The memoized functions the source defines."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_memo, node.decorator_list))
    ]


def unstructural_memo_params(source: str) -> list[str]:
    """name.param for each parameter of a memoized function whose annotation
    is missing or not one of KEY_TYPES."""
    found = []
    for node in memo_defs(source):
        a = node.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]:
            if arg.annotation is None or _key_type(arg.annotation) not in KEY_TYPES:
                found.append(f"{node.name}.{arg.arg}")
    return found


def test_scan_finds_unstructural_memo_keys():
    source = (
        "@lru_cache(maxsize=4)\ndef f(a: int, vs, g: Mat2, t: tuple[int, ...], c: QuadCtx) -> int: ...\n"
        "@functools.cache\ndef h(x: Lau, *rest: int, flag: bool = False): ...\n"
        "@lru_cache\ndef k(n: 'int', s: str): ...\n"
        "def plain(g: Mat2): ...\n"
    )
    assert unstructural_memo_params(source) == ["f.vs", "f.g", "h.x", "k.n"]


def test_every_memo_key_is_structural():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{name}" for path in files for name in unstructural_memo_params(path.read_text())]
    assert found == []


def test_scan_finds_memoized_functions():
    source = "@lru_cache(maxsize=4)\ndef f(a: int): ...\n@functools.cache\ndef h(x: int): ...\ndef plain(): ...\n"
    assert [node.name for node in memo_defs(source)] == ["f", "h"]


def test_the_memo_set_is_pinned():
    found = sorted(node.name for path in SRC.glob("*.py") for node in memo_defs(path.read_text()))
    assert found == sorted(KEPT)
