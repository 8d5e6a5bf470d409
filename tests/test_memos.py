"""No module of susp5 holds an unbounded memo.

Every memo in the package is an lru_cache with a bound, so a long run
over many distinct inputs holds bounded memory.  The test walks each
module's syntax tree and fails on functools.cache, called or used as a
decorator, and on lru_cache(maxsize=None).  cached_property lives on one
instance and is allowed.
"""
import ast
from pathlib import Path

import susp5

SOURCES = sorted(Path(susp5.__file__).parent.glob("*.py"))


def _name(node) -> str:
    """functools.x or x, as written."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def unbounded_memos(tree: ast.AST) -> list[int]:
    """Line numbers of the unbounded memos in tree."""
    cache = {"functools.cache"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name == "cache"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines += [d.lineno for d in node.decorator_list if _name(d) in cache]
        elif isinstance(node, ast.Call) and _name(node.func) in cache:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and _name(node.func) in ("lru_cache", "functools.lru_cache"):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_holds_an_unbounded_memo():
    found = {
        path.name: unbounded_memos(ast.parse(path.read_text(encoding="utf-8")))
        for path in SOURCES
    }
    assert "reduction.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_lint_sees_each_form_of_unbounded_memo():
    source = """
import functools
from functools import cache as memo, cached_property, lru_cache
f = functools.cache(len)
@functools.cache
def g(): pass
@memo
def h(): pass
k = memo(len)
m = lru_cache(maxsize=None)(len)
@functools.lru_cache(None)
def n(): pass
bounded = lru_cache(maxsize=64)(len)
@lru_cache
def default_bound(): pass
class C:
    @cached_property
    def per_instance(self): pass
"""
    assert unbounded_memos(ast.parse(source)) == [4, 5, 7, 9, 10, 11]
