"""The examples in the susp5 docstrings and in README run and hold."""
import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import susp5

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(susp5.__path__, "susp5.")
    if info.name != "susp5.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_doctests_are_found():
    # a module whose examples stop being collected would otherwise pass silently
    assert doctest.testmod(importlib.import_module("susp5.abgroup")).attempted >= 8
    assert doctest.testmod(importlib.import_module("susp5.decompose")).attempted >= 1


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_results():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(text[start : text.index("```", start)], {})
    assert out.getvalue().splitlines() == [
        "S^2 v S^3 v S^4 v S^5 v A^6(eta~_2)",
        "Z + Z/2 + Z/2",
        "Z^2",
    ]


def test_readme_module_map_names_every_module():
    text = README.read_text(encoding="utf-8")
    start = text.index("Module map")
    section = text[start : text.index("\n## ", start)]
    assert sorted(re.findall(r"^\* `(susp5\.\w+)`:", section, re.MULTILINE)) == MODULES
