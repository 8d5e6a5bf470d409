"""The examples in the susp5 docstrings run and hold."""
import doctest
import importlib
import pkgutil

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
