"""The benchmark's traced run finds every function it wraps.

bench/tracing.py wraps each (module, attribute) of its TRACED list when
`bench/run.py --trace 1` runs.  A rename, or a method turned into a
property or a staticmethod, would break that run without failing any other
test, so each target is resolved here the way `Recorder.install` resolves
it: module functions by name, methods in the class `__dict__`.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


def test_the_traced_list_is_read():
    assert TRACED
    assert len({name for name, _, _ in TRACED}) == len(TRACED)


@pytest.mark.parametrize("name, module_name, attr", TRACED, ids=[t[0] for t in TRACED])
def test_traced_target_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # install re-wraps a classmethod's function and sets anything else
        # on the class as a plain function, which binds self
        cls_name, meth = attr.split(".")
        raw = getattr(module, cls_name).__dict__[meth]
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert callable(raw) and not isinstance(raw, staticmethod), (
            f"{name} is a {type(raw).__name__}"
        )
    else:
        assert callable(getattr(module, attr)), name
