"""The benchmark's traced run finds every function it wraps, and reaches it.

bench/tracing.py wraps each (module, attribute) of its TRACED list when
`bench/run.py --trace 1` runs.  A rename, or a method turned into a
property or a staticmethod, would break that run without failing any other
test, so each target is resolved here the way `Recorder.install` resolves
it: module functions by name, methods in the class `__dict__`.  A refactor
that stops the reports from calling a traced function would leave its
per-layer metrics at 0, so the spans a traced run of the sample
descriptors never opens are pinned too.
"""
from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TRACED = tracing.TRACED


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


# Reached only by the oracle sweep, or (homology_in) by no report at all.
NOT_REACHED_BY_REPORTS = {
    "abgroup.smith_normal_form",
    "reduction.enumerate_orbit",
    "reduction.enumerate_phi_orbit",
    "reduction.legal_moves",
    "reduction.phi_moves",
    "spaces.Wedge.homology_in",
}


def test_reports_reach_every_other_traced_span(tmp_path):
    spans = tmp_path / "spans.bin"
    descriptors = sorted(map(str, (ROOT / "scripts" / "descriptors").glob("*.txt")))
    assert descriptors
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(TRACING), str(spans), "--", "--format", "structured", *descriptors],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    per_span, _ = tracing.summarize(*tracing.load(str(spans)))
    assert {name for name, s in per_span.items() if s["calls"] == 0} == NOT_REACHED_BY_REPORTS
