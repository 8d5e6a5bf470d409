"""The benchmark corpora's structured output, pinned by its SHA-256.

bench/run.py hashes the `--format structured` output of one CLI batch over
each seeded corpus and records the digest with every run.  Here the same
batch runs in this process, with whatever the memos already hold from
earlier tests, so a refactor that changes one byte of a survey report fails
tier-1 and not only a benchmark run.  bench/corpus.py is loaded from its
file, as tests/test_trace_targets.py loads bench/tracing.py; nothing under
bench/ is imported as a package or changed.  The files, their order and
the working directory are the ones bench/run.py uses.  Every report takes
the one route, so each corpus has one pin.
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
from pathlib import Path
from unittest import mock

import pytest

from susp5.cli import parse_descriptor_text, run

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SCRIPT_DESCRIPTORS = ROOT / "scripts" / "descriptors"

# corpus -> SHA-256 of the batch's structured output at seed 1
DIGESTS = {
    "corpus-small": "2f5862ebf03eca93cbe871c76203d3b7582903b288e19de57a2eae8e85a35c7a",
    "corpus-large": "6cabe433d856d91ea8dfb1efe11dd441853ac436e797823fdedcb35f6f21f0fc",
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus():
    # corpus.py imports oracles by its plain name, as bench/run.py runs it
    with mock.patch.dict(sys.modules, {"oracles": _load("oracles")}):
        return _load("corpus")


CORPUS = _corpus()


def _files(workload: str) -> list[tuple[str, str]]:
    if workload == "corpus-large":
        return CORPUS.corpus_large(1)
    files = CORPUS.corpus_small(1)
    return files + [(p.name, p.read_text()) for p in sorted(SCRIPT_DESCRIPTORS.glob("*.txt"))]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_bench_corpus_output_is_byte_identical(tmp_path, monkeypatch, workload):
    files = _files(workload)
    for name, text in files:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    paths = tuple(name for name, _ in files)
    assert run(paths, fmt="structured", stdout=out, stderr=err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[workload]


def test_no_sample_descriptor_has_three_primary_h():
    """bench/run.py folds scripts/descriptors into corpus-small, and
    bench/oracles.py fails every report whose single suspension is null, so
    a sample with three-primary H would make each run outputs_incorrect."""
    paths = sorted(SCRIPT_DESCRIPTORS.glob("*.txt"))
    assert paths
    for p in paths:
        assert not parse_descriptor_text(p.read_text()).h1_torsion.primary_exponents(3), p.name
