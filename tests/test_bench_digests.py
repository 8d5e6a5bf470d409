"""The benchmark corpora's structured output, pinned by its SHA-256.

bench/run.py hashes the `--format structured` output of one CLI batch over
each seeded corpus and records the digest with every run.  Here the same
batch runs in this process, with whatever the memos already hold from
earlier tests, so a refactor that changes one byte of a survey report fails
tier-1 and not only a benchmark run.  bench/corpus.py is loaded from its
file, as tests/test_trace_targets.py loads bench/tracing.py; nothing under
bench/ is imported as a package or changed.  The files, their order and
the working directory are the ones bench/run.py uses.
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
from pathlib import Path
from unittest import mock

import pytest

from susp5.cli import RunConfig, run

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SCRIPT_DESCRIPTORS = ROOT / "scripts" / "descriptors"

# (corpus, mode) -> SHA-256 of the batch's structured output at seed 1
DIGESTS = {
    ("corpus-small", "single"): "3c6477ce7a87ff3161ab37f6bb782afcb4484f529a4a8d9ac2f9569668d1f88e",
    ("corpus-large", "single"): "1bd0290fba70392f1dc6f347832d3c2fc82c246d983f3b27af96924a3eff9427",
    ("corpus-small", "double"): "cc84863ba699835f77b637d492fc0509cfed2b8b81f500a99a1656707afa6e52",
    ("corpus-large", "double"): "4c1de45d8f9e000dbb9c6532ab4e3875779a24e00d505e2eed207f203b07264d",
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


BATCHES = sorted(DIGESTS)


@pytest.mark.parametrize("workload, mode", BATCHES, ids=[f"{w}-{m}" for w, m in BATCHES])
def test_bench_corpus_output_is_byte_identical(tmp_path, monkeypatch, workload, mode):
    files = _files(workload)
    for name, text in files:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(paths=tuple(name for name, _ in files), mode=mode, fmt="structured")
    assert run(config, stdout=out, stderr=err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[workload, mode]
