"""Structured reports of the sample descriptors, compared byte for byte.

tests/golden/<name>.<mode>.json holds the `--format structured` output of
scripts/descriptors/<name>.txt in that mode, as written by the release the
files were recorded from.  three_primary_eta.double.json does the same for
helpers.THREE_PRIMARY_ETA, the one report path where the double suspension
is built without the single one.  large_chain.<mode>.json holds the output
of tests/golden/large_chain.txt, a chain-level file of corpus-large size
(64 columns, eight Moore rows, a [phi] block).  The .human files hold the
default human output of the same sample descriptors and of
helpers.THREE_PRIMARY_ETA, and descriptors.single.human that of one batch
of the six sample files, named relative to the repository root.  A refactor
must leave every byte unchanged; a deliberate output change rewrites the
files and says so.
"""
import io
import json
from pathlib import Path

import pytest

from helpers import THREE_PRIMARY_ETA
from susp5.cli import RunConfig, run
from susp5.decompose import CASES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DESCRIPTORS = sorted((ROOT / "scripts" / "descriptors").glob("*.txt"))
LARGE_CHAIN = GOLDEN / "large_chain.txt"


def test_every_descriptor_has_golden_files():
    assert len(DESCRIPTORS) == 6
    expected = {f"{p.stem}.{m}.json" for p in DESCRIPTORS for m in ("single", "double")}
    expected.add("three_primary_eta.double.json")
    expected.update({"large_chain.single.json", "large_chain.double.json"})
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


@pytest.mark.parametrize("mode", ["single", "double"])
@pytest.mark.parametrize("path", DESCRIPTORS, ids=lambda p: p.stem)
def test_structured_output_matches_golden(path, mode):
    out = io.StringIO()
    code = run(RunConfig(paths=(str(path),), mode=mode, fmt="structured"), stdout=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{path.stem}.{mode}.json").read_text(encoding="utf-8")


def test_three_primary_double_mode_matches_golden():
    out = io.StringIO()
    code = run(
        RunConfig(mode="double", fmt="structured"), stdin=io.StringIO(THREE_PRIMARY_ETA), stdout=out
    )
    assert code == 0
    assert out.getvalue() == (GOLDEN / "three_primary_eta.double.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", ["single", "double"])
def test_large_chain_level_file_matches_golden(mode):
    out = io.StringIO()
    code = run(RunConfig(paths=(str(LARGE_CHAIN),), mode=mode, fmt="structured"), stdout=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"large_chain.{mode}.json").read_text(encoding="utf-8")


def test_golden_files_cover_every_attaching_case():
    tags = {json.loads(p.read_text(encoding="utf-8"))["case"]["tag"] for p in GOLDEN.glob("*.json")}
    assert tags >= set(CASES)


def test_every_descriptor_has_human_golden_files():
    expected = {f"{p.stem}.{m}.human" for p in DESCRIPTORS for m in ("single", "double")}
    expected.update({"three_primary_eta.double.human", "descriptors.single.human"})
    assert {p.name for p in GOLDEN.glob("*.human")} == expected


@pytest.mark.parametrize("mode", ["single", "double"])
@pytest.mark.parametrize("path", DESCRIPTORS, ids=lambda p: p.stem)
def test_human_output_matches_golden(path, mode):
    out = io.StringIO()
    code = run(RunConfig(paths=(str(path),), mode=mode, fmt="human"), stdout=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{path.stem}.{mode}.human").read_text(encoding="utf-8")


def test_three_primary_double_mode_human_output_matches_golden():
    out = io.StringIO()
    code = run(
        RunConfig(mode="double", fmt="human"), stdin=io.StringIO(THREE_PRIMARY_ETA), stdout=out
    )
    assert code == 0
    assert out.getvalue() == (GOLDEN / "three_primary_eta.double.human").read_text(
        encoding="utf-8"
    )


def test_batch_human_output_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    paths = tuple(str(p.relative_to(ROOT)) for p in DESCRIPTORS)
    out = io.StringIO()
    code = run(RunConfig(paths=paths, fmt="human"), stdout=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / "descriptors.single.human").read_text(encoding="utf-8")
