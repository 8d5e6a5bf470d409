"""Reports of the sample descriptors, compared byte for byte.

Each input has one golden report per format: tests/golden/<name>.json holds
its `--format structured` output and tests/golden/<name>.human its default
human output, as written by the release the files were recorded from.  The
inputs are the six sample descriptors in scripts/descriptors and the files
tests/golden/*.txt: three_primary_eta.txt, whose three-primary H leaves
the single splitting undetermined, so that its report builds the double
suspension without the single one; large_chain.txt, a chain-level file of corpus-large size
(64 columns, eight Moore rows, a [phi] block); and two spin products whose
whole report follows from the product splitting (tests/test_products.py),
s1_x_k3.txt (S^1 x K3) and genus2_x_s3.txt (a genus-two surface times
S^3).  descriptors.human
holds the human output of one batch of the six sample files, named
relative to the repository root.  A refactor must leave every byte
unchanged; a deliberate output change rewrites the files and says so.
"""
import io
import json
from pathlib import Path

import pytest

from susp5.cli import RunConfig, run
from susp5.decompose import CASES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DESCRIPTORS = sorted((ROOT / "scripts" / "descriptors").glob("*.txt"))
INPUTS = DESCRIPTORS + sorted(GOLDEN.glob("*.txt"))


def test_every_descriptor_has_golden_files():
    assert len(DESCRIPTORS) == 6
    assert {p.name for p in GOLDEN.glob("*.json")} == {f"{p.stem}.json" for p in INPUTS}


def test_every_descriptor_has_human_golden_files():
    expected = {f"{p.stem}.human" for p in INPUTS} | {"descriptors.human"}
    assert {p.name for p in GOLDEN.glob("*.human")} == expected


def _output(path: Path, fmt: str) -> str:
    out = io.StringIO()
    assert run(RunConfig(paths=(str(path),), fmt=fmt), stdout=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_structured_output_matches_golden(path):
    expected = (GOLDEN / f"{path.stem}.json").read_text(encoding="utf-8")
    assert _output(path, "structured") == expected


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_human_output_matches_golden(path):
    expected = (GOLDEN / f"{path.stem}.human").read_text(encoding="utf-8")
    assert _output(path, "human") == expected


def test_golden_files_cover_every_attaching_case():
    tags = {json.loads(p.read_text(encoding="utf-8"))["case"]["tag"] for p in GOLDEN.glob("*.json")}
    assert tags >= set(CASES)


def test_batch_human_output_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    paths = tuple(str(p.relative_to(ROOT)) for p in DESCRIPTORS)
    out = io.StringIO()
    code = run(RunConfig(paths=paths, fmt="human"), stdout=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / "descriptors.human").read_text(encoding="utf-8")
