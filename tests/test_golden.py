"""Structured reports of the sample descriptors, compared byte for byte.

tests/golden/<name>.<mode>.json holds the `--format structured` output of
scripts/descriptors/<name>.txt in that mode, as written by the release the
files were recorded from.  A refactor must leave every byte unchanged; a
deliberate output change rewrites the files and says so.
"""
import io
from pathlib import Path

import pytest

from susp5.cli import RunConfig, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DESCRIPTORS = sorted((ROOT / "scripts" / "descriptors").glob("*.txt"))


def test_every_descriptor_has_golden_files():
    assert len(DESCRIPTORS) == 6
    expected = {f"{p.stem}.{m}.json" for p in DESCRIPTORS for m in ("single", "double")}
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


@pytest.mark.parametrize("mode", ["single", "double"])
@pytest.mark.parametrize("path", DESCRIPTORS, ids=lambda p: p.stem)
def test_structured_output_matches_golden(path, mode):
    out = io.StringIO()
    code = run(RunConfig(paths=(str(path),), mode=mode, fmt="structured"), stdout=out)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{path.stem}.{mode}.json").read_text(encoding="utf-8")
