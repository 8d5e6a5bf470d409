"""Every input ends in a report or a located ParseError.

Inputs are arbitrary text and line or token mutations of the sample
descriptors in scripts/descriptors and of tests/golden/large_chain.txt.  A
file that parses must render back to invariant-route text that parses
equal (so a matrix-route file agrees with its invariant route), and must
give a report in both modes (in single mode, three-primary torsion in H may
instead be a DecompositionError); any other file must be a ParseError at a
line of the file.  Each input is handled in under a second of wall time.
"""
from __future__ import annotations

import re
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from susp5.cli import ParseError, build_report, parse_descriptor_text, render_descriptor
from susp5.decompose import DecompositionError

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [
    p.read_text(encoding="utf-8")
    for p in [*sorted((ROOT / "scripts" / "descriptors").glob("*.txt")),
              ROOT / "tests" / "golden" / "large_chain.txt"]
]
# every token of the seeds, plus values at and past the edges of their ranges
TOKENS = sorted(
    {tok for text in SEEDS for tok in text.split()}
    | {"-1", "0", "4096", "4097", "18446744073709551615", "18446744073709551616",
       "Z/3", "Z/6", "Z^2", "Z/1", "[", "]", "=", "#", "[phi]", "[h_matrix]", "x", "eps"}
)


@st.composite
def mutants(draw):
    """A seed descriptor after a few line or token edits."""
    lines = draw(st.sampled_from(SEEDS)).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "copy", "move", "token", "text")))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif edit == "token":
            parts = re.split(r"(\s+)", lines[i])
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = draw(st.sampled_from(TOKENS) | st.text(max_size=4))
            lines[i] = "".join(parts)
        else:
            lines.insert(i, draw(st.text(max_size=12)))
    return "\n".join(lines)


def _ends_in_a_report_or_a_located_parse_error(text: str) -> None:
    try:
        desc = parse_descriptor_text(text, source="fuzz.txt")
    except ParseError as exc:
        assert exc.line >= 1, str(exc)
        return
    assert parse_descriptor_text(render_descriptor(desc)) == desc
    assert build_report(desc, mode="double")["double_suspension"]
    try:
        build_report(desc, mode="single")
    except DecompositionError:
        assert desc.h1_torsion.has_3_torsion


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=60) | mutants())
def test_every_input_ends_in_a_report_or_a_located_parse_error(text):
    start = time.monotonic()
    _ends_in_a_report_or_a_located_parse_error(text)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s on {text!r}"
