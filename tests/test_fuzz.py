"""Every input ends in a report or a located ParseError.

Inputs are arbitrary text and line or token mutations of the sample
descriptors in scripts/descriptors and of the files tests/golden/*.txt
(one of them with three-primary H).  Each runs through cli.run as standard
input and ends one of two ways: exit 0 or 1 with one report, whose single
suspension is null exactly when H has three-torsion; or exit 2 with one
`<stdin>:line:col:` line on stderr and nothing on stdout.  A file that
gives a report must also render back to invariant-route text that parses
equal (so a matrix-route file agrees with its invariant route).  Each input
is handled in under a second of wall time.
"""
from __future__ import annotations

import io
import json
import re
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from susp5.cli import parse_descriptor_text, render_descriptor, run

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [
    p.read_text(encoding="utf-8")
    for p in [*sorted((ROOT / "scripts" / "descriptors").glob("*.txt")),
              *sorted((ROOT / "tests" / "golden").glob("*.txt"))]
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
    out, err = io.StringIO(), io.StringIO()
    stdin = io.BytesIO(text.encode())
    code = run(fmt="structured", stdin=stdin, stdout=out, stderr=err)
    if code == 2:
        # one line, however the message quotes the input
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, err.getvalue()
        assert re.match(r"<stdin>:[1-9][0-9]*:[1-9][0-9]*: ", err.getvalue()), err.getvalue()
        return
    assert code in (0, 1) and err.getvalue() == ""
    report = json.loads(out.getvalue())
    assert report["double_suspension"]
    desc = parse_descriptor_text(text)
    assert (report["single_suspension"] is None) == bool(desc.h1_torsion.primary_exponents(3))
    assert parse_descriptor_text(render_descriptor(desc)) == desc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=60) | mutants())
def test_every_input_ends_in_a_report_or_a_located_parse_error(text):
    start = time.monotonic()
    _ends_in_a_report_or_a_located_parse_error(text)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s on {text!r}"
