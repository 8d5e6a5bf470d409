"""Front-end parsing, report building, and exit codes."""

import copy
import errno
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susp5
from helpers import random_descriptor
from susp5 import cli, decompose, invariants, reduction
from susp5.abgroup import FgAbGroup
from susp5.cli import (
    ParseError,
    RunConfig,
    build_report,
    main,
    parse_descriptor_text,
    render_descriptor,
    render_human,
    run,
)
from susp5.reduction import AttachCase
from susp5.spaces import ElementaryComplex, Wedge

MINIMAL = "l = 1\nd = 1\nspin = true\n"

# three-primary H, so the single suspension is not determined
THREE_PRIMARY_ETA = (Path(__file__).parent / "golden" / "three_primary_eta.txt").read_text(
    encoding="utf-8"
)

FULL = """
# a lens-like example
l = 2
d = 1
H = Z/5
T = Z/2 + Z/4
spin = false
smooth = true
c2 = 1
consumed = [1]
case = tilde_eta(0)
"""

MATRIX = """
l = 2
d = 1
T = Z/2
spin = true
smooth = true

[h_matrix]
sphere = eta 0
moore r=1 = 0 i3eta
"""

PHI = """
l = 1
d = 1
spin = false
smooth = true

[h_matrix]
sphere = 0

[phi]
y = 1
"""


def test_parse_minimal():
    desc = parse_descriptor_text(MINIMAL)
    assert (desc.l, desc.d, desc.spin, desc.smooth, desc.pd_mode) == (
        1,
        1,
        True,
        True,
        False,
    )
    assert desc.case.kind == "null"


def test_parse_full():
    desc = parse_descriptor_text(FULL)
    assert desc.h1_torsion.render() == "Z/5"
    assert desc.consumed == (1,)
    assert desc.case == AttachCase("tilde_eta", 0, 1)


def test_pd_mode_defaults_smooth_off():
    desc = parse_descriptor_text("l = 1\nd = 1\nspin = true\npd_mode = true\n")
    assert not desc.smooth and desc.pd_mode


def test_parse_matrix_route():
    desc = parse_descriptor_text(MATRIX)
    assert (desc.c1, desc.c2, desc.consumed) == (1, 1, (0,))
    assert desc.case.kind == "null"


def test_parse_phi_route():
    desc = parse_descriptor_text(PHI)
    assert desc.case == AttachCase("eta")


def test_parse_phi_moore_slot():
    text = """
l = 1
d = 1
T = Z/4
spin = false
smooth = true

[h_matrix]
sphere = 0
moore r=2 = 0

[phi]
z = 1
"""
    desc = parse_descriptor_text(text)
    assert desc.case == AttachCase("tilde_eta", 0, 2)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_example() -> str:
    """The chain-level descriptor of README's command-line section."""
    text = README.read_text(encoding="utf-8")
    start = text.index("# example.txt")
    return text[start : text.index("```", start)]


def test_readme_lists_every_cli_flag():
    """The bullets of README's "Useful flags" list name exactly the options
    of the argument parser, so the docs neither keep a removed flag nor miss
    a new one."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Useful flags:")
    flags = text[start : text.index("Exit status", start)]
    listed = set(re.findall(r"^\* `(--[a-z-]+)", flags, re.M))
    options = {
        opt
        for action in cli.make_arg_parser()._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert listed == options


def test_chain_level_file_is_reduced_once(monkeypatch):
    calls = []

    def counted(h):
        calls.append(h)
        return reduction.reduce_h_matrix(h)

    monkeypatch.setattr(decompose, "reduce_h_matrix", counted)
    desc = parse_descriptor_text(_readme_example())
    assert desc.case == AttachCase("tilde_eta", 0, 2)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "row, line, size",
    [("x", 13, 1), ("y", 14, 1), ("z", 15, 1), ("eps", 16, 1), ("w", 17, 0)],
    ids=["x", "y", "z", "eps", "w"],
)
def test_mis_sized_phi_row_is_located(row, line, size):
    # README's example reduces to one free three-sphere, one four-sphere and
    # one unconsumed Moore summand and consumes none; every phi row below has
    # that size except `row`, which is one entry too long
    rows = [("x", 1), ("y", 1), ("z", 1), ("eps", 1), ("w", 0)]
    text = _readme_example().replace("z = 1\n", "") + "".join(
        f"{k} = {' '.join('0' * (n + (k == row)))}\n" for k, n in rows
    )
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(text, source="example.txt")
    err = ei.value
    assert (err.kind, err.line, err.column) == ("consistency", line, 1)
    assert str(err) == (
        f"example.txt:{line}:1: consistency error: "
        f"phi component {row!r} needs {size} entries here"
    )


@pytest.mark.parametrize(
    "text, line",
    [("l = \u0661\nd = 1\nspin = true\n", 1), ("l = 1\nd = 1\nspin = true\nT = Z/\u0662\n", 4)],
    ids=["arabic-indic-l", "arabic-indic-T"],
)
def test_non_ascii_digits_are_located_parse_errors(tmp_path, text, line):
    # int() accepts any Unicode decimal digit; the descriptor format only 0-9.
    p = tmp_path / "digits.txt"
    p.write_text(text, encoding="utf-8")
    err = io.StringIO()
    assert run(RunConfig(paths=(str(p),)), stdout=io.StringIO(), stderr=err) == 2
    assert err.getvalue().startswith(f"{p}:{line}:5: syntax error: ")


@pytest.mark.parametrize("term", ["T = Z/2^40000", "H = Z/2^64"])
def test_torsion_order_of_2_64_or_more_is_a_located_range_error(tmp_path, term):
    # unbounded, Z/2^40000 fails in rendering (int-to-str limit): exit 1, a failed check
    p = tmp_path / "big.txt"
    p.write_text(f"l = 1\nd = 1\nspin = true\n{term}\n", encoding="utf-8")
    err = io.StringIO()
    assert run(RunConfig(paths=(str(p),)), stdout=io.StringIO(), stderr=err) == 2
    key, literal = term.split(" = ")
    assert err.getvalue() == (
        f"{p}:4:5: range error: bad group literal for {key}: "
        f"torsion order {literal!r} is not below 2^64\n"
    )


def test_syntax_error_kind_line_and_source():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = 1\nd = 1\nspin = yes\n", source="f.txt")
    err = ei.value
    assert err.kind == "syntax"
    assert err.line == 3
    assert str(err).startswith("f.txt:3:")


# every character str.splitlines() breaks at besides "\n"
_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in _LINE_BREAKS])
def test_only_newline_ends_a_line(brk):
    # the text after brk is still comment, so the error is the one on line 2
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(f"l = 1 # page{brk}break\nd = x\nspin = true\n")
    assert str(ei.value) == "<input>:2:5: syntax error: d must be an integer"


def test_crlf_file_reads_like_lf(tmp_path):
    reports = []
    for name, newline in (("lf.txt", "\n"), ("crlf.txt", "\r\n")):
        p = tmp_path / name
        p.write_bytes(FULL.replace("\n", newline).encode())
        out = io.StringIO()
        assert run(RunConfig(paths=(str(p),), fmt="structured"), stdout=out) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]


def test_undecodable_input_is_located(tmp_path):
    data = b"l = 1\nd = 1 # caf\xc3\xa9 \xff\nspin = true\n"
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_bytes(data)
    good.write_text(MINIMAL)
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig(paths=(str(bad), str(good))), stdout=out, stderr=err) == 2
    assert err.getvalue() == f"{bad}:2:14: syntax error: byte 0xff is not valid UTF-8\n"
    assert f"== {good} ==" in out.getvalue()
    err = io.StringIO()
    assert run(RunConfig(), stdin=io.BytesIO(data), stdout=io.StringIO(), stderr=err) == 2
    assert err.getvalue() == "<stdin>:2:14: syntax error: byte 0xff is not valid UTF-8\n"


def test_unknown_key_is_syntax_error():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = 1\nbogus = 3\nd = 1\nspin = true\n")
    assert ei.value.kind == "syntax" and ei.value.line == 2


def test_duplicate_key_is_consistency_error():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = 1\nl = 2\nd = 1\nspin = true\n")
    assert ei.value.kind == "consistency"


def test_negative_value_is_range_error():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = -3\nd = 1\nspin = true\n")
    assert ei.value.kind == "range" and ei.value.line == 1


def test_missing_required_key():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = 1\nspin = true\n")
    assert ei.value.kind == "consistency" and "d" in ei.value.message


def test_both_routes_rejected():
    text = MATRIX.replace("[h_matrix]", "c1 = 1\n\n[h_matrix]")
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(text)
    assert ei.value.kind == "consistency" and "not both" in ei.value.message


@pytest.mark.parametrize(
    "text, where, message",
    [
        (
            MINIMAL + "\n[phi]\ny = 1\n",
            "5:1",
            "a [phi] block needs an [h_matrix] block",
        ),
        (
            # the first invariant-route key in the file, not in key order
            MATRIX.replace("[h_matrix]", "case = null\nc1 = 0\n\n[h_matrix]"),
            "8:1",
            "give invariant-level attaching data or an [h_matrix] block, not both",
        ),
        ("l = 1\nspin = true\n", "3:1", "missing required key 'd'"),
        ("l = 1\nd = 1", "2:6", "missing required key 'spin'"),
        ("", "1:1", "missing required key 'l'"),
        (
            # no case key: the default null case is ruled out by spin
            "l = 1\nd = 1\nspin = false\n",
            "3:8",
            "case 'null' is not allowed for this spin/smooth combination",
        ),
    ],
    ids=["phi-without-matrix", "both-routes", "missing-key", "missing-key-no-newline",
         "empty-file", "default-case"],
)
def test_file_level_error_is_located(tmp_path, monkeypatch, capsys, text, where, message):
    monkeypatch.chdir(tmp_path)
    Path("f.txt").write_text(text)
    assert main(["f.txt"]) == 2
    assert capsys.readouterr().err == f"f.txt:{where}: consistency error: {message}\n"


# A matrix-route file up to its one sphere row, for the block-level errors.
_MATRIX_HEAD = "l = 1\nd = 1\nspin = false\n\n[h_matrix]\nsphere = 0\n"


@pytest.mark.parametrize(
    "text, located",
    [
        (
            MINIMAL + "\n[h_matrix]\n[h_matrix]\n",
            "6:1: consistency error: duplicate [h_matrix] block",
        ),
        (_MATRIX_HEAD + "[phi]\ny = 1\n[phi]\n", "9:1: consistency error: duplicate [phi] block"),
        (MINIMAL + "[psi]\n", "4:1: syntax error: unknown block [psi]"),
        (_MATRIX_HEAD + "moore = 0\n", "7:1: syntax error: expected 'moore r=<exp> = entries'"),
        (_MATRIX_HEAD + "moore r=0 = 0\n", "7:1: range error: moore exponent must be at least 1"),
        (_MATRIX_HEAD + "[phi]\nq = 1\n", "8:1: syntax error: expected 'x|y|z|eps|w = bits'"),
        (
            _MATRIX_HEAD + "[phi]\ny = 1\ny = 0\n",
            "9:1: consistency error: duplicate phi component 'y'",
        ),
        (
            "l = 2\nd = 1\nT = Z/2\nspin = false\nconsumed = 0, 1\n",
            "5:12: syntax error: consumed must look like [0, 2]",
        ),
    ],
    ids=["duplicate-matrix", "duplicate-phi", "unknown-block", "moore-without-r", "moore-r-0",
         "bad-phi-key", "duplicate-phi-component", "consumed-without-brackets"],
)
def test_block_and_row_errors_are_located(tmp_path, monkeypatch, capsys, text, located):
    monkeypatch.chdir(tmp_path)
    Path("f.txt").write_text(text)
    assert main(["f.txt"]) == 2
    assert capsys.readouterr().err == f"f.txt:{located}\n"


def test_phi_without_matrix_rejected():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(MINIMAL + "\n[phi]\ny = 1\n")
    assert ei.value.kind == "consistency"


def test_h_with_even_torsion_rejected():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = 1\nd = 1\nH = Z/6\nspin = true\n")
    assert ei.value.kind == "consistency"


def test_matrix_entry_errors():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(MATRIX.replace("eta 0", "2 0"))
    assert ei.value.kind == "range"
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(MATRIX.replace("eta 0", "zeta 0"))
    assert ei.value.kind == "syntax"


@pytest.mark.parametrize(
    "row, message",
    [
        ("sphere = eta 0 bogus 7", "syntax error: unknown entry 'bogus' (use 0/eta)"),
        ("sphere = eta 2 bogus", "range error: entry '2' not allowed here (use 0/eta)"),
        ("sphere = 0 eta -1", "range error: entry '-1' not allowed here (use 0/eta)"),
    ],
)
def test_matrix_entry_error_names_the_first_bad_token(row, message):
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(MATRIX.replace("sphere = eta 0", row))
    assert str(ei.value) == f"<input>:9:1: {message}"


def test_descriptor_inconsistency_reported():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text("l = 1\nd = 1\nspin = true\nc1 = 2\n")
    assert ei.value.kind == "consistency"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "l = 1\nd = 1\nT = Z/2\nspin = true\nc2 = 1\nconsumed = [5]\n",
            "f.txt:6:12: consistency error: consumed indices out of range",
        ),
        (
            "l = 1\nd = 1\nspin = true\ncase = eta\n",
            "f.txt:4:8: consistency error: "
            "case 'eta' is not allowed for this spin/smooth combination",
        ),
        (
            "l = 1\nd = 2\nspin = true\nc1 = 3\n",
            "f.txt:4:6: consistency error: c1 must satisfy 0 <= c1 <= min(l, d)",
        ),
        (
            # the matrix route derives the case: at the [h_matrix] header
            PHI.replace("spin = false", "spin = true"),
            "f.txt:7:1: consistency error: "
            "case 'eta' is not allowed for this spin/smooth combination",
        ),
        (
            "l = 1\nd = 1\nspin = false\ncase = eta(0)\n",
            "f.txt:4:8: consistency error: case 'eta' takes no summand index",
        ),
        (
            "l = 1\nd = 1\nT = Z/4\nspin = false\ncase = tilde_eta\n",
            "f.txt:5:8: consistency error: "
            "case 'tilde_eta' needs an unconsumed two-primary summand",
        ),
    ],
    ids=["consumed", "case", "c1", "derived-case", "case-takes-no-index", "case-needs-index"],
)
def test_descriptor_error_is_located_at_its_key(text, message):
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(text, source="f.txt")
    assert ei.value.kind == "consistency"
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("eta 0", "eta", "rows of unequal length"),
        ("d = 1", "d = 2", "h_matrix needs one sphere row per free class"),
        (
            "T = Z/2",
            "T = Z/4",
            "h_matrix Moore exponents must match the two-primary part of h2",
        ),
        ("l = 2", "l = 3", "h_matrix needs one column per source class"),
    ],
    ids=["unequal-rows", "sphere-rows", "moore-exponents", "columns"],
)
def test_matrix_shape_error_is_located_at_the_header(old, new, message):
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(MATRIX.replace(old, new), source="f.txt")
    assert str(ei.value) == f"f.txt:8:1: consistency error: {message}"


def test_shape_error_takes_precedence_over_phi_sizing():
    text = MATRIX.replace("l = 2", "l = 3") + "\n[phi]\nx = 0 0 0\n"
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(text, source="f.txt")
    assert str(ei.value) == (
        "f.txt:8:1: consistency error: h_matrix needs one column per source class"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (
            PHI.replace("y = 1", "x = 1"),
            "f.txt:11:1: consistency error: eta^2 components are not allowed for smooth input",
        ),
        (
            _readme_example().replace("z = 1", "eps = 1"),
            "f.txt:13:1: consistency error: "
            "included eta^2 components are not allowed for smooth input",
        ),
    ],
    ids=["x", "eps"],
)
def test_smooth_eta_sq_component_is_located_at_its_row(text, message):
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(text, source="f.txt")
    assert str(ei.value) == message


def test_unknown_case_lists_every_kind():
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(MINIMAL + "case = zeta\n", source="f.txt")
    assert str(ei.value) == (
        "f.txt:4:8: syntax error: case must be null, eta, eta_sq, "
        "tilde_eta(j), ip_tilde_eta(j), or i_eta_sq(j)"
    )


@pytest.mark.parametrize("rank", ["10000000", "99999999999"])
def test_free_rank_is_counted_not_expanded(rank):
    # a list of n zeros for Z^n would take 80 MB at n = 10^7
    text = f"l = 1\nd = 1\nspin = true\nT = Z^{rank}\n"
    parse_descriptor_text(MINIMAL)  # compile the parser's regexes first
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as ei:
            parse_descriptor_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(ei.value) == "<input>:4:5: consistency error: h2 torsion part must be a torsion group"
    assert peak < 50_000


@pytest.mark.parametrize("rank", [str(2**64), "9" * 5000])
def test_free_rank_of_2_64_or_more_is_a_located_range_error(rank):
    # 5000 digits are past int()'s own limit, which used to surface as a syntax error
    with pytest.raises(ParseError) as ei:
        parse_descriptor_text(f"l = 1\nd = 1\nspin = true\nT = Z^{rank}\n")
    err = ei.value
    assert (err.kind, err.line, err.column) == ("range", 4, 5)
    assert err.message.endswith("is not below 2^64")


_BIG = "9" * 5000  # past int()'s 4300-digit limit, which used to end in a traceback


@pytest.mark.parametrize(
    "text, where, message",
    [
        (f"l = {_BIG}\nd = 1\nspin = true\n", "1:5", "l must be at most 4096"),
        ("l = 4097\nd = 1\nspin = true\n", "1:5", "l must be at most 4096"),
        ("l = 1\nd = 4097\nspin = true\n", "2:5", "d must be at most 4096"),
        (f"l = 2\nd = 1\nspin = true\nc1 = {_BIG}\n", "4:6", "c1 must be below 2^64"),
        (
            f"{MINIMAL}T = Z/2\nconsumed = [0, {_BIG}]\n",
            "5:12",
            "consumed index must be below 2^64",
        ),
        (
            f"{MINIMAL}T = Z/2\ncase = tilde_eta({_BIG})\n",
            "5:8",
            "case index must be below 2^64",
        ),
        (
            f"{MINIMAL}T = Z/2\n[h_matrix]\nsphere = eta\nmoore r={_BIG} = 0\n",
            "7:1",
            "moore exponent must be below 2^64",
        ),
    ],
    ids=["l-digits", "l-cap", "d-cap", "c1", "consumed", "case", "moore-r"],
)
def test_oversized_integers_are_located_range_errors(tmp_path, text, where, message):
    p = tmp_path / "big.txt"
    p.write_text(text, encoding="utf-8")
    err = io.StringIO()
    assert run(RunConfig(paths=(str(p),)), stdout=io.StringIO(), stderr=err) == 2
    assert err.getvalue() == f"{p}:{where}: range error: {message}\n"


def test_l_and_d_cap_is_inclusive():
    desc = parse_descriptor_text("l = 4096\nd = 0004096\nspin = true\n")
    assert (desc.l, desc.d) == (4096, 4096)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_render_parse_round_trip(seed):
    d0 = random_descriptor(random.Random(seed))
    assert parse_descriptor_text(render_descriptor(d0)) == d0


@st.composite
def matrix_route_texts(draw):
    """An [h_matrix] + [phi] file of a random small shape.  Each count is
    drawn near the one its invariants ask for, so some files are consistent
    and the rest miss in one place or several."""
    near = st.sampled_from([0, 1, 1, 2, 2, 3, 3])
    l, d = draw(near), draw(near)
    exps = sorted(draw(st.lists(st.integers(1, 3), max_size=3)))
    torsion = " + ".join([f"Z/2^{e}" for e in exps] + draw(st.sampled_from([[], ["Z/3"]])))
    cols = draw(st.sampled_from([l] * 6 + [l + 1, max(l - 1, 0)]))
    lines = [
        f"l = {l}",
        f"d = {d}",
        f"H = {draw(st.sampled_from(['0', '0', '0', 'Z/3', 'Z/2']))}",
        f"T = {torsion or '0'}",
        f"spin = {draw(st.sampled_from(['true', 'false']))}",
        f"smooth = {draw(st.sampled_from(['true', 'false']))}",
        "[h_matrix]",
    ]

    def entries(vocab, n):
        return " ".join(draw(st.lists(st.sampled_from(vocab), min_size=n, max_size=n)))

    for _ in range(draw(st.sampled_from([d] * 6 + [d + 1]))):
        lines.append(f"sphere = {entries(['0', 'eta'], cols)}")
    shuffled = draw(st.integers(0, 3)) == 0  # Moore rows out of order: a shape error
    for e in draw(st.permutations(exps)) if shuffled else exps:
        lines.append(f"moore r={e} = {entries(['0', 'i3eta'], cols)}")
    if draw(st.booleans()):
        lines.append("[phi]")
        for key in draw(st.lists(st.sampled_from(["x", "y", "z", "eps", "w"]), unique=True)):
            lines.append(f"{key} = {entries(['0', '1'], draw(st.integers(0, 3)))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(matrix_route_texts())
def test_matrix_route_parses_or_is_located(text):
    try:
        d0 = parse_descriptor_text(text)
    except ParseError as exc:
        assert exc.line >= 1, str(exc)
    else:
        assert parse_descriptor_text(render_descriptor(d0)) == d0


def test_build_report_contents():
    report = build_report(parse_descriptor_text(MINIMAL))
    assert report["single_suspension"] == "S^2 v S^3 v S^4 v S^5 v S^6"
    assert report["invariants"]["pi3"] == "Z + Z/2 + Z/2"
    assert report["invariants"]["k"] == "Z^2"
    assert set(report["checks"].values()) == {"ok"}


def test_run_human_output():
    buf, err = io.StringIO(), io.StringIO()
    code = run(
        RunConfig(),
        stdin=io.BytesIO(b"l = 1\nd = 1\nH = Z/5\nspin = true\n"),
        stdout=buf,
        stderr=err,
    )
    assert code == 0, err.getvalue()
    out = buf.getvalue()
    assert "P^3(Z/5)" in out
    assert "implied by connectivity" in out
    assert "checks:" in out and "fail" not in out


def test_structured_output_is_byte_stable():
    payloads = []
    for _ in range(2):
        buf = io.StringIO()
        code = run(RunConfig(fmt="structured"), stdin=io.BytesIO(FULL.encode()), stdout=buf)
        assert code == 0
        payloads.append(buf.getvalue())
    assert payloads[0] == payloads[1]
    report = json.loads(payloads[0])
    assert report["input"]["case"] == "tilde_eta(0)"
    assert report["checks"]["cohomotopy_crosscheck"] == "ok"


def test_parse_error_exit_and_stderr(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("l = x\nd = 1\nspin = true\n")
    err = io.StringIO()
    code = run(RunConfig(paths=(str(p),)), stdout=io.StringIO(), stderr=err)
    assert code == 2
    assert "syntax error" in err.getvalue()


@pytest.mark.parametrize("flag", ["true", "false"])
def test_contradictory_smooth_and_pd_mode_exit(tmp_path, flag):
    p = tmp_path / "both.txt"
    p.write_text(f"l = 1\nd = 1\nspin = true\nsmooth = {flag}\npd_mode = {flag}\n")
    err = io.StringIO()
    code = run(RunConfig(paths=(str(p),)), stdout=io.StringIO(), stderr=err)
    assert code == 2
    assert err.getvalue() == (
        f"{p}:5:11: consistency error: exactly one of smooth and pd_mode must be set\n"
    )


def test_missing_file_exit(tmp_path):
    err = io.StringIO()
    code = run(
        RunConfig(paths=(str(tmp_path / "nope.txt"),)), stdout=io.StringIO(), stderr=err
    )
    assert code == 2

    # a missing file in a batch is reported, and the rest still run
    nope, good = tmp_path / "nope.txt", tmp_path / "good.txt"
    good.write_text(MINIMAL)
    missing = f"{nope}: {os.strerror(errno.ENOENT)}\n"
    for fmt in ("human", "structured"):
        out, err = io.StringIO(), io.StringIO()
        config = RunConfig(paths=(str(nope), str(good)), fmt=fmt)
        assert run(config, stdout=out, stderr=err) == 2
        assert err.getvalue() == missing
        if fmt == "human":
            assert out.getvalue().startswith(f"== {good} ==\n")
        else:
            [line] = out.getvalue().splitlines()
            assert json.loads(line)["source"] == str(good)


def test_three_torsion_is_reported_not_split(tmp_path):
    """Three-primary H lies outside the splitting theorem: the report says
    the single suspension is not determined and why, and still gives the
    double suspension, as one file or in a batch."""
    text = "l = 1\nd = 1\nH = Z/3\nspin = true\n"
    note = "three-primary torsion in H lies outside the splitting theorem"
    buf = io.StringIO()
    assert run(RunConfig(fmt="structured"), stdin=io.BytesIO(text.encode()), stdout=buf) == 0
    report = json.loads(buf.getvalue())
    assert report["single_suspension"] is None
    assert report["single_suspension_note"] == note
    assert "P^4(Z/3)" in report["double_suspension"]
    assert report["checks"]["cohomotopy_crosscheck"].startswith("skipped")

    p = tmp_path / "h3.txt"
    p.write_text(text)
    for paths in ((str(p),), (str(p), str(p))):
        out, err = io.StringIO(), io.StringIO()
        assert run(RunConfig(paths=paths), stdout=out, stderr=err) == 0
        assert err.getvalue() == ""
        for line in (
            f"suspension:         not determined ({note})\n",
            f"double suspension:  {report['double_suspension']}\n",
            "  cohomotopy_crosscheck: skipped (single suspension not determined)\n",
        ):
            assert out.getvalue().count(line) == len(paths), line


# One way to break the recomputation behind each consistency check.
_Z, _0 = FgAbGroup.free(1), FgAbGroup.trivial()
_FAULTS = {
    "homology_shift": (cli, "manifold_homology", lambda desc: dict.fromkeys(range(6), _0)),
    "weight_count": (ElementaryComplex, "weight", lambda self: 0),
    "complex_k_balance": (invariants, "k_of_summand", lambda s: _Z),
    "real_k_balance": (invariants, "ko_of_summand", lambda s: _Z),
    "cohomotopy_crosscheck": (invariants, "maps_to_s4", lambda s: (_Z, False)),
}


# The trace a table out of balance leaves out of the report.
_TRACE_OF = {"complex_k_balance": "k", "real_k_balance": "ko"}


@pytest.mark.parametrize("check", sorted(_FAULTS))
def test_every_check_can_fail_end_to_end(tmp_path, monkeypatch, capsys, check):
    monkeypatch.setattr(*_FAULTS[check])
    p = tmp_path / "m.txt"
    p.write_text(MINIMAL)
    assert main([str(p)]) == 1
    assert f"  {check}: fail\n" in capsys.readouterr().out
    assert main([str(p), "--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == {name: "fail" if name == check else "ok" for name in _FAULTS}
    assert set(report["traces"]) == {"k", "ko", "pi4_sigma"} - {_TRACE_OF.get(check)}


def test_a_suspension_that_drops_its_top_fails_both_checks(monkeypatch, capsys):
    """The homology and weight checks read the double suspension the report
    prints: a Wedge.suspend that drops its last run, the top piece, fails
    both on every sample descriptor."""
    suspend = Wedge.suspend
    monkeypatch.setattr(Wedge, "suspend", lambda w: Wedge(suspend(w).runs[:-1]))
    root = Path(__file__).resolve().parents[1]
    paths = sorted(map(str, (root / "scripts" / "descriptors").glob("*.txt")))
    assert len(paths) > 1
    assert main([*paths, "--format", "structured"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["source"] for r in reports] == paths
    for r in reports:
        assert r["checks"]["homology_shift"] == "fail", r["source"]
        assert r["checks"]["weight_count"] == "fail", r["source"]


def test_planted_table_faults_get_through_warm_memos(monkeypatch):
    """The contribution memo is keyed by the table a report looks up, so a
    replaced table fails its check after the real one has filled the memo,
    and the real one reads ok again once it is back."""
    desc = parse_descriptor_text(FULL)
    clean = build_report(desc)
    assert set(clean["checks"].values()) == {"ok"}
    for check in ("complex_k_balance", "real_k_balance", "cohomotopy_crosscheck"):
        with monkeypatch.context() as m:
            m.setattr(*_FAULTS[check])
            report = build_report(desc)
        assert report["checks"] == {name: "fail" if name == check else "ok" for name in _FAULTS}
        if check in _TRACE_OF:
            assert set(report["traces"]) == {"k", "ko", "pi4_sigma"} - {_TRACE_OF[check]}
        else:
            assert {row[1] for row in report["traces"]["pi4_sigma"]} == {"Z"}
        assert build_report(desc) == clean


def test_reports_share_no_mutable_state():
    """Changing every list of one report leaves the next report of the same
    descriptor as it was."""
    desc = parse_descriptor_text(FULL)
    first = build_report(desc)
    kept = copy.deepcopy(first)
    first["input"]["consumed"].append(99)
    for rows in first["traces"].values():
        for row in rows:
            row.append("changed")
        rows.append(["changed"])
    assert build_report(desc) == kept


@pytest.mark.parametrize("prop", ["w5", "suspension_wedge"])
@pytest.mark.parametrize("text", [FULL, THREE_PRIMARY_ETA], ids=["split", "not_split"])
def test_one_report_builds_each_cached_wedge_once(monkeypatch, prop, text):
    """W5 and the suspension wedge are each built once per report: the
    suspension wedge, its suspension and the three homology sections share
    them, whether or not the single suspension splits."""
    calls = []
    build = getattr(decompose.ManifoldDescriptor, prop).func

    def counted(desc):
        calls.append(desc)
        return build(desc)

    cached = cached_property(counted)
    cached.__set_name__(decompose.ManifoldDescriptor, prop)
    monkeypatch.setattr(decompose.ManifoldDescriptor, prop, cached)
    report = build_report(parse_descriptor_text(text))
    assert len(calls) == 1
    built = getattr(calls[0], prop)
    if prop == "w5":
        assert report["sections"]["w5"] == built.render()
    else:
        assert report["double_suspension"] == built.suspend().render()


def test_reports_build_no_summand_list(monkeypatch):
    """Every report wedge comes from a count table: wedge(), the normaliser
    of summand lists, raises wherever a susp5 module holds it."""
    def no_lists(*summands):
        raise AssertionError("a report built a wedge from a summand list")

    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "susp5"]
    for module in holders:
        if hasattr(module, "wedge"):
            monkeypatch.setattr(module, "wedge", no_lists)
    root = Path(__file__).resolve().parents[1]
    texts = [p.read_text() for p in sorted((root / "scripts" / "descriptors").glob("*.txt"))]
    assert texts
    for text in [*texts, THREE_PRIMARY_ETA]:
        build_report(parse_descriptor_text(text))


def test_a_second_pass_builds_no_summand(monkeypatch):
    """Each distinct summand is built and validated once per process: a
    second pass over the same descriptors constructs none."""
    root = Path(__file__).resolve().parents[1]
    descs = [
        parse_descriptor_text(p.read_text())
        for p in sorted((root / "scripts" / "descriptors").glob("*.txt"))
    ]
    assert descs

    def one_pass():
        for desc in descs:
            build_report(desc)

    one_pass()
    built = []
    post_init = ElementaryComplex.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ElementaryComplex, "__post_init__", counted)
    one_pass()
    assert built == []


def test_out_file(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text(MINIMAL)
    dst = tmp_path / "report.json"
    args = [str(src), "--format", "structured"]
    assert main([*args, "--out", str(dst)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert dst.read_text() == capsys.readouterr().out


def test_out_file_may_name_its_own_input(tmp_path):
    # --out is written after every input is read, so the input is intact
    src = tmp_path / "a.txt"
    src.write_text(MINIMAL)
    assert main([str(src), "--out", str(src)]) == 0
    assert src.read_text() == render_human(build_report(parse_descriptor_text(MINIMAL)))


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_a_batch_writes_each_report_before_reading_the_next_input(tmp_path, monkeypatch, fmt):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(MINIMAL)
    b.write_text(MATRIX)
    out = io.StringIO()
    written_before = {}

    def spy(path, *args, **kwargs):
        written_before[path] = out.getvalue()
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    assert run(RunConfig(paths=(str(a), str(b)), fmt=fmt), stdout=out) == 0
    first = written_before[str(b)]
    assert written_before[str(a)] == "" and out.getvalue().startswith(first)
    if fmt == "human":
        assert first == f"== {a} ==\n" + render_human(build_report(parse_descriptor_text(MINIMAL)))
    else:
        assert first.count("\n") == 1 and json.loads(first)["source"] == str(a)


def test_unwritable_out_path_exit(tmp_path):
    src = tmp_path / "m.txt"
    src.write_text(MINIMAL)
    dst = tmp_path / "no-such-dir" / "report.json"
    err = io.StringIO()
    code = run(RunConfig(paths=(str(src),), out=str(dst)), stdout=io.StringIO(), stderr=err)
    assert code == 2
    assert err.getvalue() == f"{dst}: {os.strerror(errno.ENOENT)}\n"


def test_batch_structured_is_one_line_per_input(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text(MINIMAL)
    b = tmp_path / "b.txt"
    b.write_text(MATRIX)
    buf = io.StringIO()
    code = run(RunConfig(paths=(str(a), str(b)), fmt="structured"), stdout=buf)
    assert code == 0
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [r["source"] for r in rows] == [str(a), str(b)]


def test_module_entry_point(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(MINIMAL)
    proc = subprocess.run(
        [sys.executable, "-m", "susp5", str(p)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "S^2 v S^3 v S^4 v S^5 v S^6" in proc.stdout


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_closed_pipe_exits_141_without_a_traceback(fmt):
    # 120 reports overflow the pipe buffer, so the writer is still writing
    # when the reader goes away, as with `susp5 files... | head -1`
    descriptors = sorted((Path(__file__).resolve().parents[1] / "scripts/descriptors").glob("*.txt"))
    src = str(Path(susp5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen(
        [sys.executable, "-m", "susp5", "--format", fmt, *map(str, descriptors * 20)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    assert proc.returncode == 141, stderr
    assert "Traceback" not in stderr


# A complex K-theory table that is wrong on spheres; the balance check
# must catch it however the interpreter runs (asserts vanish under -O).
_BAD_K_TABLE = """
import sys
from susp5 import cli, invariants
from susp5.abgroup import FgAbGroup
from susp5.spaces import SPHERE

good = invariants.k_of_summand
invariants.k_of_summand = lambda s: FgAbGroup.free(1) if s.kind == SPHERE else good(s)
with open(sys.argv[1], encoding="utf-8") as fh:
    desc = cli.parse_descriptor_text(fh.read())
print(__debug__, cli.build_report(desc)["checks"]["complex_k_balance"])
"""


@pytest.mark.parametrize("flags, debug", [([], True), (["-O"], False)])
def test_k_balance_fault_detected_with_and_without_O(flags, debug):
    descriptor = Path(__file__).resolve().parents[1] / "scripts/descriptors/spin_trivial.txt"
    src = str(Path(susp5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _BAD_K_TABLE, str(descriptor)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(debug), "fail"]


# Runs the CLI over the sample descriptors and prints every susp5 module
# the run imported.
_IMPORTED_BY_CLI = """
import contextlib, io, sys
from susp5.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    main(["--format", "structured", *sys.argv[1:]])
print(" ".join(sorted(m for m in sys.modules if m.startswith("susp5."))))
"""


def test_every_module_is_reached_from_the_cli():
    # a module no report path imports is dead code: wire it in or delete it
    root = Path(__file__).resolve().parents[1]
    descriptors = sorted((root / "scripts" / "descriptors").glob("*.txt"))
    src = str(Path(susp5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTED_BY_CLI, *map(str, descriptors)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    modules = {
        info.name
        for info in pkgutil.iter_modules(susp5.__path__, "susp5.")
        if info.name != "susp5.__main__"
    }
    assert modules - set(proc.stdout.split()) == set()
