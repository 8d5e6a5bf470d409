"""Command-line front end.

Reads descriptor files (or standard input), validates them, computes the
suspension splittings, homology sections, K-theory, and cohomotopy, runs
the built-in consistency checks, and prints either a human-readable or a
machine-readable report.

Descriptor files are line-oriented.  Scalar lines look like ``key = value``
with keys l, d, H, T, spin, smooth, pd_mode and, for the invariant-level
route, c1, c2, consumed, case.  Alternatively an ``[h_matrix]`` block gives
the incidence matrix row by row (``sphere = eta 0``, ``moore r=2 = 0 i3eta``)
and an optional ``[phi]`` block gives the top-attachment components as bit
rows (x, y, z, eps, w) relative to the reduced matrix; the normal form is
then computed.  ``#`` starts a comment.

The parser passes the matrix and the phi rows by name to
decompose.resolve_attaching_data, which reduces the matrix once and sizes
every row from that reduction.  An error about one phi row is reported at
that row; one about the matrix as a whole, or about a value the matrix
route derives, at the ``[h_matrix]`` header.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from typing import NoReturn

from susp5.abgroup import ORDER_BOUND, FgAbGroup, OrderRangeError, int_below
from susp5.decompose import (
    CASES,
    DecompositionError,
    ManifoldDescriptor,
    double_suspension_decomposition,
    homology_section,
    manifold_homology,
    resolve_attaching_data,
    suspension_decomposition,
)
from susp5.invariants import (
    BalanceError,
    hurewicz_cohomotopy,
    k_group,
    ko_group,
    pi3,
    pi4_sigma_crosscheck,
)
from susp5.reduction import AttachCase, DescriptorError, HMatrix

_0 = FgAbGroup.trivial()


class ParseError(ValueError):
    """Rejected input; kind is 'syntax', 'range', or 'consistency'."""

    def __init__(self, kind, message, source="<input>", line=0, column=0):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.source = source
        self.line = line
        self.column = column

    def __str__(self):
        where = self.source
        if self.line:
            where += f":{self.line}"
            if self.column:
                where += f":{self.column}"
        return f"{where}: {self.kind} error: {self.message}"


# Each descriptor file key, in file order, with the key of its value in
# the report's "input" block, which is the descriptor attribute it sets.
_SCALAR_KEYS = {
    "l": "l",
    "d": "d",
    "H": "h1_torsion",
    "T": "h2_torsion",
    "spin": "spin",
    "smooth": "smooth",
    "pd_mode": "pd_mode",
    "c1": "c1",
    "c2": "c2",
    "consumed": "consumed",
    "case": "case",
}
_INVARIANT_ROUTE_KEYS = ("c1", "c2", "consumed", "case")
# Every descriptor integer lies below 2^64; l and d are at most this.
MAX_L_D = 4096
_CASE_RE = re.compile(f"({'|'.join(CASES)})" + r"(?:\(([0-9]+)\))?")
_MOORE_ROW_RE = re.compile(r"moore\s+r=([0-9]+)\s*=\s*(.*)")
_CONSUMED_RE = re.compile(r"\[\s*((?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?)\]")


def _position(text: str) -> tuple[int, int]:
    """The line and column just past the end of text."""
    return text.count("\n") + 1, len(text.rpartition("\n")[2]) + 1


class _Parser:
    def __init__(self, text: str, source: str):
        self.source = source
        self.scalars: dict[str, tuple[str, int, int]] = {}
        self.sphere_rows: list[tuple[int, ...]] = []
        self.moore_rows: list[tuple[int, ...]] = []
        self.moore_exponents: list[int] = []
        self.phi_rows: dict[str, tuple[tuple[int, ...], int, int]] = {}
        self.matrix_line = 0  # the [h_matrix] header, 0 without one
        self.phi_line = 0  # the [phi] header, 0 without one
        # where the file ends: after its last newline, or at the end of an
        # unterminated last line
        self.end = _position(text)
        self._scan(text)

    def error(self, kind: str, msg: str, line: int = 0, col: int = 0) -> NoReturn:
        raise ParseError(kind, msg, self.source, line, col)

    # -- scanning ------------------------------------------------------------

    def _scan(self, text: str) -> None:
        section = None
        # lines end at "\n" only, as self.end counts them: splitlines() would
        # also break at form feed, NEL and the like inside a comment
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].rstrip()
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("["):
                if stripped == "[h_matrix]":
                    if self.matrix_line:
                        self.error("consistency", "duplicate [h_matrix] block", lineno, 1)
                    self.matrix_line = lineno
                    section = "h_matrix"
                elif stripped == "[phi]":
                    if self.phi_line:
                        self.error("consistency", "duplicate [phi] block", lineno, 1)
                    self.phi_line = lineno
                    section = "phi"
                else:
                    self.error("syntax", f"unknown block {stripped}", lineno, 1)
                continue
            if section == "h_matrix":
                self._scan_matrix_row(stripped, lineno)
            elif section == "phi":
                self._scan_phi_row(stripped, lineno)
            else:
                self._scan_scalar(line, lineno)

    def _scan_scalar(self, line: str, lineno: int) -> None:
        if "=" not in line:
            self.error("syntax", "expected 'key = value'", lineno, 1)
        eq = line.index("=")
        key = line[:eq].strip()
        rest = line[eq + 1 :]
        col = eq + 2 + (len(rest) - len(rest.lstrip()))
        value = rest.strip()
        if key not in _SCALAR_KEYS:
            self.error("syntax", f"unknown key {key!r}", lineno, 1)
        if key in self.scalars:
            self.error("consistency", f"duplicate key {key!r}", lineno, 1)
        if not value:
            self.error("syntax", f"missing value for {key!r}", lineno, col)
        self.scalars[key] = (value, lineno, col)

    def _scan_matrix_row(self, line: str, lineno: int) -> None:
        if line.startswith("sphere"):
            rest = line[len("sphere") :].lstrip()
            if not rest.startswith("="):
                self.error("syntax", "expected 'sphere = entries'", lineno, 1)
            self.sphere_rows.append(self._entries(rest[1:], {"0": 0, "eta": 1}, lineno))
            return
        if line.startswith("moore"):
            m = _MOORE_ROW_RE.fullmatch(line)
            if not m:
                self.error("syntax", "expected 'moore r=<exp> = entries'", lineno, 1)
            r = self._nat(m.group(1), "moore exponent", lineno, 1)
            if r < 1:
                self.error("range", "moore exponent must be at least 1", lineno, 1)
            self.moore_rows.append(self._entries(m.group(2), {"0": 0, "i3eta": 1}, lineno))
            self.moore_exponents.append(r)
            return
        self.error("syntax", "matrix rows start with 'sphere' or 'moore'", lineno, 1)

    def _scan_phi_row(self, line: str, lineno: int) -> None:
        key, eq, rest = line.partition("=")
        key = key.strip()
        if key not in ("x", "y", "z", "eps", "w") or not eq:
            self.error("syntax", "expected 'x|y|z|eps|w = bits'", lineno, 1)
        if key in self.phi_rows:
            self.error("consistency", f"duplicate phi component {key!r}", lineno, 1)
        bits = self._entries(rest, {"0": 0, "1": 1}, lineno, allow_empty=True)
        self.phi_rows[key] = (bits, lineno, 1)

    def _entries(self, text, vocab, lineno, allow_empty=False):
        tokens = text.split()
        out = tuple(map(vocab.get, tokens))
        if None in out:  # reported at the first token not in vocab
            tok = tokens[out.index(None)]
            allowed = "/".join(vocab)
            if re.fullmatch(r"-?[0-9]+", tok):
                self.error("range", f"entry {tok!r} not allowed here (use {allowed})", lineno, 1)
            self.error("syntax", f"unknown entry {tok!r} (use {allowed})", lineno, 1)
        if not out and not allow_empty:
            self.error("syntax", "empty row", lineno, 1)
        return out

    # -- typed scalar access ---------------------------------------------------

    def _nat(self, digits: str, what: str, line: int, col: int, cap: int | None = None) -> int:
        """The value of a digit string: below 2^64 and, given a cap, at most
        the cap; anything else is a range error decided by the digit count
        before any big integer is formed."""
        n = int_below(digits, ORDER_BOUND if cap is None else cap + 1)
        if n is None:
            limit = "below 2^64" if cap is None else f"at most {cap}"
            self.error("range", f"{what} must be {limit}", line, col)
        return n

    def _int(self, key: str) -> int:
        value, line, col = self.scalars[key]
        if re.fullmatch(r"-?[0-9]+", value) is None:
            self.error("syntax", f"{key} must be an integer", line, col)
        if value.startswith("-") and value.strip("-0"):
            self.error("range", f"{key} must be nonnegative", line, col)
        cap = MAX_L_D if key in ("l", "d") else None
        return self._nat(value.lstrip("-"), key, line, col, cap)

    def _bool(self, key: str) -> bool:
        value, line, col = self.scalars[key]
        if value == "true":
            return True
        if value == "false":
            return False
        self.error("syntax", f"{key} must be true or false", line, col)

    def _group(self, key: str) -> FgAbGroup:
        value, line, col = self.scalars[key]
        try:
            return FgAbGroup.from_string(value)
        except OrderRangeError as exc:
            self.error("range", f"bad group literal for {key}: {exc}", line, col)
        except ValueError as exc:
            self.error("syntax", f"bad group literal for {key}: {exc}", line, col)

    def _case(self) -> AttachCase:
        value, line, col = self.scalars["case"]
        m = _CASE_RE.fullmatch(value)
        if not m:
            *kinds, last = (k if c.index is None else f"{k}(j)" for k, c in CASES.items())
            self.error("syntax", f"case must be {', '.join(kinds)}, or {last}", line, col)
        # ManifoldDescriptor decides whether the case takes an index
        kind, idx = m.group(1), m.group(2)
        return AttachCase(kind, None if idx is None else self._nat(idx, "case index", line, col))

    def _consumed(self) -> tuple[int, ...]:
        value, line, col = self.scalars["consumed"]
        m = _CONSUMED_RE.fullmatch(value)
        if not m:
            self.error("syntax", "consumed must look like [0, 2]", line, col)
        inner = m.group(1).strip()
        if not inner:
            return ()
        return tuple(
            self._nat(tok, "consumed index", line, col)
            for tok in inner.replace(",", " ").split()
        )

    # -- assembly ----------------------------------------------------------------

    def build(self) -> ManifoldDescriptor:
        for key in ("l", "d", "spin"):
            if key not in self.scalars:
                self.error("consistency", f"missing required key {key!r}", *self.end)
        l = self._int("l")
        d = self._int("d")
        spin = self._bool("spin")
        h1 = self._group("H") if "H" in self.scalars else _0
        h2 = self._group("T") if "T" in self.scalars else _0
        smooth = self._bool("smooth") if "smooth" in self.scalars else True
        if "pd_mode" in self.scalars:
            pd_mode = self._bool("pd_mode")
            if "smooth" in self.scalars and pd_mode == smooth:
                _, line, col = self.scalars["pd_mode"]
                self.error(
                    "consistency", "exactly one of smooth and pd_mode must be set", line, col
                )
            smooth = not pd_mode

        inv_lines = [self.scalars[k][1] for k in _INVARIANT_ROUTE_KEYS if k in self.scalars]
        if inv_lines and self.matrix_line:
            self.error(
                "consistency",
                "give invariant-level attaching data or an [h_matrix] block, not both",
                min(inv_lines),
                1,
            )
        if self.phi_line and not self.matrix_line:
            self.error("consistency", "a [phi] block needs an [h_matrix] block", self.phi_line, 1)

        common = dict(
            l=l, d=d, h1_torsion=h1, h2_torsion=h2,
            spin=spin, smooth=smooth,
        )
        try:
            if self.matrix_line:
                return self._build_from_matrix(common)
            return ManifoldDescriptor(
                c1=self._int("c1") if "c1" in self.scalars else 0,
                c2=self._int("c2") if "c2" in self.scalars else 0,
                consumed=self._consumed() if "consumed" in self.scalars else (),
                case=self._case() if "case" in self.scalars else AttachCase("null"),
                **common,
            )
        except DescriptorError as exc:
            # at the key or phi row the error is about; anything else the
            # matrix route derives or checks as a whole, at its header; on
            # the invariant route only the default case has no line, and
            # the spin flag is what rules it out
            default = ("", self.matrix_line, 1) if self.matrix_line else self.scalars["spin"]
            _, line, col = {**self.scalars, **self.phi_rows}.get(exc.key, default)
            self.error("consistency", str(exc), line, col)

    def _build_from_matrix(self, common) -> ManifoldDescriptor:
        h = HMatrix(
            sphere_rows=tuple(self.sphere_rows),
            moore_rows=tuple(self.moore_rows),
            moore_exponents=tuple(self.moore_exponents),
        )
        phi = {key: bits for key, (bits, _, _) in self.phi_rows.items()}
        return resolve_attaching_data(h_matrix=h, phi=phi, **common)


def parse_descriptor_text(text: str, source: str = "<input>") -> ManifoldDescriptor:
    """Parse one descriptor file into a validated descriptor."""
    return _Parser(text, source).build()


def _input(desc: ManifoldDescriptor) -> dict:
    """The report's "input" block: each descriptor value as JSON data."""
    out = {key: getattr(desc, key) for key in _SCALAR_KEYS.values()}
    case = desc.case
    out.update(
        h1_torsion=desc.h1_torsion.render(),
        h2_torsion=desc.h2_torsion.render(),
        consumed=list(desc.consumed),
        case=case.kind if case.index is None else f"{case.kind}({case.index})",
    )
    return out


def render_descriptor(desc: ManifoldDescriptor) -> str:
    """Canonical invariant-route text for a descriptor; parses back equal."""
    inp = _input(desc)
    text = ""
    for key, name in _SCALAR_KEYS.items():
        value = inp[name]
        text += f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
    return text


# -- reports -------------------------------------------------------------------

def _trace_rows(comp):
    """One fresh list per summand, from each contribution's rendered row."""
    return [list(c.row) for c, n in comp.runs for _ in range(n)]


def build_report(desc):
    """Compute everything for one descriptor; returns a JSON-ready dict.

    Each wedge is built once and every invariant is read off it.  Every
    report runs the five consistency checks; each verdict is "ok" or
    "fail", but the cohomotopy crosscheck is skipped when the single
    suspension is not determined.  Three-primary torsion in H lies outside
    the splitting theorem: the report leaves the single suspension out, says
    why, and still gives the double suspension, which the homology and
    weight checks read.  Every list in the report is fresh, so no report
    shares mutable state with another report or with a memo.
    """
    try:
        single, note = suspension_decomposition(desc), {}
    except DecompositionError as exc:
        single, note = None, {"single_suspension_note": str(exc)}
    double = double_suspension_decomposition(desc)
    hm = manifold_homology(desc)

    # trace name -> computation; a table out of balance has no trace.  A
    # balanced group is its closed form, so each closed form is computed once.
    comps, closed = {}, {}
    for name, compute in (("k", k_group), ("ko", ko_group)):
        try:
            comps[name] = compute(desc, double)
            closed[name] = comps[name].group
        except BalanceError as exc:
            closed[name] = exc.expected
    p3 = pi3(desc)
    if single is not None:
        comps["pi4_sigma"] = pi4_sigma_crosscheck(single)

    # the double wedge's reduced homology is M's, shifted up twice
    h = len(desc.h1_torsion.torsion)
    t = len(desc.h2_torsion.torsion)
    passed = {
        "homology_shift": double.homology() == {i + 2: hm[i] for i in range(1, 6)},
        "weight_count": double.weight() == 2 * desc.l + 2 * desc.d + 2 * h + t + 1,
        "complex_k_balance": "k" in comps,
        "real_k_balance": "ko" in comps,
        "cohomotopy_crosscheck": None if single is None else comps["pi4_sigma"].group == p3,
    }
    verdict = {True: "ok", False: "fail", None: "skipped (single suspension not determined)"}

    return {
        "input": _input(desc),
        "case": {"tag": desc.case.kind, "phrase": CASES[desc.case.kind].phrase},
        "single_suspension": single.render() if single is not None else None,
        **note,
        "double_suspension": double.render(),
        "sections": {f"w{k}": homology_section(desc, k).render() for k in (3, 4, 5)},
        "homology": {str(i): hm[i].render() for i in range(6)},
        "invariants": {
            "k": closed["k"].render(),
            "ko": closed["ko"].render(),
            "pi1": hurewicz_cohomotopy(desc, 1).render(),
            "pi3": p3.render(),
            "pi5": hurewicz_cohomotopy(desc, 5).render(),
        },
        "traces": {name: _trace_rows(c) for name, c in comps.items()},
        "checks": {name: verdict[ok] for name, ok in passed.items()},
    }


def render_human(report) -> str:
    inp = report["input"]
    geometry = "smooth" if inp["smooth"] else "pd complex"
    lines = [
        f"descriptor: l={inp['l']} d={inp['d']} H={inp['h1_torsion']} "
        f"T={inp['h2_torsion']} spin={str(inp['spin']).lower()} ({geometry})",
        f"attachment: c1={inp['c1']} c2={inp['c2']} consumed={inp['consumed']} "
        f"case={inp['case']}",
        f"case {report['case']['tag']}: {report['case']['phrase']}",
        "",
    ]
    if report["single_suspension"] is not None:
        lines.append(f"suspension:         {report['single_suspension']}")
    else:
        lines.append(f"suspension:         not determined ({report['single_suspension_note']})")
    lines.append(f"double suspension:  {report['double_suspension']}")
    lines.append("homology sections:")
    for k in ("w3", "w4", "w5"):
        lines.append(f"  {k.upper()} = {report['sections'][k]}")
    inv = report["invariants"]
    lines.append("invariants:")
    lines.append(f"  reduced K  = {inv['k']}")
    lines.append(f"  reduced KO = {inv['ko']}")
    lines.append(f"  pi^1 = {inv['pi1']}")
    lines.append(f"  pi^3 = {inv['pi3']}")
    lines.append(f"  pi^5 = {inv['pi5']}")
    if "pi4_sigma" in report["traces"]:
        lines.append("pi^3 via maps of the suspension into S^4:")
        for row in report["traces"]["pi4_sigma"]:
            note = "   (implied by connectivity)" if len(row) > 2 else ""
            lines.append(f"  {row[0]:<18} -> {row[1]}{note}")
    lines.append("checks:")
    for name, verdict in sorted(report["checks"].items()):
        lines.append(f"  {name}: {verdict}")
    return "\n".join(lines) + "\n"


# -- driver ----------------------------------------------------------------------


def _decode(data: bytes, source: str) -> str:
    """The text of one input; a byte that is not UTF-8 is a syntax error
    at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, col = _position(data[: exc.start].decode("utf-8"))
        msg = f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
        raise ParseError("syntax", msg, source, line, col) from None


def run(paths=(), fmt="human", out=None, stdin=None, stdout=None, stderr=None) -> int:
    """Process every input; 0 = clean, 1 = failed check, 2 = bad input.

    fmt is "human" or "structured".  stdin is a binary stream, read when no
    path is given.  Each report is written as soon as it is built, so a
    batch holds one report at a time; with an out path the text is held
    until every input has been read, so the out file may be one of the
    inputs.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    sink = io.StringIO() if out else stdout
    # one report in full, or one line (or header) per file given
    batch = len(paths) > 1
    separator = ""
    worst = 0
    for source in paths or ("<stdin>",):
        try:
            if paths:
                with open(source, "rb") as fh:
                    data = fh.read()
            else:
                data = (stdin if stdin is not None else sys.stdin.buffer).read()
        except OSError as exc:
            print(f"{source}: {exc.strerror or exc}", file=stderr)
            worst = 2
            continue
        try:
            desc = parse_descriptor_text(_decode(data, source), source=source)
            report = build_report(desc)
        except ParseError as exc:
            print(str(exc), file=stderr)
            worst = 2
            continue
        if "fail" in report["checks"].values():
            worst = max(worst, 1)
        if fmt == "structured" and batch:
            report = {"source": source, **report}
            sink.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        elif fmt == "structured":
            sink.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        else:
            header = f"== {source} ==\n" if batch else ""
            sink.write(separator + header + render_human(report))
            separator = "\n"

    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(sink.getvalue())
        except OSError as exc:
            print(f"{out}: {exc.strerror or exc}", file=stderr)
            return 2
    return worst


def make_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="susp5",
        description="Suspension splittings and stable invariants of "
        "five-dimensional descriptors.",
    )
    ap.add_argument(
        "paths", nargs="*", help="descriptor files (standard input when omitted)"
    )
    ap.add_argument("--format", dest="fmt", choices=("human", "structured"), default="human")
    ap.add_argument("--out", default=None, help="write the report here instead of stdout")
    return ap


def main(argv=None) -> int:
    """Run the command line; exit 141 (128 + SIGPIPE) if stdout's reader quits."""
    ns = make_arg_parser().parse_args(argv)
    try:
        return run(ns.paths, ns.fmt, ns.out)
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; send that
        # flush nowhere so it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
