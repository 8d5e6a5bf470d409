"""Every function under src/susp5 has a caller.

A fresh interpreter records, with sys.setprofile, the code object of every
Python call made while it imports susp5 and then runs
* the command line, through cli.main, over the golden inputs and the sample
  descriptors, in both formats;
* one call on a small input of each function the benchmark's traced run
  wraps (bench/tracing.TRACED, loaded as tests/test_trace_targets.py
  loads it).
Every def in the package, found by walking its syntax trees, must have been
called or be named in UNREACHED with the reason nothing above calls it; a
name there that is called, or no longer defined, fails too.

Run as a script, this file is that child: it prints the reached functions
as JSON, one [file name, first line, name] per code object.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "susp5"
TRACING = ROOT / "bench" / "tracing.py"

UNREACHED = {
    # factoring past trial division: no input reaches a cofactor above 4096^2
    "abgroup._is_prime": "large-cofactor factoring path",
    "abgroup._brent_factor": "large-cofactor factoring path",
    "abgroup._large_prime_factors": "large-cofactor factoring path",
    "abgroup.FgAbGroup.__str__": "str() of a group; reports call render()",
    "spaces.ElementaryComplex.__str__": "str() of a summand; reports call render()",
    "spaces.Wedge.__str__": "str() of a wedge; reports call render()",
    "cli.render_descriptor": "the round-trip reference the tests parse back",
    "reduction.ReductionResult.reduced": "the reduced matrix; the pipeline reads c1, c2, consumed",
    "spaces.moore": "library factory; descriptors build Moore wedges with peterson",
    "spaces.wedge": "library factory; the pipeline builds wedges from counts with wedge_of",
    "cli.ParseError.__init__": "error path: every input above parses",
    "cli.ParseError.__str__": "error path: every input above parses",
    "cli._Parser.error": "error path: every input above parses",
    "invariants.BalanceError.__init__": "error path: every table above balances",
    "reduction.DescriptorError.__init__": "error path: every descriptor above is valid",
}


def package_defs() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> module.qualname for every def.

    The first line is that of the first decorator if there is one, as in a
    code object's co_firstlineno.
    """
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(f"{module}.py", first, child.name)] = f"{module}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return out


def test_every_package_function_is_reached_or_listed():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, __file__], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True,
    )
    reached = {tuple(code) for code in json.loads(child.stdout)}
    defs = package_defs()
    assert len(set(defs.values())) == len(defs)
    assert set(UNREACHED) <= set(defs.values()), "UNREACHED names a function that is gone"
    unreached = {name for key, name in defs.items() if key not in reached}
    assert unreached - set(UNREACHED) == set(), "no caller: delete these or wire them in"
    assert set(UNREACHED) - unreached == set(), "called now: drop these from UNREACHED"


def _traced_calls(tracing):
    """One call per traced span name, as fn -> result, on small inputs."""
    # susp5 is imported here and in _collect, after the profiler is on
    from susp5.cli import parse_descriptor_text
    from susp5.decompose import double_suspension_decomposition, suspension_decomposition
    from susp5.reduction import HMatrix, PhiVector

    sample = ROOT / "scripts" / "descriptors" / "nonspin_consumed_lift.txt"
    text = sample.read_text(encoding="utf-8")
    desc = parse_descriptor_text(text)
    single = suspension_decomposition(desc)
    double = double_suspension_decomposition(desc)
    h = HMatrix(sphere_rows=((1, 0),), moore_rows=((0, 1), (1, 1)), moore_exponents=(1, 2))
    phi = PhiVector((1,), (0,), (1, 2), (1, 2), (1,), (1,))
    calls = {
        "cli.run": lambda f: f((str(sample),), stdout=io.StringIO()),
        "cli.parse_descriptor_text": lambda f: f(text),
        "cli.build_report": lambda f: f(desc),
        "abgroup.FgAbGroup.from_string": lambda f: f("Z^2 + Z/4"),
        "abgroup.smith_normal_form": lambda f: f([[2, 4], [6, 8]]),
        "spaces.Wedge.homology": lambda f: f(double),
        "spaces.Wedge.homology_in": lambda f: f(double, 4),
        "decompose.suspension_decomposition": lambda f: f(desc),
        "decompose.double_suspension_decomposition": lambda f: f(desc),
        "decompose.homology_section": lambda f: f(desc, 4),
        "decompose.manifold_homology": lambda f: f(desc),
        "decompose.resolve_attaching_data": lambda f: f(
            l=1, d=1, h1_torsion=desc.h1_torsion, h2_torsion=desc.h2_torsion,
            spin=True, smooth=True, h_matrix=HMatrix(((0,),), ((0,), (0,)), (2, 3)),
        ),
        "invariants.k_group": lambda f: f(desc, double),
        "invariants.ko_group": lambda f: f(desc, double),
        "invariants.pi3": lambda f: f(desc),
        "invariants.pi4_sigma_crosscheck": lambda f: f(single),
        "invariants.k_closed_form": lambda f: f(desc),
        "invariants.ko_closed_form": lambda f: f(desc),
        "invariants.hurewicz_cohomotopy": lambda f: f(desc, 5),
        "reduction.reduce_h_matrix": lambda f: f(h),
        "reduction.reduce_phi": lambda f: f(phi, smooth=False),
        "reduction.enumerate_orbit": lambda f: f(h),
        "reduction.enumerate_phi_orbit": lambda f: f(phi),
        "reduction.legal_moves": lambda f: f(h),
        "reduction.phi_moves": lambda f: f(phi),
    }
    assert set(calls) == set(tracing.SPAN_NAMES), "give each traced span one call"
    return calls


def _collect() -> list[tuple[str, int, str]]:
    """The package functions called while the command line and the traced
    targets run, as (file name, first line, name)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from susp5 import cli

        inputs = sorted(map(str, (ROOT / "tests" / "golden").glob("*.txt")))
        inputs += sorted(map(str, (ROOT / "scripts" / "descriptors").glob("*.txt")))
        for fmt in ("human", "structured"):
            with redirect_stdout(io.StringIO()):
                assert cli.main(["--format", fmt, *inputs]) in (0, 1)

        spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        sys.setprofile(None)  # building the inputs is not a call under test
        calls = _traced_calls(tracing)
        sys.setprofile(profile)
        for name, module_name, attr in tracing.TRACED:
            module = importlib.import_module(module_name)
            calls[name](reduce(getattr, attr.split("."), module))
    finally:
        sys.setprofile(None)
    package = Path(cli.__file__).resolve().parent
    return sorted(
        (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in seen
        if Path(code.co_filename).resolve().parent == package
    )


if __name__ == "__main__":
    json.dump(_collect(), sys.stdout)
