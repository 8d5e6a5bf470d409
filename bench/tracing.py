"""In-memory spans around the public functions of susp5, installed from outside.

A span is (name, start, end, parent).  `Recorder.install` replaces each
traced function, wherever a loaded susp5 module holds a reference to it, by
a wrapper that records one span per call; nothing under src/ is edited.
Spans stay in flat arrays while the program runs and are written to one
file when it ends.  `summarize` turns a span file into the per-layer
numbers: calls, self time, median and tail duration, and two counts taken
at the reduction boundaries.

Run as a script, it runs the susp5 command line with tracing on:

    PYTHONPATH=src python3 bench/tracing.py SPANS_FILE -- [susp5 arguments]
"""
from __future__ import annotations

import json
import math
import sys
from array import array
from time import perf_counter

# (span name, module, attribute path).  The span name is the module's short
# name plus the attribute path, as in the layer table of bench/README.md.
TRACED = [
    ("cli.run", "susp5.cli", "run"),
    ("cli.parse_descriptor_text", "susp5.cli", "parse_descriptor_text"),
    ("cli.build_report", "susp5.cli", "build_report"),
    ("abgroup.FgAbGroup.from_string", "susp5.abgroup", "FgAbGroup.from_string"),
    ("abgroup.smith_normal_form", "susp5.abgroup", "smith_normal_form"),
    ("spaces.Wedge.homology", "susp5.spaces", "Wedge.homology"),
    ("spaces.Wedge.homology_in", "susp5.spaces", "Wedge.homology_in"),
    ("decompose.suspension_decomposition", "susp5.decompose", "suspension_decomposition"),
    (
        "decompose.double_suspension_decomposition",
        "susp5.decompose",
        "double_suspension_decomposition",
    ),
    ("decompose.homology_section", "susp5.decompose", "homology_section"),
    ("decompose.manifold_homology", "susp5.decompose", "manifold_homology"),
    ("decompose.resolve_attaching_data", "susp5.decompose", "resolve_attaching_data"),
    ("invariants.k_group", "susp5.invariants", "k_group"),
    ("invariants.ko_group", "susp5.invariants", "ko_group"),
    ("invariants.pi3", "susp5.invariants", "pi3"),
    ("invariants.pi4_sigma_crosscheck", "susp5.invariants", "pi4_sigma_crosscheck"),
    ("invariants.k_closed_form", "susp5.invariants", "k_closed_form"),
    ("invariants.ko_closed_form", "susp5.invariants", "ko_closed_form"),
    ("invariants.hurewicz_cohomotopy", "susp5.invariants", "hurewicz_cohomotopy"),
    ("reduction.reduce_h_matrix", "susp5.reduction", "reduce_h_matrix"),
    ("reduction.reduce_phi", "susp5.reduction", "reduce_phi"),
    ("reduction.enumerate_orbit", "susp5.reduction", "enumerate_orbit"),
    ("reduction.enumerate_phi_orbit", "susp5.reduction", "enumerate_phi_orbit"),
    ("reduction.legal_moves", "susp5.reduction", "legal_moves"),
    ("reduction.phi_moves", "susp5.reduction", "phi_moves"),
]
SPAN_NAMES = [name for name, _, _ in TRACED]

# Counts recorded where the work happens: states the move functions return,
# and states an orbit search adds beyond its start.
MOVES_GENERATED = "reduction.moves.generated"
ORBIT_NEW = "reduction.orbit.new"
_COUNTERS = {
    "reduction.legal_moves": (MOVES_GENERATED, len),
    "reduction.phi_moves": (MOVES_GENERATED, len),
    "reduction.enumerate_orbit": (ORBIT_NEW, lambda orbit: len(orbit) - 1),
    "reduction.enumerate_phi_orbit": (ORBIT_NEW, lambda orbit: len(orbit) - 1),
}

PER_REPORT = [
    "decompose.double_suspension_decomposition",
    "decompose.suspension_decomposition",
    "spaces.Wedge.homology",
]


class Recorder:
    """Spans of one process, in flat arrays indexed by span number."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {MOVES_GENERATED: 0, ORBIT_NEW: 0}
        self._open: list[int] = []

    def wrap(self, name_id: int, fn, counter=None):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        open_spans, counts = self._open, self.counts

        def traced(*args, **kwargs):
            i = len(start)
            name.append(name_id)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_spans.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded susp5 module."""
        for name_id, (name, module_name, attr) in enumerate(TRACED):
            module = sys.modules.get(module_name)
            if module is None:  # not imported, so nothing can call it
                continue
            counter = _COUNTERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name_id, raw.__func__, counter)))
                else:
                    setattr(cls, meth, self.wrap(name_id, raw, counter))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name_id, original, counter)
            # Callers import by name, so every module holding the function
            # gets the wrapper, not only the defining one.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "susp5" or mod_name.startswith("susp5."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def header(self) -> dict:
        return {"names": SPAN_NAMES, "count": len(self.start), "counts": self.counts}

    def arrays(self):
        return self.name, self.parent, self.start, self.end

    def write(self, path: str) -> None:
        """One JSON header line, then the four arrays in native layout."""
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.header()).encode() + b"\n")
            for arr in self.arrays():
                arr.tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint
    intervals inside it and their summed duration is the part they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def tail(sorted_values):
    """Highest of p99, p90, p50 with at least ten samples above it.

    Nearest-rank percentiles.  Returns (label, value); with fewer than
    twenty samples no percentile qualifies and the maximum is returned,
    labelled 'max'; with none, ('none', 0.0).
    """
    n = len(sorted_values)
    if n == 0:
        return "none", 0.0
    for q in (99, 90, 50):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return f"p{q}", sorted_values[rank - 1]
    return "max", sorted_values[-1]


def percentile(sorted_values, q: int) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


def summarize(header, arrays):
    """Per span name: calls, self_s, p50_us, tail_us, tail percentile."""
    names = header["names"]
    name, parent, start, end = arrays
    selfs = self_times(parent, start, end)
    durations: dict[int, list[float]] = {i: [] for i in range(len(names))}
    self_sum = [0.0] * len(names)
    for i, nid in enumerate(name):
        durations[nid].append(end[i] - start[i])
        self_sum[nid] += selfs[i]
    spans = {}
    for nid, span in enumerate(names):
        values = sorted(durations[nid])
        label, tail_value = tail(values)
        spans[span] = {
            "calls": len(values),
            "self_s": self_sum[nid],
            "p50_us": percentile(values, 50) * 1e6,
            "tail_us": tail_value * 1e6,
            "tail": label,
        }
    reports = spans["cli.build_report"]["calls"]
    ratios = {
        f"{span}.per_report": (spans[span]["calls"] / reports if reports else 0.0)
        for span in PER_REPORT
    }
    generated = header["counts"][MOVES_GENERATED]
    ratios["reduction.orbit.new_per_move"] = (
        header["counts"][ORBIT_NEW] / generated if generated else 0.0
    )
    return spans, ratios


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE -- [susp5 arguments]")
    import susp5.cli

    recorder = Recorder()
    recorder.install()
    try:
        return susp5.cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
