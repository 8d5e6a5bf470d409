"""susp5 benchmark: seeded workloads through the program's public entry points.

    python3 bench/run.py --workload corpus-small --seed 1 --seconds 20 --trace 0

Runs the susp5 sources of the checkout it sits in (src/, through
PYTHONPATH), never an installed copy.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it repeats the untraced passes and adds
one traced pass whose spans give the per-layer metrics.  Every output is
checked against bench/oracles.py.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Provenance (git commit, Python, nproc, seed, SHA-256 of
the structured output) goes to bench/out/<workload>-seed<N>-trace<T>.json.
See bench/README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
SCRIPT_DESCRIPTORS = ROOT / "scripts" / "descriptors"

WORKLOADS = ("corpus-small", "corpus-large", "oracle-sweep")
MIN_PASSES = 3
SETUP_RUNS = 9
PROCESS_TIMEOUT = 40.0  # seconds; keeps a hung pass inside the 180 s run limit

END_TO_END_UNITS = {
    "descriptors_per_s": "1/s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_METRIC_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "tail_us": "us"}


@dataclass
class Pass:
    """One run of the workload process: time, peak RSS, item verdicts."""

    wall: float
    peak_kb: int
    items: int
    failed: int
    failures: list
    digest: str | None = None  # SHA-256 of the structured CLI output
    states: int = 0  # attaching-data states the sweep reduced


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Child:
    """A finished child process."""

    start: float  # time.monotonic() just before the child was started
    wall: float
    code: int
    peak_kb: int  # from wait4: this child's own peak RSS


def run_timed(cmd, cwd, stdout_path) -> Child:
    """Run one child to completion; a timer kills it if it overruns."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, wall, proc.returncode, usage.ru_maxrss)


def measure_setup(work: Path) -> list[float]:
    """Times of fresh interpreters that import susp5.cli and exit.

    The first run also checks that the import resolves to this checkout's
    src/ and leaves the bytecode cache warm; it is not counted.
    """
    probe = work / "probe.out"
    cmd = [sys.executable, "-c", "import susp5.cli, susp5; print(susp5.__file__)"]
    code = run_timed(cmd, work, probe).code
    where = probe.read_text().strip()
    if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"susp5 does not import from {SRC} (got {where!r}, exit {code})")
    cmd = [sys.executable, "-c", "import susp5.cli"]
    return [run_timed(cmd, work, work / "setup.out").wall for _ in range(SETUP_RUNS)]


# -- CLI workloads ----------------------------------------------------------------


def write_corpus(workload: str, seed: int, work: Path):
    files = corpus.corpus_small(seed) if workload == "corpus-small" else corpus.corpus_large(seed)
    if workload == "corpus-small":
        files += [(p.name, p.read_text()) for p in sorted(SCRIPT_DESCRIPTORS.glob("*.txt"))]
    for name, text in files:
        (work / name).write_text(text)
    expected = {name: oracles.expected_report(oracles.read_descriptor(text)) for name, text in files}
    return [name for name, _ in files], expected


def check_cli_output(raw: bytes, code: int, names, expected):
    """(failed items, failure messages) of one structured CLI batch."""
    if code != 0:
        return len(names), [f"exit code {code}"]
    reports = {}
    try:
        for line in raw.decode().splitlines():
            report = json.loads(line)
            reports[report.pop("source")] = report
    except (ValueError, KeyError, AttributeError) as exc:
        return len(names), [f"unreadable structured output: {exc!r}"]
    bad = []
    for name in names:
        if name not in reports:
            bad.append(f"{name}: no report")
            continue
        try:
            msgs = oracles.report_failures(reports[name], expected[name])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            msgs = [f"malformed report: {exc!r}"]
        if msgs:
            bad.append(f"{name}: {'; '.join(msgs)}")
    return len(bad), bad


def cli_pass(names, expected, work: Path, spans=None) -> Pass:
    args = ["--format", "structured", *names]
    if spans is None:
        cmd = [sys.executable, "-m", "susp5", *args]
    else:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), "--", *args]
    stdout = work / "report.out"
    child = run_timed(cmd, work, stdout)
    raw = stdout.read_bytes()
    failed, bad = check_cli_output(raw, child.code, names, expected)
    return Pass(child.wall, child.peak_kb, len(names), failed, bad,
                hashlib.sha256(raw).hexdigest())


# -- oracle sweep -------------------------------------------------------------------


def sweep_pass(seed: int, work: Path, spans=None) -> Pass:
    result = work / "sweep.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "sweep.py"), "--seed", str(seed), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    child = run_timed(cmd, work, work / "sweep.out")
    if child.code != 0 or not result.exists():
        return Pass(child.wall, child.peak_kb, 1, 1, [f"sweep exit code {child.code}"])
    res = json.loads(result.read_text())
    # Up to the verdict, less the time the oracles took in between.
    wall = res["done"] - child.start - res["check_s"]
    return Pass(wall, child.peak_kb, res["items"], res["failed"], res["failures"],
                states=res["states"])


# -- reporting ----------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload, passes, setups) -> dict:
    walls = [p.wall for p in passes]
    per_pass = [p.states if workload == "oracle-sweep" else p.items for p in passes]
    return {
        "descriptors_per_s": statistics.median(n / w for n, w in zip(per_pass, walls)),
        "sweep_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.peak_kb for p in passes) / 1024,
    }


def per_layer(spans_path, traced: Pass, passes) -> tuple[dict, dict]:
    if spans_path.exists():
        spans, ratios = tracing.summarize(*tracing.load(spans_path))
    else:  # the traced pass failed before writing; it is counted as failed
        empty = tracing.Recorder()
        spans, ratios = tracing.summarize(empty.header(), empty.arrays())
    metrics = {}
    for span, stats in spans.items():
        for key, unit in SPAN_METRIC_UNITS.items():
            metrics[f"{span}.{key}"] = (stats[key], unit)
    for name, value in ratios.items():
        metrics[name] = (value, "ratio")
    overhead = traced.wall / statistics.median(p.wall for p in passes)
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "susp5" / "__init__.py").is_file():
        print(f"no susp5 sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = measure_setup(work) if args.trace == 0 else []
    if args.workload == "oracle-sweep":
        def one_pass(spans=None):
            return sweep_pass(args.seed, work, spans)
    else:
        names, expected = write_corpus(args.workload, args.seed, work)

        def one_pass(spans=None):
            return cli_pass(names, expected, work, spans)

    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(one_pass())

    traced = None
    if args.trace:
        spans_path = work / "spans.bin"
        spans_path.unlink(missing_ok=True)
        traced = one_pass(spans_path)
        metrics, span_stats = per_layer(spans_path, traced, passes)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(args.workload, passes, setups).items()}
        span_stats = None

    checked = passes + ([traced] if traced else [])
    attempted = sum(p.items for p in checked)
    failed = sum(p.failed for p in checked)
    digests = sorted({p.digest for p in checked if p.digest})
    if len(digests) > 1:  # structured output must be byte-stable across passes
        failed = attempted
    failures = [msg for p in checked for msg in p.failures][:20]
    if len(digests) > 1:
        failures.insert(0, f"structured output differs between passes: {digests}")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes of {passes[0].items} items")
    for name, (value, unit) in metrics.items():
        label = f" ({span_stats[name.rsplit('.', 1)[0]]['tail']})" if name.endswith(".tail_us") else ""
        print(f"  {name} = {value:.6g} {unit}{label}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} items)")
    if digests:
        print(f"  structured output sha256 = {', '.join(digests)}")
    for msg in failures:
        print(f"  FAIL {msg}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": [{"wall_s": p.wall, "peak_kb": p.peak_kb, "items": p.items,
                    "failed": p.failed} for p in passes],
        "setup_s": setups,
        "output_sha256": digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": span_stats,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
