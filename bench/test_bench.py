"""Self-tests of the benchmark harness (not part of the repository's test suite).

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402


def test_generators_are_deterministic_per_seed():
    assert corpus.corpus_small(3) == corpus.corpus_small(3)
    assert corpus.corpus_small(3) != corpus.corpus_small(4)
    assert corpus.corpus_large(3) == corpus.corpus_large(3)
    assert corpus.corpus_large(3) != corpus.corpus_large(4)
    assert sweep.snf_cases(3) == sweep.snf_cases(3)
    assert sweep.snf_cases(3) != sweep.snf_cases(4)


def test_cli_gate_fails_on_a_wrong_expected_value():
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = corpus.corpus_small(5)
    files = files[:10] + files[-10:]  # invariant route and chain level
    for name, text in files:
        (work / name).write_text(text)
    names = [name for name, _ in files]
    expected = {n: oracles.expected_report(oracles.read_descriptor(t)) for n, t in files}
    assert "c1" in expected[names[-1]]

    good = run.cli_pass(names, expected, work)
    assert (good.items, good.failed) == (20, 0), good.failures

    rank, orders = expected[names[0]]["k"]
    expected[names[0]]["k"] = (rank + 1, orders)
    expected[names[-1]]["c1"] += 1
    bad = run.cli_pass(names, expected, work)
    assert bad.failed == 2
    assert bad.digest == good.digest


def test_sweep_gate_fails_on_a_wrong_normal_form():
    from susp5.abgroup import smith_normal_form
    from susp5.reduction import AttachCase, PhiVector, reduce_phi

    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, u, v = smith_normal_form(a)
    wrong = [row[:] for row in d]
    wrong[0][0], wrong[1][1] = wrong[1][1], wrong[0][0]
    phi = PhiVector((), (1,), (1,), (2,), (1,), (1,))
    assert reduce_phi(phi, smooth=False) == AttachCase("ip_tilde_eta", 0, 1)

    verdicts = sweep.Verdicts()
    verdicts.check(sweep.check_snf, a, d, u, v)
    verdicts.check(sweep.check_phi_orbit, [(phi, reduce_phi(phi, smooth=False))])
    assert verdicts.bad == []
    verdicts.check(sweep.check_snf, a, wrong, u, v)
    verdicts.check(sweep.check_phi_orbit, [(phi, AttachCase("eta"))])
    assert len(verdicts.bad) == 2


def test_self_time_on_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_nests_spans_and_counts_moves():
    rec = tracing.Recorder()
    moves = rec.wrap(1, lambda: [1, 2, 3], (tracing.MOVES_GENERATED, len))
    outer = rec.wrap(0, lambda: moves() + moves())
    assert outer() == [1, 2, 3, 1, 2, 3]
    assert list(rec.name) == [0, 1, 1]
    assert list(rec.parent) == [-1, 0, 0]
    assert rec.counts[tracing.MOVES_GENERATED] == 6
    assert all(s <= e for s, e in zip(rec.start, rec.end))


def test_tail_names_the_highest_percentile_with_ten_samples_beyond():
    assert tracing.tail(list(range(1000))) == ("p99", 989)
    assert tracing.tail(list(range(999))) == ("p90", 899)
    assert tracing.tail(list(range(20))) == ("p50", 9)
    assert tracing.tail(list(range(19))) == ("max", 18)
    assert tracing.tail([]) == ("none", 0.0)
