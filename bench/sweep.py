"""One pass of the oracle-sweep workload, run in a fresh interpreter.

The work, all calls into susp5:
  * every HMatrix with 1..3 columns, 1..3 rows and Moore exponents 1..3 is
    searched to its orbit with enumerate_orbit, and every orbit member is
    reduced with reduce_h_matrix;
  * every PhiVector with 1..4 components and exponents 1..3 is searched to
    its orbit with enumerate_phi_orbit, and every member is reduced with
    reduce_phi;
  * seeded integer matrices up to 40 x 40 go through smith_normal_form.
Each orbit and each SNF case is checked against bench/oracles.py as soon as
it is computed, so the process never holds more than one orbit's results.
The time spent in those checks is summed apart; the result file gives it
with the time.monotonic() reading (a clock shared with the parent process)
at the verdict, so the parent can count the sweep's own time only.

    PYTHONPATH=src python3 bench/sweep.py --seed N --result FILE [--spans FILE]
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import combinations_with_replacement, product

import oracles

SNF_SMALL = 300  # random shapes up to 8 x 8
# Fixed large shapes: their cost grows fast with size, so random ones would
# make the amount of work differ from seed to seed.
SNF_LARGE = ((24, 30), (32, 36), (40, 40))


def snf_cases(seed: int):
    """Integer matrices with entries in -50..50."""
    rng = random.Random(seed)
    shapes = [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(SNF_SMALL)]
    shapes += SNF_LARGE
    return [[[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)] for m, n in shapes]


def h_shapes():
    """(columns, sphere rows, Moore exponents) of the matrix sweep."""
    for cols in (1, 2, 3):
        for nsphere in range(4):
            for nmoore in range(4 - nsphere):
                if nsphere + nmoore:
                    for exps in product((1, 2, 3), repeat=nmoore):
                        yield cols, nsphere, exps


def phi_shapes():
    """(x, y, Moore exponents, consumed exponents) of the attachment sweep."""
    for a, b, u, c in product(range(5), repeat=4):
        if 1 <= a + b + u + c <= 4:
            for u_exps in combinations_with_replacement((1, 2, 3), u):
                for c_exps in combinations_with_replacement((1, 2, 3), c):
                    yield a, b, u_exps, c_exps


class Verdicts:
    """Item count, failure messages, and the time spent checking."""

    def __init__(self):
        self.items = 0
        self.states = 0
        self.bad: list[str] = []
        self.check_s = 0.0

    def check(self, fn, *args) -> None:
        """Run one oracle check outside the sweep's own time."""
        start = time.perf_counter()
        msg = fn(*args)
        self.check_s += time.perf_counter() - start
        if msg:
            self.bad.append(msg)


def check_h_orbit(results):
    outcomes = {(r.c1, r.c2) for _, r in results}
    for m, r in results:
        c1 = oracles.f2_rank(m.sphere_rows)
        c2 = oracles.f2_rank(m.sphere_rows + m.moore_rows) - c1
        if (r.c1, r.c2) != (c1, c2):
            return f"{m}: (c1, c2) = {(r.c1, r.c2)}, want {(c1, c2)}"
    if len(outcomes) != 1:
        return f"{results[0][0]}: orbit not invariant, {outcomes}"
    return None


def check_phi_orbit(results):
    kinds = set()
    for m, case in results:
        got = (case.kind, case.index, case.r)
        want = oracles.phi_case(m.x, m.y, m.moore, m.moore_exponents, m.w, m.consumed_exponents)
        if got != want:
            return f"{m}: case {got}, want {want}"
        kinds.add((case.kind, case.r))
    if len(kinds) != 1:
        return f"{results[0][0]}: orbit not invariant, {kinds}"
    return None


def check_partition(shape, seen, total):
    """The orbits found for one shape cover each of its states once."""
    if len(seen) != total:
        return f"shape {shape}: orbits cover {len(seen)} of {total} states"
    return None


def check_snf(a, d, u, v):
    msgs = oracles.snf_failures(a, d, u, v)
    return f"snf {len(a)}x{len(a[0])}: {'; '.join(msgs)}" if msgs else None


def sweep(reduction, abgroup, seed: int, verdicts: Verdicts) -> None:
    """The whole workload; each orbit and SNF case is checked as it is done."""
    for shape in h_shapes():
        cols, nsphere, exps = shape
        rows = list(product((0, 1), repeat=cols))
        seen = set()
        for sphere in product(rows, repeat=nsphere):
            for moore in product(rows, repeat=len(exps)):
                h = reduction.HMatrix(sphere, moore, exps)
                if h in seen:
                    continue
                orbit = reduction.enumerate_orbit(h)
                seen |= orbit
                results = [(m, reduction.reduce_h_matrix(m)) for m in orbit]
                verdicts.items += 1
                verdicts.states += len(orbit)
                verdicts.check(check_h_orbit, results)
        verdicts.check(check_partition, shape, seen, len(rows) ** (nsphere + len(exps)))
    for shape in phi_shapes():
        a, b, u_exps, c_exps = shape
        seen = set()
        for x, y, moore, w in product(
            product((0, 1), repeat=a),
            product((0, 1), repeat=b),
            product(range(4), repeat=len(u_exps)),
            product((0, 1), repeat=len(c_exps)),
        ):
            phi = reduction.PhiVector(x, y, moore, u_exps, w, c_exps)
            if phi in seen:
                continue
            orbit = reduction.enumerate_phi_orbit(phi)
            seen |= orbit
            results = [(m, reduction.reduce_phi(m, smooth=False)) for m in orbit]
            verdicts.items += 1
            verdicts.states += len(orbit)
            verdicts.check(check_phi_orbit, results)
        verdicts.check(check_partition, shape, seen, 2 ** (a + b + len(c_exps)) * 4 ** len(u_exps))
    for a in snf_cases(seed):
        d, u, v = abgroup.smith_normal_form(a)
        verdicts.items += 1
        verdicts.check(check_snf, a, d, u, v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    from susp5 import abgroup, reduction

    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    verdicts = Verdicts()
    sweep(reduction, abgroup, args.seed, verdicts)
    done = time.monotonic()
    if recorder is not None:
        recorder.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(
            {"done": done, "check_s": verdicts.check_s, "states": verdicts.states,
             "items": verdicts.items, "failed": min(verdicts.items, len(verdicts.bad)),
             "failures": verdicts.bad[:10]},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
