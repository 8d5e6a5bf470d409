"""Seeded descriptor corpora for the CLI workloads.

Each generator returns a list of (file name, descriptor text); the same seed
gives the same list.  Nothing here imports susp5: the texts are written out
and handed to the program, and the oracles read the expectations back out
of the same texts.

corpus_small follows the distribution of the acceptance suite's seeded
random descriptors (l, d <= 5, at most six summands in T, primes <= 7, odd
degree-one torsion prime to 3 so the single suspension splits), plus small
chain-level files with at most four columns.  corpus_large is shaped like
large connected sums: l, d in 16..64, 12..21 torsion summands with
prime-power orders from primes below 2000, half of them at chain level with
a full d x l incidence matrix.  Orders whose factoring does not finish in a
timed run (such as Z/100000000000000003) are left out on purpose.
"""
from __future__ import annotations

import random

from oracles import PRIMES, f2_rank

SMALL_INVARIANT = 1000
SMALL_CHAIN = 100
LARGE = 120
LARGE_PRIMES = PRIMES[1:]  # odd primes below 2000
LARGE_H1_PRIMES = PRIMES[2:]  # no 3: three-torsion in H blocks the single suspension


def _render_group(pairs) -> str:
    pairs = sorted(pairs)
    return " + ".join(f"Z/{p**e}" for p, e in pairs) if pairs else "0"


def _torsion(rng, primes, n, max_exp):
    return sorted((rng.choice(primes), rng.randint(1, max_exp)) for _ in range(n))


def _valid_cases(d, t2, c1, consumed, smooth, spin):
    """Attachment cases the descriptor validation accepts for this shape."""
    unconsumed = [j for j in range(t2) if j not in consumed]
    if spin and smooth:
        return ["null"]
    if not spin:
        return (
            ["eta"]
            + [f"tilde_eta({j})" for j in unconsumed]
            + [f"ip_tilde_eta({j})" for j in consumed]
        )
    return (
        ["null"]
        + (["eta_sq"] if d - c1 >= 1 else [])
        + [f"i_eta_sq({j})" for j in unconsumed]
    )


def _header(l, d, h1, h2, spin, smooth):
    return [
        f"l = {l}",
        f"d = {d}",
        f"H = {_render_group(h1)}",
        f"T = {_render_group(h2)}",
        f"spin = {str(spin).lower()}",
        f"smooth = {str(smooth).lower()}",
    ]


def invariant_route(rng, l, d, h1, h2) -> str:
    t2 = sum(1 for p, _ in h2 if p == 2)
    c1 = rng.randint(0, min(l, d))
    c2 = rng.randint(0, min(l - c1, t2))
    consumed = sorted(rng.sample(range(t2), c2))
    smooth = rng.random() < 0.5
    spin = rng.random() < 0.5
    case = rng.choice(_valid_cases(d, t2, c1, consumed, smooth, spin))
    lines = _header(l, d, h1, h2, spin, smooth) + [
        f"c1 = {c1}",
        f"c2 = {c2}",
        f"consumed = [{', '.join(map(str, consumed))}]",
        f"case = {case}",
    ]
    return "\n".join(lines) + "\n"


def chain_level(rng, l, d, h1, h2) -> str:
    """An [h_matrix] with one Moore row per two-primary summand of T, and a
    [phi] block whose lengths match the reduced matrix and whose entries
    give an attachment case allowed for the spin and smooth flags."""
    exps = [e for p, e in h2 if p == 2]
    sphere = [[rng.randint(0, 1) for _ in range(l)] for _ in range(d)]
    moore = [[rng.randint(0, 1) for _ in range(l)] for _ in exps]
    c1 = f2_rank(sphere)
    c2 = f2_rank(sphere + moore) - c1
    spin = rng.random() < 0.5
    smooth = rng.random() < 0.5

    def bits(n, on=True):
        return [rng.randint(0, 1) if on else 0 for _ in range(n)]

    # Smooth input carries no eta^2 components (x, eps); spin input no eta
    # or lift components (y, z, w); non-spin input needs one of the latter.
    x = bits(d - c1, on=not smooth)
    eps = bits(len(exps) - c2, on=not smooth)
    y = bits(d, on=not spin)
    z = bits(len(exps) - c2, on=not spin)
    w = bits(c2, on=not spin)
    if not spin and not any(y + z + w):
        y[rng.randrange(d)] = 1

    lines = _header(l, d, h1, h2, spin, smooth) + ["", "[h_matrix]"]
    lines += ["sphere = " + " ".join("eta" if b else "0" for b in row) for row in sphere]
    lines += [
        f"moore r={e} = " + " ".join("i3eta" if b else "0" for b in row)
        for e, row in zip(exps, moore)
    ]
    lines += ["", "[phi]"]
    for key, vec in (("x", x), ("y", y), ("z", z), ("eps", eps), ("w", w)):
        if vec:
            lines.append(f"{key} = " + " ".join(map(str, vec)))
    return "\n".join(lines) + "\n"


def corpus_small(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    out = []
    for i in range(SMALL_INVARIANT):
        l, d = rng.randint(1, 5), rng.randint(1, 5)
        h1 = _torsion(rng, (5, 7), rng.randint(0, 3), 2)
        h2 = _torsion(rng, (2, 2, 3, 5, 7), rng.randint(0, 6), 5)
        out.append((f"inv{i:04d}.txt", invariant_route(rng, l, d, h1, h2)))
    for i in range(SMALL_CHAIN):
        l, d = rng.randint(1, 4), rng.randint(1, 4)
        h1 = _torsion(rng, (5, 7), rng.randint(0, 2), 2)
        h2 = _torsion(rng, (2,), rng.randint(0, 3), 3)
        h2 += _torsion(rng, (3, 5, 7), rng.randint(0, 2), 2)
        out.append((f"chain{i:03d}.txt", chain_level(rng, l, d, h1, h2)))
    return out


def corpus_large(seed: int) -> list[tuple[str, str]]:
    """The shapes (l, d and the number of summands) are the same for every
    seed and spread evenly over their ranges; the seed draws the entries.
    A few 64 x 64 matrices cost as much as many small ones, so random
    shapes would make the work itself differ from seed to seed."""
    rng = random.Random(seed)
    half = LARGE // 2
    out = []
    for i in range(LARGE):
        k = i // 2
        l = 16 + 48 * k // (half - 1)
        d = 16 + 48 * (k * 37 % half) // (half - 1)
        h1 = _torsion(rng, LARGE_H1_PRIMES, 4 + k % 5, 3)
        h2 = _torsion(rng, (2,), 2 + k * 3 % 5, 3)
        h2 += _torsion(rng, LARGE_PRIMES, 6 + k * 2 % 5, 3)
        make = chain_level if i % 2 else invariant_route
        out.append((f"large{i:03d}.txt", make(rng, l, d, h1, h2)))
    return out
