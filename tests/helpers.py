"""Independent oracles and shared hypothesis strategies for the test suite.

Oracles deliberately avoid the code paths under test: invariant factors come
from gcds of k x k minors, determinants from fraction-free Bareiss
elimination, and homology is recomputed from cellular chain complexes built
out of each complex's defining cofibration rather than from the library's
homology tables.
"""
from __future__ import annotations

import math
from itertools import combinations

from hypothesis import strategies as st

from susp5.abgroup import FgAbGroup


# -- exact linear algebra oracles -------------------------------------------


def mat_mul(a, b):
    ra, rb = len(a), len(b)
    ca = len(a[0]) if ra else 0
    cb = len(b[0]) if rb else 0
    assert ca == rb, "shape mismatch"
    return [[sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb)] for i in range(ra)]


def det_int(a) -> int:
    """Determinant of a square integer matrix by Bareiss elimination (exact)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd_invariants(a) -> list[int]:
    """Invariant factors via d_k = gcd(k-minors) / gcd((k-1)-minors).

    The product d_1 ... d_k equals the gcd of all k x k minors, which is the
    classical determinantal characterization of the Smith normal form.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            out.extend([0] * (min(m, n) - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def f2_rank(rows) -> int:
    """Rank of a 0/1 matrix over the field with two elements."""
    work = [int("".join(map(str, r)), 2) if r else 0 for r in rows]
    rank = 0
    for col in range(max((len(r) for r in rows), default=0)):
        bit = 1 << (len(rows[0]) - 1 - col) if rows and rows[0] else 0
        pivot = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


# -- cellular chain homology oracle ------------------------------------------


def boundary_description(kind: str, dim: int, order: int = 0, r: int = 0):
    """Cell dimensions and nonzero cellular boundary degrees per variant.

    Read off the defining cofibrations: a mod-k Moore space has one boundary
    of degree k; attaching maps that live on a lower-dimensional skeleton
    (eta, eta^2, and their Moore-space lifts) have cellular degree zero.
    """
    n = dim
    if kind == "sphere":
        return [n], {}
    if kind == "moore":
        return [n - 1, n], {n: order}
    if kind == "chang_eta":
        return [n - 2, n], {}
    if kind == "chang_r":
        return [n - 2, n - 1, n], {n - 1: 2**r}
    if kind == "moore_eta_lift":
        return [n - 3, n - 2, n], {n - 2: 2**r}
    if kind == "chang_ip_eta_lift":
        return [n - 3, n - 2, n - 1, n], {n - 2: 2**r}
    if kind == "sphere_eta_sq":
        return [n - 3, n], {}
    if kind == "moore_eta_sq":
        return [n - 3, n - 2, n], {n - 2: 2**r}
    raise ValueError(f"unknown variant {kind!r}")


def chain_homology(cells: list[int], degrees: dict[int, int]) -> dict[int, FgAbGroup]:
    """Reduced homology of a complex with at most one cell per dimension.

    H_n = ker(d_n) / im(d_{n+1}) computed by hand: the kernel is Z unless the
    outgoing boundary is nonzero, and the image is the subgroup generated by
    the incoming boundary degree.
    """
    have = set(cells)
    for d, deg in degrees.items():
        assert d in have and (d - 1) in have and deg != 0, "malformed boundary data"
        assert degrees.get(d + 1) is None or deg == 0, "d^2 != 0"
    out: dict[int, FgAbGroup] = {}
    for n in sorted(have):
        outgoing = degrees.get(n, 0)
        incoming = degrees.get(n + 1, 0)
        if outgoing != 0:
            continue  # kernel is 0, nothing in degree n
        if incoming == 0:
            out[n] = FgAbGroup.free(1)
        elif abs(incoming) != 1:
            out[n] = FgAbGroup.from_orders([abs(incoming)])
    return out


def oracle_homology(cx) -> dict[int, FgAbGroup]:
    """Recompute reduced homology of an ElementaryComplex from its chains."""
    cells, degrees = boundary_description(cx.kind, cx.dim, cx.order, cx.r)
    return chain_homology(cells, degrees)


# -- hypothesis strategies ---------------------------------------------------


def int_matrices(max_rows: int = 6, max_cols: int = 6, bound: int = 50):
    return st.integers(0, max_rows).flatmap(
        lambda m: st.integers(0 if m else 1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def fg_groups(max_rank: int = 3, primes=(2, 3, 5, 7), max_summands: int = 4, max_exp: int = 4):
    summand = st.tuples(st.sampled_from(list(primes)), st.integers(1, max_exp))
    return st.builds(
        lambda rank, pairs: FgAbGroup.from_primary(rank, pairs),
        st.integers(0, max_rank),
        st.lists(summand, max_size=max_summands),
    )


def torsion_groups(primes=(2, 3, 5, 7), max_summands: int = 4, max_exp: int = 4):
    summand = st.tuples(st.sampled_from(list(primes)), st.integers(1, max_exp))
    return st.builds(
        lambda pairs: FgAbGroup.from_primary(0, pairs),
        st.lists(summand, max_size=max_summands),
    )


# -- descriptor sampling ------------------------------------------------------

import random
from dataclasses import replace

from susp5.decompose import ManifoldDescriptor
from susp5.reduction import AttachCase


def random_torsion(rng: random.Random, primes, max_summands: int, max_exp: int) -> FgAbGroup:
    n = rng.randint(0, max_summands)
    orders = [rng.choice(primes) ** rng.randint(1, max_exp) for _ in range(n)]
    return FgAbGroup.from_orders(orders)


def valid_cases(l, d, t2, c1, c2, consumed, smooth, spin):
    """All attaching cases legal for the given shape and flags."""
    unconsumed = [j for j in range(t2) if j not in consumed]
    if spin and smooth:
        return [AttachCase("null")]
    if not spin:
        out = [AttachCase("eta")]
        out += [AttachCase("tilde_eta", j) for j in unconsumed]
        out += [AttachCase("ip_tilde_eta", j) for j in consumed]
        return out
    out = [AttachCase("null")]
    if d - c1 >= 1:
        out.append(AttachCase("eta_sq"))
    out += [AttachCase("i_eta_sq", j) for j in unconsumed]
    return out


def random_descriptor(
    rng: random.Random,
    max_l: int = 5,
    max_d: int = 5,
    max_torsion: int = 6,
    max_exp: int = 5,
    h1_primes=(3, 5, 7),
) -> ManifoldDescriptor:
    l = rng.randint(1, max_l)
    d = rng.randint(1, max_d)
    h1 = random_torsion(rng, h1_primes, 3, 2)
    h2 = random_torsion(rng, (2, 2, 3, 5, 7), max_torsion, max_exp)
    t2 = len(h2.primary_exponents(2))
    c1 = rng.randint(0, min(l, d))
    c2 = rng.randint(0, min(l - c1, t2))
    consumed = tuple(sorted(rng.sample(range(t2), c2)))
    smooth = rng.random() < 0.5
    spin = rng.random() < 0.5
    case = rng.choice(valid_cases(l, d, t2, c1, c2, consumed, smooth, spin))
    return ManifoldDescriptor(
        l=l,
        d=d,
        h1_torsion=h1,
        h2_torsion=h2,
        spin=spin,
        smooth=smooth,
        c1=c1,
        c2=c2,
        consumed=consumed,
        case=case,
    )


def shape_variants(desc: ManifoldDescriptor):
    """Descriptors with the same invariants over every valid choice of
    (c1, c2, consumed-prefix, case)."""
    t2 = len(desc.two_primary_exponents)
    out = []
    for c1 in range(min(desc.l, desc.d) + 1):
        for c2 in range(min(desc.l - c1, t2) + 1):
            consumed = tuple(range(c2))
            for case in valid_cases(
                desc.l, desc.d, t2, c1, c2, consumed, desc.smooth, desc.spin
            ):
                out.append(
                    replace(desc, c1=c1, c2=c2, consumed=consumed, case=case)
                )
    return out


def wedge_homology(w, degree: int) -> FgAbGroup:
    return w.homology_in(degree)


# -- sample inputs -------------------------------------------------------------

# Three-primary H: the single suspension does not split, so a double-mode
# report builds the double suspension directly.  Kept out of
# scripts/descriptors, whose files all run in single mode.
THREE_PRIMARY_ETA = """\
l = 2
d = 1
H = Z/3 + Z/5
T = Z/4
spin = false
smooth = true
case = eta
"""
