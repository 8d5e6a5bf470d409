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
from susp5.reduction import (
    AttachCase,
    HMatrix,
    PhiVector,
    _b_transport,
    _slot_add,
    reduce_h_matrix,
)


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


def flag_dimensions(h) -> dict[int, int]:
    """dim V_r for r = 1 .. e + 1, e the largest Moore exponent of h.

    V_r is the F2 span of the sphere rows and the Moore rows of exponent at
    least r; V_(e+1) is the span of the sphere rows alone (V_infinity).
    Row moves keep every V_r and column moves keep its dimension, so the
    flag is an orbit invariant found by rank alone, with no search.  The
    rows go into one basis, sphere rows first and then the Moore rows by
    decreasing exponent, and the rank is read after each exponent.
    """
    basis: dict[int, int] = {}  # leading bit -> basis row, as an integer

    def add(row) -> None:
        m = int("".join(map(str, row)) or "0", 2)
        while m and m.bit_length() in basis:
            m ^= basis[m.bit_length()]
        if m:
            basis[m.bit_length()] = m

    for row in h.sphere_rows:
        add(row)
    top = max(h.moore_exponents, default=0)
    dims = {top + 1: len(basis)}
    for r in range(top, 0, -1):
        for row, e in zip(h.moore_rows, h.moore_exponents):
            if e == r:
                add(row)
        dims[r] = len(basis)
    return dims


# -- reference move tables -----------------------------------------------------
#
# The moves of susp5.reduction written out on tuples, one component at a
# time, with none of the library's packing of a state into one int.
# legal_moves and phi_moves must list the same states in the same order.
# The slot arithmetic (_slot_add, _b_transport) is shared: test_reduction
# checks it against the map calculus on its own.


def reference_legal_moves(h) -> list:
    """legal_moves of h, each move rebuilding the row tuples."""
    rows = tuple(tuple(map(int, row)) for row in h.sphere_rows + h.moore_rows)
    d, n, exps = len(h.sphere_rows), len(rows), h.moore_exponents
    out = []

    def added(target, source):
        row = tuple(a ^ b for a, b in zip(rows[target], rows[source]))
        new = rows[:target] + (row,) + rows[target + 1 :]
        out.append(HMatrix(new[:d], new[d:], exps))

    for i in range(d):
        for k in range(d):
            if i != k:
                added(i, k)
    for c in range(h.num_columns):
        for c2 in range(h.num_columns):
            if c != c2:
                new = tuple(r[:c] + (r[c] ^ r[c2],) + r[c + 1 :] for r in rows)
                out.append(HMatrix(new[:d], new[d:], exps))
    for j in range(d, n):
        for k in range(d):
            added(j, k)
    for j in range(d, n):
        for k in range(d, n):
            if j != k and exps[j - d] >= exps[k - d]:
                added(k, j)
    return out


def reference_phi_moves(phi) -> list:
    """phi_moves of phi, each move rebuilding the component tuples."""
    X, Y, M, W = (tuple(map(int, v)) for v in (phi.x, phi.y, phi.moore, phi.w))
    R, S = phi.moore_exponents, phi.consumed_exponents
    out = []

    def toggled(vec, i):
        return vec[:i] + (vec[i] ^ 1,) + vec[i + 1 :]

    def emit(x=X, y=Y, moore=M, w=W):
        out.append(PhiVector(x, y, moore, R, w, S))

    def m_(j, delta):
        emit(moore=M[:j] + (_slot_add(M[j], R[j], delta),) + M[j + 1 :])

    for k in range(len(X)):
        if not X[k]:
            continue
        for i in range(len(X)):
            if i != k:
                emit(x=toggled(X, i))  # identity shear among three-spheres
        for j in range(len(M)):
            m_(j, 2)  # bottom inclusion sends eta^2 up
    for k in range(len(Y)):
        if not Y[k]:
            continue
        for i in range(len(Y)):
            if i != k:
                emit(y=toggled(Y, i))  # identity shear among four-spheres
        for i in range(len(X)):
            emit(x=toggled(X, i))  # eta carries eta to eta^2
        for j in range(len(M)):
            m_(j, 2)  # i eta carries eta to i eta^2
    for k in range(len(M)):
        if M[k] % 2:
            for i in range(len(Y)):
                emit(y=toggled(Y, i))  # pinch carries the lift to eta
            for i in range(len(X)):
                emit(x=toggled(X, i))  # eta pinch carries the lift to eta^2
            for j in range(len(W)):
                if S[j] >= R[k]:
                    emit(w=toggled(W, j))  # i_P B(chi) into a consumed piece
        for j in range(len(M)):
            if M[k] % 2:
                m_(j, 2)  # i eta q, slot onto itself included
            if j != k:
                delta = _b_transport(M[k], R[k], R[j])
                if delta:
                    m_(j, delta)
    for k in range(len(W)):
        if not W[k]:
            continue
        for i in range(len(X)):
            emit(x=toggled(X, i))  # eta q xi-bar route down to eta^2
        for i in range(len(Y)):
            emit(y=toggled(Y, i))  # q xi-bar route down to eta
        for j in range(len(M)):
            m_(j, 2)  # i eta q xi-bar route
            if R[j] > S[k]:
                m_(j, 1)  # B(chi) xi-bar lands on the lift
        for j in range(len(W)):
            if j != k and S[j] >= S[k]:
                emit(w=toggled(W, j))
    return out


def reference_orbit(start, moves) -> set:
    """Closure of start under a reference move table."""
    seen = {start}
    queue = [start]
    while queue:
        for nxt in moves(queue.pop()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


# -- cellular chain homology oracle ------------------------------------------


def boundary_description(kind: str, dim: int, order: int = 0):
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
        return [n - 2, n - 1, n], {n - 1: order}
    if kind == "moore_eta_lift":
        return [n - 3, n - 2, n], {n - 2: order}
    if kind == "chang_ip_eta_lift":
        return [n - 3, n - 2, n - 1, n], {n - 2: order}
    if kind == "sphere_eta_sq":
        return [n - 3, n], {}
    if kind == "moore_eta_sq":
        return [n - 3, n - 2, n], {n - 2: order}
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
    cells, degrees = boundary_description(cx.kind, cx.dim, cx.order)
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

from susp5.decompose import CASES, ManifoldDescriptor
from susp5.spaces import chang_eta, chang_r, peterson, sphere, summand


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


# -- connected sums ------------------------------------------------------------

# reduce_phi's dominance order on the attaching cases of M # N, smallest
# first: a lifted eta class of least exponent (unconsumed before consumed,
# then lower index), then eta, eta^2, and an included eta^2 of greatest
# exponent; null is the unit.
_DOMINANCE = {
    "tilde_eta": lambda r, j: (0, r, 0, j),
    "ip_tilde_eta": lambda r, j: (0, r, 1, j),
    "eta": lambda r, j: (1,),
    "eta_sq": lambda r, j: (2,),
    "i_eta_sq": lambda r, j: (3, -r, j),
    "null": lambda r, j: (4,),
}


def merged_slots(left_exps, right_exps) -> tuple[dict[int, int], dict[int, int]]:
    """Where each side's two-primary summands land in the ascending list of
    the direct sum, left before right at equal exponent."""
    order = sorted(
        [(e, 0, i) for i, e in enumerate(left_exps)]
        + [(e, 1, i) for i, e in enumerate(right_exps)]
    )
    maps: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for pos, (_, side, i) in enumerate(order):
        maps[side][i] = pos
    return maps


def connected_sum(m: ManifoldDescriptor, n: ManifoldDescriptor) -> ManifoldDescriptor:
    """The descriptor of M # N on the invariant route: ranks and (c1, c2)
    add, torsion sums, the flags AND, and the case is the dominant one."""
    maps = merged_slots(m.two_primary_exponents, n.two_primary_exponents)
    cases = []
    for desc, where in zip((m, n), maps):
        j = None if desc.case.index is None else where[desc.case.index]
        cases.append((_DOMINANCE[desc.case.kind](desc.case.r, j), desc.case.kind, j))
    _, kind, j = min(cases)
    consumed = [where[i] for desc, where in zip((m, n), maps) for i in desc.consumed]
    return ManifoldDescriptor(
        l=m.l + n.l,
        d=m.d + n.d,
        h1_torsion=m.h1_torsion.direct_sum(n.h1_torsion),
        h2_torsion=m.h2_torsion.direct_sum(n.h2_torsion),
        spin=m.spin and n.spin,
        smooth=m.smooth and n.smooth,
        c1=m.c1 + n.c1,
        c2=m.c2 + n.c2,
        consumed=tuple(sorted(consumed)),
        case=AttachCase(kind, j),
    )


def random_matrix_route(rng: random.Random, max_l: int = 4, max_d: int = 4) -> dict:
    """Keyword arguments of decompose.resolve_attaching_data: a random eta
    incidence matrix and phi rows sized from its reduction.  Smooth input
    gets no eta^2 rows; the spin flag is whether no eta-type row is set."""
    l, d = rng.randint(1, max_l), rng.randint(1, max_d)
    h2 = random_torsion(rng, (2, 2, 3), 4, 3)
    exps = h2.primary_exponents(2)

    def bits(n, on=True):
        return tuple(rng.randint(0, 1) if on else 0 for _ in range(n))

    h = HMatrix(
        sphere_rows=tuple(bits(l) for _ in range(d)),
        moore_rows=tuple(bits(l) for _ in exps),
        moore_exponents=exps,
    )
    res = reduce_h_matrix(h)
    free = len(exps) - res.c2
    smooth, eta = rng.random() < 0.5, rng.random() < 0.5
    phi = dict(
        x=bits(d - res.c1, not smooth),
        y=bits(d, eta),
        z=bits(free, eta),
        eps=bits(free, not smooth),
        w=bits(res.c2, eta),
    )
    spin = not any(phi["y"] + phi["z"] + phi["w"])
    return dict(
        l=l, d=d, h1_torsion=random_torsion(rng, (3, 5, 7), 2, 2), h2_torsion=h2,
        spin=spin, smooth=smooth, h_matrix=h, phi=phi,
    )


def matrix_connected_sum(a: dict, b: dict) -> dict:
    """The matrix-route arguments of M # N: the block-diagonal incidence
    matrix, with Moore rows in the merged exponent order, and each side's
    phi rows placed on its own spheres and slots."""
    ha, hb = a["h_matrix"], b["h_matrix"]
    la, lb = a["l"], b["l"]
    h2 = a["h2_torsion"].direct_sum(b["h2_torsion"])
    maps = merged_slots(ha.moore_exponents, hb.moore_exponents)
    moore = {maps[0][i]: row + (0,) * lb for i, row in enumerate(ha.moore_rows)}
    moore.update({maps[1][i]: (0,) * la + row for i, row in enumerate(hb.moore_rows)})
    h = HMatrix(
        sphere_rows=tuple(row + (0,) * lb for row in ha.sphere_rows)
        + tuple((0,) * la + row for row in hb.sphere_rows),
        moore_rows=tuple(moore[k] for k in sorted(moore)),
        moore_exponents=h2.primary_exponents(2),
    )
    # each side's z, eps and w bits, keyed by the merged index of their slot
    slots = {"z": {}, "eps": {}, "w": {}}
    for args, where in zip((a, b), maps):
        consumed = reduce_h_matrix(args["h_matrix"]).consumed
        unconsumed = [j for j in sorted(where) if j not in consumed]
        for key, js in (("z", unconsumed), ("eps", unconsumed), ("w", consumed)):
            slots[key].update({where[j]: bit for j, bit in zip(js, args["phi"][key])})
    phi = {key: a["phi"][key] + b["phi"][key] for key in ("x", "y")}
    phi.update({key: tuple(bits[k] for k in sorted(bits)) for key, bits in slots.items()})
    return dict(
        l=la + lb,
        d=a["d"] + b["d"],
        h1_torsion=a["h1_torsion"].direct_sum(b["h1_torsion"]),
        h2_torsion=h2,
        spin=a["spin"] and b["spin"],
        smooth=a["smooth"] and b["smooth"],
        h_matrix=h,
        phi=phi,
    )


# -- reference wedge lists ------------------------------------------------------

# The wedges of susp5.decompose written out one list entry per summand,
# with the top piece's absorption dispatched on string codes of their own,
# so the library's count tables are checked against a second route.
REFERENCE_ABSORBS = {
    "null": None,
    "eta": "S^4",
    "eta_sq": "S^3",
    "tilde_eta": "moore",
    "ip_tilde_eta": "chang",
    "i_eta_sq": "moore",
}


def reference_section_parts(desc, absorbs=None, j=None) -> list:
    """The summands of W5, less the one a top piece absorbs: a three- or
    four-sphere, the Moore summand j, or the C_r piece on the consumed
    summand j."""
    exps = desc.two_primary_exponents
    H = desc.h1_torsion
    return (
        [sphere(3)] * (desc.d - desc.c1 - (absorbs == "S^3"))
        + [sphere(4)] * (desc.d - (absorbs == "S^4"))
        + [sphere(5)] * (desc.l - desc.c1 - desc.c2)
        + peterson(3, H)
        + peterson(4, desc.remaining_torsion(j if absorbs == "moore" else None))
        + peterson(5, H)
        + [chang_eta(5)] * desc.c1
        + [chang_r(5, exps[i]) for i in desc.consumed if (absorbs, i) != ("chang", j)]
    )


def reference_single_parts(desc) -> list:
    """The summands of the suspension wedge, one entry each."""
    r = desc.case.r
    top = summand(CASES[desc.case.kind].top, 6, 0 if r is None else 2**r)
    absorbs = REFERENCE_ABSORBS[desc.case.kind]
    return [sphere(2)] * desc.l + reference_section_parts(desc, absorbs, desc.case.index) + [top]


def reference_section(desc, k: int) -> list:
    """The summands of the homology section W_k, k in 3..5, one entry each."""
    if k == 5:
        return reference_section_parts(desc)
    H = desc.h1_torsion
    parts = [sphere(3)] * desc.d + peterson(3, H) + peterson(4, desc.h2_torsion)
    if k == 4:
        parts += [sphere(4)] * desc.d + peterson(5, H)
    return parts


def wedge_homology(w, degree: int) -> FgAbGroup:
    return w.homology_in(degree)


def expand(runs) -> list:
    """One entry per summand: (x, n) runs repeated by their multiplicity."""
    return [x for x, n in runs for _ in range(n)]

