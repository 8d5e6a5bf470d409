"""End-to-end acceptance checks.

One test per contract criterion.  Each test prints a single PASS line with
the size of the evidence and, where the contract bounds it, the runtime.
Any pytest failure here is the corresponding FAIL.
"""

import math
import random
import time
from itertools import combinations, combinations_with_replacement, product

import pytest

from helpers import (
    det_int,
    f2_rank,
    flag_dimensions,
    mat_mul,
    random_descriptor,
    reference_single_parts,
    shape_variants,
)
from susp5.abgroup import FgAbGroup, smith_normal_form
from susp5.decompose import (
    DecompositionError,
    ManifoldDescriptor,
    double_suspension_decomposition,
    manifold_homology,
    suspension_decomposition,
)
from susp5.invariants import (
    k_closed_form,
    k_group,
    ko_closed_form,
    ko_group,
    pi3,
    pi4_sigma_crosscheck,
)
from susp5.reduction import (
    AttachCase,
    HMatrix,
    PhiVector,
    enumerate_orbit,
    enumerate_phi_orbit,
    reduce_h_matrix,
    reduce_phi,
)
from susp5.spaces import wedge


def G(text: str) -> FgAbGroup:
    return FgAbGroup.from_string(text)


def desc(l, d, H="0", T="0", spin=True, smooth=True, **kw) -> ManifoldDescriptor:
    return ManifoldDescriptor(
        l=l,
        d=d,
        h1_torsion=G(H),
        h2_torsion=G(T),
        spin=spin,
        smooth=smooth,
        **kw,
    )


# Curated descriptors with hand-derived suspension splittings, covering all
# six attachment cases, two-torsion counts 0..3, trivial and nontrivial odd
# part in degree one, and both the smooth and duality-complex modes.
SUITE = [
    (
        "spin minimal",
        desc(1, 1),
        "S^2 v S^3 v S^4 v S^5 v S^6",
    ),
    (
        "spin with odd torsion",
        desc(2, 1, H="Z/5", T="Z/3"),
        "S^2 v S^2 v S^3 v P^3(Z/5) v S^4 v P^4(Z/3) v S^5 v S^5 v P^5(Z/5) v S^6",
    ),
    (
        "spin with consumed two-torsion",
        desc(3, 2, T="Z/2 + Z/4 + Z/8", c1=1, c2=1, consumed=(2,)),
        "S^2 v S^2 v S^2 v S^3 v S^4 v S^4 v P^4(Z/2) v P^4(Z/4)"
        " v S^5 v C^5_eta v C^5_{r=3} v S^6",
    ),
    (
        "nonspin minimal",
        desc(1, 1, spin=False, case=AttachCase("eta")),
        "S^2 v S^3 v S^5 v C^6_eta",
    ),
    (
        "nonspin mixed torsion",
        desc(2, 2, H="Z/7", T="Z/9 + Z/2", spin=False, c1=1, c2=1,
             consumed=(0,), case=AttachCase("eta")),
        "S^2 v S^2 v S^3 v P^3(Z/7) v S^4 v P^4(Z/9) v P^5(Z/7)"
        " v C^5_eta v C^5_{r=1} v C^6_eta",
    ),
    (
        "nonspin lifted attachment",
        desc(1, 1, T="Z/4", spin=False, case=AttachCase("tilde_eta", 0)),
        "S^2 v S^3 v S^4 v S^5 v A^6(eta~_2)",
    ),
    (
        "nonspin lifted attachment, exponent one",
        desc(1, 1, T="Z/2", spin=False, case=AttachCase("tilde_eta", 0)),
        "S^2 v S^3 v S^4 v S^5 v A^6(eta~_1)",
    ),
    (
        "nonspin lift through consumed summand",
        desc(2, 1, T="Z/4 + Z/8", spin=False, c2=1, consumed=(1,),
             case=AttachCase("ip_tilde_eta", 1)),
        "S^2 v S^2 v S^3 v S^4 v P^4(Z/4) v S^5 v A^6(i_P eta~_3)",
    ),
    (
        "nonspin lift with leftover mixing piece",
        desc(3, 1, T="Z/2 + Z/4 + Z/8", spin=False, c2=2, consumed=(1, 2),
             case=AttachCase("ip_tilde_eta", 2)),
        "S^2 v S^2 v S^2 v S^3 v S^4 v P^4(Z/2) v S^5 v C^5_{r=2}"
        " v A^6(i_P eta~_3)",
    ),
    (
        "duality complex, square attachment",
        desc(1, 1, smooth=False, case=AttachCase("eta_sq")),
        "S^2 v S^4 v S^5 v A^6(eta^2)",
    ),
    (
        "duality complex, torsion square attachment",
        desc(1, 1, T="Z/4", smooth=False, case=AttachCase("i_eta_sq", 0)),
        "S^2 v S^3 v S^4 v S^5 v A^6(2^2 eta^2)",
    ),
    (
        "duality complex, trivial attachment",
        desc(1, 1, T="Z/2", smooth=False),
        "S^2 v S^3 v S^4 v P^4(Z/2) v S^5 v S^6",
    ),
    (
        "duality complex, nonspin",
        desc(1, 2, H="Z/5", spin=False, smooth=False, case=AttachCase("eta")),
        "S^2 v S^3 v S^3 v P^3(Z/5) v S^4 v S^5 v P^5(Z/5) v C^6_eta",
    ),
    (
        "nonspin large mixed example",
        desc(4, 2, H="Z/25", T="Z/2 + Z/2 + Z/16 + Z/27", spin=False,
             c1=2, c2=2, consumed=(0, 1), case=AttachCase("tilde_eta", 2)),
        "S^2 v S^2 v S^2 v S^2 v P^3(Z/25) v S^4 v S^4 v P^4(Z/27)"
        " v P^5(Z/25) v C^5_eta v C^5_eta v C^5_{r=1} v C^5_{r=1}"
        " v A^6(eta~_4)",
    ),
]


_RANDOM_SUITE: list[ManifoldDescriptor] | None = None


def random_suite() -> list[ManifoldDescriptor]:
    """1000 seeded random descriptors, shared across criteria 2 and 3.

    Degree-one torsion is kept prime to 3 so every descriptor admits a
    single-suspension splitting.
    """
    global _RANDOM_SUITE
    if _RANDOM_SUITE is None:
        rng = random.Random(54721)
        _RANDOM_SUITE = [
            random_descriptor(rng, h1_primes=(5, 7)) for _ in range(1000)
        ]
    return _RANDOM_SUITE


def test_criterion_1_curated_wedge_decompositions():
    start = time.monotonic()
    for name, d0, expected in SUITE:
        assert suspension_decomposition(d0).render() == expected, name
    elapsed = time.monotonic() - start

    # The suite must exercise the advertised breadth.
    kinds = {d0.case.kind for _, d0, _ in SUITE}
    assert kinds == {"null", "eta", "tilde_eta", "ip_tilde_eta", "eta_sq", "i_eta_sq"}
    t2_counts = {len(d0.two_primary_exponents) for _, d0, _ in SUITE}
    assert {0, 1, 2, 3} <= t2_counts
    assert any(d0.h1_torsion != G("0") for _, d0, _ in SUITE)
    assert any(d0.h1_torsion == G("0") for _, d0, _ in SUITE)
    assert any(d0.pd_mode for _, d0, _ in SUITE)
    assert any(d0.smooth for _, d0, _ in SUITE)
    assert len(SUITE) >= 12
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 (curated wedge decompositions): PASS"
        f" ({len(SUITE)} descriptors, {elapsed:.3f}s)"
    )


def test_criterion_2_randomized_homology_shift():
    start = time.monotonic()
    zero = G("0")
    for d0 in random_suite():
        wedge = suspension_decomposition(d0)
        hm = manifold_homology(d0)
        for i in range(7):
            expected = hm[i - 1] if 1 <= i - 1 <= 5 else zero
            assert wedge.homology_in(i) == expected, (d0, i)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 2 (randomized homology shift): PASS"
        f" (1000 descriptors x 7 degrees, {elapsed:.2f}s)"
    )


def test_criterion_3_k_theory_closed_forms():
    start = time.monotonic()
    branches = 0
    for d0 in random_suite():
        for variant in shape_variants(d0):
            double = double_suspension_decomposition(variant)
            assert k_group(variant, double).group == k_closed_form(variant), variant
            assert ko_group(variant, double).group == ko_closed_form(variant), variant
            branches += 1
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 3 (K-theory closed forms): PASS"
        f" ({branches} descriptor variants, {elapsed:.2f}s)"
    )


def test_criterion_4_cohomotopy_crosscheck():
    for name, d0, _ in SUITE:
        assert pi4_sigma_crosscheck(suspension_decomposition(d0)).group == pi3(d0), name
    # Exponent-one lift: the extra cyclic factor Z/2^(r-1) degenerates.
    edge = desc(1, 1, T="Z/2", spin=False, case=AttachCase("tilde_eta", 0))
    assert pi3(edge) == G("Z + Z/2")
    assert pi4_sigma_crosscheck(suspension_decomposition(edge)).group == G("Z + Z/2")
    print(
        f"ACCEPTANCE 4 (cohomotopy crosscheck): PASS"
        f" ({len(SUITE)} descriptors plus exponent-one edge)"
    )


def test_criterion_5_exhaustive_matrix_reduction():
    start = time.monotonic()
    orbit_count = 0
    state_count = 0
    orbits_per_cols = {}
    for cols in (1, 2, 3):
        orbits_per_cols[cols] = 0
        all_rows = list(product((0, 1), repeat=cols))
        for nsphere in range(4):
            for nmoore in range(4 - nsphere):
                if nsphere + nmoore == 0:
                    continue
                for exps in product((1, 2, 3), repeat=nmoore):
                    seen: set[HMatrix] = set()
                    for sphere in product(all_rows, repeat=nsphere):
                        for moore in product(all_rows, repeat=nmoore):
                            h = HMatrix(sphere, moore, exps)
                            if h in seen:
                                continue
                            orbit = enumerate_orbit(h)
                            seen |= orbit
                            state_count += len(orbit)
                            outcomes = set()
                            for member in orbit:
                                res = reduce_h_matrix(member)
                                consumed_exps = tuple(sorted(exps[j] for j in res.consumed))
                                outcomes.add((res.c1, res.c2, consumed_exps))
                                assert res.c1 == f2_rank(member.sphere_rows)
                                # The greedy normal form only makes legal moves.
                                assert res.reduced in orbit, member
                            # (c1, c2) and the consumed exponents are invariants.
                            assert len(outcomes) == 1, h
                            c1, c2, _ = outcomes.pop()
                            assert 0 <= c1 <= min(cols, nsphere)
                            assert 0 <= c2 <= min(cols - c1, nmoore)
                            orbit_count += 1
                            orbits_per_cols[cols] += 1
                    # Orbits partition the full state space.
                    assert len(seen) == len(all_rows) ** (nsphere + nmoore)
    elapsed = time.monotonic() - start
    # A search that returned orbits too small would still partition the
    # states and pass the invariance asserts; the counts pin the orbits.
    assert orbits_per_cols == {1: 171, 2: 272, 3: 312}
    assert (orbit_count, state_count) == (755, 24_508)
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 (exhaustive matrix reduction): PASS"
        f" ({state_count} matrices in {orbit_count} orbits, {elapsed:.1f}s)"
    )


def test_criterion_5_at_four_columns():
    # Every shape of criterion 5 at 4 columns.  Each orbit's start state is
    # reduced and its rank flag read (helpers.flag_dimensions): the greedy
    # (c1, c2) must be the flag's prediction, and distinct orbits of a shape
    # must have distinct flags, so the flag is a complete invariant here.
    start = time.monotonic()
    cols = 4
    all_rows = list(product((0, 1), repeat=cols))
    orbit_count = 0
    state_count = 0
    for nsphere in range(4):
        for nmoore in range(4 - nsphere):
            if nsphere + nmoore == 0:
                continue
            for exps in product((1, 2, 3), repeat=nmoore):
                seen: set = set()  # (sphere rows, Moore rows) of every member found
                flags = set()
                orbits = 0
                for sphere in product(all_rows, repeat=nsphere):
                    for moore in product(all_rows, repeat=nmoore):
                        if (sphere, moore) in seen:
                            continue
                        h = HMatrix(sphere, moore, exps)
                        orbit = enumerate_orbit(h)
                        seen.update((m.sphere_rows, m.moore_rows) for m in orbit)
                        state_count += len(orbit)
                        orbits += 1
                        dims = flag_dimensions(h)
                        flags.add(tuple(sorted(dims.items())))
                        top = len(dims)  # V_top is V_infinity
                        res = reduce_h_matrix(h)
                        assert (res.c1, res.c2) == (dims[top], dims[1] - dims[top]), h
                assert len(seen) == len(all_rows) ** (nsphere + nmoore)
                assert len(flags) == orbits, (nsphere, exps)
                orbit_count += orbits
    elapsed = time.monotonic() - start
    assert (orbit_count, state_count) == (312, 167_232)
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 at 4 columns (rank flag, complete): PASS"
        f" ({state_count} matrices in {orbit_count} orbits, {elapsed:.1f}s)"
    )


def _expected_phi_case(phi: PhiVector) -> tuple[str, int | None, int | None]:
    """Independent statement of the attachment normal form.

    Priority: cheapest lifted class (ties prefer the unconsumed block, then
    the lowest slot), else a plain eta hit, else a square hit, else the
    highest-exponent order-two torsion hit, else trivial.
    """
    lifts = []
    for j, (value, r) in enumerate(zip(phi.moore, phi.moore_exponents)):
        if value % 2 == 1:
            lifts.append((r, 0, j))
    for j, (bit, s) in enumerate(zip(phi.w, phi.consumed_exponents)):
        if bit:
            lifts.append((s, 1, j))
    if lifts:
        r, block, j = min(lifts)
        return ("tilde_eta" if block == 0 else "ip_tilde_eta", j, r)
    if any(phi.y):
        return ("eta", None, None)
    if any(phi.x):
        return ("eta_sq", None, None)
    torsion_hits = [
        (r, -j)
        for j, (value, r) in enumerate(zip(phi.moore, phi.moore_exponents))
        if (value == 2 if r == 1 else value >= 2)
    ]
    if torsion_hits:
        r, neg_j = max(torsion_hits)
        return ("i_eta_sq", -neg_j, r)
    return ("null", None, None)


def _canonical_phi(phi: PhiVector, case: AttachCase) -> PhiVector:
    """The canonical vector carrying the given attachment case."""
    x = [0] * len(phi.x)
    y = [0] * len(phi.y)
    moore = [0] * len(phi.moore)
    w = [0] * len(phi.w)
    if case.kind == "eta":
        y[0] = 1
    elif case.kind == "eta_sq":
        x[0] = 1
    elif case.kind == "tilde_eta":
        moore[case.index] = 1
    elif case.kind == "ip_tilde_eta":
        w[case.index] = 1
    elif case.kind == "i_eta_sq":
        moore[case.index] = 2
    return PhiVector(
        tuple(x), tuple(y), tuple(moore), phi.moore_exponents,
        tuple(w), phi.consumed_exponents,
    )


def test_criterion_6_exhaustive_attachment_normal_form():
    start = time.monotonic()
    orbit_count = 0
    state_count = 0
    shapes = [
        (a, b, u, c)
        for a in range(5) for b in range(5) for u in range(5) for c in range(5)
        if 1 <= a + b + u + c <= 4
    ]
    for a, b, u, c in shapes:
        for u_exps in combinations_with_replacement((1, 2, 3), u):
            for c_exps in combinations_with_replacement((1, 2, 3), c):
                seen: set[PhiVector] = set()
                labels = set()  # one (kind, r) per orbit of this shape
                states = product(
                    product((0, 1), repeat=a),
                    product((0, 1), repeat=b),
                    product(range(4), repeat=u),
                    product((0, 1), repeat=c),
                )
                for x, y, moore, w in states:
                    phi = PhiVector(x, y, moore, u_exps, w, c_exps)
                    if phi in seen:
                        continue
                    orbit = enumerate_phi_orbit(phi)
                    seen |= orbit
                    state_count += len(orbit)
                    kinds = set()
                    for member in orbit:
                        case = reduce_phi(member, smooth=False)
                        assert (case.kind, case.index, case.r) == \
                            _expected_phi_case(member), member
                        kinds.add((case.kind, case.r))
                    assert len(kinds) == 1, phi
                    # complete: no other orbit of this shape has the same label
                    assert not kinds & labels, phi
                    labels |= kinds
                    rep_case = reduce_phi(phi, smooth=False)
                    assert _canonical_phi(phi, rep_case) in orbit, phi
                    orbit_count += 1
                assert len(seen) == 2 ** (a + b + c) * 4 ** u
    elapsed = time.monotonic() - start
    # Pins the orbit sizes, which the partition assert alone does not.
    assert (orbit_count, state_count) == (2_309, 23_378)
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 6 (exhaustive attachment normal form): PASS"
        f" ({state_count} vectors in {orbit_count} orbits, {elapsed:.1f}s)"
    )


def test_criterion_7_double_suspension_consistency():
    for name, d0, _ in SUITE:
        single = suspension_decomposition(d0)
        double = double_suspension_decomposition(d0)
        assert double == single.suspend(), name
        # a second route: the reference list, one suspended entry per summand
        assert double == wedge(*(p.suspend() for p in reference_single_parts(d0))), name
    # Three-primary torsion in degree one blocks the single suspension but
    # not the double one.
    blocked = desc(2, 1, H="Z/3 + Z/5")
    with pytest.raises(DecompositionError):
        suspension_decomposition(blocked)
    double = double_suspension_decomposition(blocked)
    assert double == wedge(*(p.suspend() for p in reference_single_parts(blocked)))
    rendered = double.render()
    assert "P^4(Z/3)" in rendered
    assert "P^6(Z/3)" in rendered
    print(
        f"ACCEPTANCE 7 (double suspension consistency): PASS"
        f" ({len(SUITE)} descriptors plus three-primary fixture)"
    )


def _minor_gcd(a: list[list[int]], k: int) -> int:
    g = 0
    for rows in combinations(range(len(a)), k):
        for cols in combinations(range(len(a[0])), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = math.gcd(g, det_int(sub))
    return g


def test_criterion_8_smith_normal_form_laws():
    rng = random.Random(97)
    start = time.monotonic()
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert det_int(u) in (1, -1)
        assert det_int(v) in (1, -1)
        diag = [d[i][i] for i in range(min(m, n))]
        for k in range(len(diag) - 1):
            if diag[k] == 0:
                assert diag[k + 1] == 0
            elif diag[k + 1] != 0:
                assert diag[k + 1] % diag[k] == 0
        # Determinantal characterization: the product of the first k
        # diagonal entries is the gcd of the k-by-k minors (k <= 3).
        for k in range(1, min(3, m, n) + 1):
            prod = 1
            for entry in diag[:k]:
                prod *= entry
            assert prod == _minor_gcd(a, k), (a, k)
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 8 (Smith normal form laws): PASS"
        f" (500 random matrices, {elapsed:.2f}s)"
    )
