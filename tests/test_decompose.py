"""Descriptor validation and suspension wedge decompositions."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REFERENCE_ABSORBS,
    random_descriptor,
    reference_section,
    reference_single_parts,
    valid_cases,
)
from susp5.abgroup import FgAbGroup, direct_sum
from susp5.cli import parse_descriptor_text, render_descriptor
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
from susp5.reduction import AttachCase, DescriptorError, HMatrix
from susp5.spaces import chang_r, moore, sphere, summand, wedge

Z0 = FgAbGroup.trivial()


def desc(l=1, d=1, H="0", T="0", spin=True, smooth=True, **kw):
    return ManifoldDescriptor(
        l=l,
        d=d,
        h1_torsion=FgAbGroup.from_string(H),
        h2_torsion=FgAbGroup.from_string(T),
        spin=spin,
        smooth=smooth,
        **kw,
    )


def test_minimal_spin_wedge():
    w = suspension_decomposition(desc())
    assert w.render() == "S^2 v S^3 v S^4 v S^5 v S^6"


def test_eta_wedge():
    w = suspension_decomposition(desc(spin=False, case=AttachCase("eta")))
    assert w.render() == "S^2 v S^3 v S^5 v C^6_eta"


def test_tilde_eta_wedge():
    d0 = desc(T="Z/4", spin=False, case=AttachCase("tilde_eta", 0))
    w = suspension_decomposition(d0)
    assert w.render() == "S^2 v S^3 v S^4 v S^5 v A^6(eta~_2)"


def test_ip_tilde_eta_wedge():
    d0 = desc(
        l=2, T="Z/8", spin=False, c2=1, consumed=(0,), case=AttachCase("ip_tilde_eta", 0)
    )
    w = suspension_decomposition(d0)
    assert w.render() == "S^2 v S^2 v S^3 v S^4 v S^5 v A^6(i_P eta~_3)"


def test_eta_sq_wedge():
    d0 = desc(smooth=False, case=AttachCase("eta_sq"))
    w = suspension_decomposition(d0)
    assert w.render() == "S^2 v S^4 v S^5 v A^6(eta^2)"


def test_i_eta_sq_wedge():
    d0 = desc(T="Z/4", smooth=False, case=AttachCase("i_eta_sq", 0))
    w = suspension_decomposition(d0)
    assert w.render() == "S^2 v S^3 v S^4 v S^5 v A^6(2^2 eta^2)"


def test_consumed_and_chang_pieces():
    d0 = desc(l=3, d=2, T="Z/2 + Z/4 + Z/8", spin=True, c1=1, c2=1, consumed=(2,))
    w = suspension_decomposition(d0)
    assert w.render() == (
        "S^2 v S^2 v S^2 v S^3 v S^4 v S^4 v P^4(Z/2) v P^4(Z/4) v S^5 v "
        "C^5_eta v C^5_{r=3} v S^6"
    )


def test_odd_linking_part():
    d0 = desc(l=2, T="Z/3", H="Z/5", spin=True)
    w = suspension_decomposition(d0)
    assert w.render() == (
        "S^2 v S^2 v S^3 v P^3(Z/5) v S^4 v P^4(Z/3) v S^5 v S^5 v P^5(Z/5) v S^6"
    )


def test_manifold_homology_table():
    d0 = desc(l=2, d=3, H="Z/5", T="Z/4 + Z/9")
    hm = manifold_homology(d0)
    assert hm[0] == FgAbGroup.free(1)
    assert hm[1] == FgAbGroup.from_primary(2, [(5, 1)])
    assert hm[2] == FgAbGroup.from_primary(3, [(2, 2), (3, 2)])
    assert hm[3] == FgAbGroup.from_primary(3, [(5, 1)])
    assert hm[4] == FgAbGroup.free(2)
    assert hm[5] == FgAbGroup.free(1)


def expected_suspension_homology(d0, i, shift=1):
    hm = manifold_homology(d0)
    j = i - shift
    return hm[j] if 1 <= j <= 5 else Z0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_suspension_homology_shift(seed):
    d0 = random_descriptor(random.Random(seed), h1_primes=(5, 7))
    w = suspension_decomposition(d0)
    for i in range(0, 7):
        assert w.homology_in(i) == expected_suspension_homology(d0, i), i


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_double_suspension_homology_shift(seed):
    d0 = random_descriptor(random.Random(seed))
    w = double_suspension_decomposition(d0)
    for i in range(0, 8):
        assert w.homology_in(i) == expected_suspension_homology(d0, i, shift=2), i


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_weight_invariant(seed):
    d0 = random_descriptor(random.Random(seed), h1_primes=(5, 7))
    w = suspension_decomposition(d0)
    h = len(d0.h1_torsion.torsion)
    t = len(d0.h2_torsion.torsion)
    assert w.weight() == 2 * d0.l + 2 * d0.d + 2 * h + t + 1


def test_sections_build_up():
    d0 = desc(
        l=2,
        d=2,
        H="Z/5",
        T="Z/4 + Z/9",
        spin=False,
        c1=1,
        c2=1,
        consumed=(0,),
        case=AttachCase("eta"),
    )
    assert homology_section(d0, 3).render() == (
        "S^3 v S^3 v P^3(Z/5) v P^4(Z/4) v P^4(Z/9)"
    )
    assert homology_section(d0, 4).render() == (
        "S^3 v S^3 v P^3(Z/5) v S^4 v S^4 v P^4(Z/4) v P^4(Z/9) v P^5(Z/5)"
    )
    assert homology_section(d0, 5).render() == (
        "S^3 v P^3(Z/5) v S^4 v S^4 v P^4(Z/9) v P^5(Z/5) v C^5_eta v C^5_{r=2}"
    )
    with pytest.raises(DecompositionError):
        homology_section(d0, 6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_section_homology(seed):
    d0 = random_descriptor(random.Random(seed))
    reduced_part = {
        2: d0.h1_torsion,
        3: direct_sum(FgAbGroup.free(d0.d), d0.h2_torsion),
        4: direct_sum(FgAbGroup.free(d0.d), d0.h1_torsion),
        5: FgAbGroup.free(d0.l),
    }
    for k in (3, 4, 5):
        w = homology_section(d0, k)
        for i in range(0, 7):
            expected = reduced_part.get(i, Z0) if i <= k else Z0
            assert w.homology_in(i) == expected, (k, i)


def test_sections_allow_three_torsion():
    d0 = desc(H="Z/3")
    assert "P^3(Z/3)" in homology_section(d0, 3).render()


def test_three_torsion_single_vs_double():
    d0 = desc(l=2, H="Z/3 + Z/5")
    with pytest.raises(DecompositionError):
        suspension_decomposition(d0)
    w = double_suspension_decomposition(d0)
    assert "P^4(Z/3)" in w.render() and "P^6(Z/3)" in w.render()


def test_double_is_suspension_of_single():
    rng = random.Random(7)
    for _ in range(40):
        d0 = random_descriptor(rng, h1_primes=(5, 7))
        assert double_suspension_decomposition(d0) == suspension_decomposition(d0).suspend()


# Invariants whose every shape and case joins the seeded sample: torsion
# whose (p, e) order differs from its order order, and repeated exponents,
# so a top piece absorbs one of two equal Moore summands or C^5_r pieces.
_SHAPED = [
    (3, 2, "0", "Z/9 + Z/5"),
    (2, 2, "Z/5", "Z/8 + Z/3"),
    (3, 2, "Z/3 + Z/7", "Z/4 + Z/4 + Z/2"),
    (3, 1, "0", "Z/2 + Z/2 + Z/8 + Z/8"),
]


def _every_shape(l, d, H, T):
    """Descriptors over every (c1, c2, consumed, case) and flag pair."""
    out = []
    t2 = len(FgAbGroup.from_string(T).primary_exponents(2))
    for spin, smooth in product((True, False), repeat=2):
        for c1 in range(min(l, d) + 1):
            for c2 in range(min(l - c1, t2) + 1):
                for consumed in combinations(range(t2), c2):
                    for case in valid_cases(l, d, t2, c1, c2, consumed, smooth, spin):
                        out.append(desc(l, d, H, T, spin, smooth, c1=c1, c2=c2,
                                        consumed=consumed, case=case))
    return out


def _absorbs_one_of_two(d0) -> bool:
    """The top piece absorbs one of two equal Moore summands or C^5_r pieces."""
    if d0.case.index is None:
        return False
    consumed = d0.case.kind == "ip_tilde_eta"
    same = [
        i for i, e in enumerate(d0.two_primary_exponents)
        if e == d0.case.r and (i in d0.consumed) == consumed
    ]
    return len(same) >= 2


def test_count_tables_match_the_reference_lists():
    """Each wedge equals the one the per-summand reference lists give."""
    rng = random.Random(16)
    descs = [random_descriptor(rng) for _ in range(200)]
    descs += [random_descriptor(rng, max_l=64, max_d=64, max_torsion=21) for _ in range(200)]
    for shape in _SHAPED:
        descs += _every_shape(*shape)
    assert len(descs) >= 500
    assert {d0.case.kind for d0 in descs} == set(CASES)
    assert any(d0.h1_torsion.primary_exponents(3) for d0 in descs)
    assert max(d0.l for d0 in descs) > 32 and max(d0.d for d0 in descs) > 32
    assert {d0.case.kind for d0 in descs if _absorbs_one_of_two(d0)} == {
        "tilde_eta", "i_eta_sq", "ip_tilde_eta"
    }
    for d0 in descs:
        single = reference_single_parts(d0)
        if d0.h1_torsion.primary_exponents(3):
            with pytest.raises(DecompositionError):
                suspension_decomposition(d0)
        else:
            assert suspension_decomposition(d0) == wedge(*single), d0
        assert double_suspension_decomposition(d0) == wedge(*(p.suspend() for p in single)), d0
        for k in (3, 4, 5):
            assert homology_section(d0, k) == wedge(*reference_section(d0, k)), (d0, k)


# REFERENCE_ABSORBS's codes as summands of the case's exponent r.
_ABSORBED = {
    None: lambda r: None,
    "S^3": lambda r: sphere(3),
    "S^4": lambda r: sphere(4),
    "moore": lambda r: moore(4, 2**r)[0],
    "chang": lambda r: chang_r(5, r),
}


def test_a_top_piece_absorbs_its_section_at_degree_five():
    """Each case's top piece, at every exponent, has as its section at
    degree 5 the W5 summand the reference lists take out for it."""
    for kind, case in CASES.items():
        for r in (1, 2, 3) if case.index is not None else (None,):
            top = summand(case.top, 6, 0 if r is None else 2**r)
            assert top.section(5) == _ABSORBED[REFERENCE_ABSORBS[kind]](r), (kind, r)


def test_validation_errors():
    with pytest.raises(DescriptorError):
        desc(l=0)
    with pytest.raises(DescriptorError):
        desc(H="Z/2")
    with pytest.raises(DescriptorError):
        desc(H="Z")
    with pytest.raises(DescriptorError):
        desc(c1=2)
    with pytest.raises(DescriptorError):
        desc(l=2, T="Z/2", c2=2)
    with pytest.raises(DescriptorError):
        desc(spin=False)  # non-spin input needs an eta-type case
    with pytest.raises(DescriptorError):
        desc(case=AttachCase("eta"))  # smooth spin admits only the null case
    with pytest.raises(DescriptorError):
        desc(smooth=False, c1=1, case=AttachCase("eta_sq"))  # no free three-sphere
    with pytest.raises(DescriptorError):
        desc(T="Z/4", spin=False, c2=1, case=AttachCase("tilde_eta", 0))
    with pytest.raises(DescriptorError):
        desc(T="Z/4", spin=False, case=AttachCase("ip_tilde_eta", 0))
    with pytest.raises(DescriptorError):
        desc(T="Z/4", spin=False, case=AttachCase("tilde_eta", 0, r=3))
    with pytest.raises(DescriptorError):
        desc(T="Z/4", spin=True, c2=1, consumed=(0, 0))
    for case in (AttachCase("eta_sq", 0), AttachCase("eta_sq", 5), AttachCase("eta_sq", r=3)):
        with pytest.raises(DescriptorError, match="'eta_sq' takes no summand index"):
            desc(T="Z/2", smooth=False, case=case)


def test_attaching_cases_accepted_exactly_when_valid():
    # the kinds are spelled out here, not read from decompose.CASES, so the
    # table is checked against helpers.valid_cases and not against itself
    kinds = ("null", "eta", "eta_sq", "tilde_eta", "ip_tilde_eta", "i_eta_sq")
    accepted = listed = 0
    for l, d, T, spin, smooth in product(
        (1, 2), (1, 2), ("0", "Z/3", "Z/2", "Z/4 + Z/3", "Z/2 + Z/8"), (True, False), (True, False)
    ):
        t2 = len(FgAbGroup.from_string(T).primary_exponents(2))
        for c1 in range(min(l, d) + 1):
            for c2 in range(min(l - c1, t2) + 1):
                for consumed in combinations(range(t2), c2):
                    valid = {
                        (c.kind, c.index)
                        for c in valid_cases(l, d, t2, c1, c2, consumed, smooth, spin)
                    }
                    listed += len(valid)
                    for kind, index in product(kinds, (None, *range(t2 + 1))):
                        try:
                            d0 = desc(
                                l=l, d=d, T=T, spin=spin, smooth=smooth, c1=c1, c2=c2,
                                consumed=consumed, case=AttachCase(kind, index),
                            )
                        except DescriptorError as exc:
                            assert (kind, index) not in valid and exc.key == "case"
                            continue
                        assert (kind, index) in valid
                        assert parse_descriptor_text(render_descriptor(d0)) == d0
                        accepted += 1
    assert accepted == listed == 536


def test_consumed_defaults_to_prefix():
    d0 = desc(l=3, T="Z/2 + Z/4 + Z/8", c2=2)
    assert d0.consumed == (0, 1)
    d1 = desc(l=3, T="Z/2 + Z/4 + Z/8", c2=2, consumed=(2, 0))
    assert d1.consumed == (0, 2)


def test_case_exponent_is_filled_in():
    d0 = desc(T="Z/2 + Z/8", spin=False, case=AttachCase("tilde_eta", 1))
    assert d0.case.r == 3


def test_resolve_from_matrix():
    h = HMatrix(sphere_rows=((1, 0),), moore_rows=((0, 1),), moore_exponents=(1,))
    d0 = resolve_attaching_data(
        l=2,
        d=1,
        h1_torsion=Z0,
        h2_torsion=FgAbGroup.from_string("Z/2"),
        spin=True,
        smooth=True,
        h_matrix=h,
    )
    assert (d0.c1, d0.c2, d0.consumed, d0.case.kind) == (1, 1, (0,), "null")


def test_resolve_with_phi():
    h = HMatrix(sphere_rows=((0,),), moore_rows=(), moore_exponents=())
    phi = {"y": (1,)}  # x is missing, so all zeros
    d0 = resolve_attaching_data(
        l=1,
        d=1,
        h1_torsion=Z0,
        h2_torsion=Z0,
        spin=False,
        smooth=True,
        h_matrix=h,
        phi=phi,
    )
    assert d0.case == AttachCase("eta")


def test_resolve_maps_slot_to_global_index():
    # the exponent-2 row absorbs the only incidence column; a lift on the
    # remaining exponent-1 slot must come back as global index 0
    h = HMatrix(
        sphere_rows=((0, 0),), moore_rows=((1, 1), (1, 1)), moore_exponents=(1, 2)
    )
    phi = {"x": (0,), "y": (0,), "z": (1,), "eps": (0,), "w": (0,)}
    d0 = resolve_attaching_data(
        l=2,
        d=1,
        h1_torsion=Z0,
        h2_torsion=FgAbGroup.from_string("Z/2 + Z/4"),
        spin=False,
        smooth=True,
        h_matrix=h,
        phi=phi,
    )
    assert (d0.c1, d0.c2, d0.consumed) == (0, 1, (1,))
    assert d0.case == AttachCase("tilde_eta", 0, 1)


def test_resolve_shape_errors():
    T = FgAbGroup.from_string("Z/2")
    with pytest.raises(DescriptorError):
        resolve_attaching_data(
            l=1,
            d=2,
            h1_torsion=Z0,
            h2_torsion=T,
            spin=True,
            smooth=True,
            h_matrix=HMatrix(((1,),), ((1,),), (1,)),
        )
    with pytest.raises(DescriptorError):
        resolve_attaching_data(
            l=1,
            d=1,
            h1_torsion=Z0,
            h2_torsion=T,
            spin=True,
            smooth=True,
            h_matrix=HMatrix(((1,),), ((1,),), (2,)),
        )
    with pytest.raises(DescriptorError) as ei:
        resolve_attaching_data(
            l=1,
            d=1,
            h1_torsion=Z0,
            h2_torsion=Z0,
            spin=False,
            smooth=True,
            h_matrix=HMatrix(((0,),), (), ()),
            phi={"x": (0, 0), "y": (1,)},
        )
    assert (str(ei.value), ei.value.key) == ("phi component 'x' needs 1 entries here", "x")


@pytest.mark.parametrize(
    "phi, message, key",
    [
        ({"y": (2,)}, "phi component 'y' entries must be 0 or 1", "y"),
        ({"moore": (1,), "y": (1,)}, "unknown phi component 'moore'", "moore"),
    ],
    ids=["entry", "unknown"],
)
def test_resolve_rejects_malformed_phi(phi, message, key):
    with pytest.raises(DescriptorError) as ei:
        resolve_attaching_data(
            l=1,
            d=1,
            h1_torsion=Z0,
            h2_torsion=Z0,
            spin=False,
            smooth=True,
            h_matrix=HMatrix(((0,),), (), ()),
            phi=phi,
        )
    assert (str(ei.value), ei.value.key) == (message, key)


def test_resolve_nonspin_needs_eta():
    h = HMatrix(sphere_rows=((0,),), moore_rows=(), moore_exponents=())
    with pytest.raises(DescriptorError):
        resolve_attaching_data(
            l=1,
            d=1,
            h1_torsion=Z0,
            h2_torsion=Z0,
            spin=False,
            smooth=True,
            h_matrix=h,
        )
