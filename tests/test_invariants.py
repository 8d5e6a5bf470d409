"""K-theory, KO-theory, and cohomotopy of the descriptors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expand, random_descriptor
from susp5.abgroup import FgAbGroup
from susp5.decompose import (
    ManifoldDescriptor,
    double_suspension_decomposition,
    suspension_decomposition,
)
from susp5.invariants import (
    BalanceError,
    UnsupportedSummand,
    hurewicz_cohomotopy,
    k_closed_form,
    k_group,
    k_of_summand,
    ko_closed_form,
    ko_group,
    ko_of_summand,
    maps_to_s4,
    pi3,
    pi4_sigma_crosscheck,
)
from susp5.reduction import AttachCase, DescriptorError
from susp5.spaces import (
    CHANG_IP_ETA_LIFT,
    MOORE_ETA_LIFT,
    MOORE_ETA_SQ,
    SPHERE_ETA_SQ,
    chang_eta,
    chang_r,
    moore,
    sphere,
    summand,
)


def G(text):
    return FgAbGroup.from_string(text)


def P(n, k):
    (piece,) = moore(n, k)
    return piece


def desc(l=1, d=1, H="0", T="0", spin=True, smooth=True, **kw):
    return ManifoldDescriptor(
        l=l,
        d=d,
        h1_torsion=G(H),
        h2_torsion=G(T),
        spin=spin,
        smooth=smooth,
        **kw,
    )


def test_k_table_entries():
    assert k_of_summand(sphere(3)) == G("0")
    assert k_of_summand(sphere(4)) == G("Z")
    assert k_of_summand(sphere(5)) == G("0")
    assert k_of_summand(sphere(6)) == G("Z")
    assert k_of_summand(sphere(7)) == G("0")
    assert k_of_summand(P(4, 25)) == G("Z/25")
    assert k_of_summand(P(6, 9)) == G("Z/9")
    assert k_of_summand(P(5, 4)) == G("0")
    assert k_of_summand(chang_eta(6)) == G("Z^2")
    assert k_of_summand(chang_eta(7)) == G("0")
    assert k_of_summand(chang_r(6, 2)) == G("Z")
    assert k_of_summand(summand(CHANG_IP_ETA_LIFT, 7, 4)) == G("Z")
    assert k_of_summand(summand(MOORE_ETA_LIFT, 7, 4)) == G("0")
    assert k_of_summand(summand(SPHERE_ETA_SQ, 7, 0)) == G("Z")
    assert k_of_summand(summand(MOORE_ETA_SQ, 7, 8)) == G("0")
    # eta is zero in K-theory, so K(C^5_r) = K(P^4(2^r))
    assert k_of_summand(chang_r(5, 2)) == G("Z/4")


def test_ko_table_entries():
    assert ko_of_summand(sphere(3)) == G("Z/2")
    assert ko_of_summand(sphere(4)) == G("Z/2")
    assert ko_of_summand(sphere(5)) == G("0")
    assert ko_of_summand(sphere(6)) == G("Z")
    assert ko_of_summand(sphere(7)) == G("0")
    assert ko_of_summand(P(5, 8)) == G("Z/2")
    assert ko_of_summand(P(4, 25)) == G("0")
    assert ko_of_summand(P(5, 7)) == G("0")
    assert ko_of_summand(P(6, 3)) == G("0")
    assert ko_of_summand(chang_eta(6)) == G("Z + Z/2")
    assert ko_of_summand(chang_eta(7)) == G("0")
    assert ko_of_summand(chang_r(6, 3)) == G("Z + Z/2")
    assert ko_of_summand(summand(MOORE_ETA_LIFT, 7, 2)) == G("Z/2")
    assert ko_of_summand(summand(CHANG_IP_ETA_LIFT, 7, 4)) == G("Z + Z/2")
    assert ko_of_summand(summand(SPHERE_ETA_SQ, 7, 0)) == G("Z/2")
    assert ko_of_summand(summand(MOORE_ETA_SQ, 7, 4)) == G("Z/2")
    with pytest.raises(UnsupportedSummand):
        ko_of_summand(P(4, 8))


def test_s4_table_entries():
    assert maps_to_s4(sphere(2)) == (G("0"), False)
    assert maps_to_s4(sphere(3)) == (G("0"), False)
    assert maps_to_s4(sphere(4)) == (G("Z"), False)
    assert maps_to_s4(sphere(5)) == (G("Z/2"), False)
    assert maps_to_s4(sphere(6)) == (G("Z/2"), False)
    assert maps_to_s4(P(4, 8)) == (G("Z/8"), False)
    assert maps_to_s4(P(4, 9)) == (G("Z/9"), False)
    assert maps_to_s4(P(3, 25)) == (G("0"), True)
    assert maps_to_s4(P(5, 27)) == (G("0"), True)
    assert maps_to_s4(chang_eta(5)) == (G("0"), False)
    assert maps_to_s4(chang_eta(6)) == (G("Z"), False)
    assert maps_to_s4(chang_r(5, 2)) == (G("Z/8"), False)
    assert maps_to_s4(summand(MOORE_ETA_LIFT, 6, 2)) == (G("0"), False)
    assert maps_to_s4(summand(MOORE_ETA_LIFT, 6, 8)) == (G("Z/4"), False)
    assert maps_to_s4(summand(CHANG_IP_ETA_LIFT, 6, 4)) == (G("Z/4"), False)
    assert maps_to_s4(summand(SPHERE_ETA_SQ, 6, 0)) == (G("0"), False)
    assert maps_to_s4(summand(MOORE_ETA_SQ, 6, 2)) == (G("Z/4"), False)
    with pytest.raises(UnsupportedSummand):
        maps_to_s4(sphere(7))


def K(d0):
    return k_group(d0, double_suspension_decomposition(d0))


def KO(d0):
    return ko_group(d0, double_suspension_decomposition(d0))


def test_k_group_examples():
    assert K(desc()).group == G("Z^2")
    assert K(desc(H="Z/5 + Z/7")).group == G("Z^2 + Z/5 + Z/5 + Z/7 + Z/7")
    comp = K(desc(l=2, d=3, T="Z/4 + Z/9"))
    assert comp.group == G("Z^5")


def test_ko_group_examples():
    assert KO(desc()).group == G("Z + Z/2 + Z/2")
    comp = KO(desc(l=2, d=1, T="Z/2 + Z/4 + Z/8 + Z/9"))
    assert comp.group == G("Z^2").direct_sum(FgAbGroup.from_primary(0, [(2, 1)] * 6))


def test_k_and_ko_reject_the_double_suspension_of_another_descriptor():
    # the wedge is trusted only as far as its groups match the closed forms
    d1, d2 = desc(), desc(H="Z/5", T="Z/2")
    wrong = double_suspension_decomposition(d2)
    assert k_closed_form(d1) != k_closed_form(d2)
    assert ko_closed_form(d1) != ko_closed_form(d2)
    with pytest.raises(BalanceError):
        k_group(d1, wrong)
    with pytest.raises(BalanceError):
        ko_group(d1, wrong)


def test_k_group_rejects_the_single_suspension():
    # one suspension short, the cells give K~^1 of M: here Z^4 + Z/4, not Z^3
    d0 = desc(
        l=2, T="Z/4", spin=False, c2=1, consumed=(0,), case=AttachCase("ip_tilde_eta", 0)
    )
    with pytest.raises(BalanceError) as exc:
        k_group(d0, suspension_decomposition(d0))
    assert exc.value.expected == k_closed_form(d0) == G("Z^3")


def test_k_group_trace_lists_every_summand():
    comp = K(desc(H="Z/5"))
    rendered = [c.summand.render() for c in expand(comp.runs)]
    assert "P^4(Z/5)" in rendered and "P^6(Z/5)" in rendered
    assert len(rendered) == len(set(rendered)) or len(rendered) >= 5


def test_pi3_spin_minimal():
    assert pi3(desc()) == G("Z + Z/2 + Z/2")


def test_pi3_eta_consumes_spheres():
    d0 = desc(spin=False, c1=1, case=AttachCase("eta"))
    assert pi3(d0) == G("Z")


def test_pi3_ip_tilde_eta_contains_z4():
    d0 = desc(
        T="Z/4", spin=False, c2=1, consumed=(0,), case=AttachCase("ip_tilde_eta", 0)
    )
    assert pi3(d0) == G("Z + Z/4")


def test_pi3_tilde_eta_edge_cases():
    d0 = desc(T="Z/2", spin=False, case=AttachCase("tilde_eta", 0))
    assert pi3(d0) == G("Z + Z/2")  # Z/2^0 vanishes, one five-sphere class left
    d1 = desc(T="Z/8", spin=False, case=AttachCase("tilde_eta", 0))
    assert pi3(d1) == G("Z + Z/2 + Z/4")


def test_pi3_i_eta_sq_bumps_exponent():
    d0 = desc(T="Z/4", smooth=False, case=AttachCase("i_eta_sq", 0))
    assert pi3(d0) == G("Z + Z/2 + Z/8")


def test_pi3_consumed_moore_bumps_exponent():
    d0 = desc(l=2, T="Z/4 + Z/3", c2=1, consumed=(0,))
    assert pi3(d0) == G("Z + Z/2 + Z/2 + Z/3 + Z/8")


def test_c2_beyond_l_minus_c1_is_rejected():
    # pi3 counts l - c1 - c2 Z/2 summands (one more in the null case); this
    # rejection is what keeps that count non-negative.
    with pytest.raises(DescriptorError, match="c2 must satisfy"):
        desc(T="Z/2", c1=1, c2=1)
    assert pi3(desc(T="Z/2", c2=1)) == G("Z + Z/2 + Z/4")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_crosscheck_matches_closed_form(seed):
    d0 = random_descriptor(random.Random(seed), h1_primes=(5, 7))
    assert pi4_sigma_crosscheck(suspension_decomposition(d0)).group == pi3(d0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_k_and_ko_balance_on_random_descriptors(seed):
    d0 = random_descriptor(random.Random(seed))
    assert K(d0).group == k_closed_form(d0)
    assert KO(d0).group == ko_closed_form(d0)


def test_crosscheck_marks_implied_entries():
    comp = pi4_sigma_crosscheck(suspension_decomposition(desc(H="Z/5")))
    implied = [c.summand.render() for c in expand(comp.runs) if c.implied]
    assert implied == ["P^3(Z/5)", "P^5(Z/5)"]


def test_hurewicz_degrees():
    d0 = desc(l=3)
    assert hurewicz_cohomotopy(d0, 1) == G("Z^3")
    assert hurewicz_cohomotopy(d0, 5) == G("Z")
    with pytest.raises(ValueError):
        hurewicz_cohomotopy(d0, 2)
