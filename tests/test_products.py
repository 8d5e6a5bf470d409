"""Product manifolds: the whole report of S^1 x X^4 and of Sigma_g x S^3
from the product splitting Sigma(A x B) = Sigma A v Sigma B v Sigma(A ^ B)
and the groups of spheres, never from susp5.invariants.

X is a simply connected 4-manifold with b_2 = b.  After one suspension
only w_2 is left of its homotopy type (Whitehead, Milnor): Sigma X is
b.S^3 v S^5 if X is spin and (b - 1).S^3 v Sigma CP^2 if not, so
Sigma(S^1 x X) = S^2 v Sigma X v Sigma^2 X.  A surface suspends to
2g.S^2 v S^3, so Sigma(Sigma_g x S^3) = Sigma Sigma_g v S^4 v Sigma^4 Sigma_g.
A lens space L = L(p,1), p an odd prime, suspends to P^3(p) v S^4 (the
attaching map lies in pi_3 P^3(p) = Z/p, generated by i eta, and a multiple
m of i eta would give x^2 = m e in H^4(Sigma L; F_p), where cup products
vanish), so Sigma(L x Sigma_g) = Sigma Sigma_g v Sigma L v 2g.Sigma^2 L v
Sigma^3 L.

The report's groups are read off Sigma M: reduced K of M is K~^1(Sigma M),
reduced KO is KO~^1(Sigma M), and pi^3(M) is [Sigma M, S^4].  Each is a
direct sum over the summands of the wedge.
"""
import pytest

from susp5.abgroup import FgAbGroup, direct_sum
from susp5.cli import build_report, parse_descriptor_text, render_human
from susp5.spaces import chang_eta, moore, sphere, wedge

_0, _Z, _Z2 = FgAbGroup.trivial(), FgAbGroup.free(1), FgAbGroup.cyclic(2)
# pi_n KO for n mod 8, and pi_n(S^4) for n <= 6
_PI_KO = (_Z, _Z2, _Z2, _0, _Z, _0, _0, _0)
_PI_S4 = (_0, _0, _0, _0, _Z, _Z2, _Z2)


def _moore_groups(p: int) -> dict:
    """(K~^1, KO~^1, [-, S^4]) of P^3(p), P^4(p) and P^5(p), p odd, from the
    cofibre sequence S^(n-1) -p-> S^(n-1) -> P^n(p) -> S^n -p-> S^n: each
    group is the cokernel of p on the n-sphere's group extended by the
    kernel of p on the (n-1)-sphere's, and p is invertible on every Z/2, so
    only the Z's count (and each time one of the two is zero).  K~^1: Z/p,
    0, Z/p from pi_2 KU and pi_4 KU (pi_3 KU = 0); KO~^1: 0, 0, Z/p from
    pi_4 KO (pi_2 KO and pi_3 KO hold no Z); [-, S^4]: 0, Z/p, 0 from
    pi_4 S^4."""
    zp = FgAbGroup.cyclic(p)
    entries = {3: (zp, _0, _0), 4: (_0, _0, zp), 5: (zp, zp, _0)}
    return {moore(n, p)[0]: entry for n, entry in entries.items()}


# (K~^1, KO~^1, [-, S^4]) of each summand a product's Sigma M can have.
# Spheres: K~^1(S^n) = pi_(n-1) KU, KO~^1(S^n) = pi_(n-1) KO, pi_n(S^4).
# Sigma CP^2 and Sigma^2 CP^2 (the Chang pieces C^5_eta and C^6_eta):
# K~(CP^2) = Z^2 and K~^1(CP^2) = 0; KO~(CP^2) = Z and KO~(Sigma CP^2) = 0;
# on the cofibre sequences of eta, [C^5_eta, S^4] = 0 since eta^* is onto
# pi_5(S^4), and [C^6_eta, S^4] = Z, the kernel of eta^*: Z -> pi_5(S^4),
# since eta^2 is not zero.  Odd Moore spaces: _moore_groups.
_GROUPS = {
    **{sphere(n): (_Z if n % 2 else _0, _PI_KO[n - 1], _PI_S4[n]) for n in range(2, 7)},
    chang_eta(5): (FgAbGroup.free(2), _Z, _0),
    chang_eta(6): (_0, _0, _Z),
    **_moore_groups(3),
    **_moore_groups(5),
    **_moore_groups(7),
}


def s1_times_x(b: int, spin: bool):
    """S^1 x X^4; spin X is K3-like (b = 22), the others are # CP^2."""
    sigma_x = [sphere(3)] * b + [sphere(5)] if spin else [sphere(3)] * (b - 1) + [chang_eta(5)]
    sigma_m = [sphere(2), *sigma_x, *(s.suspend() for s in sigma_x)]
    attach = "" if spin else "c1 = 1\ncase = eta\n"
    invariant = f"l = 1\nd = {b}\nspin = {str(spin).lower()}\n{attach}"
    # the one source hits the first three-sphere through eta exactly when
    # X is not spin, and the top cell then carries an eta on a four-sphere
    rows = "sphere = 0\n" * b if spin else "sphere = eta\n" + "sphere = 0\n" * (b - 1)
    phi = "" if spin else "[phi]\ny = 1" + " 0" * (b - 1) + "\n"
    matrix = f"l = 1\nd = {b}\nspin = {str(spin).lower()}\n[h_matrix]\n{rows}{phi}"
    return invariant, matrix, sigma_m


def surface_times_s3(g: int):
    """Sigma_g x S^3."""
    sigma_surface = [sphere(2)] * (2 * g) + [sphere(3)]
    sigma4_surface = [s.suspend().suspend().suspend() for s in sigma_surface]
    sigma_m = [*sigma_surface, sphere(4), *sigma4_surface]
    invariant = f"l = {2 * g}\nd = 1\nspin = true\n"
    matrix = invariant + "[h_matrix]\nsphere = " + " ".join(["0"] * (2 * g)) + "\n"
    return invariant, matrix, sigma_m


def lens_times_surface(p: int, g: int):
    """L(p,1) x Sigma_g: H = Z/p and T = (Z/p)^2g; p is odd, so mod 2 it is
    S^3 x Sigma_g, spin with c1 = c2 = 0, and its matrix is one zero row."""
    sigma_l = [moore(3, p)[0], sphere(4)]
    sigma_m = [sphere(2)] * (2 * g) + [sphere(3)] + sigma_l
    sigma2_l = [s.suspend() for s in sigma_l]
    sigma_m += sigma2_l * (2 * g) + [s.suspend() for s in sigma2_l]
    torsion = " + ".join([f"Z/{p}"] * (2 * g))
    invariant = f"l = {2 * g}\nd = 1\nH = Z/{p}\nT = {torsion}\nspin = true\n"
    matrix = invariant + "[h_matrix]\nsphere = " + " ".join(["0"] * (2 * g)) + "\n"
    return invariant, matrix, sigma_m


MEMBERS = {
    "S1xK3": s1_times_x(22, spin=True),
    "S1xCP2": s1_times_x(1, spin=False),
    "S1x(CP2#CP2)": s1_times_x(2, spin=False),
    "T2xS3": surface_times_s3(1),
    "Sigma2xS3": surface_times_s3(2),
    **{
        f"L({p},1)x{surface}": lens_times_surface(p, g)
        for p in (5, 7)
        for g, surface in ((1, "T2"), (2, "Sigma2"))
    },
}
# ROADMAP item 1: the report's reduced KO is wrong on these members.
KO_WRONG = {
    "S1xCP2": "reduced KO has one Z/2 too many when c1 is nonzero",
    "S1x(CP2#CP2)": "reduced KO has one Z/2 too many when c1 is nonzero",
    **{name: "reduced KO leaves out the odd torsion H" for name in MEMBERS if name[0] == "L"},
}


def _report(name):
    invariant, matrix, _ = MEMBERS[name]
    desc = parse_descriptor_text(invariant)
    assert parse_descriptor_text(matrix) == desc
    return build_report(desc)


def _expected(name, which: int) -> str:
    return direct_sum(*(_GROUPS[s][which] for s in MEMBERS[name][2])).render()


@pytest.mark.parametrize("name", MEMBERS)
def test_suspension_k_and_pi3_follow_from_the_product_splitting(name):
    report = _report(name)
    sigma_m = wedge(*MEMBERS[name][2])
    assert report["single_suspension"] == sigma_m.render()
    assert report["double_suspension"] == sigma_m.suspend().render()
    assert report["invariants"]["k"] == _expected(name, 0)
    assert report["invariants"]["pi3"] == _expected(name, 2)
    assert set(report["checks"].values()) == {"ok"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item 1: {KO_WRONG[name]}"),
        )
        if name in KO_WRONG
        else name
        for name in MEMBERS
    ],
)
def test_ko_follows_from_the_product_splitting(name):
    assert _report(name)["invariants"]["ko"] == _expected(name, 1)


def test_three_primary_h_leaves_a_split_suspension_undetermined():
    """L(3,1) x T^2 splits after one suspension, by the product splitting,
    but three-primary H lies outside the splitting theorem: the report must
    say the suspension is not determined, not that it does not split."""
    invariant, matrix, sigma_m = lens_times_surface(3, 1)
    desc = parse_descriptor_text(invariant)
    assert parse_descriptor_text(matrix) == desc
    report = build_report(desc)
    note = "three-primary torsion in H lies outside the splitting theorem"
    assert report["single_suspension"] is None
    assert report["single_suspension_note"] == note
    assert report["double_suspension"] == wedge(*sigma_m).suspend().render()
    assert report["invariants"]["k"] == direct_sum(*(_GROUPS[s][0] for s in sigma_m)).render()
    assert report["invariants"]["pi3"] == direct_sum(*(_GROUPS[s][2] for s in sigma_m)).render()
    human = render_human(report)
    assert f"suspension:         not determined ({note})\n" in human
    assert "not split" not in human
    skipped = report["checks"].pop("cohomotopy_crosscheck")
    assert skipped == "skipped (single suspension not determined)"
    assert set(report["checks"].values()) == {"ok"}


def test_the_stated_groups():
    """The groups the family gives, written out: b = 22 spin, b = 2 not
    spin, g = 2."""
    assert _expected("S1xK3", 0) == "Z^23"
    assert _expected("S1xK3", 1) == FgAbGroup.from_primary(1, [(2, 1)] * 23).render()
    assert _expected("S1xK3", 2) == "Z^22 + Z/2 + Z/2"
    assert _expected("S1x(CP2#CP2)", 0) == "Z^3"
    assert _expected("S1x(CP2#CP2)", 1) == "Z + Z/2 + Z/2"
    assert _expected("S1x(CP2#CP2)", 2) == "Z^2"
    assert _expected("Sigma2xS3", 0) == "Z^5"
    assert _expected("Sigma2xS3", 1) == FgAbGroup.from_primary(4, [(2, 1)] * 5).render()
    assert _expected("Sigma2xS3", 2) == FgAbGroup.from_primary(1, [(2, 1)] * 5).render()
    for p in (5, 7):
        for g, s in ((1, "T2"), (2, "Sigma2")):
            name, odd = f"L({p},1)x{s}", [(p, 1)]
            assert _expected(name, 0) == FgAbGroup.from_primary(2 * g + 1, odd * 2).render()
            two = [(2, 1)] * (2 * g + 1)
            assert _expected(name, 1) == FgAbGroup.from_primary(2 * g, two + odd).render()
            assert _expected(name, 2) == FgAbGroup.from_primary(1, two + odd * 2 * g).render()
