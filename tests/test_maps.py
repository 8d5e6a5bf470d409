"""Composition laws of the map calculus, as the Moore-slot tables of
``susp5.reduction`` encode them.

A Moore slot of exponent r holds a map S^5 -> P^4(2^r).  At r = 1 the slot
value c stands for c * eta~_1, and i eta^2 = 2 eta~_1 is the value 2; above,
bit 0 is the coefficient of eta~_r and bit 1 that of i eta^2.
"""

from susp5.reduction import _b_transport, _slot_add

LIFT, I_ETA_SQ = 1, 2
EXPONENTS = range(1, 5)
SLOTS = range(4)


def test_two_eta_lift_one_is_i_eta_sq():
    # 2 eta~_1 equals the bottom inclusion composed with eta^2
    assert _slot_add(LIFT, 1, LIFT) == I_ETA_SQ
    assert _slot_add(I_ETA_SQ, 1, I_ETA_SQ) == 0  # eta~_1 has order 4


def test_i_eta_sq_for_higher_exponent():
    # above r = 1, i eta^2 is a generator of its own and 2 eta~_r = 0
    for r in range(2, 5):
        assert _slot_add(LIFT, r, LIFT) == 0
        assert _slot_add(I_ETA_SQ, r, I_ETA_SQ) == 0
        assert _slot_add(LIFT, r, I_ETA_SQ) == 3


def test_b_chi_on_bottom_inclusion():
    # B(chi^rk_rj) i = chi^rk_rj i, seen here on i eta^2
    assert _b_transport(I_ETA_SQ, 2, 3) == 0  # chi^2_3 = 2 kills i eta^2
    assert _b_transport(I_ETA_SQ, 3, 2) == I_ETA_SQ  # chi^3_2 = 1


def test_b_chi_on_eta_lift():
    # B(chi^r_s) eta~_r = chi^s_r eta~_s
    assert _b_transport(LIFT, 2, 1) == I_ETA_SQ  # 2 eta~_1
    assert _b_transport(LIFT, 2, 3) == LIFT
    assert _b_transport(LIFT, 3, 1) == 0  # chi^1_3 = 4 kills an order-4 class


def test_compose_bilinear():
    # composing with B(chi) is a homomorphism of slot groups
    for rk in EXPONENTS:
        for rj in EXPONENTS:
            for c in SLOTS:
                for d in SLOTS:
                    lhs = _b_transport(_slot_add(c, rk, d), rk, rj)
                    rhs = _slot_add(_b_transport(c, rk, rj), rj, _b_transport(d, rk, rj))
                    assert lhs == rhs, (c, d, rk, rj)


def test_map_arithmetic():
    # the slot values form an abelian group at every exponent
    for r in EXPONENTS:
        for a in SLOTS:
            assert _slot_add(a, r, 0) == a
            assert any(_slot_add(a, r, b) == 0 for b in SLOTS), (a, r)
            for b in SLOTS:
                assert _slot_add(a, r, b) == _slot_add(b, r, a)
                for c in SLOTS:
                    assert _slot_add(_slot_add(a, r, b), r, c) == _slot_add(a, r, _slot_add(b, r, c))
