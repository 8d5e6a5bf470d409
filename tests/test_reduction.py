"""Incidence-matrix and residual-attaching-vector normal forms."""

import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    f2_rank,
    flag_dimensions,
    reference_legal_moves,
    reference_orbit,
    reference_phi_moves,
)
from susp5.reduction import (
    AttachCase,
    DescriptorError,
    HMatrix,
    PhiVector,
    _b_transport,
    _slot_add,
    enumerate_orbit,
    enumerate_phi_orbit,
    legal_moves,
    phi_moves,
    reduce_h_matrix,
    reduce_phi,
)


def H(sphere, moore, exps):
    return HMatrix(
        sphere_rows=tuple(map(tuple, sphere)),
        moore_rows=tuple(map(tuple, moore)),
        moore_exponents=tuple(exps),
    )


def test_validation():
    with pytest.raises(DescriptorError):
        H([[1, 0]], [[1]], [1])
    with pytest.raises(DescriptorError):
        H([[2]], [], [])
    with pytest.raises(DescriptorError):
        H([], [[1]], [])
    with pytest.raises(DescriptorError):
        H([], [[1]], [0])


NOT_BITS = pytest.mark.parametrize("bad", [2, -1, "1", None], ids=repr)
EQUAL_TO_ONE = pytest.mark.parametrize("one", [True, 1.0], ids=repr)


@NOT_BITS
def test_matrix_entries_other_than_0_and_1_are_rejected(bad):
    for sphere, moore in (([[0, bad]], [[0, 1]]), ([[0, 1]], [[bad, 1]])):
        with pytest.raises(DescriptorError, match="^matrix entries must be 0 or 1$"):
            H(sphere, moore, [1])


@EQUAL_TO_ONE
def test_matrix_entries_equal_to_1_are_accepted(one):
    res = reduce_h_matrix(H([[one, 0]], [[one, one]], [1]))
    assert (res.c1, res.c2, res.consumed) == (1, 1, (0,))


def _random_matrix(rng):
    cols, d = rng.randint(1, 64), rng.randint(0, 64)
    exps = [rng.randint(1, 3) for _ in range(rng.randint(0, 8))]
    density = rng.random()
    sphere = [[int(rng.random() < density) for _ in range(cols)] for _ in range(d)]
    moore = [[int(rng.random() < density) for _ in range(cols)] for _ in exps]
    return sphere, moore, exps


@pytest.mark.parametrize("seed", range(40))
def test_reduction_at_corpus_large_size(seed):
    sphere, moore, exps = _random_matrix(random.Random(seed))
    res = reduce_h_matrix(H(sphere, moore, exps))
    assert res.c1 == f2_rank(sphere)
    assert res.c1 + res.c2 == f2_rank(sphere + moore)
    red = res.reduced
    rows = red.sphere_rows + red.moore_rows
    pivot_rows = [r for r in red.sphere_rows if any(r)]
    assert len(pivot_rows) == res.c1  # elimination zeroes every other sphere row
    for row in pivot_rows + [red.moore_rows[j] for j in res.consumed]:
        assert sum(row) == 1
        assert sum(r[row.index(1)] for r in rows) == 1  # a column of its own
    assert f2_rank(red.sphere_rows) == res.c1
    assert f2_rank(rows) == res.c1 + res.c2


def test_single_column_two_moore_rows():
    # both rows carry i eta; the larger exponent claims the only column
    res = reduce_h_matrix(H([], [[1], [1]], [2, 1]))
    assert (res.c1, res.c2) == (0, 1)
    assert res.consumed == (0,)


def test_larger_exponent_claims_first_even_when_listed_second():
    res = reduce_h_matrix(H([], [[1, 1], [1, 0]], [1, 3]))
    assert (res.c1, res.c2) == (0, 2)
    assert res.consumed == (0, 1)


def test_two_free_columns_two_pivots():
    res = reduce_h_matrix(H([], [[1, 0], [0, 1]], [3, 1]))
    assert (res.c1, res.c2) == (0, 2)
    assert res.consumed == (0, 1)


def test_sphere_rank_then_moore():
    res = reduce_h_matrix(H([[1, 1], [1, 1]], [[1, 0]], [1]))
    assert (res.c1, res.c2) == (1, 1)
    assert res.consumed == (0,)


def test_moore_blocked_by_sphere_pivots():
    # single column, already claimed by the sphere row
    res = reduce_h_matrix(H([[1]], [[1]], [2]))
    assert (res.c1, res.c2) == (1, 0)
    assert res.consumed == ()


def test_reduced_matrix_keeps_the_lowest_pivot_columns():
    # the first sphere row with a 1 in the lowest column is the pivot, and a
    # Moore row claims its lowest free column
    res = reduce_h_matrix(H([[0, 1, 1, 0], [0, 1, 0, 0]], [[0, 1, 1, 1]], [2]))
    assert (res.c1, res.c2, res.consumed) == (2, 1, (0,))
    assert res.reduced == H([[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0, 0, 1]], [2])
    res = reduce_h_matrix(H([], [[0, 1, 1], [1, 1, 0]], [1, 1]))
    assert res.reduced == H([], [[0, 1, 0], [1, 0, 0]], [1, 1])


def test_zero_matrix():
    res = reduce_h_matrix(H([[0, 0]], [[0, 0]], [1]))
    assert (res.c1, res.c2) == (0, 0)


@settings(max_examples=150)
@given(st.data())
def test_c1_is_f2_rank_and_bounds(data):
    l = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(0, 3))
    t = data.draw(st.integers(0, 3))
    bits = st.lists(st.integers(0, 1), min_size=l, max_size=l)
    sphere = [tuple(data.draw(bits)) for _ in range(d)]
    moore = [tuple(data.draw(bits)) for _ in range(t)]
    exps = [data.draw(st.integers(1, 4)) for _ in range(t)]
    res = reduce_h_matrix(H(sphere, moore, exps))
    assert res.c1 == f2_rank([list(r) for r in sphere])
    assert 0 <= res.c1 <= min(l, d)
    assert 0 <= res.c2 <= min(l - res.c1, t)
    assert len(res.consumed) == res.c2


def test_orbit_constancy_small():
    h = H([[1, 1], [0, 1]], [[1, 0]], [2])
    base = reduce_h_matrix(h)
    orbit = enumerate_orbit(h)
    assert len(orbit) > 1
    for member in orbit:
        res = reduce_h_matrix(member)
        assert (res.c1, res.c2) == (base.c1, base.c2)


def test_consumed_exponent_multiset_is_orbit_invariant():
    h = H([], [[1, 0], [1, 1]], [2, 1])
    base = reduce_h_matrix(h)
    base_exps = sorted(h.moore_exponents[j] for j in base.consumed)
    for member in enumerate_orbit(h):
        res = reduce_h_matrix(member)
        exps = sorted(member.moore_exponents[j] for j in res.consumed)
        assert exps == base_exps


def assert_matches_flag(h):
    """c1 = dim V_infinity, and exponent r is consumed dim V_r - dim V_(r+1)
    times (see helpers.flag_dimensions)."""
    res = reduce_h_matrix(h)
    dims = flag_dimensions(h)
    top = len(dims)  # V_top is V_infinity
    used = Counter(h.moore_exponents[j] for j in res.consumed)
    assert res.c1 == dims[top]
    assert [used[r] for r in range(1, top)] == [dims[r] - dims[r + 1] for r in range(1, top)]


def test_reduction_matches_the_rank_flag_on_random_matrices():
    rng = random.Random(0)
    for i in range(400):
        cols = rng.randint(1, 64)
        d, t = rng.randint(0, 60), rng.randint(0, 16)
        sparsity = rng.choice((1, 3, 5))  # a bit is set with chance 2^-sparsity
        rows = []
        for _ in range(d + t):
            m = -1
            for _ in range(sparsity):
                m &= rng.getrandbits(cols)
            rows.append([(m >> c) & 1 for c in range(cols)])
        h = H(rows[:d], rows[d:], [rng.randint(1, 4) for _ in range(t)])
        assert_matches_flag(h)
        if i % 10 == 0:  # the oracle against its definition
            moore = list(zip(h.moore_rows, h.moore_exponents))
            assert flag_dimensions(h) == {
                r: f2_rank([*h.sphere_rows, *(row for row, e in moore if e >= r)])
                for r in range(1, max(h.moore_exponents, default=0) + 2)
            }


def test_reduction_matches_the_rank_flag_on_the_large_golden_file():
    text = (Path(__file__).parent / "golden" / "large_chain.txt").read_text(encoding="utf-8")
    sphere, moore, exps = [], [], []
    for line in text.split("\n"):
        if m := re.fullmatch(r"sphere = (.*)", line):
            sphere.append([int(tok != "0") for tok in m.group(1).split()])
        elif m := re.fullmatch(r"moore r=([0-9]+) = (.*)", line):
            exps.append(int(m.group(1)))
            moore.append([int(tok != "0") for tok in m.group(2).split()])
    assert (len(sphere), len(moore), len(sphere[0])) == (60, 8, 64)
    assert_matches_flag(H(sphere, moore, exps))


def test_moore_move_legality():
    # one column, so only Moore row moves exist: the exponent-3 row may add
    # onto the exponent-1 row, never the other way around
    h = H([], [[1], [1]], [3, 1])
    targets = {m.moore_rows for m in legal_moves(h)}
    assert targets == {((1,), (0,))}
    orbit = enumerate_orbit(h)
    assert orbit == {h, H([], [[1], [0]], [3, 1])}
    for member in orbit:
        assert member.moore_rows[0] == (1,)  # the high class is never absorbed


def test_legal_moves_list_in_table_order():
    # one sphere row, one Moore row, two columns: no row shear among
    # spheres, then the column moves 0 += 1 and 1 += 0, then the sphere
    # row onto the Moore row; the list keeps repeats
    h = H([[1, 0]], [[0, 1]], [1])
    assert legal_moves(h) == [
        H([[1, 0]], [[1, 1]], [1]),
        H([[1, 1]], [[0, 1]], [1]),
        H([[1, 0]], [[1, 1]], [1]),
    ]


def test_orbit_limit():
    h = H([[1, 1], [0, 1]], [[1, 0]], [2])
    size = len(enumerate_orbit(h))
    assert len(enumerate_orbit(h, limit=size)) == size
    with pytest.raises(RuntimeError, match="enumeration limit"):
        enumerate_orbit(h, limit=size - 1)


def test_orbit_members_are_validated(monkeypatch):
    built = set()
    post_init = HMatrix.__post_init__

    def recorded(self):
        post_init(self)
        built.add(id(self))

    monkeypatch.setattr(HMatrix, "__post_init__", recorded)
    orbit = enumerate_orbit(H([[1, 1], [0, 1]], [[1, 0]], [2]))
    assert all(id(member) in built for member in orbit)


# -- residual attaching vector ------------------------------------------------


def phi(x=(), y=(), moore=(), exps=(), w=(), cons=()):
    return PhiVector(
        x=tuple(x),
        y=tuple(y),
        moore=tuple(moore),
        moore_exponents=tuple(exps),
        w=tuple(w),
        consumed_exponents=tuple(cons),
    )


def test_phi_validation():
    with pytest.raises(DescriptorError):
        phi(x=(2,))
    with pytest.raises(DescriptorError):
        phi(moore=(4,), exps=(1,))
    with pytest.raises(DescriptorError):
        phi(moore=(1,), exps=())


@NOT_BITS
def test_phi_entries_out_of_range_are_rejected(bad):
    for kwargs in (dict(x=(bad,)), dict(y=(0, bad)), dict(w=(bad,), cons=(1,))):
        with pytest.raises(DescriptorError, match="^sphere and w components must be 0 or 1$"):
            phi(**kwargs)
    slot = 4 if bad == 2 else bad
    with pytest.raises(DescriptorError, match="^Moore slot values must lie in 0..3$"):
        phi(moore=(3, slot), exps=(1, 2))


@EQUAL_TO_ONE
def test_phi_entries_equal_to_1_are_accepted(one):
    v = phi(x=(one,), y=(one,), moore=(one, 3.0), exps=(1, 2), w=(one,), cons=(1,))
    assert reduce_phi(v, smooth=False) == AttachCase("tilde_eta", 0, 1)


def test_reduce_phi_cases():
    assert reduce_phi(phi(), smooth=True) == AttachCase("null")
    assert reduce_phi(phi(y=(0, 1)), smooth=True) == AttachCase("eta")
    assert reduce_phi(phi(moore=(1,), exps=(2,)), smooth=True) == AttachCase(
        "tilde_eta", 0, 2
    )
    assert reduce_phi(phi(w=(1,), cons=(2,)), smooth=True) == AttachCase(
        "ip_tilde_eta", 0, 2
    )
    assert reduce_phi(phi(x=(1,)), smooth=False) == AttachCase("eta_sq")
    assert reduce_phi(phi(moore=(2,), exps=(1,)), smooth=False) == AttachCase(
        "i_eta_sq", 0, 1
    )


def test_reduce_phi_minimal_exponent_wins():
    p = phi(moore=(1, 1), exps=(3, 2))
    assert reduce_phi(p, smooth=True) == AttachCase("tilde_eta", 1, 2)
    p = phi(moore=(1,), exps=(2,), w=(1,), cons=(1,))
    assert reduce_phi(p, smooth=True) == AttachCase("ip_tilde_eta", 0, 1)


def test_reduce_phi_tie_prefers_unconsumed():
    p = phi(moore=(1,), exps=(2,), w=(1,), cons=(2,))
    assert reduce_phi(p, smooth=True) == AttachCase("tilde_eta", 0, 2)


def test_reduce_phi_lift_beats_eta_beats_eta_sq():
    p = phi(x=(1,), y=(1,), moore=(1,), exps=(3,))
    assert reduce_phi(p, smooth=False) == AttachCase("tilde_eta", 0, 3)
    p = phi(x=(1,), y=(1,))
    assert reduce_phi(p, smooth=False) == AttachCase("eta")


def test_reduce_phi_included_eta_sq_takes_maximal_exponent():
    p = phi(moore=(2, 2), exps=(1, 3))
    assert reduce_phi(p, smooth=False) == AttachCase("i_eta_sq", 1, 3)


def test_unit_times_lift_is_still_a_lift():
    # 3 times the Z/4 lift is z-active, not an included eta^2
    p = phi(moore=(3,), exps=(1,))
    assert reduce_phi(p, smooth=True) == AttachCase("tilde_eta", 0, 1)


def test_smooth_rejects_eta_sq_components():
    with pytest.raises(DescriptorError):
        reduce_phi(phi(x=(1,)), smooth=True)
    with pytest.raises(DescriptorError):
        reduce_phi(phi(moore=(2,), exps=(1,)), smooth=True)
    with pytest.raises(DescriptorError):
        reduce_phi(phi(moore=(3,), exps=(2,)), smooth=True)


def test_eta_canonical_rep_is_reachable():
    p = phi(x=(1,), y=(1,))
    orbit = enumerate_phi_orbit(p)
    assert phi(x=(0,), y=(1,)) in orbit
    for member in orbit:
        assert reduce_phi(member, smooth=False).kind == "eta"


def test_phi_orbit_case_and_exponent_invariant():
    p = phi(y=(1,), moore=(1, 2), exps=(2, 3), w=(1,), cons=(2,))
    base = reduce_phi(p, smooth=False)
    orbit = enumerate_phi_orbit(p)
    for member in orbit:
        case = reduce_phi(member, smooth=False)
        assert (case.kind, case.r) == (base.kind, base.r)


def test_z4_slot_orbit():
    # a bare Z/4 lift on an exponent-one slot stays a lift over its orbit
    p = phi(moore=(1,), exps=(1,), y=(0,))
    for member in enumerate_phi_orbit(p):
        case = reduce_phi(member, smooth=False)
        assert (case.kind, case.r) == ("tilde_eta", 1)


def test_included_eta_sq_cannot_escape_upward():
    # eps flows only toward smaller exponents, so a bare included eta^2
    # on a high slot never produces a lift
    p = phi(moore=(2,), exps=(3,), x=(0,))
    for member in enumerate_phi_orbit(p):
        case = reduce_phi(member, smooth=False)
        assert case.kind == "i_eta_sq"
        assert case.r == 3


def test_phi_moves_fix_source_components():
    p = phi(x=(1,), y=(1,), moore=(1,), exps=(2,))
    for member in phi_moves(p):
        # each move changes exactly one component
        diffs = sum(
            a != b
            for a, b in zip(
                (p.x, p.y, p.moore, p.w), (member.x, member.y, member.moore, member.w)
            )
        )
        assert diffs == 1


def test_phi_moves_list_in_table_order():
    # y carries eta to eta^2 on x and i eta^2 on the slot; the odd slot
    # value pinches to y and to x, and adds i eta^2 onto itself
    p = phi(x=(0,), y=(1,), moore=(1,), exps=(2,))
    assert phi_moves(p) == [
        phi(x=(1,), y=(1,), moore=(1,), exps=(2,)),
        phi(x=(0,), y=(1,), moore=(3,), exps=(2,)),
        phi(x=(0,), y=(0,), moore=(1,), exps=(2,)),
        phi(x=(1,), y=(1,), moore=(1,), exps=(2,)),
        phi(x=(0,), y=(1,), moore=(3,), exps=(2,)),
    ]


def test_phi_orbit_limit_and_validation(monkeypatch):
    p = phi(y=(1,), moore=(1, 2), exps=(2, 3), w=(1,), cons=(2,))
    size = len(enumerate_phi_orbit(p))
    with pytest.raises(RuntimeError, match="enumeration limit"):
        enumerate_phi_orbit(p, limit=size - 1)
    built = set()
    post_init = PhiVector.__post_init__

    def recorded(self):
        post_init(self)
        built.add(id(self))

    monkeypatch.setattr(PhiVector, "__post_init__", recorded)
    orbit = enumerate_phi_orbit(p, limit=size)
    assert len(orbit) == size
    assert all(id(member) in built for member in orbit)


# -- slot arithmetic against the map calculus ---------------------------------
#
# A Moore slot of exponent r holds a map S^5 -> P^4(2^r), written as
# a * eta~_r + b * i eta^2.  Stated independently of reduction.py:
#   chi^a_b = 1 if a >= b, else 2^(b - a);
#   B(chi^rk_rj) eta~_rk = chi^rj_rk eta~_rj;
#   B(chi^rk_rj) i eta^2 = chi^rk_rj i eta^2;
#   2 eta~_1 = i eta^2, so the slot is Z/4 at r = 1 and Z/2 + Z/2 above.


def _chi(a, b):
    return 1 if a >= b else 2 ** (b - a)


def _slot_to_map(c, r):
    """(lift coefficient, i eta^2 coefficient) of a slot value."""
    return (c, 0) if r == 1 else (c & 1, c >> 1)


def _map_to_slot(a, b, r):
    if r == 1:
        return (a + 2 * b) % 4  # 2 eta~_1 = i eta^2
    return a % 2 + 2 * (b % 2)


EXPONENTS = range(1, 5)


def test_slot_group_law_matches_map_calculus():
    for r in EXPONENTS:
        for c in range(4):
            for delta in range(4):
                (a, b), (da, db) = _slot_to_map(c, r), _slot_to_map(delta, r)
                assert _slot_add(c, r, delta) == _map_to_slot(a + da, b + db, r), (c, r, delta)


def test_slot_group_is_z4_at_exponent_one_and_z2_z2_above():
    def order(c, r):
        n, acc = 1, c
        while acc:
            n, acc = n + 1, _slot_add(acc, r, c)
        return n

    assert sorted(order(c, 1) for c in range(4)) == [1, 2, 4, 4]
    for r in range(2, 5):
        assert sorted(order(c, r) for c in range(4)) == [1, 2, 2, 2]
    # i eta^2 is the slot value 2 at every exponent, twice the lift at r = 1
    for r in EXPONENTS:
        assert _map_to_slot(0, 1, r) == 2
    assert _slot_add(1, 1, 1) == _map_to_slot(0, 1, 1)


def test_b_chi_transport_matches_map_calculus():
    for rk in EXPONENTS:
        for rj in EXPONENTS:
            for c in range(4):
                a, b = _slot_to_map(c, rk)
                want = _map_to_slot(a * _chi(rj, rk), b * _chi(rk, rj), rj)
                assert _b_transport(c, rk, rj) == want, (c, rk, rj)


# -- packed move tables against the reference tables --------------------------


def _random_h(rng, max_cols, max_sphere, max_moore, max_exp=4):
    cols = rng.randint(1, max_cols)
    d, t = rng.randint(0, max_sphere), rng.randint(0, max_moore)
    rows = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(d + t)]
    return H(rows[:d], rows[d:], [rng.randint(1, max_exp) for _ in range(t)])


def _random_phi(rng, max_len, max_exp=4):
    a, b, u, c = (rng.randint(0, max_len) for _ in range(4))
    return phi(
        x=[rng.randint(0, 1) for _ in range(a)],
        y=[rng.randint(0, 1) for _ in range(b)],
        moore=[rng.randint(0, 3) for _ in range(u)],
        exps=[rng.randint(1, max_exp) for _ in range(u)],
        w=[rng.randint(0, 1) for _ in range(c)],
        cons=[rng.randint(1, max_exp) for _ in range(c)],
    )


def test_legal_moves_match_the_reference_table():
    # up to 6 columns, 4 sphere rows, 4 Moore rows and exponent 4: past the
    # exhaustive sweeps
    rng = random.Random(14)
    for _ in range(2_000):
        h = _random_h(rng, 6, 4, 4)
        assert legal_moves(h) == reference_legal_moves(h), h


def test_phi_moves_match_the_reference_table():
    # up to 4 entries per component and exponent 4
    rng = random.Random(14)
    for _ in range(2_000):
        p = _random_phi(rng, 4)
        assert phi_moves(p) == reference_phi_moves(p), p


def test_orbits_match_a_search_over_the_reference_tables():
    rng = random.Random(15)
    for _ in range(60):
        h = _random_h(rng, 3, 2, 2)
        assert enumerate_orbit(h) == reference_orbit(h, reference_legal_moves), h
    for _ in range(60):
        p = _random_phi(rng, 2)
        assert enumerate_phi_orbit(p) == reference_orbit(p, reference_phi_moves), p
