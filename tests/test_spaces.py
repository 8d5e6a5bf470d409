"""Elementary complexes: cells, homology, suspension, wedges.

The frozen homology tables below were computed by hand from each variant's
defining cofibration before the module existed; the cellular chains oracle in
helpers recomputes every one of them independently.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from susp5.abgroup import FgAbGroup, direct_sum
from susp5 import spaces
from susp5.spaces import (
    ElementaryComplex,
    Wedge,
    chang_eta,
    chang_r,
    moore,
    peterson,
    sphere,
    summand,
    wedge,
    wedge_of,
)

Z = FgAbGroup.free(1)


def zmod(k):
    return FgAbGroup.from_orders([k])


FROZEN_HOMOLOGY = [
    (sphere(5), {5: Z}),
    (moore(4, 8)[0], {3: zmod(8)}),
    (chang_eta(5), {3: Z, 5: Z}),
    (chang_r(5, 2), {3: zmod(4), 5: Z}),
    (summand(spaces.MOORE_ETA_LIFT, 6, 4), {3: zmod(4), 6: Z}),
    (summand(spaces.CHANG_IP_ETA_LIFT, 6, 8), {3: zmod(8), 5: Z, 6: Z}),
    (summand(spaces.SPHERE_ETA_SQ, 6, 0), {3: Z, 6: Z}),
    (summand(spaces.MOORE_ETA_SQ, 6, 2), {3: zmod(2), 6: Z}),
]

FROZEN_CELLS = [
    (sphere(5), (5,)),
    (moore(4, 8)[0], (3, 4)),
    (chang_eta(5), (3, 5)),
    (chang_r(5, 2), (3, 4, 5)),
    (summand(spaces.MOORE_ETA_LIFT, 6, 4), (3, 4, 6)),
    (summand(spaces.CHANG_IP_ETA_LIFT, 6, 8), (3, 4, 5, 6)),
    (summand(spaces.SPHERE_ETA_SQ, 6, 0), (3, 6)),
    (summand(spaces.MOORE_ETA_SQ, 6, 2), (3, 4, 6)),
]


# The kinds built on a 2-primary Moore space P(2^r), whose order is 2^r.
TWO_PRIMARY = (
    spaces.CHANG_R, spaces.MOORE_ETA_LIFT, spaces.CHANG_IP_ETA_LIFT, spaces.MOORE_ETA_SQ
)


def all_variants():
    out = []
    for n in (5, 6, 7):
        out.append(sphere(n))
        out.append(chang_eta(n))
        for r in (1, 2, 3):
            out.append(chang_r(n, r))
    for n in (6, 7, 8):
        out.append(summand(spaces.SPHERE_ETA_SQ, n, 0))
        for r in (1, 2, 3):
            out += [summand(kind, n, 2**r) for kind in TWO_PRIMARY if kind != spaces.CHANG_R]
    for n in (3, 4, 5):
        for k in (2, 3, 4, 5, 8, 9):
            out.extend(moore(n, k))
    return out


class TestHomology:
    def test_frozen_tables(self):
        for cx, expected in FROZEN_HOMOLOGY:
            assert cx.reduced_homology() == expected, cx.render()

    def test_frozen_cells(self):
        for cx, expected in FROZEN_CELLS:
            assert cx.cells() == expected, cx.render()

    def test_chains_oracle_everywhere(self):
        for cx in all_variants():
            assert cx.reduced_homology() == helpers.oracle_homology(cx), cx.render()

    def test_cell_count_is_rank_plus_twice_torsion(self):
        for cx in all_variants():
            h = cx.reduced_homology()
            rank = sum(g.free_rank for g in h.values())
            torsion = sum(len(g.torsion) for g in h.values())
            assert len(cx.cells()) == rank + 2 * torsion, cx.render()

    def test_suspension_shifts_homology(self):
        for cx in all_variants():
            sus = cx.suspend()
            assert sus.kind == cx.kind
            shifted = {deg + 1: grp for deg, grp in cx.reduced_homology().items()}
            assert sus.reduced_homology() == shifted, cx.render()


class TestValidation:
    def test_dimension_floors(self):
        with pytest.raises(ValueError):
            chang_eta(4)
        with pytest.raises(ValueError):
            summand(spaces.MOORE_ETA_LIFT, 5, 2)
        with pytest.raises(ValueError):
            summand(spaces.SPHERE_ETA_SQ, 5, 0)
        with pytest.raises(ValueError):
            sphere(0)

    def test_parameter_shape(self):
        with pytest.raises(ValueError):
            ElementaryComplex(spaces.SPHERE, 3, order=2)
        with pytest.raises(ValueError):
            ElementaryComplex(spaces.MOORE, 4, order=6)  # composite order
        with pytest.raises(ValueError):
            ElementaryComplex(spaces.CHANG_R, 5)  # missing order
        with pytest.raises(ValueError):
            ElementaryComplex("mystery", 5)
        for kind in TWO_PRIMARY:
            for order in (0, 1, 3, 6, 12):
                with pytest.raises(ValueError, match=f"bad order {order} for {kind}"):
                    ElementaryComplex(kind, 6, order)
            for r in (1, 2, 5, 63):
                assert ElementaryComplex(kind, 6, 2**r).order == 2**r

    def test_moore_factory_splits_composites(self):
        assert [cx.order for cx in moore(4, 12)] == [4, 3]
        assert moore(4, 8) == [ElementaryComplex(spaces.MOORE, 4, order=8)]
        with pytest.raises(ValueError):
            moore(4, 1)

    def test_peterson_wedge(self):
        g = FgAbGroup.from_orders([2, 9, 5])
        ws = peterson(4, g)
        # group-canonical (prime, exponent) order, the indexing consumed lists use
        assert [cx.order for cx in ws] == [2, 9, 5]
        assert wedge(*ws).homology() == {3: g}
        with pytest.raises(ValueError):
            peterson(4, FgAbGroup.free(1))


# Every invalid summand of TestValidation, as (constructor, arguments).
INVALID = [
    (chang_eta, (4,)),
    (summand, (spaces.MOORE_ETA_LIFT, 5, 2)),
    (summand, (spaces.SPHERE_ETA_SQ, 5, 0)),
    (sphere, (0,)),
    (moore, (4, 1)),
    (peterson, (4, FgAbGroup.free(1))),
    (ElementaryComplex, (spaces.SPHERE, 3, 2)),
    (ElementaryComplex, (spaces.MOORE, 4, 6)),
    (ElementaryComplex, (spaces.CHANG_R, 5)),
    (ElementaryComplex, ("mystery", 5)),
    (summand, (spaces.SPHERE, 3, 2)),
    (summand, (spaces.MOORE, 4, 6)),
    (summand, (spaces.CHANG_R, 5, 0)),
    (summand, ("mystery", 5, 0)),
]


class TestMemo:
    def test_factories_return_one_object_per_key(self):
        assert sphere(3) is sphere(3)
        assert moore(4, 8)[0] is moore(4, 8)[0] is peterson(4, zmod(8))[0]
        assert chang_r(5, 2) is chang_r(5, 2) is summand(spaces.CHANG_R, 5, 4)
        assert summand(spaces.MOORE_ETA_SQ, 6, 2).section(4) is moore(4, 2)[0]

    def test_suspension_of_a_memoised_summand_is_memoised(self):
        for cx in all_variants():
            assert cx.suspend() is cx.suspend() is summand(cx.kind, cx.dim + 1, cx.order)
        assert sphere(3).suspend() is sphere(4)
        assert chang_r(5, 2).suspend().suspend() is chang_r(7, 2)

    def test_memos_are_bounded(self):
        assert summand.cache_info().maxsize is not None
        assert FgAbGroup.cyclic(12) is FgAbGroup.cyclic(12)

    @pytest.mark.parametrize(
        "make, args", INVALID, ids=[f"{m.__name__}{a}" for m, a in INVALID]
    )
    def test_invalid_summands_raise_on_every_call(self, make, args):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as ei:
                make(*args)
            messages.append(str(ei.value))
        assert messages[0] == messages[1]

    def test_direct_summand_equals_the_memoised_one(self):
        for cx in all_variants():
            direct = ElementaryComplex(cx.kind, cx.dim, cx.order)
            assert direct is not cx
            assert direct == cx and hash(direct) == hash(cx)
            assert direct.render() == cx.render() and direct._key == cx._key
            assert direct.reduced_homology() == cx.reduced_homology()
            assert repr(direct) == repr(cx)

    def test_a_direct_summand_finds_the_memoised_entry(self):
        counts = {cx: i for i, cx in enumerate(all_variants())}
        for cx, i in counts.items():
            direct = ElementaryComplex(cx.kind, cx.dim, cx.order)
            assert hash(direct) == hash(cx) == hash(cx._key)
            assert counts[direct] == i
        assert ElementaryComplex(spaces.SPHERE, 4) not in {sphere(3): 1, sphere(5): 1}

    def test_direct_and_memoised_summands_share_a_run(self):
        direct = ElementaryComplex(spaces.SPHERE, 2)
        parts = [sphere(3), direct, sphere(2), direct, sphere(2)]
        w = wedge(*parts)
        assert w.runs == ((sphere(2), 4), (sphere(3), 1))
        assert w == wedge(direct, direct, sphere(2), sphere(2), sphere(3))
        assert Wedge(((direct, 4), (sphere(3), 1))) == w
        with pytest.raises(ValueError, match="canonical order"):
            Wedge(((direct, 2), (sphere(2), 2), (sphere(3), 1)))

    def test_reduced_homology_is_a_fresh_dict(self):
        h = sphere(5).reduced_homology()
        h[99] = Z
        assert sphere(5).reduced_homology() == {5: Z}


class TestWedge:
    def test_normalization_sorts_and_is_idempotent(self):
        w = wedge(sphere(6), moore(4, 3)[0], sphere(2), chang_eta(5))
        assert [cx.render() for cx in helpers.expand(w.runs)] == [
            "S^2", "P^4(Z/3)", "C^5_eta", "S^6"
        ]
        assert wedge(*helpers.expand(w.runs)) == w

    def test_counts_give_the_wedge(self):
        a, b = sphere(2), chang_eta(5)
        # zero counts drop out; the rest are sorted by key, whatever the dict order
        assert wedge_of({b: 1, sphere(4): 0, a: 3}) == Wedge(((a, 3), (b, 1)))
        assert wedge_of({sphere(3): 0}) == Wedge()
        with pytest.raises(ValueError, match="at least 1"):
            wedge_of({a: 1, b: -1})

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            Wedge(((sphere(6), 1), (sphere(2), 1)))

    def test_render(self):
        w = wedge(sphere(2), chang_r(5, 3), summand(spaces.MOORE_ETA_SQ, 6, 4))
        assert w.render() == "S^2 v C^5_{r=3} v A^6(2^2 eta^2)"
        assert Wedge().render() == "pt"

    def test_weight(self):
        assert sphere(3).weight() == 1
        assert moore(4, 2)[0].weight() == 1
        assert chang_eta(5).weight() == 2
        assert summand(spaces.CHANG_IP_ETA_LIFT, 6, 2).weight() == 3

    @pytest.mark.parametrize("r", (1, 5, 63))
    def test_two_primary_text(self, r):
        # the exponent r of order 2^r, past the exponents the goldens reach
        texts = [summand(kind, 6, 2**r).render() for kind in TWO_PRIMARY]
        assert texts == {
            1: ["C^6_{r=1}", "A^6(eta~_1)", "A^6(i_P eta~_1)", "A^6(2^1 eta^2)"],
            5: ["C^6_{r=5}", "A^6(eta~_5)", "A^6(i_P eta~_5)", "A^6(2^5 eta^2)"],
            63: ["C^6_{r=63}", "A^6(eta~_63)", "A^6(i_P eta~_63)", "A^6(2^63 eta^2)"],
        }[r]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(all_variants()), max_size=6))
    def test_homology_additive(self, parts):
        w = wedge(*parts)
        degrees = {d for cx in parts for d in cx.reduced_homology()}
        for d in degrees:
            expected = direct_sum(
                *(cx.reduced_homology().get(d, FgAbGroup.trivial()) for cx in parts)
            )
            assert w.homology_in(d) == expected
        assert w.homology_in(99) == FgAbGroup.trivial()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(all_variants()), max_size=8), st.data())
    def test_any_order_gives_one_wedge(self, parts, data):
        w = wedge(*parts)
        shuffled = data.draw(st.permutations(parts))
        # equal summands rebuilt as new objects join the same runs
        fresh = [ElementaryComplex(cx.kind, cx.dim, cx.order) for cx in shuffled]
        for v in (wedge(*shuffled), wedge(*fresh)):
            assert v == w and hash(v) == hash(w)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(all_variants()), max_size=6))
    def test_suspend_commutes_with_wedge(self, parts):
        w = wedge(*parts)
        assert w.suspend() == wedge(*(cx.suspend() for cx in parts))
        assert w.suspend().homology() == {d + 1: g for d, g in w.homology().items()}
        # wedge() and suspend() build through the checked constructor, and
        # normalising the expanded runs again finds the same ones
        for v in (w, w.suspend()):
            assert wedge(*helpers.expand(v.runs)).runs == v.runs
