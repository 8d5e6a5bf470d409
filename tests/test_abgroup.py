"""Smith normal form and canonical abelian group structure.

Frozen expectations come first and were computed by hand from the
determinantal description of the invariant factors: for [[2, 4], [6, 8]] the
gcd of entries is 2 and the gcd of 2x2 minors is |det| = |16 - 24| = 8, so
the diagonal is (2, 4).
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from susp5.abgroup import (
    ORDER_BOUND,
    FgAbGroup,
    OrderRangeError,
    _prime_power_factors,
    direct_sum,
    smith_normal_form,
)


def diag_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def check_snf_laws(a):
    d, u, v = smith_normal_form(a)
    m, n = len(a), len(a[0]) if a else 0
    assert helpers.mat_mul(helpers.mat_mul(u, [list(r) for r in a]), v) == d
    assert abs(helpers.det_int(u)) == 1
    assert abs(helpers.det_int(v)) == 1
    diag = diag_of(d)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return diag


class TestSmithNormalForm:
    def test_frozen_2x2(self):
        assert check_snf_laws([[2, 4], [6, 8]]) == [2, 4]

    def test_frozen_singletons(self):
        assert check_snf_laws([[6]]) == [6]
        assert check_snf_laws([[0]]) == [0]
        assert check_snf_laws([[-7]]) == [7]

    def test_frozen_diagonal_coupling(self):
        # gcd 1, det 6: the chain forces (1, 6) even though the input is (2, 3)
        assert check_snf_laws([[2, 0], [0, 3]]) == [1, 6]

    def test_empty_shapes(self):
        assert smith_normal_form([])[0] == []
        assert check_snf_laws([[], [], []]) == []
        assert check_snf_laws([[0, 0], [0, 0]]) == [0, 0]

    def test_frozen_minor_gcd_agreement(self):
        for a in ([[2, 4], [6, 8]], [[2, 0], [0, 3]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
            d, _, _ = smith_normal_form(a)
            assert diag_of(d) == helpers.minor_gcd_invariants(a)

    @settings(max_examples=200, deadline=None)
    @given(helpers.int_matrices())
    def test_laws_random(self, a):
        check_snf_laws(a)

    @settings(max_examples=200, deadline=None)
    @given(helpers.int_matrices(max_rows=4, max_cols=4, bound=30))
    def test_minor_gcd_oracle_random(self, a):
        d, _, _ = smith_normal_form(a)
        assert diag_of(d) == helpers.minor_gcd_invariants(a)

    @settings(max_examples=150, deadline=None)
    @given(helpers.int_matrices(max_rows=5, max_cols=5, bound=20))
    def test_square_determinant_preserved(self, a):
        if len(a) != (len(a[0]) if a else 0):
            return
        det = helpers.det_int(a)
        if det == 0:
            return
        d, _, _ = smith_normal_form(a)
        assert math.prod(diag_of(d)) == abs(det)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])


def _seeded_matrix(m, n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]


def _rank(a) -> int:
    """Rank over the rationals, by exact elimination."""
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rank_deficient_40x40():
    """30 seeded rows and 10 sums and differences of pairs of them."""
    rng = random.Random(40)
    rows = _seeded_matrix(30, 40, 30)
    for _ in range(10):
        i, k = rng.sample(range(30), 2)
        sign = rng.choice((1, -1))
        rows.append([x + sign * y for x, y in zip(rows[i], rows[k])])
    rng.shuffle(rows)
    return rows


# The sizes of the oracle-sweep benchmark's largest Smith normal form cases,
# where the transforms grow to thousands of bits.
@pytest.mark.parametrize(
    "a, rank",
    [
        (_seeded_matrix(24, 30, 24), 24),
        (_seeded_matrix(32, 36, 32), 32),
        (_seeded_matrix(40, 40, 40), 40),
        (_rank_deficient_40x40(), 30),
    ],
    ids=["24x30", "32x36", "40x40", "40x40-rank-30"],
)
def test_smith_normal_form_at_sweep_sizes(a, rank):
    diag = check_snf_laws(a)
    assert diag[0] == math.gcd(*(x for row in a for x in row))
    assert _rank(a) == rank
    assert sum(1 for x in diag if x) == rank
    if len(a) == len(a[0]) == rank:
        assert math.prod(diag) == abs(helpers.det_int(a))


def cokernel(a):
    """Z^rows / (column span of a), read off the Smith normal form."""
    d = smith_normal_form(a)[0]
    orders = [x for x in diag_of(d) if x]
    return FgAbGroup.from_orders(orders + [0] * (len(d) - len(orders)))


class TestPresentations:
    def test_frozen_cokernels(self):
        assert cokernel([[6]]) == FgAbGroup(0, ((2, 1), (3, 1)))
        assert cokernel([[2, 4], [6, 8]]) == FgAbGroup(0, ((2, 1), (2, 2)))
        assert cokernel([[], []]) == FgAbGroup.free(2)
        assert cokernel([[1]]) == FgAbGroup.trivial()
        assert cokernel([[0]]) == FgAbGroup.free(1)
        assert cokernel([]) == FgAbGroup.trivial()

    @settings(max_examples=100, deadline=None)
    @given(helpers.int_matrices(max_rows=4, max_cols=4, bound=10), st.randoms(use_true_random=False))
    def test_unimodular_invariance(self, a, rng):
        """Row/column elementary ops do not change the cokernel."""
        m, n = len(a), len(a[0]) if a else 0
        b = [list(r) for r in a]
        for _ in range(6):
            if m > 1 and rng.random() < 0.5:
                i, k = rng.randrange(m), rng.randrange(m)
                if i != k:
                    q = rng.randrange(-2, 3)
                    for j in range(n):
                        b[i][j] += q * b[k][j]
            elif n > 1:
                j, k = rng.randrange(n), rng.randrange(n)
                if j != k:
                    q = rng.randrange(-2, 3)
                    for i in range(m):
                        b[i][j] += q * b[i][k]
        assert cokernel(a) == cokernel(b)


class TestCanonicalForm:
    def test_composite_orders_split(self):
        assert FgAbGroup.from_orders([6]) == FgAbGroup.from_orders([2, 3])
        assert FgAbGroup.from_orders([12]).torsion == ((2, 2), (3, 1))
        assert FgAbGroup.from_orders([1]) == FgAbGroup.trivial()

    def test_render_and_parse(self):
        g = FgAbGroup.from_orders([0, 0, 4, 3])
        assert str(g) == "Z^2 + Z/4 + Z/3"
        assert FgAbGroup.from_string("Z^2 + Z/4 + Z/3") == g
        assert FgAbGroup.from_string("Z/2^3") == FgAbGroup(0, ((2, 3),))
        assert FgAbGroup.from_string("0") == FgAbGroup.trivial()
        assert str(FgAbGroup.trivial()) == "0"

    @settings(max_examples=100, deadline=None)
    @given(helpers.fg_groups())
    def test_string_round_trip(self, g):
        assert FgAbGroup.from_string(g.render()) == g

    def test_parse_errors(self):
        for bad in ("Z/1", "Z/0", "Q", "Z^-1", "Z//2", ""):
            with pytest.raises(ValueError):
                FgAbGroup.from_string(bad)

    def test_non_ascii_digits_rejected(self):
        # int() would read these as 2 and 1; group literals take 0-9 only.
        for bad in ("Z/\u0662", "Z^\u0661", "Z/2^\u0663"):
            with pytest.raises(ValueError, match="bad group term"):
                FgAbGroup.from_string(bad)

    def test_orders_of_2_64_or_more_are_out_of_range(self):
        assert FgAbGroup.from_string("Z/2^63").torsion == ((2, 63),)
        factors = (3, 5, 17, 257, 641, 65537, 6700417)  # of 2^64 - 1
        assert FgAbGroup.from_string(f"Z/{ORDER_BOUND - 1}").torsion == tuple(
            (p, 1) for p in factors
        )
        for bad in ("Z/2^64", "Z/2^40000", f"Z/{ORDER_BOUND}", "Z + Z/0003^00000000041"):
            with pytest.raises(OrderRangeError, match="is not below 2\\^64"):
                FgAbGroup.from_string(bad)

    def test_order_range_is_decided_before_the_power(self):
        # 3^2000000 would take 400 kB; the digit counts settle it first
        tracemalloc.start()
        try:
            with pytest.raises(OrderRangeError):
                FgAbGroup.from_string("Z/3^2000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    def test_free_ranks_of_2_64_or_more_are_out_of_range(self):
        assert FgAbGroup.from_string(f"Z^{ORDER_BOUND - 1}").free_rank == ORDER_BOUND - 1
        assert FgAbGroup.from_string("Z^" + "0" * 5000 + "3").free_rank == 3
        for bad in (f"Z^{ORDER_BOUND}", "Z^" + "9" * 5000):
            with pytest.raises(OrderRangeError, match="is not below 2\\^64"):
                FgAbGroup.from_string(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())
        with pytest.raises(ValueError):
            FgAbGroup(0, ((3, 1), (2, 1)))  # unsorted
        with pytest.raises(ValueError):
            FgAbGroup(0, ((6, 1),))  # not a prime power
        with pytest.raises(ValueError):
            FgAbGroup(0, ((2, 0),))

    @settings(max_examples=100, deadline=None)
    @given(helpers.fg_groups(), helpers.fg_groups(), helpers.fg_groups())
    def test_direct_sum_commutative_associative(self, a, b, c):
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        assert direct_sum(a, b, c) == direct_sum(direct_sum(a, b), c)
        assert direct_sum() == FgAbGroup.trivial()

    @settings(max_examples=100, deadline=None)
    @given(helpers.fg_groups())
    def test_primary_reassembly(self, g):
        primes = sorted({p for p, _ in g.torsion})
        # the p-primary part of each prime, grouped here from the summands
        parts = [FgAbGroup(0, tuple(t for t in g.torsion if t[0] == p)) for p in primes]
        assert direct_sum(FgAbGroup.free(g.free_rank), *parts) == g

    def test_drop_torsion_summands(self):
        g = FgAbGroup.from_orders([2, 4, 8, 3])
        assert g.drop_torsion_summands([2]) == FgAbGroup.from_orders([2, 4, 3])
        assert g.drop_torsion_summands([]) == g
        with pytest.raises(IndexError):
            g.drop_torsion_summands([9])

    def test_two_primary_helpers(self):
        g = FgAbGroup.from_orders([2, 8, 9, 5])
        assert g.primary_exponents(2) == (1, 3)
        assert g.primary_exponents(3) == (2,)
        assert g.primary_exponents(5) == (1,)
        assert FgAbGroup.from_orders([5]).primary_exponents(2) == ()


def test_prime_power_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    cases = list(range(2, 20_001))
    cases += [p**e for p in sympy.primerange(3, 2000) for e in (1, 2, 3)]
    # past trial division: values near 2^63, and products of two primes near 2^31
    rng = random.Random(63)
    cases += [rng.randrange(2**63 - 2**40, 2**63 + 2**40) for _ in range(16)]
    near = [sympy.prevprime(2**31 - rng.randrange(10**7)) for _ in range(12)]
    cases += [p * q for p, q in zip(near[::2], near[1::2])]
    cases += [p * p for p in near[:2]] + [2 * 3**5 * p * q for p, q in zip(near[:2], near[2:4])]
    cases.append(3825123056546413051)  # a strong pseudoprime to every base 2..23
    for k in cases:
        got = _prime_power_factors(k)
        assert isinstance(got, tuple)
        assert list(got) == sorted(sympy.factorint(k).items()), k


@pytest.mark.parametrize("k", [100000000000000003, 1000000000039])
def test_large_primes_factor_within_a_second(k):
    # trial division took over 10 s on the first and 1.8 s on the second
    start = time.perf_counter()
    assert _prime_power_factors.__wrapped__(k) == ((k, 1),)
    assert time.perf_counter() - start < 1.0


def test_prime_power_factor_memo_is_bounded():
    assert _prime_power_factors.cache_info().maxsize is not None


def _same_group(g, rank, torsion):
    """g is the interned group of (rank, torsion), and a fresh FgAbGroup of
    that form equals, hashes and renders like it."""
    direct = FgAbGroup(rank, torsion)
    assert g is FgAbGroup.from_primary(rank, torsion)
    assert direct is not g
    assert direct == g and hash(direct) == hash(g)
    assert direct.render() == g.render() and repr(direct) == repr(g)


class TestInterning:
    """Every constructor returns the one group of its canonical form."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(2, 200), max_size=5))
    def test_orders_literals_and_sums_meet(self, rank, orders):
        g = FgAbGroup.from_orders([0] * rank + orders)
        text = " + ".join(["Z"] * rank + [f"Z/{k}" for k in orders]) or "0"
        assert FgAbGroup.from_string(text) is g
        assert direct_sum(FgAbGroup.free(rank), *map(FgAbGroup.cyclic, orders)) is g
        _same_group(g, g.free_rank, g.torsion)

    @settings(max_examples=100, deadline=None)
    @given(helpers.fg_groups(), helpers.fg_groups(), st.data())
    def test_sums_and_drops_meet(self, a, b, data):
        s = direct_sum(a, b)
        assert s is direct_sum(b, a) is FgAbGroup.from_primary(
            a.free_rank + b.free_rank, a.torsion + b.torsion
        )
        _same_group(s, s.free_rank, s.torsion)
        drop = data.draw(st.sets(st.integers(0, max(len(s.torsion) - 1, 0))))
        drop &= set(range(len(s.torsion)))
        kept = tuple(t for i, t in enumerate(s.torsion) if i not in drop)
        assert s.drop_torsion_summands(drop) is FgAbGroup.from_primary(s.free_rank, kept)

    def test_examples(self):
        assert FgAbGroup.from_string("Z/6") is FgAbGroup.from_orders([6])
        assert FgAbGroup.from_string("Z/2 + Z/3") is FgAbGroup.from_string("Z/6")
        assert FgAbGroup.trivial() is FgAbGroup.from_string("0") is direct_sum()
        assert FgAbGroup.free(2) is FgAbGroup.from_orders([0, 0])
        _same_group(FgAbGroup.from_string("Z/6"), 0, ((2, 1), (3, 1)))

    def test_the_direct_constructor_still_validates(self):
        bad = ((-1, ()), (0, ((6, 1),)), (0, ((2, 0),)))
        for rank, torsion in bad + ((0, ((3, 1), (2, 1))),):  # the last one unsorted
            with pytest.raises(ValueError):
                FgAbGroup(rank, torsion)
        for rank, torsion in bad:  # from_primary sorts, then validates through the memo
            for _ in range(2):
                with pytest.raises(ValueError):
                    FgAbGroup.from_primary(rank, torsion)

    @pytest.mark.parametrize(
        "bad",
        ["Z/1", "Q", "Z//2", "", "Z/2^64", "Z^" + "9" * 5000],
        ids=["Z/1", "Q", "Z//2", "empty", "Z/2^64", "Z^(5000 digits)"],
    )
    def test_an_invalid_literal_raises_on_every_call(self, bad):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as ei:
                FgAbGroup.from_string(bad)
            messages.append((type(ei.value), str(ei.value)))
        assert messages[0] == messages[1]

    def test_memos_are_bounded(self):
        from susp5.abgroup import _canonical

        assert _canonical.cache_info().maxsize is not None
