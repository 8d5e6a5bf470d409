"""The connected-sum law: reduced K, reduced KO and the homology sections
W3-W5 of M # N are those of M and N, summed.

Let M0 be M less an open 5-disc.  The cofibre sequence M0 -> M -> S^5 gives
0 -> E~(M) -> E~(M0) -> E~^1(S^5) = Z for E = K or KO: the left end is 0
since pi_5 KU = pi_5 KO = 0, and the last map is 0 since H^4(M; Q) and
H^4(M0; Q) have equal rank.  As (M # N)0 is M0 v N0, both groups add.  The
sections do not involve the top cell.  The groups are read off the double
suspension through the per-summand tables alone, with no closed form.

M # N is built twice: on the invariant route (tests/helpers.connected_sum)
and, independently, on the matrix route, where the reductions of a
block-diagonal [h_matrix] and the two sides' [phi] rows decide it.
"""
import random

from helpers import (
    connected_sum,
    expand,
    matrix_connected_sum,
    random_descriptor,
    random_matrix_route,
)
from susp5.abgroup import direct_sum_counted
from susp5.decompose import (
    double_suspension_decomposition,
    homology_section,
    resolve_attaching_data,
)
from susp5.invariants import k_of_summand, ko_of_summand
from susp5.spaces import wedge


def _laws(desc) -> list:
    """K~ and KO~ from the tables over the double suspension, then W3-W5."""
    double = double_suspension_decomposition(desc)
    groups = [
        direct_sum_counted([(table(s), n) for s, n in double.runs])
        for table in (k_of_summand, ko_of_summand)
    ]
    return groups + [homology_section(desc, k) for k in (3, 4, 5)]


def _assert_additive(m, n, m_sharp_n) -> None:
    got, left, right = _laws(m_sharp_n), _laws(m), _laws(n)
    for name, g, a, b in zip(("K", "KO"), got, left, right):
        assert g == a.direct_sum(b), (name, m, n)
    for k, w, a, b in zip((3, 4, 5), got[2:], left[2:], right[2:]):
        assert w == wedge(*expand(a.runs), *expand(b.runs)), (f"W{k}", m, n)


def test_invariant_route_sums_are_additive():
    rng = random.Random(8)
    for _ in range(1000):
        m, n = random_descriptor(rng), random_descriptor(rng)
        _assert_additive(m, n, connected_sum(m, n))


def _matrix_route_pairs(rng, count, max_size):
    for _ in range(count):
        a = random_matrix_route(rng, max_size, max_size)
        b = random_matrix_route(rng, max_size, max_size)
        yield a, b, resolve_attaching_data(**matrix_connected_sum(a, b))


def test_matrix_route_sums_are_additive():
    """The reductions of M # N add c1 and c2 and join the consumed exponent
    multisets; its case is the one the invariant route's dominance rule
    picks; K, KO and the sections add.  The last pairs reach corpus-large
    sizes (up to 64 x 64 matrices)."""
    rng = random.Random(9)
    pairs = [*_matrix_route_pairs(rng, 500, 4), *_matrix_route_pairs(rng, 8, 32)]
    for a, b, s in pairs:
        m, n = resolve_attaching_data(**a), resolve_attaching_data(**b)
        assert (s.c1, s.c2) == (m.c1 + n.c1, m.c2 + n.c2)
        joined = [d.two_primary_exponents[j] for d in (m, n) for j in d.consumed]
        assert sorted(s.two_primary_exponents[j] for j in s.consumed) == sorted(joined)
        inv = connected_sum(m, n)
        assert (s.case.kind, s.case.r) == (inv.case.kind, inv.case.r)
        _assert_additive(m, n, s)
