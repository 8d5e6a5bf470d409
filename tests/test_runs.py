"""Reading a wedge one run of equal summands at a time.

Homology, rendering, suspension and the K/KO/maps-to-S^4 traces are computed
once per run of equal summands and repeated by its multiplicity.  Each is
checked here against a naive loop over every summand, on seeded random
wedges with many repeats.
"""
from __future__ import annotations

import random

import pytest

from helpers import expand, random_descriptor
from susp5.abgroup import FgAbGroup, direct_sum
from susp5.cli import build_report
from susp5.decompose import double_suspension_decomposition, suspension_decomposition
from susp5.invariants import (
    Contribution,
    UnsupportedSummand,
    k_group,
    k_of_summand,
    ko_group,
    ko_of_summand,
    maps_to_s4,
    pi4_sigma_crosscheck,
)
from susp5.spaces import _VARIANTS, ElementaryComplex, Wedge, wedge

_ORDERS = (2, 3, 4, 5, 8, 9, 25, 27, 49)


def _candidates():
    """Every variant at its three lowest top dimensions, a few parameters each."""
    out = []
    for kind, v in _VARIANTS.items():
        for n in range(v.min_dim, v.min_dim + 3):
            if v.param == "p^e":
                out += [ElementaryComplex(kind, n, order=k) for k in _ORDERS]
            elif v.param == "2^r":
                out += [ElementaryComplex(kind, n, order=2**r) for r in (1, 2, 3)]
            else:
                out.append(ElementaryComplex(kind, n))
    return out


CANDIDATES = _candidates()


def _random_parts(rng, pool):
    """A shuffled list of a few distinct summands, each 1..70 times."""
    parts = []
    for cx in rng.sample(pool, rng.randint(1, 8)):
        parts += [cx] * rng.randint(1, 70)
    rng.shuffle(parts)
    return parts


def naive_homology(parts):
    degrees = sorted({deg for cx in parts for deg in cx.reduced_homology()})
    return {
        deg: direct_sum(*(cx.reduced_homology().get(deg, FgAbGroup.trivial()) for cx in parts))
        for deg in degrees
    }


def test_candidates_cover_every_variant():
    assert {cx.kind for cx in CANDIDATES} == set(_VARIANTS)


@pytest.mark.parametrize("seed", range(25))
def test_wedge_reads_agree_with_the_per_summand_loop(seed):
    parts = _random_parts(random.Random(seed), CANDIDATES)
    w = wedge(*parts)
    ordered = sorted(parts, key=lambda cx: (cx.dim, list(_VARIANTS).index(cx.kind), cx.order))
    assert sum(n for _, n in w.runs) == len(parts)
    assert all(a != b for (a, _), (b, _) in zip(w.runs, w.runs[1:]))
    assert expand(w.runs) == ordered
    assert w.homology() == naive_homology(parts)
    assert w.render() == " v ".join(cx.render() for cx in ordered)
    assert w.suspend() == wedge(*(cx.suspend() for cx in parts))
    assert w.weight() == sum(cx.weight() for cx in parts)


def _truncated(cx, k):
    """The reduced homology of cx in degrees up to k; of None, nothing."""
    homology = cx.reduced_homology() if cx is not None else {}
    return {deg: grp for deg, grp in homology.items() if deg <= k}


def test_a_summand_section_keeps_its_homology_up_to_degree_k():
    for cx in CANDIDATES:
        for k in range(cx.dim + 1):
            part = cx.section(k)
            assert _truncated(part, k) == _truncated(cx, k), (cx, k, part)
            if part is not None:
                assert part.cells() == cx.cells()[: len(part.cells())], (cx, k, part)


@pytest.mark.parametrize("seed", range(25))
def test_wedge_section_agrees_with_the_per_summand_loop(seed):
    parts = _random_parts(random.Random(seed), CANDIDATES)
    w = wedge(*parts)
    for k in range(max(cx.dim for cx in parts) + 1):
        sections = [cx.section(k) for cx in parts]
        assert w.section(k) == wedge(*(part for part in sections if part is not None))
        assert w.section(k).homology() == {
            deg: grp for deg, grp in w.homology().items() if deg <= k
        }


def test_equal_summands_must_be_adjacent():
    a, b = ElementaryComplex("sphere", 2), ElementaryComplex("sphere", 3)
    assert wedge(a, a, b).runs == ((a, 2), (b, 1))
    assert Wedge(((a, 2), (b, 1))) == wedge(b, a, a)
    with pytest.raises(ValueError, match="canonical order"):
        Wedge(((a, 1), (b, 1), (a, 1)))
    with pytest.raises(ValueError, match="canonical order"):
        Wedge(((b, 1), (a, 1)))
    with pytest.raises(ValueError, match="canonical order"):
        Wedge(((a, 1), (ElementaryComplex("sphere", 2), 1)))
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            Wedge(((a, 1), (b, n)))


def _tabulated(table):
    out = []
    for cx in CANDIDATES:
        try:
            table(cx)
        except UnsupportedSummand:
            continue
        out.append(cx)
    return out


@pytest.mark.parametrize("seed", range(25))
def test_s4_trace_agrees_with_the_per_summand_lookup(seed):
    w = wedge(*_random_parts(random.Random(seed), _tabulated(maps_to_s4)))
    comp = pi4_sigma_crosscheck(w)
    assert len(comp.runs) == len(w.runs)
    want = [Contribution(s, *maps_to_s4(s)) for s in expand(w.runs)]
    assert expand(comp.runs) == want
    assert comp.group == direct_sum(*(c.group for c in want))


@pytest.mark.parametrize("seed", range(25))
def test_k_and_ko_traces_agree_with_the_per_summand_lookup(seed):
    desc = random_descriptor(random.Random(seed), max_l=70, max_d=70, max_torsion=12)
    double = double_suspension_decomposition(desc)
    assert max(n for _, n in double.runs) > 1
    for compute, table in ((k_group, k_of_summand), (ko_group, ko_of_summand)):
        comp = compute(desc, double)
        assert len(comp.runs) == len(double.runs)
        want = [Contribution(s, table(s)) for s in expand(double.runs)]
        assert expand(comp.runs) == want
        assert comp.group == direct_sum(*(c.group for c in want))
    if not desc.h1_torsion.primary_exponents(3):  # else the single suspension does not split
        single = suspension_decomposition(desc)
        cross = pi4_sigma_crosscheck(single)
        assert len(cross.runs) == len(single.runs)
        want = [Contribution(s, *maps_to_s4(s)) for s in expand(single.runs)]
        assert expand(cross.runs) == want


@pytest.mark.parametrize("seed", range(5))
def test_report_traces_render_every_summand(seed):
    desc = random_descriptor(random.Random(seed), max_l=70, max_d=70, h1_primes=(5, 7))
    report = build_report(desc)
    single = suspension_decomposition(desc)
    double = single.suspend()
    for name, w, comp in (
        ("k", double, k_group(desc, double)),
        ("ko", double, ko_group(desc, double)),
        ("pi4_sigma", single, pi4_sigma_crosscheck(single)),
    ):
        want = [
            [c.summand.render(), c.group.render()] + (["implied"] if c.implied else [])
            for c in expand(comp.runs)
        ]
        assert report["traces"][name] == want
        assert len(want) == sum(n for _, n in w.runs)
