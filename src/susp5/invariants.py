"""Stable invariants read off the suspension wedges.

Reduced complex and real K-theory are evaluated summand by summand on the
double suspension (the even shift is invisible to K by Bott periodicity).
K of a summand is read off its cells: it is the summand's even integral
cohomology.  KO is tabulated in degree two, the degree that desuspends to
degree zero on the original complex.  Each computation is checked against
a closed form in the input invariants before it is returned, so a bad
table entry fails loudly instead of propagating.

The third cohomotopy group of the five-complex is produced in closed form
per attachment case.  An independent crosscheck recomputes it as homotopy
classes of maps from the single suspension into the four-sphere, summand
by summand; the two must agree.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

from susp5.abgroup import FgAbGroup, direct_sum, direct_sum_counted
from susp5.decompose import ManifoldDescriptor
from susp5.spaces import (
    CHANG_ETA,
    CHANG_IP_ETA_LIFT,
    CHANG_R,
    MOORE,
    MOORE_ETA_LIFT,
    MOORE_ETA_SQ,
    SPHERE,
    SPHERE_ETA_SQ,
    ElementaryComplex,
    Wedge,
)


class UnsupportedSummand(LookupError):
    """The requested invariant table has no entry for this complex."""


class BalanceError(ArithmeticError):
    """A group assembled from the summand tables disagrees with its closed
    form; expected is the closed form."""

    def __init__(self, message: str, expected: FgAbGroup):
        super().__init__(message)
        self.expected = expected


_Z = FgAbGroup.free(1)
_Z2 = FgAbGroup.cyclic(2)
_0 = FgAbGroup.trivial()

# Reduced KO of spheres, indexed by dimension mod 8 (coefficients of the
# real K-theory spectrum: Z, Z/2, Z/2, 0, Z, 0, 0, 0).
_KO_SPHERE = (_Z, _Z2, _Z2, _0, _Z, _0, _0, _0)


@dataclass(frozen=True)
class Contribution:
    """One wedge summand's share of an invariant.

    `implied` marks entries that come from connectivity or dimension
    bounds rather than a tabulated group.  row is the contribution's trace
    row as text, rendered when it is built.
    """

    summand: ElementaryComplex
    group: FgAbGroup
    implied: bool = False
    row: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        row = (self.summand.render(), self.group.render())
        object.__setattr__(self, "row", row + ("implied",) if self.implied else row)


@dataclass(frozen=True)
class GroupComputation:
    """A group assembled summand by summand, with its trace: one
    (contribution, multiplicity) per run of equal wedge summands."""

    group: FgAbGroup
    runs: tuple[tuple[Contribution, int], ...]


# -- per-summand entries -----------------------------------------------------


def k_of_summand(s: ElementaryComplex) -> FgAbGroup:
    """Reduced complex K-theory of one double-suspension summand: its even
    integral cohomology, the free homology in even degrees and (by universal
    coefficients) the torsion in odd ones.  Every attaching map but the
    torsion degree is a multiple of eta, which is zero in K-theory, so the
    Atiyah-Hirzebruch spectral sequence has no differential or extension."""
    return direct_sum(
        *(g for deg, g in s.reduced_homology().items() if (deg % 2 == 0) == (g.free_rank > 0))
    )


def ko_of_summand(s: ElementaryComplex) -> FgAbGroup:
    """Reduced real K-theory of one double-suspension summand, taken in
    cohomological degree two so that it desuspends to degree zero on the
    original five-complex."""
    if s.kind == SPHERE:
        return _KO_SPHERE[(s.dim - 2) % 8]
    if s.kind == MOORE:
        if s.order % 2 == 1 and s.dim in (4, 5, 6):
            return _0
        if s.order % 2 == 0 and s.dim == 5:
            return _Z2
    if s.kind == CHANG_ETA:
        if s.dim == 6:
            return _Z.direct_sum(_Z2)
        if s.dim == 7:
            return _0
    if s.kind == CHANG_R and s.dim == 6:
        return _Z.direct_sum(_Z2)
    if s.kind == MOORE_ETA_LIFT and s.dim == 7:
        return _Z2
    if s.kind == CHANG_IP_ETA_LIFT and s.dim == 7:
        return _Z.direct_sum(_Z2)
    if s.kind == SPHERE_ETA_SQ and s.dim == 7:
        return _Z2
    if s.kind == MOORE_ETA_SQ and s.dim == 7:
        return _Z2
    raise UnsupportedSummand(f"no real K-theory entry for {s.render()}")


def maps_to_s4(s: ElementaryComplex) -> tuple[FgAbGroup, bool]:
    """Homotopy classes of based maps from one single-suspension summand
    into the four-sphere.  The flag marks entries implied by connectivity
    or dimension rather than tabulated."""
    if s.kind == SPHERE:
        table = {2: _0, 3: _0, 4: _Z, 5: _Z2, 6: _Z2}
        if s.dim in table:
            return table[s.dim], False
    if s.kind == MOORE:
        if s.dim == 4:
            return FgAbGroup.cyclic(s.order), False
        if s.dim in (3, 5) and s.order % 2 == 1:
            return _0, True
    if s.kind == CHANG_ETA:
        if s.dim == 5:
            return _0, False
        if s.dim == 6:
            return _Z, False
    if s.kind == CHANG_R and s.dim == 5:
        return FgAbGroup.cyclic(2 * s.order), False
    if s.kind == MOORE_ETA_LIFT and s.dim == 6:
        return FgAbGroup.cyclic(s.order // 2), False
    if s.kind == CHANG_IP_ETA_LIFT and s.dim == 6:
        return FgAbGroup.cyclic(s.order), False
    if s.kind == SPHERE_ETA_SQ and s.dim == 6:
        return _0, False
    if s.kind == MOORE_ETA_SQ and s.dim == 6:
        return FgAbGroup.cyclic(2 * s.order), False
    raise UnsupportedSummand(f"no maps-to-S^4 entry for {s.render()}")


# -- assembled invariants ----------------------------------------------------


def k_closed_form(desc: ManifoldDescriptor) -> FgAbGroup:
    """Z^(d+l) plus two copies of the odd linking torsion."""
    return FgAbGroup.free(desc.d + desc.l).direct_sum(
        desc.h1_torsion, desc.h1_torsion
    )


def ko_closed_form(desc: ManifoldDescriptor) -> FgAbGroup:
    """Z^l plus one Z/2 for each of l, d, and the two-primary summands."""
    n = desc.l + desc.d + len(desc.two_primary_exponents)
    return FgAbGroup.from_primary(desc.l, [(2, 1)] * n)


@functools.lru_cache(maxsize=8192)
def _contribution(table, s: ElementaryComplex, /) -> Contribution:
    """The one contribution of summand s to table in this process.

    table maps a summand to its group, or to (group, implied).  The key is
    the table function itself, so a replaced table gets entries of its own;
    an UnsupportedSummand raises on every call, since errors are not cached.
    """
    entry = table(s)
    return Contribution(s, *entry) if isinstance(entry, tuple) else Contribution(s, entry)


def _assemble(w: Wedge, table) -> GroupComputation:
    """Direct sum of a per-summand table entry, one contribution per run of
    equal summands."""
    runs = tuple((_contribution(table, s), n) for s, n in w.runs)
    return GroupComputation(direct_sum_counted([(c.group, n) for c, n in runs]), runs)


def k_group(desc: ManifoldDescriptor, double: Wedge) -> GroupComputation:
    """Reduced complex K-theory, read off the double suspension wedge."""
    comp, expected = _assemble(double, k_of_summand), k_closed_form(desc)
    if comp.group != expected:
        raise BalanceError("complex K-theory table out of balance", expected)
    return comp


def ko_group(desc: ManifoldDescriptor, double: Wedge) -> GroupComputation:
    """Reduced real K-theory, read off the double suspension wedge."""
    comp, expected = _assemble(double, ko_of_summand), ko_closed_form(desc)
    if comp.group != expected:
        raise BalanceError("real K-theory table out of balance", expected)
    return comp


def pi3(desc: ManifoldDescriptor) -> FgAbGroup:
    """Third cohomotopy group of the five-complex, in closed form.

    The free part always has rank d.  The elementary two-torsion has one
    generator per surviving five-sphere of the suspension splitting, plus
    one more from the top cell in the null case only.  Each absorbed
    two-primary summand of exponent r contributes Z/2^(r+1), modified on
    the single summand the top attachment interacts with; the unconsumed
    part of the degree-two torsion comes along untouched except when the
    top attachment deletes one summand outright.
    """
    case = desc.case
    exps = desc.two_primary_exponents
    two_rank = desc.l - desc.c1 - desc.c2 + (1 if case.kind == "null" else 0)
    drop = case.index if case.kind in ("tilde_eta", "i_eta_sq") else None
    parts = [
        FgAbGroup.free(desc.d),
        FgAbGroup.from_primary(0, [(2, 1)] * two_rank),
        desc.remaining_torsion(extra=drop),
    ]
    for j in desc.consumed:
        if case.kind == "ip_tilde_eta" and j == case.index:
            continue
        parts.append(FgAbGroup.cyclic(2 ** (exps[j] + 1)))
    if case.kind == "tilde_eta" and case.r > 1:
        parts.append(FgAbGroup.cyclic(2 ** (case.r - 1)))
    elif case.kind == "ip_tilde_eta":
        parts.append(FgAbGroup.cyclic(2**case.r))
    elif case.kind == "i_eta_sq":
        parts.append(FgAbGroup.cyclic(2 ** (case.r + 1)))
    return direct_sum(*parts)


def pi4_sigma_crosscheck(single: Wedge) -> GroupComputation:
    """Recompute pi3 as maps from the single suspension wedge to the
    four-sphere, one run of equal summands at a time."""
    return _assemble(single, maps_to_s4)


def hurewicz_cohomotopy(desc: ManifoldDescriptor, i: int) -> FgAbGroup:
    """Cohomotopy in the degrees where it reduces to cohomology: degree
    one (maps to the circle) and degree five (top-degree maps classified
    by their degree)."""
    if i == 1:
        return FgAbGroup.free(desc.l)
    if i == 5:
        return _Z
    raise ValueError(f"cohomotopy in degree {i} is not a homology computation here")
