"""Wedge decompositions of suspended five-dimensional Poincare complexes.

A ManifoldDescriptor records the homological invariants of a closed
orientable five-dimensional manifold or Poincare duality complex M with

    H_0 = Z, H_1 = Z^l + H, H_2 = Z^d + T, H_3 = Z^d + H, H_4 = Z^l, H_5 = Z

(H pure odd torsion, T any torsion, l and d at least one), together with
the normalized attaching data of the top cell after one suspension: the
pair (c1, c2) counting the eta classes absorbed into two-stage complexes,
the set of consumed two-primary summands of T, and the surviving top-cell
case.  The suspension splits as a wedge of spheres, Moore spaces and a
short list of four-cell-or-less complexes; this module computes that wedge
for the single and double suspension along with the intermediate homology
sections.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from susp5.abgroup import FgAbGroup
from susp5.reduction import (
    AttachCase,
    AttachingDataError,
    HMatrix,
    PhiVector,
    ReductionResult,
    reduce_h_matrix,
    reduce_phi,
)
from susp5.spaces import (
    ElementaryComplex,
    Wedge,
    chang_eta,
    chang_ip_eta_lift,
    chang_r,
    moore_eta_lift,
    moore_eta_sq,
    peterson,
    sphere,
    sphere_eta_sq,
    wedge,
)


class DescriptorError(ValueError):
    """Invalid or inconsistent manifold invariants."""


class DecompositionError(ValueError):
    """The requested decomposition does not exist for this input."""


_SMOOTH_SPIN_CASES = {"null"}
_NONSPIN_CASES = {"eta", "tilde_eta", "ip_tilde_eta"}
_PD_SPIN_CASES = {"null", "eta_sq", "i_eta_sq"}


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Invariants plus normalized attaching data; see the module docstring.

    `consumed`, `case.index` for tilde_eta and i_eta_sq, and the index for
    ip_tilde_eta all refer to positions in the canonical list of
    two-primary summands of h2_torsion (ascending exponent order).
    """

    l: int
    d: int
    h1_torsion: FgAbGroup
    h2_torsion: FgAbGroup
    spin: bool
    smooth: bool
    c1: int = 0
    c2: int = 0
    consumed: tuple[int, ...] = ()
    case: AttachCase = AttachCase("null")

    def __post_init__(self):
        if self.l < 1 or self.d < 1:
            raise DescriptorError("l and d must be at least 1")
        for name, g in (("h1", self.h1_torsion), ("h2", self.h2_torsion)):
            if g.free_rank:
                raise DescriptorError(f"{name} torsion part must be a torsion group")
        if self.h1_torsion.has_2_torsion:
            raise DescriptorError("first homology torsion must be odd")
        t2 = len(self.two_primary_exponents)
        if not 0 <= self.c1 <= min(self.l, self.d):
            raise DescriptorError("c1 must satisfy 0 <= c1 <= min(l, d)")
        if not 0 <= self.c2 <= min(self.l - self.c1, t2):
            raise DescriptorError("c2 must satisfy 0 <= c2 <= min(l - c1, t2)")

        consumed = self.consumed
        if not consumed and self.c2:
            consumed = tuple(range(self.c2))
            object.__setattr__(self, "consumed", consumed)
        if len(consumed) != self.c2 or len(set(consumed)) != self.c2:
            raise DescriptorError("consumed must list c2 distinct summands")
        if any(not 0 <= j < t2 for j in consumed):
            raise DescriptorError("consumed indices out of range")
        if tuple(sorted(consumed)) != consumed:
            object.__setattr__(self, "consumed", tuple(sorted(consumed)))

        allowed = (
            (_SMOOTH_SPIN_CASES if self.spin else _NONSPIN_CASES)
            if self.smooth
            else (_PD_SPIN_CASES if self.spin else _NONSPIN_CASES)
        )
        case = self.case
        if case.kind not in allowed:
            raise DescriptorError(
                f"case {case.kind!r} is not allowed for this spin/smooth combination"
            )
        if case.kind in ("null", "eta"):
            if case.index is not None or case.r is not None:
                raise DescriptorError(f"case {case.kind!r} takes no summand index")
        if case.kind in ("tilde_eta", "i_eta_sq"):
            j = case.index
            if j is None or not 0 <= j < t2 or j in self.consumed:
                raise DescriptorError(
                    f"case {case.kind!r} needs an unconsumed two-primary summand"
                )
        if case.kind == "ip_tilde_eta":
            if case.index not in self.consumed:
                raise DescriptorError("case 'ip_tilde_eta' needs a consumed summand")
        if case.kind == "eta_sq" and self.d - self.c1 < 1:
            raise DescriptorError("case 'eta_sq' needs a free three-sphere")
        if case.index is not None:
            r = self.two_primary_exponents[case.index]
            if case.r is None:
                object.__setattr__(self, "case", replace(case, r=r))
            elif case.r != r:
                raise DescriptorError("case exponent does not match the summand")

    @property
    def pd_mode(self) -> bool:
        """A Poincare duality complex rather than a smooth manifold."""
        return not self.smooth

    @property
    def two_primary_exponents(self) -> tuple[int, ...]:
        return self.h2_torsion.primary_exponents(2)

    def remaining_torsion(self, extra: int | None = None) -> FgAbGroup:
        """h2 torsion with the consumed summands (and optionally one more
        two-primary summand) removed.  Two-primary summands come first in
        the canonical ordering, so indices transfer directly."""
        drop = set(self.consumed)
        if extra is not None:
            drop.add(extra)
        return self.h2_torsion.drop_torsion_summands(sorted(drop))


def manifold_homology(desc: ManifoldDescriptor) -> dict[int, FgAbGroup]:
    """H_*(M) in degrees 0..5."""
    zl = FgAbGroup.free(desc.l)
    zd = FgAbGroup.free(desc.d)
    return {
        0: FgAbGroup.free(1),
        1: zl.direct_sum(desc.h1_torsion),
        2: zd.direct_sum(desc.h2_torsion),
        3: zd.direct_sum(desc.h1_torsion),
        4: zl,
        5: FgAbGroup.free(1),
    }


def _case_pieces(desc: ManifoldDescriptor):
    """Top piece of the suspension wedge plus the adjustments it causes to
    W5: returns (top complex, extra index dropped from the Moore part,
    consumed indices still carrying a two-stage piece, sphere deltas)."""
    exps = desc.two_primary_exponents
    kind = desc.case.kind
    extra_drop = None
    chang_indices = list(desc.consumed)
    d3 = d4 = 0
    if kind == "null":
        top = sphere(6)
    elif kind == "eta":
        top = chang_eta(6)
        d4 = -1
    elif kind == "tilde_eta":
        extra_drop = desc.case.index
        top = moore_eta_lift(6, exps[extra_drop])
    elif kind == "ip_tilde_eta":
        chang_indices.remove(desc.case.index)
        top = chang_ip_eta_lift(6, exps[desc.case.index])
    elif kind == "eta_sq":
        top = sphere_eta_sq(6)
        d3 = -1
    elif kind == "i_eta_sq":
        extra_drop = desc.case.index
        top = moore_eta_sq(6, exps[extra_drop])
    else:
        raise DescriptorError(f"unknown case kind {kind!r}")
    return top, extra_drop, chang_indices, d3, d4


def _section_parts(desc, extra_drop, chang_indices, d3, d4) -> list[ElementaryComplex]:
    """The summands of W5, changed by the case adjustments of _case_pieces:
    d3 and d4 more three- and four-spheres, one more Moore summand dropped,
    and C_r pieces on chang_indices only."""
    exps = desc.two_primary_exponents
    H = desc.h1_torsion
    return (
        [sphere(3)] * (desc.d - desc.c1 + d3)
        + [sphere(4)] * (desc.d + d4)
        + [sphere(5)] * (desc.l - desc.c1 - desc.c2)
        + peterson(3, H)
        + peterson(4, desc.remaining_torsion(extra_drop))
        + peterson(5, H)
        + [chang_eta(5)] * desc.c1
        + [chang_r(5, exps[j]) for j in chang_indices]
    )


def _single_parts(desc: ManifoldDescriptor) -> list[ElementaryComplex]:
    top, *adjustments = _case_pieces(desc)
    return [sphere(2)] * desc.l + _section_parts(desc, *adjustments) + [top]


def suspension_decomposition(desc: ManifoldDescriptor) -> Wedge:
    """The wedge decomposition of the suspension of M.

    Requires the odd linking torsion H to be three-primary-free: a
    three-primary class in H obstructs splitting off its Moore space at
    this stage (the obstruction dies after one more suspension).
    """
    if desc.h1_torsion.has_3_torsion:
        raise DecompositionError(
            "three-primary classes in h1 obstruct the single-suspension splitting"
        )
    return wedge(*_single_parts(desc))


def double_suspension_decomposition(desc: ManifoldDescriptor) -> Wedge:
    """The wedge decomposition of the double suspension of M."""
    return wedge(*[p.suspend() for p in _single_parts(desc)])


def homology_section(desc: ManifoldDescriptor, k: int) -> Wedge:
    """The k-th homology section of the suspended reduced part, k in 3..5.

    The suspension of M splits as a wedge of l two-spheres with a
    five-connected-in-homology remainder; the sections truncate that
    remainder at homological degree k.
    """
    if k == 5:
        return wedge(*_section_parts(desc, None, desc.consumed, 0, 0))
    if k not in (3, 4):
        raise DecompositionError("homology sections are defined for k in 3..5")
    H = desc.h1_torsion
    parts = [sphere(3)] * desc.d + peterson(3, H) + peterson(4, desc.h2_torsion)
    if k == 4:
        parts += [sphere(4)] * desc.d + peterson(5, H)
    return wedge(*parts)


# -- resolution of raw attaching data -----------------------------------------


def resolve_attaching_data(
    *,
    l: int,
    d: int,
    h1_torsion: FgAbGroup,
    h2_torsion: FgAbGroup,
    spin: bool,
    smooth: bool,
    h_matrix: HMatrix,
    phi: PhiVector | None = None,
    reduction: ReductionResult | None = None,
) -> ManifoldDescriptor:
    """Build a descriptor from an eta incidence matrix and an optional
    residual attaching vector (shapes must match the reduced matrix).

    A caller that has already sized phi from reduce_h_matrix(h_matrix)
    passes that result as reduction, so the matrix is reduced once."""
    exps = h2_torsion.primary_exponents(2)
    t2 = len(exps)
    if len(h_matrix.sphere_rows) != d:
        raise AttachingDataError("h_matrix needs one sphere row per free class")
    if h_matrix.moore_exponents != exps:
        raise AttachingDataError(
            "h_matrix Moore exponents must match the two-primary part of h2"
        )
    if h_matrix.num_columns != l:
        raise AttachingDataError("h_matrix needs one column per source class")

    res = reduction if reduction is not None else reduce_h_matrix(h_matrix)
    c1, c2, consumed = res.c1, res.c2, res.consumed
    unconsumed = tuple(j for j in range(t2) if j not in consumed)

    expected = dict(
        x=d - c1,
        y=d,
        moore=t2 - c2,
        w=c2,
    )
    if phi is None:
        phi = PhiVector(
            x=(0,) * expected["x"],
            y=(0,) * expected["y"],
            moore=(0,) * expected["moore"],
            moore_exponents=tuple(exps[j] for j in unconsumed),
            w=(0,) * expected["w"],
            consumed_exponents=tuple(exps[j] for j in consumed),
        )
    else:
        got = dict(x=len(phi.x), y=len(phi.y), moore=len(phi.moore), w=len(phi.w))
        if got != expected:
            raise AttachingDataError(
                f"phi component lengths {got} do not match the reduced matrix "
                f"(expected {expected})"
            )
        if phi.moore_exponents != tuple(exps[j] for j in unconsumed):
            raise AttachingDataError("phi Moore exponents disagree with h2")
        if phi.consumed_exponents != tuple(exps[j] for j in consumed):
            raise AttachingDataError("phi consumed exponents disagree with h2")

    case = reduce_phi(phi, smooth=smooth)
    if case.kind in ("tilde_eta", "i_eta_sq"):
        case = replace(case, index=unconsumed[case.index])
    elif case.kind == "ip_tilde_eta":
        case = replace(case, index=consumed[case.index])

    return ManifoldDescriptor(
        l=l,
        d=d,
        h1_torsion=h1_torsion,
        h2_torsion=h2_torsion,
        spin=spin,
        smooth=smooth,
        c1=c1,
        c2=c2,
        consumed=consumed,
        case=case,
    )
