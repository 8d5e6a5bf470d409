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
sections, all read off W5 (ManifoldDescriptor.w5), built once per descriptor.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

from susp5.abgroup import FgAbGroup
from susp5.reduction import (
    AttachCase,
    DescriptorError,
    HMatrix,
    PhiVector,
    reduce_h_matrix,
    reduce_phi,
)
from susp5.spaces import (
    CHANG_ETA,
    CHANG_IP_ETA_LIFT,
    MOORE_ETA_LIFT,
    MOORE_ETA_SQ,
    SPHERE,
    SPHERE_ETA_SQ,
    ElementaryComplex,
    Wedge,
    chang_eta,
    chang_r,
    peterson,
    sphere,
    summand,
    wedge_of,
)


class DecompositionError(ValueError):
    """The program gives no decomposition of the requested kind for this
    input."""


@dataclass(frozen=True)
class _Case:
    """What one attaching case of the top cell decides.

    index says which two-primary summands of T case.index counts
    ('unconsumed', 'consumed', or None: the case takes no index); spin is
    the spin flag the case needs and smooth whether smooth input admits it;
    top is the variant of the top piece of the suspension wedge, of order
    2^r for the case's exponent r; phrase describes the case.
    """

    index: str | None
    spin: bool
    smooth: bool
    top: str
    phrase: str


# Every attaching case, in the order the descriptor format lists them.
CASES = {
    "null": _Case(None, True, True, SPHERE,
        "trivial top attachment; the top cell splits off as a sphere"),
    "eta": _Case(None, False, True, CHANG_ETA,
        "top cell attached by a suspended Hopf map into a two-sphere summand"),
    "eta_sq": _Case(None, True, False, SPHERE_ETA_SQ,
        "top cell attached by a doubly suspended squared Hopf map into a three-sphere summand"),
    "tilde_eta": _Case("unconsumed", False, True, MOORE_ETA_LIFT,
        "top cell attached by a lifted Hopf map into a two-primary Moore summand"),
    "ip_tilde_eta": _Case("consumed", False, True, CHANG_IP_ETA_LIFT,
        "top cell attached by a lifted Hopf map carried into an absorbed two-stage piece"),
    "i_eta_sq": _Case("unconsumed", True, False, MOORE_ETA_SQ,
        "top cell attached by a squared Hopf map carried into a two-primary Moore summand"),
}


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Invariants plus normalized attaching data; see the module docstring.

    `consumed` and `case.index` refer to positions in the canonical list of
    two-primary summands of h2_torsion (ascending exponent order); CASES
    says which of them each case's index may name.
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
            raise DescriptorError("l and d must be at least 1", "l" if self.l < 1 else "d")
        for key, name, g in (("H", "h1", self.h1_torsion), ("T", "h2", self.h2_torsion)):
            if g.free_rank:
                raise DescriptorError(f"{name} torsion part must be a torsion group", key)
        if self.h1_torsion.has_2_torsion:
            raise DescriptorError("first homology torsion must be odd", "H")
        t2 = len(self.two_primary_exponents)
        if not 0 <= self.c1 <= min(self.l, self.d):
            raise DescriptorError("c1 must satisfy 0 <= c1 <= min(l, d)", "c1")
        if not 0 <= self.c2 <= min(self.l - self.c1, t2):
            raise DescriptorError("c2 must satisfy 0 <= c2 <= min(l - c1, t2)", "c2")

        consumed = self.consumed
        if not consumed and self.c2:
            consumed = tuple(range(self.c2))
            object.__setattr__(self, "consumed", consumed)
        if len(consumed) != self.c2 or len(set(consumed)) != self.c2:
            raise DescriptorError("consumed must list c2 distinct summands", "consumed")
        if any(not 0 <= j < t2 for j in consumed):
            raise DescriptorError("consumed indices out of range", "consumed")
        if tuple(sorted(consumed)) != consumed:
            object.__setattr__(self, "consumed", tuple(sorted(consumed)))

        kind, j = self.case.kind, self.case.index
        case = CASES.get(kind)
        if case is None or case.spin != self.spin or (self.smooth and not case.smooth):
            raise DescriptorError(
                f"case {kind!r} is not allowed for this spin/smooth combination", "case"
            )
        if case.index is None:
            if j is not None or self.case.r is not None:
                raise DescriptorError(f"case {kind!r} takes no summand index", "case")
        elif case.index == "unconsumed":
            if j is None or not 0 <= j < t2 or j in self.consumed:
                raise DescriptorError(
                    f"case {kind!r} needs an unconsumed two-primary summand", "case"
                )
        elif j not in self.consumed:
            raise DescriptorError(f"case {kind!r} needs a consumed summand", "case")
        if j is not None:
            r = self.two_primary_exponents[j]
            if self.case.r is None:
                object.__setattr__(self, "case", replace(self.case, r=r))
            elif self.case.r != r:
                raise DescriptorError("case exponent does not match the summand", "case")
        if self.top_piece.section(5) == sphere(3) and self.d - self.c1 < 1:
            raise DescriptorError(f"case {kind!r} needs a free three-sphere", "case")

    @property
    def pd_mode(self) -> bool:
        """A Poincare duality complex rather than a smooth manifold."""
        return not self.smooth

    @cached_property
    def two_primary_exponents(self) -> tuple[int, ...]:
        """Exponents of the two-primary summands of h2_torsion, ascending;
        computed once per descriptor."""
        return self.h2_torsion.primary_exponents(2)

    @cached_property
    def top_piece(self) -> ElementaryComplex:
        """The summand the top cell of the suspension lies in."""
        r = self.case.r
        return summand(CASES[self.case.kind].top, 6, 0 if r is None else 2**r)

    @cached_property
    def w5(self) -> Wedge:
        """The suspension wedge less its l two-spheres, with the top piece's
        section at degree 5 in place of the top piece; built once."""
        H, exps = self.h1_torsion, self.two_primary_exponents
        counts = Counter(chain(
            peterson(3, H), peterson(4, self.remaining_torsion()), peterson(5, H),
            (chang_r(5, exps[i]) for i in self.consumed),
        ))
        counts.update({
            sphere(3): self.d - self.c1,
            sphere(4): self.d,
            sphere(5): self.l - self.c1 - self.c2,
            chang_eta(5): self.c1,
        })
        return wedge_of(counts)

    @cached_property
    def suspension_wedge(self) -> Wedge:
        """The count-table wedge of the suspension: l two-spheres, W5 and the
        top piece, less the W5 summand it absorbs (its section at degree 5);
        built once.  With three-primary H nothing here says whether this
        wedge is the suspension of M, but its suspension is the double
        suspension."""
        counts = dict(self.w5.runs)
        # W5 tops out in dimension 5, so neither S^2 nor the top piece is in it yet
        counts[sphere(2)] = self.l
        counts[self.top_piece] = 1
        absorbed = self.top_piece.section(5)
        if absorbed is not None:
            counts[absorbed] -= 1
        return wedge_of(counts)

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


def suspension_decomposition(desc: ManifoldDescriptor) -> Wedge:
    """The wedge decomposition of the suspension of M.

    Requires the odd linking torsion H to be three-primary-free: the
    splitting theorem does not cover three-primary torsion in H, so for
    such H this stage is not determined here (the suspension may still
    split, as it does for L(3,1) x T^2).  The double suspension splits.
    """
    if desc.h1_torsion.has_3_torsion:
        raise DecompositionError("three-primary torsion in H lies outside the splitting theorem")
    return desc.suspension_wedge


def double_suspension_decomposition(desc: ManifoldDescriptor) -> Wedge:
    """The wedge decomposition of the double suspension of M: the suspension
    wedge, suspended once more; it splits for every descriptor."""
    return desc.suspension_wedge.suspend()


def homology_section(desc: ManifoldDescriptor, k: int) -> Wedge:
    """The k-th homology section of the suspended reduced part, k in 3..5.

    The suspension of M splits as a wedge of l two-spheres with a
    five-connected-in-homology remainder; the sections truncate that
    remainder, W5, at homological degree k one summand at a time.
    """
    if k not in (3, 4, 5):
        raise DecompositionError("homology sections are defined for k in 3..5")
    return desc.w5 if k == 5 else desc.w5.section(k)


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
    phi: Mapping[str, tuple[int, ...]] | None = None,
) -> ManifoldDescriptor:
    """Build a descriptor from an eta incidence matrix and the residual
    attaching vector phi, given as 0/1 rows by the descriptor file's
    component names relative to the reduced matrix: x on the free
    three-spheres, y on the four-spheres, z and eps (the lift and the
    included eta^2) on the unconsumed Moore summands, w on the consumed
    ones.  A missing component is all zeros; the matrix is reduced once.

    >>> inv = dict(l=1, d=1, h1_torsion=FgAbGroup.trivial(),
    ...            h2_torsion=FgAbGroup.from_string("Z/4"), spin=False, smooth=True)
    >>> h = HMatrix(sphere_rows=((0,),), moore_rows=((0,),), moore_exponents=(2,))
    >>> resolve_attaching_data(h_matrix=h, phi={"z": (1,)}, **inv).case
    AttachCase(kind='tilde_eta', index=0, r=2)
    >>> resolve_attaching_data(h_matrix=h, phi={"z": (1, 0)}, **inv)
    Traceback (most recent call last):
    ...
    susp5.reduction.DescriptorError: phi component 'z' needs 1 entries here
    """
    exps = h2_torsion.primary_exponents(2)
    if len(h_matrix.sphere_rows) != d:
        raise DescriptorError("h_matrix needs one sphere row per free class")
    if h_matrix.moore_exponents != exps:
        raise DescriptorError(
            "h_matrix Moore exponents must match the two-primary part of h2"
        )
    if h_matrix.num_columns != l:
        raise DescriptorError("h_matrix needs one column per source class")

    res = reduce_h_matrix(h_matrix)
    c1, c2, consumed = res.c1, res.c2, res.consumed
    unconsumed = tuple(j for j in range(len(exps)) if j not in consumed)
    sizes = dict(x=d - c1, y=d, z=len(unconsumed), eps=len(unconsumed), w=c2)
    phi = phi or {}
    for key in sorted(phi.keys() - sizes):
        raise DescriptorError(f"unknown phi component {key!r}", key)
    rows = {}
    for key, n in sizes.items():
        rows[key] = bits = tuple(phi.get(key, (0,) * n))
        if len(bits) != n:
            raise DescriptorError(f"phi component {key!r} needs {n} entries here", key)
        if bits.count(0) + bits.count(1) != n:
            raise DescriptorError(f"phi component {key!r} entries must be 0 or 1", key)
    vector = PhiVector(
        rows["x"],
        rows["y"],
        tuple(z + 2 * eps for z, eps in zip(rows["z"], rows["eps"])),
        tuple(exps[j] for j in unconsumed),
        rows["w"],
        tuple(exps[j] for j in consumed),
    )

    case = reduce_phi(vector, smooth=smooth)
    slots = CASES[case.kind].index
    if slots is not None:
        indices = consumed if slots == "consumed" else unconsumed
        case = replace(case, index=indices[case.index])

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
