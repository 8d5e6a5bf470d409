"""Elementary complexes and wedge sums.

These are the indecomposable pieces that show up when a suspended 5-manifold
splits: spheres, prime-power Moore spaces, the two two-stage complexes built
from a single Hopf-map attachment, and the hybrid pieces obtained by gluing
one extra top cell along a lifted Hopf map, its inclusion into a two-stage
complex, or a squared Hopf map.

Each variant is one `_Variant` record; cells, homology and rendering are
all read off it, and the block weight is the number of homology groups.
A summand is (kind, dim, order): order is the one torsion parameter, p^e
for a Moore space, 2^r for a piece built on a 2-primary Moore space, and 0
for none.  Moore spaces of composite order do not exist as single variants
here; the factories split them into prime-power wedge summands
immediately, which keeps wedge normal forms unique.  The factories,
suspension and the top pieces of the decompositions go through one bounded
memo, `summand`, so each distinct summand is built, validated and rendered
once per process.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

from susp5.abgroup import FgAbGroup, _prime_power_factors, direct_sum_counted

SPHERE = "sphere"
MOORE = "moore"
CHANG_ETA = "chang_eta"
CHANG_R = "chang_r"
MOORE_ETA_LIFT = "moore_eta_lift"
CHANG_IP_ETA_LIFT = "chang_ip_eta_lift"
SPHERE_ETA_SQ = "sphere_eta_sq"
MOORE_ETA_SQ = "moore_eta_sq"


@dataclass(frozen=True)
class _Variant:
    """What all summands of one kind share.

    rank orders kinds of equal top dimension in a wedge; min_dim is the
    lowest allowed top dimension; param says which orders the kind allows
    (a key of _ORDERS); depths give each cell's distance below the top
    cell, bottom cell first, and so determine the homology and the block
    weight; template renders the summand from n, order and r = log2(order);
    below is the variant left without the top cell, or None where that is
    not one piece (a point, a lone cell).
    """

    rank: int
    min_dim: int
    param: str | None
    depths: tuple[int, ...]
    template: str
    below: str | None


# The orders each kind of torsion parameter allows.
_ORDERS = {
    None: lambda k: k == 0,
    "p^e": lambda k: k > 1 and len(_prime_power_factors(k)) == 1,
    "2^r": lambda k: k > 1 and k & (k - 1) == 0,
}

_VARIANTS = {
    SPHERE: _Variant(0, 1, None, (0,), "S^{n}", None),
    MOORE: _Variant(1, 2, "p^e", (1, 0), "P^{n}(Z/{order})", None),
    CHANG_ETA: _Variant(2, 5, None, (2, 0), "C^{n}_eta", SPHERE),
    CHANG_R: _Variant(3, 5, "2^r", (2, 1, 0), "C^{n}_{{r={r}}}", MOORE),
    # P^{n-2}(2^r) with a top n-cell attached along the lifted Hopf map
    MOORE_ETA_LIFT: _Variant(4, 6, "2^r", (3, 2, 0), "A^{n}(eta~_{r})", MOORE),
    # C^{n-1}_r with a top n-cell attached along i_P composed with the lift
    CHANG_IP_ETA_LIFT: _Variant(5, 6, "2^r", (3, 2, 1, 0), "A^{n}(i_P eta~_{r})", CHANG_R),
    # S^{n-3} with a top n-cell attached along the squared Hopf map
    SPHERE_ETA_SQ: _Variant(6, 6, None, (3, 0), "A^{n}(eta^2)", SPHERE),
    # P^{n-2}(2^r) with a top n-cell attached along i composed with eta^2
    MOORE_ETA_SQ: _Variant(7, 6, "2^r", (3, 2, 0), "A^{n}(2^{r} eta^2)", MOORE),
}

_Z = FgAbGroup.free(1)


@dataclass(frozen=True)
class ElementaryComplex:
    """One indecomposable wedge summand.

    dim is the top cell dimension; order is the torsion of the bottom Moore
    piece: p^e for a Moore space, 2^r for the pieces built on a 2-primary
    one, 0 where the variant has none.  The sort key, its hash, the
    rendered text and the reduced homology are computed when the summand is
    built; the factories below build each distinct summand once per process.
    """

    kind: str
    dim: int
    order: int = 0
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)
    _homology: tuple[tuple[int, FgAbGroup], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        v = _VARIANTS.get(self.kind)
        if v is None:
            raise ValueError(f"unknown variant {self.kind!r}")
        if self.dim < v.min_dim:
            raise ValueError(f"{self.kind} needs top dimension >= {v.min_dim}")
        if not _ORDERS[v.param](self.order):
            raise ValueError(f"bad order {self.order} for {self.kind}")
        # derived once per summand; reduced_homology explains the homology
        cells = self.cells()
        homology = dict.fromkeys(cells, _Z)
        if v.param is not None:
            homology[cells[0]] = FgAbGroup.cyclic(self.order)
            del homology[cells[1]]
        object.__setattr__(self, "_homology", tuple(homology.items()))
        key = (self.dim, v.rank, self.order)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        r = self.order.bit_length() - 1
        object.__setattr__(
            self, "_text", v.template.format(n=self.dim, order=self.order, r=r)
        )

    def __hash__(self) -> int:
        # the key determines the fields equality compares, so equal summands
        # hash alike; count tables look summands up by it
        return self._hash

    # -- structure ----------------------------------------------------------

    def cells(self) -> tuple[int, ...]:
        """Dimensions of the cells, basepoint omitted."""
        return tuple(self.dim - k for k in _VARIANTS[self.kind].depths)

    def reduced_homology(self) -> dict[int, FgAbGroup]:
        """Nonzero reduced integral homology, degree -> group.

        The only nonzero cellular boundary is the torsion one: where the
        variant has a torsion parameter, the second cell is glued to the
        bottom cell with degree order, so the bottom cell carries Z/order
        and the second nothing.  Every other cell carries Z.  Computed when
        the summand is built; each call returns a fresh dict.
        """
        return dict(self._homology)

    def suspend(self) -> "ElementaryComplex":
        """Suspension: same variant, every cell shifted up one dimension."""
        return summand(self.kind, self.dim + 1, self.order)

    def section(self, k: int) -> "ElementaryComplex | None":
        """The homology section at degree k: the summand if its homology
        stops at degree k, else the section of what is left without the top
        cell (None if that is no variant), which keeps the order."""
        if self._homology[-1][0] <= k:
            return self
        v = _VARIANTS[self.kind]
        if v.below is None:
            return None
        return summand(v.below, self.dim - v.depths[-2], self.order).section(k)

    def weight(self) -> int:
        """Block weight: the number of nonzero homology groups, one per cell
        but the one the torsion boundary cancels (1, 2 or 3 stages)."""
        return len(self._homology)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        return self._text

    def __str__(self) -> str:
        return self._text


# -- factories ---------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def summand(kind: str, dim: int, order: int, /) -> ElementaryComplex:
    """The one summand of key (kind, dim, order) in this process.

    Every factory, suspension and top piece goes through here, so a batch of
    reports builds and validates each distinct summand once.  The three
    arguments are positional and all required, so one key is one cache
    entry; an invalid key raises on every call, since errors are not cached.
    """
    return ElementaryComplex(kind, dim, order)


def sphere(n: int) -> ElementaryComplex:
    return summand(SPHERE, n, 0)


def moore(n: int, k: int) -> list[ElementaryComplex]:
    """Moore space P^n(k): H_{n-1} = Z/k, split into prime-power summands."""
    if k < 2:
        raise ValueError("Moore space needs torsion order >= 2")
    return peterson(n, FgAbGroup.cyclic(k))


def peterson(n: int, group: FgAbGroup) -> list[ElementaryComplex]:
    """Moore-space wedge with H_{n-1} equal to the given torsion group."""
    if group.free_rank:
        raise ValueError("only torsion groups have Moore-space wedges here")
    return [summand(MOORE, n, p**e) for p, e in group.torsion]


def chang_eta(n: int) -> ElementaryComplex:
    return summand(CHANG_ETA, n, 0)


def chang_r(n: int, r: int) -> ElementaryComplex:
    return summand(CHANG_R, n, 2**r)


# -- wedges -------------------------------------------------------------------


@dataclass(frozen=True)
class Wedge:
    """A finite wedge of elementary complexes, held as its runs of equal
    summands.

    runs gives (summand, multiplicity) in canonical order: the sort keys
    (top dimension, variant, parameters) strictly increase and every
    multiplicity is at least one.  A sort key determines its summand, so
    each wedge has one such form, and equality and hashing compare it.
    wedge() builds the form from summands in any order; the wedge of no
    runs is the point and renders as 'pt'.
    """

    runs: tuple[tuple[ElementaryComplex, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for cx, n in self.runs:
            if prev is not None and prev >= cx._key:
                raise ValueError("wedge runs not in canonical order; use wedge()")
            if n < 1:
                raise ValueError("wedge run multiplicities must be at least 1")
            prev = cx._key

    def homology(self) -> dict[int, FgAbGroup]:
        """Reduced homology of the wedge (degreewise direct sum)."""
        acc: dict[int, list[tuple[FgAbGroup, int]]] = {}
        for cx, n in self.runs:
            for deg, grp in cx._homology:
                acc.setdefault(deg, []).append((grp, n))
        return {deg: direct_sum_counted(parts) for deg, parts in sorted(acc.items())}

    def homology_in(self, degree: int) -> FgAbGroup:
        return self.homology().get(degree, FgAbGroup.trivial())

    def suspend(self) -> "Wedge":
        """Suspend one summand per run; suspension keeps the canonical order."""
        return Wedge(tuple((cx.suspend(), n) for cx, n in self.runs))

    def section(self, k: int) -> "Wedge":
        """The homology section at degree k: one summand section per run."""
        counts = {}
        for cx, n in self.runs:
            part = cx.section(k)
            counts[part] = counts.get(part, 0) + n
        counts.pop(None, None)
        return wedge_of(counts)

    def weight(self) -> int:
        return sum(cx.weight() * n for cx, n in self.runs)

    def render(self) -> str:
        if not self.runs:
            return "pt"
        return " v ".join(chain.from_iterable(repeat(cx._text, n) for cx, n in self.runs))

    def __str__(self) -> str:
        return self.render()


def wedge_of(counts: dict[ElementaryComplex, int]) -> Wedge:
    """The canonical wedge of counts[cx] copies of each summand cx: zero
    counts drop out, the rest are sorted by key, Wedge rejects a negative."""
    runs = sorted(((cx, n) for cx, n in counts.items() if n), key=lambda run: run[0]._key)
    return Wedge(tuple(runs))


def wedge(*summands: ElementaryComplex) -> Wedge:
    """The canonical wedge of summands given in any order; equal summands
    held by different objects share a run."""
    return wedge_of(Counter(summands))
