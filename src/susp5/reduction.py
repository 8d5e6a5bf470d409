"""Normalization of eta-type attaching data over wedges of spheres and
Moore spaces.

Two layers:

* HMatrix holds the mod-2 incidence data recording which of the l
  five-dimensional sources hits which three-sphere (through eta) and which
  two-primary Moore summand (through the bottom-cell eta).  Wedge
  automorphisms act by row and column moves; a greedy normal form yields
  the pair (c1, c2) and the set of consumed Moore summands.
* PhiVector holds the residual top-cell attaching components once the
  (c1, c2) pieces have split off, with values in the tabulated homotopy
  groups: eta^2 on three-spheres, eta on four-spheres, lifted eta classes
  on the remaining Moore summands (a Z/4 at exponent one, Z/2 + Z/2
  above), and i_P eta~ classes on the consumed two-stage pieces.
  reduce_phi picks the canonical surviving case.

enumerate_orbit and enumerate_phi_orbit run breadth-first searches over
all legal single moves; they exist to cross-check the greedy normal forms
on small instances.  The searches run over one int per state (the matrix
rows side by side; the phi bits, then two bits per Moore slot) through
_h_table and _phi_table, the one move table per shape, and build one
validated object per orbit member; legal_moves and phi_moves unpack the
same table in the same order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import compress


class DescriptorError(ValueError):
    """Descriptor data that no manifold has: invariants out of range or
    inconsistent, or attaching data that violates a structural constraint.

    key names the descriptor file key the error is about, if any: l, d, H,
    T, c1, c2, consumed or case, or the phi row x, y, z, eps or w.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


# -- eta incidence matrix -----------------------------------------------------


@dataclass(frozen=True)
class HMatrix:
    """Mod-2 eta incidence data: one row per three-sphere, one per
    two-primary Moore summand, one column per five-dimensional source."""

    sphere_rows: tuple[tuple[int, ...], ...]
    moore_rows: tuple[tuple[int, ...], ...]
    moore_exponents: tuple[int, ...]

    def __post_init__(self):
        rows = (*self.sphere_rows, *self.moore_rows)
        if len({len(r) for r in rows}) > 1:
            raise DescriptorError("rows of unequal length")
        for row in rows:
            # count() compares with ==, as `in (0, 1)` does: True and 1.0 pass
            if row.count(0) + row.count(1) != len(row):
                raise DescriptorError("matrix entries must be 0 or 1")
        if len(self.moore_exponents) != len(self.moore_rows):
            raise DescriptorError("one exponent per Moore row required")
        if any(e < 1 for e in self.moore_exponents):
            raise DescriptorError("Moore exponents must be at least 1")

    @property
    def num_columns(self) -> int:
        for row in self.sphere_rows + self.moore_rows:
            return len(row)
        return 0


def _pack_rows(h: HMatrix, cols: int) -> list[int]:
    """Rows of h (cols columns) as bitmasks, sphere rows first; bit c is
    column c."""
    powers = [1 << c for c in range(cols)]
    return [sum(compress(powers, row)) for row in h.sphere_rows + h.moore_rows]


def _shape(h: HMatrix) -> tuple[int, tuple[int, ...], int]:
    """(sphere-row count, Moore exponents, column count) of h."""
    return len(h.sphere_rows), h.moore_exponents, h.num_columns


# A search state is one int: row i of the packed rows sits at bits
# i*cols .. i*cols + cols - 1.


def _join_rows(rows, cols: int) -> int:
    return sum(m << (i * cols) for i, m in enumerate(rows))


def _h_state(h: HMatrix, cols: int) -> int:
    return _join_rows(_pack_rows(h, cols), cols)


def _h_unpacker(shape: tuple[int, tuple[int, ...], int]):
    """state -> the HMatrix of shape packed in it.  Orbit members share
    rows, so each distinct row value becomes a tuple once per unpacker."""
    d, exps, cols = shape
    full = (1 << cols) - 1
    offsets = [i * cols for i in range(d + len(exps))]
    bits = cache(lambda m: tuple((m >> c) & 1 for c in range(cols)))

    def unpack(state: int) -> HMatrix:
        rows = [bits((state >> o) & full) for o in offsets]
        return HMatrix(tuple(rows[:d]), tuple(rows[d:]), exps)

    return unpack


@lru_cache(maxsize=64)
def _h_table(d: int, exps: tuple[int, ...], cols: int) -> tuple[int, tuple]:
    """The move table of legal_moves for d sphere rows, Moore rows of
    exponents exps and cols columns, as (lift, moves).

    Each move is (q, mask): the state s goes to s ^ (((s << lift) >> q) &
    mask).  Adding row k onto row i shifts row k's bits into row i's place;
    adding column k onto column c shifts every row at once and masks column
    c.  Every shift is a net shift by lift - q, so one lift of s per state
    makes each move one shift, one mask and one XOR.
    """
    n = d + len(exps)
    lift = max(n - 1, 1) * cols
    row = (1 << cols) - 1
    moves = []

    def added(target, source):  # row target += row source
        moves.append((lift - (target - source) * cols, row << (target * cols)))

    for i in range(d):
        for k in range(d):
            if i != k:
                added(i, k)
    for c in range(cols):
        column = sum(1 << (i * cols + c) for i in range(n))
        for k in range(cols):
            if c != k:
                moves.append((lift - (c - k), column))
    for j in range(d, n):
        for k in range(d):
            added(j, k)
    for j in range(d, n):
        for k in range(d, n):
            if j != k and exps[j - d] >= exps[k - d]:
                added(k, j)
    return lift, tuple(moves)


def _h_successors(shape: tuple[int, tuple[int, ...], int]):
    """state -> list of the states one legal move away, in table order."""
    lift, moves = _h_table(*shape)

    def successors(s: int) -> list[int]:
        t = s << lift
        return [s ^ ((t >> q) & mask) for q, mask in moves]

    return successors


def legal_moves(h: HMatrix) -> list[HMatrix]:
    """All states reachable from h by one elementary wedge automorphism.

    Sphere rows add onto each other freely (degree-one shears), columns add
    onto each other in both blocks at once (source basis change), sphere
    rows add onto Moore rows (bottom inclusion carries eta to i eta), and a
    Moore row adds onto another only when its exponent is at least as large
    (B(chi) transports i eta with unit coefficient exactly then).
    """
    shape = _shape(h)
    moves = _h_successors(shape)(_h_state(h, shape[2]))
    return list(map(_h_unpacker(shape), moves))


def _closure(start: int, successors, limit: int) -> set[int]:
    """Breadth-first closure of start under successors(state) -> states."""
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in successors(queue.popleft()):
            if nxt not in seen:
                if len(seen) >= limit:
                    raise RuntimeError("orbit exceeds enumeration limit")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def enumerate_orbit(h: HMatrix, limit: int = 200_000) -> set[HMatrix]:
    """Closure of h under legal moves (each move has finite order, so the
    reachable set is the full orbit).  The search runs over one int per
    state."""
    shape = _shape(h)
    orbit = _closure(_h_state(h, shape[2]), _h_successors(shape), limit)
    return set(map(_h_unpacker(shape), orbit))


@dataclass(frozen=True)
class ReductionResult:
    """The greedy normal form's invariants and its end state.

    state and shape (sphere-row count, Moore exponents, column count) hold
    the end state packed as an orbit-search state; reduced unpacks it into
    an HMatrix on first read, since the pipeline reads only c1, c2 and
    consumed.
    """

    c1: int
    c2: int
    consumed: tuple[int, ...]
    state: int = field(repr=False)
    shape: tuple[int, tuple[int, ...], int] = field(repr=False)

    @cached_property
    def reduced(self) -> HMatrix:
        return _h_unpacker(self.shape)(self.state)


def reduce_h_matrix(h: HMatrix) -> ReductionResult:
    """Greedy normal form.

    Phase one: F2 Gaussian elimination on the sphere block; c1 is its rank.
    Pivot rows are then cleared to a single entry by column moves.  Phase
    two: sphere pivot rows clear the matching Moore entries.  Phase three:
    Moore rows claim free columns in order of decreasing exponent (ties by
    position), which keeps every clearing row-move legal; c2 counts the
    claimed pivots and `consumed` lists the claiming rows by original index.

    Rows are packed as in the orbit search, so a row move is one XOR and
    clearing a pivot row's other columns is one masked XOR on every row
    that holds the pivot bit.
    """
    shape = _shape(h)
    d, exps, cols = shape
    rows = _pack_rows(h, cols)
    n = len(rows)

    def clear_row(i: int, bit: int) -> None:
        # column c += pivot column, for every other column c of row i
        mask = rows[i] & ~bit
        for k in range(n):
            if rows[k] & bit:
                rows[k] ^= mask

    pivots: list[tuple[int, int]] = []
    unpivoted = list(range(d))
    for col in range(cols):
        bit = 1 << col
        pr = next((i for i in unpivoted if rows[i] & bit), None)
        if pr is None:
            continue
        pivots.append((pr, bit))
        unpivoted.remove(pr)
        for i in range(d):
            if i != pr and rows[i] & bit:
                rows[i] ^= rows[pr]
    for pr, bit in pivots:
        clear_row(pr, bit)

    for j in range(d, n):
        for pr, bit in pivots:
            if rows[j] & bit:
                rows[j] ^= rows[pr]

    claimed = sum(bit for _, bit in pivots)
    consumed: list[int] = []
    order = sorted(range(d, n), key=lambda j: -exps[j - d])  # stable: ties by position
    for j in order:
        free = rows[j] & ~claimed
        if not free:
            continue
        bit = free & -free  # the lowest free column
        consumed.append(j - d)
        claimed |= bit
        for k in range(d, n):
            if k != j and rows[k] & bit:
                # processed rows are already single-pivot, so k is later in
                # the order and has exponent at most that of j: legal move
                rows[k] ^= rows[j]
        clear_row(j, bit)

    return ReductionResult(
        c1=len(pivots),
        c2=len(consumed),
        consumed=tuple(sorted(consumed)),
        state=_join_rows(rows, cols),
        shape=shape,
    )


# -- residual attaching vector ------------------------------------------------


@dataclass(frozen=True)
class PhiVector:
    """Residual top-cell attaching components on the section.

    x: eta^2 coefficients on the free three-spheres (F2, length d - c1)
    y: eta coefficients on the four-spheres (F2, length d)
    moore: one value 0..3 per unconsumed two-primary Moore summand; at
        exponent one this is the Z/4 of the lifted eta class (twice the
        lift is the included eta^2), above it encodes z + 2*eps for the
        Z/2 lift and the Z/2 included eta^2
    w: i_P eta~ coefficients on the consumed two-stage pieces (F2)
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    moore: tuple[int, ...]
    moore_exponents: tuple[int, ...]
    w: tuple[int, ...]
    consumed_exponents: tuple[int, ...]

    def __post_init__(self):
        bits, slots = self.x + self.y + self.w, self.moore
        if bits.count(0) + bits.count(1) != len(bits):
            raise DescriptorError("sphere and w components must be 0 or 1")
        if slots.count(0) + slots.count(1) + slots.count(2) + slots.count(3) != len(slots):
            raise DescriptorError("Moore slot values must lie in 0..3")
        if len(self.moore) != len(self.moore_exponents):
            raise DescriptorError("one exponent per Moore slot required")
        if len(self.w) != len(self.consumed_exponents):
            raise DescriptorError("one exponent per consumed slot required")
        if any(e < 1 for e in self.moore_exponents + self.consumed_exponents):
            raise DescriptorError("exponents must be at least 1")


def _z_active(phi: PhiVector, i: int) -> bool:
    return phi.moore[i] % 2 == 1


def _eps_active(phi: PhiVector, i: int) -> bool:
    c = phi.moore[i]
    if phi.moore_exponents[i] == 1:
        return c == 2
    return c >= 2


@dataclass(frozen=True)
class AttachCase:
    """Normal form of the residual attaching data.

    kind names a case of decompose.CASES, whose record says which
    two-primary summands index counts in a descriptor; in the result of
    reduce_phi it counts the same Moore slots of the vector.  r is the
    exponent of the slot involved.
    """

    kind: str
    index: int | None = None
    r: int | None = None


def reduce_phi(phi: PhiVector, smooth: bool) -> AttachCase:
    """Canonical case of a residual attaching vector.

    Dominance: a lifted eta class (on an unconsumed slot or, through i_P,
    on a consumed piece) of minimal exponent wins, unconsumed beating
    consumed at equal exponent, lower index breaking remaining ties.
    Otherwise any eta coefficient wins; otherwise an eta^2 coefficient on a
    free three-sphere; otherwise an included eta^2 on the slot of maximal
    exponent.  Smooth input cannot carry eta^2-type components at all.
    """
    if smooth:
        if any(phi.x):
            raise DescriptorError("eta^2 components are not allowed for smooth input", "x")
        if any(_eps_active(phi, i) for i in range(len(phi.moore))):
            raise DescriptorError(
                "included eta^2 components are not allowed for smooth input", "eps"
            )
    z_cand = [
        (phi.moore_exponents[i], 0, i)
        for i in range(len(phi.moore))
        if _z_active(phi, i)
    ]
    w_cand = [
        (phi.consumed_exponents[j], 1, j) for j in range(len(phi.w)) if phi.w[j]
    ]
    if z_cand or w_cand:
        r, tag, idx = min(z_cand + w_cand)
        return AttachCase("tilde_eta" if tag == 0 else "ip_tilde_eta", idx, r)
    if any(phi.y):
        return AttachCase("eta")
    if any(phi.x):
        return AttachCase("eta_sq")
    eps = [i for i in range(len(phi.moore)) if _eps_active(phi, i)]
    if eps:
        r_max = max(phi.moore_exponents[i] for i in eps)
        idx = min(i for i in eps if phi.moore_exponents[i] == r_max)
        return AttachCase("i_eta_sq", idx, r_max)
    return AttachCase("null")


def _slot_add(c: int, r: int, delta: int) -> int:
    """Add delta to a Moore slot value in its own group law."""
    return (c + delta) % 4 if r == 1 else c ^ delta


def _b_transport(ck: int, rk: int, rj: int) -> int:
    """Image of a Moore slot value under B(chi) into a slot of exponent rj."""
    if rk == 1:
        return ck % 4 if rj == 1 else ck % 2
    z, e = ck & 1, (ck >> 1) & 1
    if rj == 1:
        d = 2 * e
        if rk == 2:
            d += 2 * z
        return d % 4
    dz = z if rj >= rk else 0
    de = e if rk >= rj else 0
    return dz + 2 * de


# A search state is one int: the x, y and w bits in that order from bit 0,
# then two bits per Moore slot.


def _phi_state(phi: PhiVector) -> int:
    bits = phi.x + phi.y + phi.w
    state = sum(compress([1 << i for i in range(len(bits))], bits))
    return state + sum(int(c) << (len(bits) + 2 * j) for j, c in enumerate(phi.moore))


def _phi_unpacker(phi: PhiVector):
    """state -> the PhiVector of phi's shape packed in it, through one memo
    of the (x, y, w) bits and one of the Moore slots."""
    a, b, u = len(phi.x), len(phi.y), len(phi.moore)
    base = a + b + len(phi.w)
    low = (1 << base) - 1

    def split(m):
        bits = tuple((m >> i) & 1 for i in range(base))
        return bits[:a], bits[a : a + b], bits[a + b :]

    xyw = cache(split)
    slots = cache(lambda m: tuple((m >> (2 * j)) & 3 for j in range(u)))
    R, S = phi.moore_exponents, phi.consumed_exponents

    def unpack(state: int) -> PhiVector:
        x, y, w = xyw(state & low)
        return PhiVector(x, y, slots(state >> base), R, w, S)

    return unpack


@lru_cache(maxsize=64)
def _phi_table(a: int, b: int, R: tuple[int, ...], S: tuple[int, ...]) -> tuple:
    """The move table of phi_moves for a three-spheres, b four-spheres,
    Moore slots of exponents R and consumed pieces of exponents S.

    One entry (position, width mask, moves by value) per source component,
    x first, then y, the Moore slots and w: the moves a component makes
    depend on its value alone.  Each move is (k, c) and takes the state s to
    s ^ k ^ ((s << 1) & c).  c is 0, making the move a constant XOR, except
    when an odd delta is added to an exponent-one slot, whose Z/4 law
    carries the slot's low bit into its high bit.
    """
    X, Y, W = range(a), range(a, a + b), range(a + b, a + b + len(S))
    M = [a + b + len(S) + 2 * j for j in range(len(R))]

    def bits(positions):
        return [(1 << p, 0) for p in positions]

    def slot(j, delta):
        carry = _slot_add(1, R[j], delta) != 1 ^ delta
        return delta << M[j], (2 << M[j]) if carry else 0

    def included():  # i eta^2, the slot value 2, onto every slot
        return [slot(j, 2) for j in range(len(R))]

    table = []
    for i in X:
        # identity shear among three-spheres; bottom inclusion sends eta^2 up
        moves = bits(p for p in X if p != i) + included()
        table.append((i, 1, ((), tuple(moves))))
    for i in Y:
        # identity shear among four-spheres; eta carries eta to eta^2; i eta
        # carries eta to i eta^2
        moves = bits(p for p in Y if p != i) + bits(X) + included()
        table.append((i, 1, ((), tuple(moves))))
    for k, r in enumerate(R):
        by_value = [()]
        for v in (1, 2, 3):
            moves = []
            if v % 2:
                # pinch carries the lift to eta, eta pinch to eta^2, and
                # i_P B(chi) into a consumed piece
                moves += bits(Y) + bits(X) + bits(p for p, s in zip(W, S) if s >= r)
            for j in range(len(R)):
                if v % 2:
                    moves.append(slot(j, 2))  # i eta q, slot onto itself included
                if j != k:
                    delta = _b_transport(v, r, R[j])
                    if delta:
                        moves.append(slot(j, delta))
            by_value.append(tuple(moves))
        table.append((M[k], 3, tuple(by_value)))
    for i, s in zip(W, S):
        # eta q xi-bar down to eta^2, q xi-bar down to eta, i eta q xi-bar,
        # and B(chi) xi-bar onto the lift of a slot of larger exponent
        moves = bits(X) + bits(Y)
        for j, r in enumerate(R):
            moves.append(slot(j, 2))
            if r > s:
                moves.append(slot(j, 1))
        moves += bits(p for p, s2 in zip(W, S) if p != i and s2 >= s)
        table.append((i, 1, ((), tuple(moves))))
    return tuple(table)


def _phi_successors(phi: PhiVector):
    """state -> list of the states one elementary shear away, in table order."""
    table = _phi_table(len(phi.x), len(phi.y), phi.moore_exponents, phi.consumed_exponents)

    def successors(s: int) -> list[int]:
        out = []
        s2 = s << 1
        for position, width, by_value in table:
            out += [s ^ k ^ (s2 & c) for k, c in by_value[(s >> position) & width]]
        return out

    return successors


def phi_moves(phi: PhiVector) -> list[PhiVector]:
    """All states reachable from phi by one elementary shear.

    Each move adds the image of one component under one tabulated map to
    another component: identities among like spheres, eta and eta^2 and
    pinch maps downward in cell structure, bottom inclusions upward into
    Moore slots, B(chi) between Moore slots, and the xi-bar and i_P
    composites in and out of the consumed two-stage pieces.
    """
    return list(map(_phi_unpacker(phi), _phi_successors(phi)(_phi_state(phi))))


def enumerate_phi_orbit(phi: PhiVector, limit: int = 500_000) -> set[PhiVector]:
    """Closure of phi under elementary shears (again a full orbit: every
    move fixes its source component, so repeating it inverts it).  The
    search runs over one int per state."""
    orbit = _closure(_phi_state(phi), _phi_successors(phi), limit)
    return set(map(_phi_unpacker(phi), orbit))
