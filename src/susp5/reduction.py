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
on small instances.  The searches run over plain hashable states (rows
packed into bitmasks, phi components as tuples) through _h_moves and
_phi_moves, the one move table; legal_moves and phi_moves unpack it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class AttachingDataError(ValueError):
    """Attaching data violates a structural constraint; key names the phi
    component (x, y, z, eps or w) the error is about, if any."""

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
            raise AttachingDataError("rows of unequal length")
        for row in rows:
            # count() compares with ==, as `in (0, 1)` does: True and 1.0 pass
            if row.count(0) + row.count(1) != len(row):
                raise AttachingDataError("matrix entries must be 0 or 1")
        if len(self.moore_exponents) != len(self.moore_rows):
            raise AttachingDataError("one exponent per Moore row required")
        if any(e < 1 for e in self.moore_exponents):
            raise AttachingDataError("Moore exponents must be at least 1")

    @property
    def num_columns(self) -> int:
        for row in self.sphere_rows + self.moore_rows:
            return len(row)
        return 0


def _pack_rows(h: HMatrix) -> tuple[int, ...]:
    """Rows of h as bitmasks, sphere rows first; bit c is column c."""
    return tuple(
        sum(1 << c for c, v in enumerate(row) if v) for row in h.sphere_rows + h.moore_rows
    )


def _unpack_rows(h: HMatrix, rows: tuple[int, ...]) -> HMatrix:
    """The matrix of h's shape whose packed rows are rows."""
    bits = [tuple((m >> c) & 1 for c in range(h.num_columns)) for m in rows]
    d = len(h.sphere_rows)
    return HMatrix(tuple(bits[:d]), tuple(bits[d:]), h.moore_exponents)


def _h_moves(rows: tuple[int, ...], d: int, exps: tuple[int, ...], cols: int) -> list:
    """Packed form of legal_moves: rows[:d] are sphere rows, rows[d:] Moore
    rows of exponents exps, each a bitmask over cols columns."""
    out = []
    n = len(rows)

    def added(target, source):
        return rows[:target] + (rows[target] ^ rows[source],) + rows[target + 1 :]

    for i in range(d):
        for k in range(d):
            if i != k:
                out.append(added(i, k))
    for c in range(cols):
        for c2 in range(cols):
            if c != c2:
                out.append(tuple(r ^ (((r >> c2) & 1) << c) for r in rows))
    for j in range(d, n):
        for k in range(d):
            out.append(added(j, k))
    for j in range(d, n):
        for k in range(d, n):
            if j != k and exps[j - d] >= exps[k - d]:
                out.append(added(k, j))
    return out


def legal_moves(h: HMatrix) -> list[HMatrix]:
    """All states reachable from h by one elementary wedge automorphism.

    Sphere rows add onto each other freely (degree-one shears), columns add
    onto each other in both blocks at once (source basis change), sphere
    rows add onto Moore rows (bottom inclusion carries eta to i eta), and a
    Moore row adds onto another only when its exponent is at least as large
    (B(chi) transports i eta with unit coefficient exactly then).
    """
    moves = _h_moves(_pack_rows(h), len(h.sphere_rows), h.moore_exponents, h.num_columns)
    return [_unpack_rows(h, rows) for rows in moves]


def _closure(start, moves, limit: int) -> set:
    """Breadth-first closure of start under moves(state) -> list of states."""
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in moves(queue.popleft()):
            if nxt not in seen:
                if len(seen) >= limit:
                    raise RuntimeError("orbit exceeds enumeration limit")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def enumerate_orbit(h: HMatrix, limit: int = 200_000) -> set[HMatrix]:
    """Closure of h under legal moves (each move has finite order, so the
    reachable set is the full orbit).  The search runs over packed rows."""
    d, exps, cols = len(h.sphere_rows), h.moore_exponents, h.num_columns
    orbit = _closure(_pack_rows(h), lambda rows: _h_moves(rows, d, exps, cols), limit)
    return {_unpack_rows(h, rows) for rows in orbit}


@dataclass(frozen=True)
class ReductionResult:
    c1: int
    c2: int
    consumed: tuple[int, ...]
    reduced: HMatrix


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
    rows = list(_pack_rows(h))
    d, n = len(h.sphere_rows), len(rows)

    def clear_row(i: int, bit: int) -> None:
        # column c += pivot column, for every other column c of row i
        mask = rows[i] & ~bit
        for k in range(n):
            if rows[k] & bit:
                rows[k] ^= mask

    pivots: list[tuple[int, int]] = []
    pivot_rows: set[int] = set()
    for col in range(h.num_columns):
        bit = 1 << col
        pr = next((i for i in range(d) if i not in pivot_rows and rows[i] & bit), None)
        if pr is None:
            continue
        pivots.append((pr, bit))
        pivot_rows.add(pr)
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
    order = sorted(range(d, n), key=lambda j: (-h.moore_exponents[j - d], j))
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
        reduced=_unpack_rows(h, tuple(rows)),
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
            raise AttachingDataError("sphere and w components must be 0 or 1")
        if slots.count(0) + slots.count(1) + slots.count(2) + slots.count(3) != len(slots):
            raise AttachingDataError("Moore slot values must lie in 0..3")
        if len(self.moore) != len(self.moore_exponents):
            raise AttachingDataError("one exponent per Moore slot required")
        if len(self.w) != len(self.consumed_exponents):
            raise AttachingDataError("one exponent per consumed slot required")
        if any(e < 1 for e in self.moore_exponents + self.consumed_exponents):
            raise AttachingDataError("exponents must be at least 1")


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
            raise AttachingDataError(
                "eta^2 components are not allowed for smooth input", "x"
            )
        if any(_eps_active(phi, i) for i in range(len(phi.moore))):
            raise AttachingDataError(
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


def _phi_moves(state, R: tuple[int, ...], S: tuple[int, ...]) -> list:
    """Packed form of phi_moves on state = (x, y, moore, w), with Moore
    exponents R and consumed exponents S."""
    out = []
    X, Y, M, W = state

    def toggled(vec, i):
        return vec[:i] + (vec[i] ^ 1,) + vec[i + 1 :]

    def x_(i):
        out.append((toggled(X, i), Y, M, W))

    def y_(i):
        out.append((X, toggled(Y, i), M, W))

    def m_(j, delta):
        out.append((X, Y, M[:j] + (_slot_add(M[j], R[j], delta),) + M[j + 1 :], W))

    def w_(j):
        out.append((X, Y, M, toggled(W, j)))

    for k in range(len(X)):
        if not X[k]:
            continue
        for i in range(len(X)):
            if i != k:
                x_(i)  # identity shear among three-spheres
        for j in range(len(M)):
            m_(j, 2)  # bottom inclusion sends eta^2 up
    for k in range(len(Y)):
        if not Y[k]:
            continue
        for i in range(len(Y)):
            if i != k:
                y_(i)  # identity shear among four-spheres
        for i in range(len(X)):
            x_(i)  # eta carries eta to eta^2
        for j in range(len(M)):
            m_(j, 2)  # i eta carries eta to i eta^2
    for k in range(len(M)):
        if M[k] % 2:
            for i in range(len(Y)):
                y_(i)  # pinch carries the lift to eta
            for i in range(len(X)):
                x_(i)  # eta pinch carries the lift to eta^2
            for j in range(len(W)):
                if S[j] >= R[k]:
                    w_(j)  # i_P B(chi) into a consumed piece
        for j in range(len(M)):
            if M[k] % 2:
                m_(j, 2)  # i eta q, slot onto itself included
            if j != k:
                delta = _b_transport(M[k], R[k], R[j])
                if delta:
                    m_(j, delta)
    for k in range(len(W)):
        if not W[k]:
            continue
        for i in range(len(X)):
            x_(i)  # eta q xi-bar route down to eta^2
        for i in range(len(Y)):
            y_(i)  # q xi-bar route down to eta
        for j in range(len(M)):
            m_(j, 2)  # i eta q xi-bar route
            if R[j] > S[k]:
                m_(j, 1)  # B(chi) xi-bar lands on the lift
        for j in range(len(W)):
            if j != k and S[j] >= S[k]:
                w_(j)
    return out


def _phi_state(phi: PhiVector):
    return phi.x, phi.y, phi.moore, phi.w


def _phi_from_state(phi: PhiVector, state) -> PhiVector:
    x, y, moore, w = state
    return PhiVector(x, y, moore, phi.moore_exponents, w, phi.consumed_exponents)


def phi_moves(phi: PhiVector) -> list[PhiVector]:
    """All states reachable from phi by one elementary shear.

    Each move adds the image of one component under one tabulated map to
    another component: identities among like spheres, eta and eta^2 and
    pinch maps downward in cell structure, bottom inclusions upward into
    Moore slots, B(chi) between Moore slots, and the xi-bar and i_P
    composites in and out of the consumed two-stage pieces.
    """
    moves = _phi_moves(_phi_state(phi), phi.moore_exponents, phi.consumed_exponents)
    return [_phi_from_state(phi, state) for state in moves]


def enumerate_phi_orbit(phi: PhiVector, limit: int = 500_000) -> set[PhiVector]:
    """Closure of phi under elementary shears (again a full orbit: every
    move fixes its source component, so repeating it inverts it).  The
    search runs over (x, y, moore, w) tuples."""
    R, S = phi.moore_exponents, phi.consumed_exponents
    orbit = _closure(_phi_state(phi), lambda state: _phi_moves(state, R, S), limit)
    return {_phi_from_state(phi, state) for state in orbit}
