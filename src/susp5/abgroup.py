"""Finitely generated abelian groups in canonical form, plus exact integer
Smith normal form.

Groups are stored as a free rank together with a tuple of prime-power cyclic
summands.  By the structure theorem every finitely generated abelian group is
Z^r + sum of Z/p^e with the multiset of (p, e) unique, so equality of the
canonical form is isomorphism and nothing is ever compared "up to extension".
Every constructor returns the one group of its canonical form in this
process (see _canonical), so each distinct group is validated and rendered
once; FgAbGroup(...) itself still builds and validates a fresh object.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

Matrix = list[list[int]]

# Torsion orders and free ranks in group literals must lie below this.
ORDER_BOUND = 2**64


class OrderRangeError(ValueError):
    """A group literal names a torsion order or free rank of ORDER_BOUND or more."""


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: list[list[int]] | tuple) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix by unimodular transformations.

    Returns (d, u, v) with u * a * v == d, u and v unimodular, all diagonal
    entries of d nonnegative and d[0][0] | d[1][1] | ... .  Arbitrary
    precision, any shape, empty matrices included.

    Each step moves the smallest nonzero entry of the trailing submatrix to
    the pivot.  Row moves clear the pivot column, each quotient rounded to
    the nearest integer so that a remainder is at most half the pivot;
    while one remains, the pivot is picked again.  Then column moves clear
    the pivot row, and as the column is clear below the pivot they change
    the pivot row of d alone.  Rows of d and u change as whole lists; v is
    accumulated by its columns, so a column move on v is one list update
    too, and v is transposed once at the end.  d is unique; u and v depend
    on the order of moves, and any order meets the contract above.

    >>> d, u, v = smith_normal_form([[2, 4], [6, 8]])
    >>> (d[0][0], d[1][1])
    (2, 4)
    >>> smith_normal_form([[6]])[0]
    [[6]]
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    d = [list(map(int, row)) for row in a]
    u = _identity(m)
    vt = _identity(n)  # row j is column j of v

    t = 0
    while t < min(m, n):
        # smallest nonzero pivot in the trailing submatrix, first in row order
        flat = [abs(x) for row in d[t:] for x in row[t:]]
        best = min(filter(None, flat), default=0)
        if not best:
            break
        pi, pj = divmod(flat.index(best), n - t)
        d[t], d[t + pi] = d[t + pi], d[t]
        u[t], u[t + pi] = u[t + pi], u[t]
        if pj:
            for row in d[t:]:  # rows above t are zero in these columns
                row[t], row[t + pj] = row[t + pj], row[t]
            vt[t], vt[t + pj] = vt[t + pj], vt[t]

        # row_i -= q * row_t, mirrored in u so that u*a*v == d stays exact;
        # q is the nearest integer to d[i][t] / p
        top, ut, p = d[t], u[t], d[t][t]
        dirty = False
        for i in range(t + 1, m):
            q = (2 * d[i][t] + p) // (2 * p)
            if q:
                d[i] = row = [x - q * y for x, y in zip(d[i], top)]
                u[i] = [x - q * y for x, y in zip(u[i], ut)]
                dirty = dirty or row[t]
        if dirty:
            continue  # a remainder of at most |p| / 2 is left: pick again
        # column_j -= q * column_t: the column is clear below the pivot, so
        # on d this changes row t alone
        for j in range(t + 1, n):
            q = (2 * top[j] + p) // (2 * p)
            if q:
                top[j] -= q * p
                vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
        if any(top[t + 1 :]):
            continue

        # pivot must divide the rest of the submatrix for the chain d1|d2|...
        # (a unit pivot always does)
        if best > 1:
            bad = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
            if bad is not None:
                # pull the offending row up, then re-reduce
                d[t] = [x + y for x, y in zip(top, d[bad])]
                u[t] = [x + y for x, y in zip(ut, u[bad])]
                continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return d, u, [list(col) for col in zip(*vt)]


# Trial division runs up to this bound; a cofactor with no factor up to it
# that is still above its square goes to Miller-Rabin and Pollard-Brent rho.
_TRIAL_BOUND = 4096
# Miller-Rabin over the primes 2..37 as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); larger cofactors keep trial
# division, so the factorisation stays exact at every size.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 37 < n < _MR_EXACT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper divisor of the odd composite n (Brent, BIT 1980).

    Walks y -> y^2 + c mod n from y = 2, batching |x - y| products into one
    gcd per 128 steps; c = 1, 2, ... until the gcd is proper, so the result
    is deterministic.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no divisor found for {n}")


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors of n, with repeats, for n without factors up to
    _TRIAL_BOUND and below _MR_EXACT."""
    if _is_prime(n):
        return [n]
    d = _brent_factor(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


@functools.lru_cache(maxsize=4096)
def _prime_power_factors(k: int) -> tuple[tuple[int, int], ...]:
    """Factor k >= 2 into ((p, e), ...) with p ascending.

    Trial division up to _TRIAL_BOUND; a cofactor that is left above that
    bound's square and below _MR_EXACT is split by Miller-Rabin and
    Pollard-Brent rho instead.  Memoised: a report validates the same few
    hundred primes and orders tens of thousands of times, and the result is
    a tuple, so callers cannot change what the cache holds.

    >>> _prime_power_factors(100000000000000003)
    ((100000000000000003, 1),)
    >>> _prime_power_factors(2 * 2147483647 * 2147483629)
    ((2, 1), (2147483629, 1), (2147483647, 1))
    """
    bound = _TRIAL_BOUND if k < _MR_EXACT else k
    out = []
    rest = k
    p = 2
    stop = min(math.isqrt(rest), bound)
    while p <= stop:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
            stop = min(math.isqrt(rest), bound)
        p += 1 if p == 2 else 2
    if p * p <= rest:  # stopped at the trial bound
        primes = _large_prime_factors(rest)
        out.extend((q, primes.count(q)) for q in sorted(set(primes)))
    elif rest > 1:
        out.append((rest, 1))
    return tuple(out)


def int_below(digits: str, bound: int) -> int | None:
    """The value of an ASCII digit string if it is below bound, else None.

    The digit count settles long strings first, so int() never sees more
    digits than bound has and a literal of any length costs no big integer.

    >>> int_below("0041", 64), int_below("64", 64), int_below("9" * 5000, 2**64)
    (41, None, None)
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(bound)):
        return None
    n = int(digits)
    return n if n < bound else None


def _literal_order(base_digits: str, exp_digits: str) -> int:
    """base ** exp from a literal's digits, or ORDER_BOUND if it would be at
    least that.  The digit counts settle the large cases first, so a literal
    like Z/2^99999999999 never forms its power.

    >>> _literal_order("2", "63") == 2**63, _literal_order("2", "64") == ORDER_BOUND
    (True, True)
    """
    base = int_below(base_digits, ORDER_BOUND)
    base = ORDER_BOUND if base is None else base
    exp = int_below(exp_digits, 64)
    exp = 64 if exp is None else exp
    if base >= 2 and exp >= 64:
        return ORDER_BOUND
    return min(base**exp, ORDER_BOUND)


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in canonical primary form.

    free_rank is the rank of the free part; torsion is a tuple of
    (prime, exponent) pairs sorted ascending, one per cyclic summand Z/p^e.

    >>> FgAbGroup.from_orders([6])
    FgAbGroup(free_rank=0, torsion=((2, 1), (3, 1)))
    >>> str(FgAbGroup.from_orders([0, 0, 4]))
    'Z^2 + Z/4'
    """

    free_rank: int = 0
    torsion: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        if list(self.torsion) != sorted(self.torsion):
            raise ValueError("torsion summands must be sorted by (prime, exponent)")
        for p, e in dict.fromkeys(self.torsion):  # each distinct summand once
            if e < 1 or p < 2 or _prime_power_factors(p) != ((p, 1),):
                raise ValueError(f"not a prime power summand: ({p}, {e})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return _canonical(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return _canonical(rank, ())

    @classmethod
    def cyclic(cls, k: int) -> "FgAbGroup":
        """Z/k for k >= 1 (k == 0 means Z, matching presentation conventions)."""
        return cls.from_orders([k])

    @classmethod
    def from_orders(cls, orders) -> "FgAbGroup":
        """Build from cyclic orders; 0 denotes a free Z summand, 1 is trivial."""
        rank = 0
        tors: list[tuple[int, int]] = []
        for k in orders:
            if k < 0:
                raise ValueError("orders must be nonnegative")
            if k == 0:
                rank += 1
            elif k > 1:
                tors.extend(_prime_power_factors(k))
        return _canonical(rank, tuple(sorted(tors)))

    @classmethod
    def from_primary(cls, free_rank: int, pairs) -> "FgAbGroup":
        return _canonical(free_rank, tuple(sorted(tuple(t) for t in pairs)))

    _TERM = re.compile(
        r"^(?:0|Z(?:\^(?P<rank>[0-9]+))?|Z/(?P<base>[0-9]+)(?:\^(?P<exp>[0-9]+))?)$"
    )

    @classmethod
    def from_string(cls, text: str) -> "FgAbGroup":
        """Parse group literals like '0', 'Z', 'Z^2 + Z/4 + Z/3', 'Z/2^3'.

        >>> FgAbGroup.from_string("Z^2 + Z/2^3") == FgAbGroup(2, ((2, 3),))
        True
        """
        rank = 0
        tors: list[tuple[int, int]] = []
        for raw in text.split("+"):
            term = raw.strip()
            if not term:
                raise ValueError(f"empty term in group literal: {text!r}")
            m = cls._TERM.match(term)
            if m is None:
                raise ValueError(f"bad group term: {term!r}")
            if term == "0":
                continue
            if m.group("base") is not None:
                k = _literal_order(m.group("base"), m.group("exp") or "1")
                if k >= ORDER_BOUND:
                    raise OrderRangeError(f"torsion order {term!r} is not below 2^64")
                if k < 2:
                    raise ValueError(f"bad torsion order in {term!r}")
                tors.extend(_prime_power_factors(k))
            else:
                n = int_below(m.group("rank") or "1", ORDER_BOUND)
                if n is None:
                    raise OrderRangeError(f"free rank of {term!r} is not below 2^64")
                rank += n  # a count: Z^n costs no list of n
        return _canonical(rank, tuple(sorted(tors)))

    # -- structure ---------------------------------------------------------

    def primary_exponents(self, p: int) -> tuple[int, ...]:
        """Exponents e of the Z/p^e summands, in canonical (ascending) order."""
        return tuple(e for q, e in self.torsion if q == p)

    def drop_torsion_summands(self, indices) -> "FgAbGroup":
        """Remove the torsion summands at the given canonical indices."""
        drop = set(indices)
        bad = drop - set(range(len(self.torsion)))
        if bad:
            raise IndexError(f"no torsion summand at {sorted(bad)}")
        kept = tuple(t for i, t in enumerate(self.torsion) if i not in drop)
        return _canonical(self.free_rank, kept)

    # -- rendering ---------------------------------------------------------

    _text = None  # render()'s text once computed; not a field, so not compared

    def render(self) -> str:
        """The group as text, e.g. 'Z^2 + Z/4'; computed once per object."""
        if self._text is None:
            parts: list[str] = []
            if self.free_rank == 1:
                parts.append("Z")
            elif self.free_rank > 1:
                parts.append(f"Z^{self.free_rank}")
            parts.extend(f"Z/{p**e}" for p, e in self.torsion)
            object.__setattr__(self, "_text", " + ".join(parts) if parts else "0")
        return self._text

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=8192)
def _canonical(free_rank: int, torsion: tuple[tuple[int, int], ...], /) -> FgAbGroup:
    """The one group of canonical form (free_rank, torsion) in this process.

    Every constructor above and below returns through here, so a batch of
    reports validates and renders each distinct group once.  The validating
    FgAbGroup(...) builds each entry; an invalid form raises on every call,
    since errors are not cached.
    """
    return FgAbGroup(free_rank, torsion)


def direct_sum_counted(terms) -> FgAbGroup:
    """Direct sum of n copies of g for each (g, n) in terms.

    >>> direct_sum_counted([(FgAbGroup.from_orders([0, 2]), 3)])
    FgAbGroup(free_rank=3, torsion=((2, 1), (2, 1), (2, 1)))
    """
    rank = 0
    tors: list[tuple[int, int]] = []
    for g, n in terms:
        rank += g.free_rank * n
        tors += g.torsion * n
    tors.sort()
    return _canonical(rank, tuple(tors))


def direct_sum(*groups: FgAbGroup) -> FgAbGroup:
    """Direct sum of any number of groups (empty sum is the trivial group)."""
    return direct_sum_counted((g, 1) for g in groups)
