"""Independent oracles for the benchmark's correctness gate.

Nothing here imports susp5.  Expectations come from the descriptor text the
benchmark generated, read by a small parser of its own, and from textbook
statements: H_*(M) of a five-dimensional Poincare complex, the K and KO
closed forms, F2 rank by elimination on packed rows, the dominance rule of
the attachment normal form, and Smith normal form laws checked with
Bareiss determinants.
"""
from __future__ import annotations

import re
from functools import lru_cache

EXPECTED_CHECKS = (
    "cohomotopy_crosscheck",
    "complex_k_balance",
    "homology_shift",
    "real_k_balance",
    "weight_count",
)


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n) if sieve[p]]


PRIMES = _primes_below(2000)


@lru_cache(maxsize=None)
def prime_power_orders(k: int) -> tuple[int, ...]:
    """Split a cyclic order into its prime-power orders.

    Trial division by the primes below 2000 is exact for every order the
    benchmark generates; a cofactor left over is kept as one summand.
    """
    out = []
    for p in PRIMES:
        if k % p == 0:
            q = 1
            while k % p == 0:
                k //= p
                q *= p
            out.append(q)
        if k == 1:
            break
    if k > 1:
        out.append(k)
    return tuple(out)


# -- groups as (free rank, sorted prime-power orders) ---------------------------


def group(rank: int, orders) -> tuple[int, tuple[int, ...]]:
    return rank, tuple(sorted(orders))


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """'Z^2 + Z/4 + Z/2^3' -> (2, (4, 8)); '0' is the trivial group."""
    rank, orders = 0, []
    for term in text.split("+"):
        term = term.strip()
        if term == "0":
            continue
        m = re.fullmatch(r"Z(?:\^(\d+))?|Z/(\d+)(?:\^(\d+))?", term)
        if m is None:
            raise ValueError(f"bad group term {term!r}")
        if m.group(2) is None:
            rank += int(m.group(1) or 1)
        else:
            orders += prime_power_orders(int(m.group(2)) ** int(m.group(3) or 1))
    return group(rank, orders)


def direct_sum(*groups):
    return group(sum(g[0] for g in groups), [q for g in groups for q in g[1]])


def two_primary(g) -> list[int]:
    return [q for q in g[1] if q % 2 == 0]


# -- descriptor text ---------------------------------------------------------------


def read_descriptor(text: str) -> dict:
    """The scalars and the incidence matrix of a descriptor file."""
    scalars, sphere, moore, section = {}, [], [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line
            continue
        key, _, value = line.partition("=")
        if section is None:
            scalars[key.strip()] = value.strip()
        elif section == "[h_matrix]":
            bits = [0 if tok == "0" else 1 for tok in line.rsplit("=", 1)[1].split()]
            (sphere if line.startswith("sphere") else moore).append(bits)
    return {
        "l": int(scalars["l"]),
        "d": int(scalars["d"]),
        "H": parse_group(scalars.get("H", "0")),
        "T": parse_group(scalars.get("T", "0")),
        "sphere_rows": sphere,
        "moore_rows": moore,
        "chain_level": section is not None,
    }


def f2_rank(rows) -> int:
    """Rank over F2 of 0/1 rows, each packed into an int."""
    basis: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        v = int("".join(map(str, row)) or "0", 2)
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def expected_report(desc: dict) -> dict:
    """Homology, K, KO and, at chain level, (c1, c2) of one descriptor.

    c1 is the F2 rank of the sphere block; c2 is what the Moore rows add to
    it, the rank of the stacked matrix minus c1.
    """
    l, d, H, T = desc["l"], desc["d"], desc["H"], desc["T"]
    out = {
        "homology": {
            "0": group(1, ()),
            "1": direct_sum(group(l, ()), H),
            "2": direct_sum(group(d, ()), T),
            "3": direct_sum(group(d, ()), H),
            "4": group(l, ()),
            "5": group(1, ()),
        },
        "k": direct_sum(group(d + l, ()), H, H),
        "ko": group(l, [2] * (l + d + len(two_primary(T)))),
    }
    if desc["chain_level"]:
        c1 = f2_rank(desc["sphere_rows"])
        out["c1"] = c1
        out["c2"] = f2_rank(desc["sphere_rows"] + desc["moore_rows"]) - c1
    return out


def report_failures(report: dict, want: dict) -> list[str]:
    """Every way one structured report disagrees with the oracles."""
    bad = []
    checks = report.get("checks", {})
    if tuple(sorted(checks)) != EXPECTED_CHECKS or any(v != "ok" for v in checks.values()):
        bad.append(f"checks {checks}")
    if report.get("single_suspension") is None:
        bad.append("single suspension missing")
    for deg, g in want["homology"].items():
        got = report["homology"].get(deg, "?")
        if got == "?" or parse_group(got) != g:
            bad.append(f"H_{deg} = {got}")
    for key in ("k", "ko"):
        got = report["invariants"][key]
        if parse_group(got) != want[key]:
            bad.append(f"{key} = {got}")
    for key in ("c1", "c2"):
        if key in want and report["input"][key] != want[key]:
            bad.append(f"{key} = {report['input'][key]}, want {want[key]}")
    return bad


# -- attachment normal form ---------------------------------------------------------


def phi_case(x, y, moore, moore_exps, w, consumed_exps):
    """The attachment case, stated directly from the dominance rule.

    A lifted eta class of least exponent wins (an unconsumed slot before a
    consumed piece at equal exponent, then the lowest slot); else any eta on
    a four-sphere; else any eta^2 on a three-sphere; else an included eta^2
    on a slot of greatest exponent (lowest such slot); else the null case.
    A slot value v carries the lift when v is odd, and the included eta^2
    when v == 2 at exponent one and when v >= 2 above it.
    """
    lifts = [(r, 0, j) for j, (v, r) in enumerate(zip(moore, moore_exps)) if v % 2]
    lifts += [(s, 1, j) for j, (b, s) in enumerate(zip(w, consumed_exps)) if b]
    if lifts:
        r, block, j = min(lifts)
        return ("tilde_eta" if block == 0 else "ip_tilde_eta", j, r)
    if any(y):
        return ("eta", None, None)
    if any(x):
        return ("eta_sq", None, None)
    hits = [
        (r, -j)
        for j, (v, r) in enumerate(zip(moore, moore_exps))
        if (v == 2 if r == 1 else v >= 2)
    ]
    if hits:
        r, neg_j = max(hits)
        return ("i_eta_sq", -neg_j, r)
    return ("null", None, None)


# -- Smith normal form ------------------------------------------------------------


def mat_mul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det_bareiss(a) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row, pivot = m[k], m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def snf_failures(a, d, u, v) -> list[str]:
    """u a v == d, u and v unimodular, d diagonal, nonnegative, dividing."""
    m = len(a)
    n = len(a[0]) if m else 0
    bad = []
    if mat_mul(mat_mul(u, a), v) != d:
        bad.append("u*a*v != d")
    if abs(det_bareiss(u)) != 1 or abs(det_bareiss(v)) != 1:
        bad.append("transform not unimodular")
    if any(d[i][j] for i in range(m) for j in range(n) if i != j):
        bad.append("d not diagonal")
    diag = [d[i][i] for i in range(min(m, n))]
    if any(x < 0 for x in diag):
        bad.append("negative diagonal entry")
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            bad.append(f"divisibility chain broken at {x} | {y}")
            break
    return bad
