"""Combinatorics the benchmark derives on its own, without importing symlag.

A type of R^n is a count vector c with c[i-1] = number of values that occur
i times in a point; the same vectors are the cycle types of S_n.  The order
is symlag's: descending in the reversed count vector, so the all-equal type
comes first and the all-distinct type last.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

P61 = (1 << 61) - 1  # Mersenne prime for the modular unisolvence certificate


@lru_cache(maxsize=None)
def types(n: int) -> tuple[tuple[int, ...], ...]:
    out = []

    def rec(size: int, left: int, suffix: tuple[int, ...]) -> None:
        if size == 1:
            out.append((left,) + suffix)
            return
        for c in range(left // size + 1):
            rec(size - 1, left - size * c, (c,) + suffix)

    rec(n, n, ())
    return tuple(sorted(out, key=lambda c: c[::-1], reverse=True))


def blocks(c: tuple[int, ...]) -> list[int]:
    """Equal-value block sizes of a type, ascending."""
    return [size for size, count in enumerate(c, start=1) for _ in range(count)]


def orbit_size(c: tuple[int, ...]) -> int:
    return factorial(len(c)) // prod(factorial(size) ** count for size, count in enumerate(c, start=1))


def class_size(c: tuple[int, ...]) -> int:
    """Size of the conjugacy class of S_n with cycle type c."""
    return factorial(len(c)) // prod(size**count * factorial(count) for size, count in enumerate(c, start=1))


def contingency_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Non-negative integer matrices with these row and column sums.

    This is |S_rows \\ S_n / S_cols| for Young subgroups, i.e. the entry of V
    for the two types, with no n! enumeration and no character table.
    """

    @lru_cache(maxsize=None)
    def fill(i: int, left: tuple[int, ...]) -> int:
        if i == len(rows):
            return int(not any(left))
        total = 0

        def split(j: int, remaining: int, taken: list[int]) -> None:
            nonlocal total
            if j == len(left) - 1:
                if remaining <= left[j]:
                    rest = tuple(a - b for a, b in zip(left, taken + [remaining]))
                    total += fill(i + 1, tuple(sorted(rest)))
                return
            for x in range(min(remaining, left[j]) + 1):
                split(j + 1, remaining - x, taken + [x])

        split(0, rows[i], [])
        return total

    return fill(0, tuple(sorted(cols)))


def v_matrix(n: int) -> list[list[int]]:
    ts = types(n)
    return [[contingency_count(tuple(blocks(a)), tuple(blocks(b))) for b in ts] for a in ts]


@lru_cache(maxsize=None)
def _partitions_at_most(total: int, parts: int) -> int:
    """Partitions of total into at most `parts` parts."""
    if total == 0:
        return 1
    if parts == 0:
        return 0
    return _partitions_at_most(total, parts - 1) + (
        _partitions_at_most(total - parts, parts) if total >= parts else 0
    )


def r_total_degree(n: int, d: int) -> list[int]:
    """r for the basis of all monomials of total degree <= d.

    Under the Young subgroup of a type, a monomial orbit is one multiset of
    exponents per block, so the count is a convolution over blocks of
    partitions with at most block-size parts.
    """
    out = []
    for c in types(n):
        poly = [1] + [0] * d
        for b in blocks(c):
            factor = [_partitions_at_most(s, b) for s in range(d + 1)]
            poly = [sum(poly[k] * factor[s - k] for k in range(s + 1)) for s in range(d + 1)]
        out.append(sum(poly))
    return out


def solve(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Gauss-Jordan over the rationals; the matrix is known to be invertible."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    size = len(m)
    for k in range(size):
        pivot = next(r for r in range(k, size) if m[r][k])
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for r in range(size):
            if r != k and m[r][k]:
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[size] for row in m]


def forced_orbit_vector(n: int, d: int) -> dict[tuple[int, ...], int]:
    """X = V^-1 r for the total-degree-d basis of R^n, as {type: orbit count}."""
    x = solve(v_matrix(n), r_total_degree(n, d))
    if any(v.denominator != 1 or v < 0 for v in x):
        raise ValueError(f"total degree {d} in R^{n} forces no node symmetry")
    return {c: int(v) for c, v in zip(types(n), x) if v}


def total_degree_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e)

    rec((), d)
    return out


def det_mod_p(rows: list[list[int]], p: int = P61) -> int:
    """Determinant modulo a prime by Gaussian elimination."""
    m = [row[:] for row in rows]
    size = len(m)
    det = 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        row_k = m[k]
        for r in range(k + 1, size):
            f = m[r][k] * inv % p
            if f:
                row_r = m[r]
                for j in range(k + 1, size):
                    row_r[j] = (row_r[j] - f * row_k[j]) % p
    return det % p


def vandermonde_mod_p(exponents, points, p: int = P61) -> list[list[int]]:
    """Rows x^e, columns the points (Fraction coordinates), reduced mod p."""
    n = len(points[0])
    top = max(max(e) for e in exponents)
    cols = []
    for point in points:
        powers = []
        for x in point:
            base = x.numerator % p * pow(x.denominator, -1, p) % p
            powers.append([pow(base, k, p) for k in range(top + 1)])
        cols.append(powers)
    return [
        [prod(col[i][e[i]] for i in range(n)) % p for col in cols]
        for e in exponents
    ]
