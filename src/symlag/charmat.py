"""Exact fixed-point tables and the Gram matrix of permutation characters.

For each orbit class there is a permutation character chi: its value on a
permutation is the number of points of that class the permutation fixes.
Collecting those values over conjugacy classes gives the integer table K,
which is the transition matrix from power sums to monomial symmetric
functions: K[sigma][lambda] is the coefficient of m_lambda in p_sigma
(Macdonald, Symmetric Functions and Hall Polynomials, I.6), built by the
recursion p_sigma = p_{sigma_1} * p_{sigma without sigma_1}.  Averaging
products of characters over the group gives the matrix
V[i][j] = <chi_i, chi_j>, which by Burnside's lemma equals the number of
orbits of class-i stabilizers acting on a class-j orbit.

Layout: K has conjugacy classes as rows and orbit-class characters as
columns, both in the descending type order of :mod:`symlag.symcore`.  A
class-i permutation fixes nothing in orbit class j once type_i > type_j
(its long cycles cannot fit into the smaller equality blocks), so K is
lower triangular, det K is the product of its diagonal prod(c_l!), and K
is invertible; hence V = K^T D K / n! (D = diagonal of class sizes) is
symmetric positive definite.  V's indices are both orbit classes,
descending.

The same factorisation solves V X = r: K^T D K X = n! r is a back
substitution with K^T, a division by the class sizes and a forward
substitution with K, each over the nonzero entries of K only.

Everything is arbitrary-precision integer arithmetic; there is no floating
point in this module.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial, prod
from typing import Sequence

from . import _linalg
from .errors import DimensionMismatchError
from .symcore import OrbitType, enumerate_types


def class_size(t: OrbitType) -> int:
    """Size of the conjugacy class with cycle type t: n! / prod(i^c_i * c_i!).

    Summed over all cycle types this recovers n!.

    >>> [class_size(t) for t in enumerate_types(3)]
    [2, 3, 1]
    """
    denom = 1
    for i, c in enumerate(t.counts, start=1):
        denom *= (i**c) * factorial(c)
    return factorial(t.n) // denom


def _parts(t: OrbitType) -> tuple[int, ...]:
    """The parts of t as a partition of n, in descending order."""
    return tuple(size for size in range(t.n, 0, -1) for _ in range(t.counts[size - 1]))


def _monomial_expansion(sigma: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
    """Coefficients of the power sum p_sigma in the monomial basis, keyed by
    descending part tuples.

    p_sigma = p_{sigma_1} * p_{sigma without sigma_1}, and p_k * m_nu adds k
    to one distinct part of nu (or appends k); the coefficient of the result
    is the multiplicity of the new part in it.  ``memo`` holds the expansions
    of the suffixes of sigma already done.
    """
    if not sigma:
        return {(): 1}
    if sigma not in memo:
        k, out = sigma[0], {}
        for nu, coeff in _monomial_expansion(sigma[1:], memo).items():
            for a in {0, *nu}:
                parts = list(nu)
                if a:
                    parts.remove(a)
                kappa = tuple(sorted((*parts, a + k), reverse=True))
                out[kappa] = out.get(kappa, 0) + coeff * kappa.count(a + k)
        memo[sigma] = out
    return memo[sigma]


@dataclass(frozen=True)
class KMatrix:
    """Fixed-point table: entries[i][j] = number of points of orbit class j
    fixed by a permutation of conjugacy class i (both descending)."""

    n: int
    types: tuple[OrbitType, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.types)

    def is_lower_triangular(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.size))

    def determinant(self) -> int:
        """The product of the diagonal, which is det K because K is lower
        triangular; ArithmeticError if it is not."""
        if not self.is_lower_triangular():
            raise ArithmeticError("K is not lower triangular")
        return prod(self.diagonal())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "order": [t.to_json() for t in self.types],
            "entries": [list(row) for row in self.entries],
        }


@dataclass(frozen=True)
class VMatrix:
    """Gram matrix of the permutation characters: entries[i][j] = <chi_i, chi_j>,
    indices in descending type order."""

    n: int
    types: tuple[OrbitType, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.types)

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.size)
            for j in range(i)
        )

    def determinant(self) -> int:
        return _linalg.integer_determinant([list(row) for row in self.entries])

    def leading_principal_minors(self) -> list[int]:
        return _linalg.leading_principal_minors(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "order": [t.to_json() for t in self.types],
            "entries": [list(row) for row in self.entries],
        }


@functools.lru_cache(maxsize=None)
def k_matrix(n: int) -> KMatrix:
    """The fixed-point table K for dimension n; lower triangular with
    diagonal >= 1 by construction of the type order.

    A point of type lambda is fixed by a permutation of cycle type sigma
    exactly when every cycle stays inside one of the point's equal-value
    blocks, so K[sigma][lambda] counts the ways to deal the cycles onto the
    blocks with exact length sums: the coefficient of m_lambda in p_sigma.
    """
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    types = tuple(enumerate_types(n))
    keys = [_parts(t) for t in types]
    memo: dict = {}
    rows = [_monomial_expansion(key, memo) for key in keys]
    entries = tuple(tuple(row.get(key, 0) for key in keys) for row in rows)
    return KMatrix(n=n, types=types, entries=entries)


@functools.lru_cache(maxsize=None)
def v_matrix(n: int) -> VMatrix:
    """V[i][j] = <chi_i, chi_j> = (1/n!) sum_k |A_k| K[k][i] K[k][j].

    Every sum must be a multiple of n!; a remainder means a bug, never bad
    input, and raises ArithmeticError.
    """
    k = k_matrix(n)
    sizes = [class_size(t) for t in k.types]
    total = factorial(n)
    c = k.size
    acc = [[0] * c for _ in range(c)]
    # accumulate the weighted outer products row by row, visiting only the
    # nonzero entries (K is lower triangular and sparse below the diagonal)
    for r in range(c):
        nonzero = [(i, v) for i, v in enumerate(k.entries[r]) if v]
        for a, (i, vi) in enumerate(nonzero):
            weighted = sizes[r] * vi
            row_i = acc[i]
            for j, vj in nonzero[a:]:
                row_i[j] += weighted * vj
    rows = [[0] * c for _ in range(c)]
    for i in range(c):
        for j in range(i, c):
            value, rem = divmod(acc[i][j], total)
            if rem:
                raise ArithmeticError(
                    f"character inner product <chi_{i+1}, chi_{j+1}> = {acc[i][j]}/{total} is not an integer"
                )
            rows[i][j] = rows[j][i] = value
    return VMatrix(n=n, types=k.types, entries=tuple(tuple(row) for row in rows))


def _exact_quotient(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("V is unimodular, yet the solution of V X = r is not integral")
    return q


def v_solve(n: int, r: Sequence[int]) -> list[int]:
    """The integer X with V X = r, through V = K^T D K / n!.

    Solves K^T y = n! r by back substitution, divides y by the class sizes
    D, and solves K X = D^-1 y by forward substitution, visiting only the
    nonzero entries of K.  V is unimodular, so X is integral for integer r,
    and so are K X = D^-1 y and y: every division is exact, and a remainder
    raises ArithmeticError.  Entries of K above the diagonal are never
    read; callers check V X = r against V itself.

    >>> v_solve(3, (2, 4, 6))
    [0, 2, 0]
    """
    k = k_matrix(n)
    if len(r) != k.size:
        raise DimensionMismatchError(f"r has length {len(r)}, V is {k.size} x {k.size}")
    diagonal = k.diagonal()
    below = [[(j, x) for j, x in enumerate(row[:i]) if x] for i, row in enumerate(k.entries)]
    y = [factorial(n) * value for value in r]
    for i in reversed(range(k.size)):
        y[i] = _exact_quotient(y[i], diagonal[i])
        for j, x in below[i]:
            y[j] -= x * y[i]
    solution: list[int] = []
    for i, t in enumerate(k.types):
        z = _exact_quotient(y[i], class_size(t))
        solution.append(_exact_quotient(z - sum(x * solution[j] for j, x in below[i]), diagonal[i]))
    return solution
