"""Exact fixed-point tables and the Gram matrix of permutation characters.

For each orbit class there is a permutation character chi: its value on a
permutation is the number of points of that class the permutation fixes.
Collecting those values over conjugacy classes gives the integer table K,
which is the transition matrix from power sums to monomial symmetric
functions: K[sigma][lambda] is the coefficient of m_lambda in p_sigma
(Macdonald, Symmetric Functions and Hall Polynomials, I.6), built by the
recursion p_sigma = p_{sigma_1} * p_{sigma without sigma_1} on partitions
packed as integers: nu is the sum of (n+1)**part over its parts, so each
base-(n+1) digit counts the parts of one size.  Averaging products of
characters over the group gives the matrix V[i][j] = <chi_i, chi_j>,
which by Burnside's lemma equals the number of orbits of class-i
stabilizers acting on a class-j orbit.

Layout: K has conjugacy classes as rows and orbit-class characters as
columns, both in the descending type order of :mod:`symlag.symcore`.  A
class-i permutation fixes nothing in orbit class j once type_i > type_j
(its long cycles cannot fit into the smaller equality blocks), so K is
lower triangular, det K is the product of its diagonal prod(c_l!), and K
is invertible.  V = K^T D K / n! (D = diagonal of class sizes), indexed by
orbit classes, descending, is also U^T U for the unit upper triangular
Kostka matrix U (Macdonald I.6); finding U from V without division
certifies that every leading minor of V is 1.

The same factorisation solves V X = r without building V: K^T D K X = n! r
is a back substitution with K^T, a division by the class sizes and a
forward substitution with K, over the nonzero entries of K only, and
K^T (D (K X)) == n! r certifies X.

Everything is arbitrary-precision integer arithmetic; there is no floating
point in this module.
"""
from __future__ import annotations

import functools
from math import factorial, prod
from operator import mul
from typing import NamedTuple, Sequence

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


class _TypeTable(NamedTuple):
    """An integer table whose rows and columns are the types of R^n, descending."""

    n: int
    types: tuple[OrbitType, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.types)


class KMatrix(_TypeTable):
    """Fixed-point table: entries[i][j] = number of points of orbit class j
    fixed by a permutation of conjugacy class i (both descending)."""

    __slots__ = ()

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


class VMatrix(_TypeTable):
    """Gram matrix of the permutation characters: entries[i][j] = <chi_i, chi_j>,
    indices in descending type order."""

    __slots__ = ()

    def determinant(self) -> int:
        return self.leading_principal_minors()[-1]

    def leading_principal_minors(self) -> list[int]:
        """All 1, since V = U^T U (see _unit_factor); ArithmeticError otherwise."""
        _unit_factor(self.entries)
        return [1] * self.size


def _unit_factor(entries: Sequence[Sequence[int]]) -> list[list[int]]:
    """The unit upper triangular U with U^T U = V, found without division.

    U[k][j] = V[k][j] - sum over i < k of U[i][k] U[i][j], for j >= k.  This
    reads V's upper triangle only, so ArithmeticError unless V is symmetric
    and every U[k][k] comes out 1.  U, being unique, is the Kostka matrix.

    >>> _unit_factor(((1, 1, 1), (1, 2, 3), (1, 3, 6)))
    [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
    """
    if list(zip(*entries)) != list(map(tuple, entries)):
        raise ArithmeticError("V is not symmetric")
    columns: list[list[int]] = [[] for _ in entries]  # U[0][j] .. U[k-1][j] as row k starts
    for k, row in enumerate(entries):
        tail = [row[j] - sum(map(mul, columns[k], columns[j])) for j in range(k, len(row))]
        if tail[0] != 1:
            raise ArithmeticError(f"V's unit factor has {tail[0]}, not 1, at diagonal entry {k + 1}")
        for j, x in enumerate(tail, k):
            columns[j].append(x)
    return [[0] * k + [columns[j][k] for j in range(k, len(entries))] for k in range(len(entries))]


@functools.lru_cache(maxsize=None)
def k_matrix(n: int) -> KMatrix:
    """The fixed-point table K for dimension n; lower triangular with
    diagonal >= 1 by construction of the type order.

    A point of type lambda is fixed by a permutation of cycle type sigma
    exactly when every cycle stays inside one of the point's equal-value
    blocks, so K[sigma][lambda] counts the ways to deal the cycles onto the
    blocks with exact length sums: the coefficient of m_lambda in p_sigma.

    Each row expands p_sigma = p_k * p_{sigma without k}, k the largest
    part, over partitions packed as integers: nu is the sum of B**part over
    its parts, B = n + 1, so digit a counts the parts of size a and never
    carries.  p_k * m_nu adds k to one distinct part a of nu, giving the
    key nu - B**a + B**(a+k), or appends k as a new part (a = 0, where
    power[0] = 0 makes the key nu + B**k); the coefficient is the new
    key's digit a + k, the multiplicity of the new part.  The expansions of
    the products of the smaller parts are shared between rows, and the
    packed key of a type maps it to its column.
    """
    types = tuple(enumerate_types(n))
    base = n + 1
    power = [0] + [base**a for a in range(1, n + 1)]
    distinct: dict[int, tuple[int, ...]] = {}  # nu -> 0 and the distinct parts of nu
    memo: dict[int, dict[int, int]] = {0: {0: 1}}  # packed sigma -> p_sigma by packed nu
    keys, expansions = [], []
    for t in types:
        sigma, expansion = 0, memo[0]
        for k in [size for size, c in enumerate(t.counts, start=1) for _ in range(c)]:
            sigma += power[k]
            if sigma not in memo:
                out: dict[int, int] = {}
                for nu, coeff in expansion.items():
                    if nu not in distinct:
                        distinct[nu] = (0, *(a for a in range(1, n + 1) if nu // power[a] % base))
                    for a in distinct[nu]:
                        key = nu - power[a] + power[a + k]
                        out[key] = out.get(key, 0) + coeff * (key // power[a + k] % base)
                memo[sigma] = out
            expansion = memo[sigma]
        keys.append(sigma)
        expansions.append(expansion)
    column = {key: j for j, key in enumerate(keys)}
    entries = []
    for expansion in expansions:
        row = [0] * len(types)
        for key, coeff in expansion.items():
            row[column[key]] = coeff
        entries.append(tuple(row))
    return KMatrix(n=n, types=types, entries=tuple(entries))


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
    """The integer X with V X = r, through V = K^T D K / n!, never building V.

    Solves K^T y = n! r by back substitution, divides y by the class sizes
    D, and solves K X = D^-1 y by forward substitution, over the nonzero
    entries of K on and below its diagonal.  V is unimodular, so X is
    integral for integer r, and so are K X = D^-1 y and y: every division
    is exact.  K^T (D (K X)) == n! r, over every nonzero entry of K, then
    certifies X.  A remainder or a failed certificate raises ArithmeticError.

    >>> v_solve(3, (2, 4, 6))
    [0, 2, 0]
    """
    k = k_matrix(n)
    if len(r) != k.size:
        raise DimensionMismatchError(f"r has length {len(r)}, V is {k.size} x {k.size}")
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in k.entries]
    diagonal = k.diagonal()
    sizes = [class_size(t) for t in k.types]
    target = [factorial(n) * value for value in r]
    y = list(target)
    for i in reversed(range(k.size)):
        y[i] = _exact_quotient(y[i], diagonal[i])
        for j, x in nonzero[i]:
            if j < i:
                y[j] -= x * y[i]
    solution: list[int] = []
    for i, row in enumerate(nonzero):
        z = _exact_quotient(y[i], sizes[i]) - sum(x * solution[j] for j, x in row if j < i)
        solution.append(_exact_quotient(z, diagonal[i]))
    check = [0] * k.size
    for size, row in zip(sizes, nonzero):
        weighted = size * sum(x * solution[j] for j, x in row)
        for j, x in row:
            check[j] += x * weighted
    if check != target:
        raise ArithmeticError("the X solved through K does not satisfy K^T D K X = n! r")
    return solution
