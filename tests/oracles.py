"""Independent oracles for the tests: each computes by enumeration, or by a
second derivation, what the library computes by formula.

The enumerating ones walk all n! permutations or a whole orbit, so the
tests call them with small n only.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import prod

from symlag import OrbitType, Permutation, Point, apply_to_point, enumerate_types
from symlag.symcore import canonical_blocks


def inverse(p: Permutation) -> Permutation:
    """The permutation q with q(p(i)) = i."""
    images = [0] * p.n
    for i, v in enumerate(p.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


def cycle_type(p: Permutation) -> OrbitType:
    """Cycle type of a permutation; counts[i-1] = number of i-cycles."""
    counts = [0] * p.n
    for cycle in p.cycles():
        counts[len(cycle) - 1] += 1
    return OrbitType(tuple(counts))


def canonical_point(t: OrbitType) -> tuple[Fraction, ...]:
    """A representative of type t with block values 1, 2, 3, ... in block order.

    Type (1,1,0) gives (1, 2, 2); type (3,0,0) gives (1, 2, 3).
    """
    return tuple(Fraction(value) for value, block in enumerate(canonical_blocks(t), start=1) for _ in block)


def representative_permutation(t: OrbitType) -> Permutation:
    """A permutation of cycle type t, with cycles on consecutive labels."""
    images = list(range(1, t.n + 1))
    for block in canonical_blocks(t):
        for k, label in enumerate(block):
            images[label - 1] = block[(k + 1) % len(block)]
    return Permutation(tuple(images))


def unique_arrangements(values) -> list[tuple]:
    """All distinct orderings of a multiset, in lexicographic order."""
    return sorted(set(itertools.permutations(values)))


def expand_orbit(x: Point) -> set[Point]:
    """All distinct coordinate permutations of x."""
    return {Point(coords) for coords in itertools.permutations(x.coords)}


def stabilizer_elements(t: OrbitType) -> list[Permutation]:
    """All of stab(canonical_point(t)), by filtering the n! permutations."""
    x = canonical_point(t)
    group = (Permutation(images) for images in itertools.permutations(range(1, t.n + 1)))
    return [p for p in group if apply_to_point(p, x) == x]


def fixed_point_count(orbit: OrbitType, sigma: OrbitType) -> int:
    """Points of the type-``orbit`` orbit fixed by one permutation of cycle
    type ``sigma``, counted one by one: K[sigma][orbit]."""
    rep = representative_permutation(sigma)
    return sum(apply_to_point(rep, y) == y for y in unique_arrangements(canonical_point(orbit)))


def v_entry_burnside(i: int, j: int, n: int) -> int:
    """V[i][j] (1-based ranks) as the number of orbits of the class-i
    stabilizer on the explicit class-j orbit, by Burnside's lemma."""
    types = enumerate_types(n)
    stab = stabilizer_elements(types[i - 1])
    orbit = unique_arrangements(canonical_point(types[j - 1]))
    count = Fraction(sum(apply_to_point(s, y) == y for s in stab for y in orbit), len(stab))
    assert count.denominator == 1, "Burnside average is not an integer"
    return int(count)


def _stabilizer_orbit_count(items, t: OrbitType) -> int:
    stab = stabilizer_elements(t)
    return len({frozenset(x.permuted(g) for g in stab) for x in items})


def subgroup_orbit_count(s, t: OrbitType) -> int:
    """Orbits of a node set under stab(canonical_point(t))."""
    return _stabilizer_orbit_count(s.points, t)


def basis_orbit_count_under_stabilizer(b, t: OrbitType) -> int:
    """Orbits of a basis set under stab(canonical_point(t))."""
    return _stabilizer_orbit_count(b.functions, t)


# -- a basis function at a point, term by term -----------------------------------

def evaluate(f, point: Point) -> Fraction:
    """f(point) in Fraction arithmetic: the oracle for the integer
    evaluation behind vandermonde_matrix."""
    return sum(
        (c * prod(x**e for x, e in zip(point.coords, exponents, strict=True)) for exponents, c in f.terms),
        Fraction(0),
    )


# -- V without n!: the Gram matrix of the Kostka numbers ------------------------

def _parts(t: OrbitType) -> tuple[int, ...]:
    return tuple(size for size in range(t.n, 0, -1) for _ in range(t.counts[size - 1]))


def _inner_shapes(shape: tuple[int, ...], k: int):
    """The shapes rho with shape / rho a horizontal strip of k cells:
    shape_{i+1} <= rho_i <= shape_i for every row i."""
    below = shape[1:] + (0,)
    for rho in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(below, shape))):
        if sum(rho) == sum(shape) - k:
            yield tuple(part for part in rho if part)


@functools.lru_cache(maxsize=None)
def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard tableaux of the given shape and content.  The cells that
    hold the largest entry form a horizontal strip of content[-1] cells
    (Macdonald, Symmetric Functions and Hall Polynomials, I.6)."""
    if not content:
        return int(not shape)
    return sum(kostka(rho, content[:-1]) for rho in _inner_shapes(shape, content[-1]))


def kostka_matrix(n: int) -> list[list[int]]:
    """L[a][b] = K_{lambda_a, lambda_b}, both indices in the descending type order."""
    parts = [_parts(t) for t in enumerate_types(n)]
    return [[kostka(shape, content) for content in parts] for shape in parts]


def v_kostka_gram(n: int) -> list[list[int]]:
    """V = L^T L: V[a][b] = sum over shapes nu of K_{nu, lambda_a} K_{nu, lambda_b} (Young's rule)."""
    rows = kostka_matrix(n)
    c = len(rows)
    return [[sum(row[a] * row[b] for row in rows) for b in range(c)] for a in range(c)]


# -- linear algebra over the rationals, by plain Gaussian elimination ------------

def _eliminated(rows, rhs=None) -> tuple[list[list[Fraction]], int]:
    """Upper triangular form of [rows | rhs] in Fractions by row swaps and
    row operations, and the sign of the swaps; stops at a column with no
    pivot, leaving a zero on the diagonal."""
    m = [[Fraction(x) for x in row] for row in rows]
    if rhs is not None:
        m = [[*row, Fraction(b)] for row, b in zip(m, rhs)]
    sign = 1
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if p is None:
            break
        if p != c:
            m[c], m[p], sign = m[p], m[c], -sign
        for row in m[c + 1:]:
            f = row[c] / m[c][c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], m[c][c:])]
    return m, sign


def fraction_determinant(rows) -> Fraction:
    """Determinant of a square rational matrix: the product of the pivots."""
    m, sign = _eliminated(rows)
    det = Fraction(sign)
    for i, row in enumerate(m):
        det *= row[i]
    return det


def fraction_solve(rows, rhs) -> list[Fraction]:
    """The solution of the invertible rational system A x = b, by back substitution."""
    m, _ = _eliminated(rows, rhs)
    n = len(m)
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))) / m[k][k]
    return x
