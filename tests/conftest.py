"""Shared fixtures: the degree-2 example in R^3 and random symmetric sets.

The builders walk neither the (d + 1)^n exponent vectors of a total-degree
basis nor the n! permutations of a point, so they reach R^24: exponents
come part by part, and orbits as the arrangements of a multiset.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from symlag import (
    BasisFunction,
    Point,
    enumerate_types,
    k_matrix,
    orbit_size,
    r_vector,
    solve_constraints,
    validate_symmetric,
    validate_symmetric_basis,
)
from symlag.symcore import canonical_blocks

# the symmetric quadratic basis {x^2, y^2, z^2, xy, yz, zx} of R^3
QUADRATIC_EXPONENTS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)]


def quadratic_basis():
    return validate_symmetric_basis([BasisFunction.monomial(e) for e in QUADRATIC_EXPONENTS])


@pytest.fixture
def basis38():
    return quadratic_basis()


# total degree d in R^n, kept to at most 35 functions
TOTAL_DEGREE = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 2}


def total_degree_exponents(n, d):
    """The exponent vectors of total degree at most d in R^n, in
    lexicographic order, one coordinate at a time."""
    if n == 0:
        return [()]
    return [(e, *rest) for e in range(d + 1) for rest in total_degree_exponents(n - 1, d - e)]


def arrangements(values) -> list[tuple]:
    """Every distinct arrangement of the multiset ``values``, once each, in
    lexicographic order: the orbit of a point, one coordinate at a time."""
    if not values:
        return [()]
    out = []
    for v in sorted(set(values)):
        rest = list(values)
        rest.remove(v)
        out += [(v, *tail) for tail in arrangements(rest)]
    return out


def forced_vector(functions):
    """The orbit vector V X = r forces for a symmetric set of functions;
    solve_constraints reads only the dimension of the table it is given."""
    basis = validate_symmetric_basis(functions)
    return solve_constraints(k_matrix(basis.n), r_vector(basis)).integer_solution()


def case3_points(a, b, c, d) -> list[Point]:
    """Two pair-pattern orbits: {(a,a,b),...} and {(c,c,d),...}."""
    return [
        Point.of(a, a, b), Point.of(a, b, a), Point.of(b, a, a),
        Point.of(c, c, d), Point.of(c, d, c), Point.of(d, c, c),
    ]


def case3_set(a, b, c, d):
    return validate_symmetric(case3_points(a, b, c, d))


def case1_set(values):
    """Six one-point diagonal orbits."""
    return validate_symmetric([Point.of(v, v, v) for v in values])


def case2_set(a1, a2, a3, b, c):
    """Three diagonal points plus one pair-pattern orbit."""
    return validate_symmetric(
        [Point.of(a1, a1, a1), Point.of(a2, a2, a2), Point.of(a3, a3, a3)]
        + [Point.of(b, b, c), Point.of(b, c, b), Point.of(c, b, b)]
    )


def case4_set(p, q, r):
    """One free orbit: all six arrangements of three distinct values."""
    return validate_symmetric(arrangements(Point.of(p, q, r).coords))


def rand_fraction(rng: random.Random, lo: int = -30, hi: int = 30, dmax: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def distinct_fractions(rng: random.Random, count: int, **kw) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < count:
        values.add(rand_fraction(rng, **kw))
    return sorted(values)


def _point_on_blocks(t, values) -> Point:
    """The point whose k-th canonical block of type t holds values[k]."""
    coords = [None] * t.n
    for value, block in zip(values, canonical_blocks(t)):
        for pos in block:
            coords[pos - 1] = value
    return Point(tuple(coords))


def random_point_of_type(rng: random.Random, t) -> Point:
    """A random point whose equality pattern realizes the orbit type t."""
    values = distinct_fractions(rng, len(canonical_blocks(t)))
    rng.shuffle(values)
    return _point_on_blocks(t, values)


def random_symmetric_set(rng: random.Random, vector, n: int):
    """A validated symmetric set with the requested orbit vector."""
    types = enumerate_types(n)
    expected = sum(count * orbit_size(t) for t, count in zip(types, vector))
    while True:
        points: set[tuple] = set()
        for t, count in zip(types, vector):
            for _ in range(count):
                points.update(arrangements(random_point_of_type(rng, t).coords))
        if len(points) == expected:
            return validate_symmetric(points, n=n)


def hyperplane_set(rng: random.Random, vector, n: int, d: int):
    """A validated symmetric set with the requested orbit vector whose k-th
    orbit lies on the plane x1 + ... + xn = s_(k mod d), for d random sums.

    The product of the d plane forms has total degree d and vanishes on
    every node, so the set is singular for the total-degree-d basis.  Each
    orbit's first block takes the value that puts it on its plane; the
    all-equal orbits come one after another, so while there are at most d
    of them each has a plane of its own.
    """
    types = enumerate_types(n)
    orbits = [t for t, count in zip(types, vector) for _ in range(count)]
    expected = sum(orbit_size(t) for t in orbits)
    while True:
        sums = distinct_fractions(rng, d)
        points: set[tuple] = set()
        for k, t in enumerate(orbits):
            sizes = [len(block) for block in canonical_blocks(t)]
            values = distinct_fractions(rng, len(sizes))
            rng.shuffle(values)
            values[0] = (sums[k % d] - sum(s * v for s, v in zip(sizes[1:], values[1:]))) / sizes[0]
            points.update(arrangements(_point_on_blocks(t, values).coords))
        # a solved value that meets another value shrinks an orbit or merges two
        if len(points) == expected:
            return validate_symmetric(points, n=n)


def forced_node_set(rng: random.Random, functions):
    """A random symmetric node set with the orbit vector V X = r forces."""
    return random_symmetric_set(rng, forced_vector(functions), functions[0].n)
