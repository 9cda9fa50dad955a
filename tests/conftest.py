"""Shared fixtures: the degree-2 example in R^3 and random symmetric sets."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from symlag import (
    BasisFunction,
    Point,
    enumerate_types,
    orbit_size,
    validate_symmetric,
    validate_symmetric_basis,
)
from symlag.symcore import canonical_blocks

from oracles import expand_orbit

# the symmetric quadratic basis {x^2, y^2, z^2, xy, yz, zx} of R^3
QUADRATIC_EXPONENTS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)]


def quadratic_basis():
    return validate_symmetric_basis([BasisFunction.monomial(e) for e in QUADRATIC_EXPONENTS])


@pytest.fixture
def basis38():
    return quadratic_basis()


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
    return validate_symmetric(list(expand_orbit(Point.of(p, q, r))))


def rand_fraction(rng: random.Random, lo: int = -30, hi: int = 30, dmax: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def distinct_fractions(rng: random.Random, count: int, **kw) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < count:
        values.add(rand_fraction(rng, **kw))
    return sorted(values)


def random_point_of_type(rng: random.Random, t) -> Point:
    """A random point whose equality pattern realizes the orbit type t."""
    blocks = canonical_blocks(t)
    values = distinct_fractions(rng, len(blocks))
    rng.shuffle(values)
    coords = [None] * t.n
    for value, block in zip(values, blocks):
        for pos in block:
            coords[pos - 1] = value
    return Point(tuple(coords))


def random_symmetric_set(rng: random.Random, vector, n: int):
    """A validated symmetric set with the requested orbit vector."""
    types = enumerate_types(n)
    expected = sum(count * orbit_size(t) for t, count in zip(types, vector))
    while True:
        points: set[Point] = set()
        for t, count in zip(types, vector):
            for _ in range(count):
                points |= expand_orbit(random_point_of_type(rng, t))
        if len(points) == expected:
            return validate_symmetric(points, n=n)
