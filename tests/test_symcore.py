"""Core permutation/type machinery against independent brute-force oracles."""
import doctest
import importlib
import itertools
import pkgutil
import random
from fractions import Fraction
from math import factorial

import pytest

import symlag
from symlag import (
    OrbitType,
    Permutation,
    apply_to_point,
    enumerate_types,
    orbit_size,
    stabilizer_generators,
    stabilizer_order,
    type_rank,
)
from symlag.errors import DimensionMismatchError

from oracles import canonical_point, cycle_type, inverse, stabilizer_elements


def brute_type_count(n: int) -> int:
    """Independent oracle: count Diophantine solutions by raw product search."""
    return sum(
        1
        for tup in itertools.product(range(n + 1), repeat=n)
        if sum(i * c for i, c in enumerate(tup, start=1)) == n
    )


def partition_count(n: int) -> int:
    """Independent oracle: partition numbers by the coin-counting recurrence."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# -- enumerate_types ---------------------------------------------------------

def test_enumerate_types_n3_matches_known_classes():
    assert [t.counts for t in enumerate_types(3)] == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]


def test_enumerate_types_n1():
    assert [t.counts for t in enumerate_types(1)] == [(1,)]


def test_enumerate_types_n5_length():
    assert len(enumerate_types(5)) == brute_type_count(5) == 7


def test_enumerate_types_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_types(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_types_matches_exhaustive_search(n):
    assert len(enumerate_types(n)) == brute_type_count(n)


def test_enumerate_types_counts_follow_partition_numbers():
    counts = [len(enumerate_types(n)) for n in range(1, 9)]
    assert counts == [partition_count(n) for n in range(1, 9)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_enumerate_types_is_strictly_descending():
    for n in range(1, 8):
        types = enumerate_types(n)
        assert all(a > b for a, b in zip(types, types[1:]))


def test_type_rank_roundtrip():
    for n in (1, 3, 5):
        for rank, t in enumerate(enumerate_types(n), start=1):
            assert type_rank(t) == rank


# -- the type order (OrbitType.__lt__) ----------------------------------------

def test_compare_types_n3_chain():
    a, b, c = (OrbitType(t) for t in [(0, 0, 1), (1, 1, 0), (3, 0, 0)])
    assert a > b
    assert b > c
    assert a > c
    assert b < a


def test_compare_types_reflexive():
    x = OrbitType((1, 2, 0, 0, 0))
    assert x == x and x <= x and x >= x
    assert not x < x and not x > x


def test_compare_types_n5_second_component_decides():
    assert OrbitType((1, 2, 0, 0, 0)) > OrbitType((3, 1, 0, 0, 0))


def test_compare_types_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        OrbitType((1,)) < OrbitType((2, 0))
    with pytest.raises(DimensionMismatchError):
        OrbitType((2, 0)) > OrbitType((1,))


@pytest.mark.parametrize("n", (4, 5, 6))
def test_compare_types_is_a_strict_total_order(n):
    types = enumerate_types(n)
    for a in types:
        for b in types:
            assert (a < b) + (a == b) + (a > b) == 1
            assert (a < b) == (b > a)
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.choice(types) for _ in range(3))
        if a >= b and b >= c:
            assert a >= c


def test_orbit_type_validates_weight():
    with pytest.raises(ValueError):
        OrbitType((2, 1, 0))  # weighs 4, claims n=3
    with pytest.raises(ValueError):
        OrbitType((-1, 2, 0))


# -- cycle_type (the oracle the class-size tests use) ---------------------------

def test_cycle_type_identity():
    assert cycle_type(Permutation.identity(3)).counts == (3, 0, 0)


def test_cycle_type_transposition():
    assert cycle_type(Permutation.transposition(3, 1, 2)).counts == (1, 1, 0)


def test_cycle_type_mixed_n6():
    sigma = Permutation((2, 3, 1, 4, 6, 5))
    assert cycle_type(sigma).counts == (1, 1, 1, 0, 0, 0)


def test_cycle_types_partition_all_of_s4():
    seen = {}
    for images in itertools.permutations(range(1, 5)):
        t = cycle_type(Permutation(images)).counts
        seen[t] = seen.get(t, 0) + 1
    assert sum(seen.values()) == 24
    assert set(seen) == {t.counts for t in enumerate_types(4)}


# -- apply_to_point ----------------------------------------------------------

def test_apply_identity_is_noop():
    x = (Fraction(3), Fraction(1, 2), Fraction(-7))
    assert apply_to_point(Permutation.identity(3), x) == x


def test_apply_transposition_fixes_equal_components():
    x = (Fraction(4), Fraction(4), Fraction(9))
    assert apply_to_point(Permutation.transposition(3, 1, 2), x) == x


def test_apply_three_cycle():
    sigma = Permutation((2, 3, 1))  # 1->2, 2->3, 3->1
    assert apply_to_point(sigma, (7, 8, 9)) == (8, 9, 7)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_to_point(Permutation.identity(3), (1, 2))


def test_action_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 7)
        a = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        b = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        assert apply_to_point(Permutation.identity(n), x) == x
        assert apply_to_point(a.compose(b), x) == apply_to_point(a, apply_to_point(b, x))
        assert apply_to_point(inverse(a), apply_to_point(a, x)) == x


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


# -- stabilizers and orbit sizes ----------------------------------------------

def test_stabilizer_order_examples():
    assert stabilizer_order(OrbitType((0, 0, 1))) == 6
    assert stabilizer_order(OrbitType((4, 0, 0, 0))) == 1
    # oracle: enumerate all of S_3 fixing (a, a, b)
    x = (5, 5, 9)
    direct = sum(
        1
        for images in itertools.permutations((1, 2, 3))
        if apply_to_point(Permutation(images), x) == x
    )
    assert stabilizer_order(OrbitType((1, 1, 0))) == direct == 2


def test_orbit_size_examples():
    assert [orbit_size(t) for t in enumerate_types(3)] == [1, 3, 6]
    assert orbit_size(OrbitType((5, 0, 0, 0, 0))) == 120
    # oracle: distinct arrangements of (a, a, b, b)
    assert orbit_size(OrbitType((0, 2, 0, 0))) == len(set(itertools.permutations("aabb"))) == 6


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_stabilizer_identity(n):
    for t in enumerate_types(n):
        assert orbit_size(t) * stabilizer_order(t) == factorial(n)


def test_canonical_point_block_layout():
    assert canonical_point(OrbitType((1, 1, 0))) == (1, 2, 2)
    assert canonical_point(OrbitType((0, 0, 1))) == (1, 1, 1)
    assert canonical_point(OrbitType((3, 0, 0))) == (1, 2, 3)


def test_canonical_point_realizes_its_type():
    from symlag import Point, classify_point

    for n in range(1, 8):
        for t in enumerate_types(n):
            assert classify_point(Point(canonical_point(t))) == t


def test_stabilizer_elements_examples():
    assert stabilizer_elements(OrbitType((3, 0, 0))) == [Permutation.identity(3)]
    assert len(stabilizer_elements(OrbitType((0, 0, 1)))) == 6
    swap23 = Permutation.transposition(3, 2, 3)
    assert set(stabilizer_elements(OrbitType((1, 1, 0)))) == {Permutation.identity(3), swap23}


@pytest.mark.parametrize("n", range(1, 6))
def test_stabilizer_elements_count_matches_order(n):
    for t in enumerate_types(n):
        assert len(stabilizer_elements(t)) == stabilizer_order(t)


@pytest.mark.parametrize("n", range(1, 6))
def test_stabilizer_generators_generate_the_full_stabilizer(n):
    for t in enumerate_types(n):
        gens = stabilizer_generators(t)
        closure = {Permutation.identity(n)}
        frontier = [Permutation.identity(n)]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = p.compose(g)
                if q not in closure:
                    closure.add(q)
                    frontier.append(q)
        assert closure == set(stabilizer_elements(t))


@pytest.mark.parametrize("n", range(1, 6))
def test_fixedness_by_cycles_agrees_with_direct_comparison(n):
    # a permutation fixes a point iff every cycle stays inside one equal-value
    # block; compare that criterion against literal point comparison
    for t in enumerate_types(n):
        x = canonical_point(t)
        for images in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(images)
            by_cycles = all(len({x[i - 1] for i in cyc}) == 1 for cyc in sigma.cycles())
            assert by_cycles == (apply_to_point(sigma, x) == x)


def test_module_doctests_pass():
    modules = [symlag] + [importlib.import_module(f"symlag.{m.name}") for m in pkgutil.iter_modules(symlag.__path__)]
    results = {module.__name__: doctest.testmod(module) for module in modules}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) >= 6
