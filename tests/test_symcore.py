"""Core permutation/type machinery against independent brute-force oracles."""
import copy
import doctest
import importlib
import itertools
import pickle
import pkgutil
import random
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import symlag
from symlag import (
    BasisFunction,
    BasisSet,
    OrbitType,
    Permutation,
    Point,
    apply_to_point,
    enumerate_types,
    orbit_size,
    stabilizer_order,
    type_rank,
    validate_symmetric,
    validate_symmetric_basis,
)
from symlag.errors import DimensionMismatchError

from oracles import (
    canonical_point,
    compose,
    cycle_type,
    identity,
    inverse,
    stabilizer_elements,
    stabilizer_generators,
)


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
    with pytest.raises(DimensionMismatchError):
        OrbitType((1,)) <= OrbitType((2, 0))
    with pytest.raises(DimensionMismatchError):
        OrbitType((2, 0)) >= OrbitType((1,))


@pytest.mark.parametrize("n", (4, 5, 6))
def test_compare_types_is_a_strict_total_order(n):
    types = enumerate_types(n)
    for a in types:
        for b in types:
            assert (a < b) + (a == b) + (a > b) == 1
            assert (a < b) == (b > a)
            assert (a <= b) == (a < b or a == b) and (a >= b) == (a > b or a == b)
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
    assert cycle_type(identity(3)).counts == (3, 0, 0)


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
    assert apply_to_point(identity(3), x) == x


def test_apply_transposition_fixes_equal_components():
    x = (Fraction(4), Fraction(4), Fraction(9))
    assert apply_to_point(Permutation.transposition(3, 1, 2), x) == x


def test_apply_three_cycle():
    sigma = Permutation((2, 3, 1))  # 1->2, 2->3, 3->1
    assert apply_to_point(sigma, (7, 8, 9)) == (8, 9, 7)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_to_point(identity(3), (1, 2))


def test_action_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 7)
        a = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        b = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        assert apply_to_point(identity(n), x) == x
        assert apply_to_point(compose(a, b), x) == apply_to_point(a, apply_to_point(b, x))
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
    from symlag import Point, validate_symmetric

    for n in range(1, 8):
        types = enumerate_types(n)
        points = {p for t in types for p in itertools.permutations(canonical_point(t))}
        nodes = validate_symmetric(points)
        assert len(nodes.orbits) == len(types)
        reps = {o.type: Point(tuple(map(nodes.values.__getitem__, o.rep))) for o in nodes.orbits}
        assert reps == {t: Point(canonical_point(t)) for t in types}


def test_stabilizer_elements_examples():
    assert stabilizer_elements(OrbitType((3, 0, 0))) == [identity(3)]
    assert len(stabilizer_elements(OrbitType((0, 0, 1)))) == 6
    swap23 = Permutation.transposition(3, 2, 3)
    assert set(stabilizer_elements(OrbitType((1, 1, 0)))) == {identity(3), swap23}


@pytest.mark.parametrize("n", range(1, 6))
def test_stabilizer_elements_count_matches_order(n):
    for t in enumerate_types(n):
        assert len(stabilizer_elements(t)) == stabilizer_order(t)


@pytest.mark.parametrize("n", range(1, 6))
def test_stabilizer_generators_generate_the_full_stabilizer(n):
    for t in enumerate_types(n):
        gens = stabilizer_generators(t)
        closure = {identity(n)}
        frontier = [identity(n)]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = compose(p, g)
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
    assert sum(r.attempted for r in results.values()) >= 11


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(0, 2, 0)\nunisolvent\n"


# -- NodeSet and BasisSet: immutable values whose length is their size ------------

def _records():
    """Two equal NodeSets, built apart, and one that differs; the same for BasisSets."""
    def nodes(a):
        return validate_symmetric([Point.of(a, a, 1), Point.of(a, 1, a), Point.of(1, a, a)])

    def basis(e):
        return validate_symmetric_basis([BasisFunction.monomial(x) for x in ((e, 0, 0), (0, e, 0), (0, 0, e))])

    return [(nodes(0), nodes(0), nodes(2)), (basis(1), basis(1), basis(2))]


@pytest.mark.parametrize("kind", [0, 1], ids=["NodeSet", "BasisSet"])
def test_records_compare_and_hash_as_values(kind):
    a, same, other = _records()[kind]
    assert a is not same and a == same and hash(a) == hash(same) and len({a, same}) == 1
    assert a != other and not a == other
    # the hash is that of the compared fields, so sets and dicts keep their
    # order, but a record never equals a plain tuple of them
    fields = (a.n, a.values, a.ranks, a.orbits) if kind == 0 else (a.n, a.functions, a.orbits)
    assert hash(a) == hash(fields) and a != fields and a != None  # noqa: E711


def test_record_reprs_name_the_compared_fields():
    (nodes, _, _), (basis, _, _) = _records()
    assert repr(nodes) == (
        f"NodeSet(n=3, values={nodes.values!r}, ranks=((0, 0, 1), (0, 1, 0), (1, 0, 0)), orbits={nodes.orbits!r})"
    )
    assert repr(nodes).startswith("NodeSet(n=3, values=(Fraction(0, 1), Fraction(1, 1)), ranks=")
    assert repr(basis) == f"BasisSet(n=3, functions={basis.functions!r}, orbits={basis.orbits!r})"


@pytest.mark.parametrize("kind", [0, 1], ids=["NodeSet", "BasisSet"])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(kind, clone):
    a = _records()[kind][0]
    b = clone(a)
    assert type(b) is type(a) and b == a and repr(b) == repr(a) and len(b) == len(a)
    if kind == 1:
        assert b.swaps == a.swaps


@pytest.mark.parametrize("kind", [0, 1], ids=["NodeSet", "BasisSet"])
def test_records_refuse_assignment_and_deletion(kind):
    a = _records()[kind][0]
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        a.n = 4
    with pytest.raises(AttributeError):
        del a.n
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.n == 3
    # every field is given once, by position or by name
    with pytest.raises(TypeError):
        type(a)(3)
    with pytest.raises(TypeError):
        type(a)(3, n=3)


def test_basis_swaps_are_neither_compared_nor_shown_but_pickled():
    basis = _records()[1][0]
    twin = BasisSet(n=basis.n, functions=basis.functions, orbits=basis.orbits, swaps=())
    assert twin == basis and hash(twin) == hash(basis) and repr(twin) == repr(basis)
    assert "swaps" not in repr(basis)
    assert pickle.loads(pickle.dumps(basis)).swaps == basis.swaps != ()
    assert pickle.loads(pickle.dumps(twin)).swaps == ()
