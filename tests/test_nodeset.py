"""Symmetric node sets: classification, orbit vectors, equivalence, ingestion."""
import math
import random
from fractions import Fraction

import pytest

from symlag import (
    NotSymmetricError,
    OrbitType,
    Point,
    classify_point,
    canonical_arrangement,
    enumerate_types,
    equivalent,
    node_set_from_json,
    orbit_size,
    orbit_vector,
    parse_rational,
    simplest_rational_between,
    v_matrix,
    validate_symmetric,
)
from symlag.errors import DimensionMismatchError, DuplicatePointError, SymlagError
from symlag.symcore import adjacent_transpositions

from oracles import expand_orbit, subgroup_orbit_count

from conftest import (
    case1_set,
    case3_points,
    case3_set,
    random_point_of_type,
    random_symmetric_set,
)


# -- classify_point ------------------------------------------------------------

def test_classify_constant_point():
    assert classify_point(Point.of(5, 5, 5)).counts == (0, 0, 1)


def test_classify_all_distinct():
    assert classify_point(Point.of(1, 2, 3)).counts == (3, 0, 0)


def test_classify_n7_multiplicities():
    assert classify_point(Point.of(2, 7, 2, 7, 9, 9, 9)).counts == (0, 2, 1, 0, 0, 0, 0)


# -- expand_orbit ----------------------------------------------------------------

def test_expand_orbit_constant():
    assert expand_orbit(Point.of(5, 5, 5)) == {Point.of(5, 5, 5)}


def test_expand_orbit_pair_pattern():
    a, b = Fraction(1), Fraction(7)
    assert expand_orbit(Point.of(a, a, b)) == {
        Point.of(a, a, b), Point.of(a, b, a), Point.of(b, a, a)
    }


def test_expand_orbit_free():
    assert len(expand_orbit(Point.of(1, 2, 3))) == 6


def test_expand_orbit_size_property_randomized():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 6)
        t = rng.choice(enumerate_types(n))
        x = random_point_of_type(rng, t)
        assert len(expand_orbit(x)) == orbit_size(classify_point(x))


# -- validate_symmetric ------------------------------------------------------------

def test_validate_single_pair_orbit():
    s = validate_symmetric([Point.of(1, 1, 2), Point.of(1, 2, 1), Point.of(2, 1, 1)])
    assert len(s.orbits) == 1
    assert s.orbits[0].type.counts == (1, 1, 0)


def test_validate_rejects_asymmetric_with_witness():
    with pytest.raises(NotSymmetricError) as exc:
        validate_symmetric([Point.of(1, 2, 3)])
    witness = exc.value
    assert witness.item == Point.of(1, 2, 3)
    assert witness.item.permuted(witness.permutation) not in {Point.of(1, 2, 3)}


def test_validate_case3_two_pair_orbits():
    s = case3_set(0, 1, 2, 3)
    assert [o.type.counts for o in s.orbits] == [(1, 1, 0), (1, 1, 0)]


def test_validate_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        validate_symmetric([Point.of(1, 1, 1), Point.of(1, 1, 1)])


def test_validate_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        validate_symmetric([Point.of(1, 1), Point.of(1, 1, 1)])


def test_validate_empty_needs_dimension():
    assert orbit_vector(validate_symmetric([], n=3)) == (0, 0, 0)
    with pytest.raises(ValueError):
        validate_symmetric([])


def test_validate_points_are_sorted_deterministically():
    pts = case3_points(2, 1, 0, 3)
    s1 = validate_symmetric(pts)
    s2 = validate_symmetric(list(reversed(pts)))
    assert s1.points == s2.points == tuple(sorted(s1.points))


# -- orbit_vector --------------------------------------------------------------------

def test_orbit_vector_case3():
    assert orbit_vector(case3_set(0, 1, 2, 3)) == (0, 2, 0)


def test_orbit_vector_mixed_set():
    pts = list(expand_orbit(Point.of(1, 2, 3))) + [Point.of(4, 4, 4)]
    assert orbit_vector(validate_symmetric(pts)) == (1, 0, 1)


def test_orbit_vector_counts_points_randomized():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 5)
        types = enumerate_types(n)
        vector = tuple(rng.randint(0, 2) for _ in types)
        s = random_symmetric_set(rng, vector, n)
        assert orbit_vector(s) == vector
        assert sum(c * orbit_size(t) for c, t in zip(orbit_vector(s), types)) == len(s)


# -- equivalence ----------------------------------------------------------------------

def test_equivalent_to_itself_with_identity_bijection():
    s = case3_set(0, 1, 2, 3)
    result = equivalent(s, s)
    assert result.equivalent
    assert all(x == y for x, y in result.bijection)


def test_equivalent_case3_at_different_parameters():
    assert equivalent(case3_set(0, 1, 2, 3), case3_set(5, 6, 7, 8)).equivalent


def test_not_equivalent_to_diagonal_family():
    result = equivalent(case3_set(0, 1, 2, 3), case1_set([1, 2, 3, 4, 5, 6]))
    assert not result.equivalent
    assert result.bijection is None
    assert result.vector_a == (0, 2, 0)
    assert result.vector_b == (6, 0, 0)


def test_equivalent_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        equivalent(validate_symmetric([Point.of(1, 1)]), case3_set(0, 1, 2, 3))


def test_bijection_is_equivariant_and_bijective():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(2, 5)
        vector = tuple(rng.randint(0, 2) for _ in enumerate_types(n))
        s1 = random_symmetric_set(rng, vector, n)
        s2 = random_symmetric_set(rng, vector, n)
        result = equivalent(s1, s2)
        assert result.equivalent
        fmap = dict(result.bijection)
        assert set(fmap) == set(s1.points)
        assert set(fmap.values()) == set(s2.points)
        for g in adjacent_transpositions(n):
            for x in s1.points:
                assert fmap[x.permuted(g)] == fmap[x].permuted(g)


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(11)
    sets = []
    for _ in range(12):
        n = 3
        vector = tuple(rng.randint(0, 2) for _ in enumerate_types(n))
        sets.append(random_symmetric_set(rng, vector, n))
    for a in sets:
        assert equivalent(a, a).equivalent
        for b in sets:
            ab = equivalent(a, b).equivalent
            assert ab == equivalent(b, a).equivalent
            for c in sets:
                if ab and equivalent(b, c).equivalent:
                    assert equivalent(a, c).equivalent


# -- subgroup orbit counts ---------------------------------------------------------

def test_subgroup_orbit_count_case3():
    s = case3_set(0, 1, 2, 3)
    assert subgroup_orbit_count(s, OrbitType((0, 0, 1))) == 2    # full S_3
    assert subgroup_orbit_count(s, OrbitType((3, 0, 0))) == 6    # trivial group
    assert subgroup_orbit_count(s, OrbitType((1, 1, 0))) == 4    # V row (1,2,3) . (0,2,0)


def test_subgroup_orbit_count_matches_v_row_randomized():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 5)
        types = enumerate_types(n)
        vector = tuple(rng.randint(0, 2) for _ in types)
        s = random_symmetric_set(rng, vector, n)
        v = v_matrix(n)
        for i, t in enumerate(types):
            predicted = sum(v.entries[i][j] * vector[j] for j in range(len(types)))
            assert subgroup_orbit_count(s, t) == predicted


# -- canonical arrangement ------------------------------------------------------------

def test_canonical_arrangement_groups_by_multiplicity():
    x = Point.of(2, 3, 4, 4, 3, 4, 1)  # (2,3,4,4,3,4,1) regroups to (1,2,3,3,4,4,4)
    assert canonical_arrangement(x) == Point.of(1, 2, 3, 3, 4, 4, 4)


def test_canonical_arrangement_same_type_shares_stabilizer():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 5)
        t = rng.choice(enumerate_types(n))
        x = canonical_arrangement(random_point_of_type(rng, t))
        y = canonical_arrangement(random_point_of_type(rng, t))
        for g in adjacent_transpositions(n):
            assert (x.permuted(g) == x) == (y.permuted(g) == y)


# -- rational parsing and snapping ------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational(3) == (Fraction(3), None)
    assert parse_rational([7, -4]) == (Fraction(-7, 4), None)
    assert parse_rational("3/4") == (Fraction(3, 4), None)
    assert parse_rational("0.25") == (Fraction(1, 4), None)


def test_parse_rational_rejects_junk():
    with pytest.raises(ValueError):
        parse_rational([1, 2, 3])
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(None)


def test_snapping_reports_the_substitution():
    value, event = parse_rational("0.333333", snap_tol=Fraction(1, 10000))
    assert value == Fraction(1, 3)
    assert event is not None
    assert event.original == "0.333333"
    assert abs(event.delta) <= Fraction(1, 10000)


def test_snapping_exact_hit_is_silent():
    value, event = parse_rational("0.25", snap_tol=Fraction(1, 1000000))
    assert value == Fraction(1, 4)
    assert event is None


def test_snapping_floats_go_through_repr():
    value, event = parse_rational(0.5, snap_tol=Fraction(1, 100))
    assert value == Fraction(1, 2)
    assert event is None


def test_simplest_rational_between():
    assert simplest_rational_between(Fraction(32, 100), Fraction(34, 100)) == Fraction(1, 3)
    assert simplest_rational_between(Fraction(-1, 2), Fraction(1, 3)) == 0
    assert simplest_rational_between(Fraction(5, 2), Fraction(7, 2)) == 3
    assert simplest_rational_between(Fraction(-34, 100), Fraction(-32, 100)) == Fraction(-1, 3)
    assert simplest_rational_between(Fraction(2, 7), Fraction(2, 7)) == Fraction(2, 7)


def test_simplest_rational_is_minimal_denominator():
    rng = random.Random(13)
    for _ in range(200):
        center = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        tol = Fraction(1, rng.randint(2, 500))
        best = simplest_rational_between(center - tol, center + tol)
        assert center - tol <= best <= center + tol
        for den in range(1, best.denominator):
            lo_num = (center - tol) * den
            hi_num = (center + tol) * den
            assert math.floor(hi_num) < lo_num


def _fibonacci_ratio(k):
    """F(k+1)/F(k), whose continued fraction has k terms."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return Fraction(b, a)


def test_simplest_rational_walks_a_long_continued_fraction():
    x = _fibonacci_ratio(990)
    assert simplest_rational_between(x, x + Fraction(1, x.denominator**3)) == x


def test_simplest_rational_gives_up_on_a_longer_one():
    x = _fibonacci_ratio(3000)
    with pytest.raises(SymlagError, match="continued-fraction terms"):
        simplest_rational_between(x, x + Fraction(1, x.denominator**3))


# -- JSON ingestion ----------------------------------------------------------------------

def test_node_set_from_json_schema():
    obj = {"n": 3, "points": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}
    s, snaps = node_set_from_json(obj)
    assert snaps == []
    assert orbit_vector(s) == (0, 1, 0)


def test_node_set_from_json_rational_pairs_and_strings():
    obj = {
        "n": 2,
        "points": [[[1, 2], "0.75"], [[3, 4], "1/2"]],
    }
    s, _ = node_set_from_json(obj)
    assert Point.of("1/2", "3/4") in s.points


def test_node_set_from_json_snapping_restores_symmetry_classes():
    obj = {"n": 3, "points": [["0.333333", 1, 1], [1, "0.333334", 1], [1, 1, "0.33333333"]]}
    s, snaps = node_set_from_json(obj, snap_tol=Fraction(1, 10000))
    assert len(snaps) == 3
    assert all(e.snapped == Fraction(1, 3) for e in snaps)
    assert orbit_vector(s) == (0, 1, 0)


def test_node_set_from_json_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        node_set_from_json({"n": 2, "points": [[1, 2, 3]]})


def test_node_set_roundtrip_to_json():
    s = case3_set(0, 1, 2, 3)
    s2, _ = node_set_from_json(s.to_json_dict())
    assert s2.points == s.points
