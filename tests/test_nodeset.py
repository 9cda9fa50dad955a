"""Symmetric node sets: classification, orbit vectors, equivalence, ingestion."""
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from symlag import (
    NotSymmetricError,
    OrbitType,
    Point,
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
from symlag.symcore import adjacent_transpositions, canonical_blocks

from oracles import expand_orbit, subgroup_orbit_count, validate_points

from conftest import (
    case1_set,
    case3_points,
    case3_set,
    random_point_of_type,
    random_symmetric_set,
)


# -- orbit types ---------------------------------------------------------------

def orbit_of(x: Point):
    """The one orbit of the validated orbit of x."""
    (orbit,) = validate_symmetric(expand_orbit(x)).orbits
    return orbit


def test_classify_constant_point():
    assert orbit_of(Point.of(5, 5, 5)).type.counts == (0, 0, 1)


def test_classify_all_distinct():
    assert orbit_of(Point.of(1, 2, 3)).type.counts == (3, 0, 0)


def test_classify_n7_multiplicities():
    assert orbit_of(Point.of(2, 7, 2, 7, 9, 9, 9)).type.counts == (0, 2, 1, 0, 0, 0, 0)


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
        assert len(expand_orbit(x)) == orbit_size(orbit_of(x).type)


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


# -- the ranked validation against the Point oracle --------------------------------

# few values, so that they recur across orbits and types
RANKED_POOL = [Fraction(v) for v in ("-2", "-3/2", "-1/3", "0", "1/2", "1", "7/4", "3")]


def _spellings(v: Fraction) -> list:
    """Raw JSON forms of v that node_set_from_json reads exactly."""
    num, den = v.numerator, v.denominator
    forms = [[num, den], [2 * num, 2 * den], [-num, -den], f"{num}/{den}"]
    if den == 1:
        forms += [num, str(num)]
    if 100 % den == 0:
        forms += [float(v), str(float(v))]
    return forms


def _random_point_sets(rng: random.Random, n: int) -> list[list[Point]]:
    """A symmetric set with values drawn from RANKED_POOL, and the same set
    with one point dropped, with one point repeated and, where it has two
    orbits of more than one point, with one point dropped from each."""
    types = enumerate_types(n)
    points: set[tuple[Fraction, ...]] = set()
    for _ in range(rng.randint(1, 4)):
        blocks = canonical_blocks(rng.choice(types))
        rep = [v for v, block in zip(rng.sample(RANKED_POOL, len(blocks)), blocks) for _ in block]
        points |= set(itertools.permutations(rep))
    full = [Point(p) for p in points]
    rng.shuffle(full)
    dropped = full[:]
    del dropped[rng.randrange(len(dropped))]
    repeated = full[:]
    repeated.insert(rng.randrange(len(full) + 1), rng.choice(full))
    sets = [full, dropped, repeated]
    orbits: dict[tuple[Fraction, ...], list[Point]] = {}
    for p in full:
        orbits.setdefault(tuple(sorted(p.coords)), []).append(p)
    movable = [orbit for orbit in orbits.values() if len(orbit) > 1]
    if len(movable) > 1:
        # one point short in each of two orbits
        gone = {rng.choice(orbit) for orbit in rng.sample(movable, 2)}
        sets.append([p for p in full if p not in gone])
    return sets


def _outcome(build):
    try:
        s = build()
    except SymlagError as exc:
        return type(exc), str(exc)
    return s.points, s.values, s.ranks, [(o.type, o.members, o.rep) for o in s.orbits]


@pytest.mark.parametrize("seed", range(40))
def test_ranked_validation_matches_the_point_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    for points in _random_point_sets(rng, n):
        expected = _outcome(lambda: validate_points(points, n))
        assert _outcome(lambda: validate_symmetric(points, n)) == expected
        raw = [[rng.choice(_spellings(c)) for c in p.coords] for p in points]
        assert _outcome(lambda: node_set_from_json({"n": n, "points": raw})[0]) == expected


# the orbit of (2, 3, 4) without (3, 2, 4) fails first at (1 2), on (2, 3, 4)
SHORT_234 = [(2, 3, 4), (2, 4, 3), (3, 4, 2), (4, 2, 3), (4, 3, 2)]


@pytest.mark.parametrize("points, witness", [
    # the orbit of (0, 0, 1) without (0, 0, 1) fails at (2 3) alone, so the
    # later-sorted short orbit gives the witness
    ([(0, 1, 0), (1, 0, 0)] + SHORT_234, "(1 2) to the point (2, 3, 4)"),
    # with (-1, -1, 0)'s whole orbit sorted before both
    ([(-1, -1, 0), (-1, 0, -1), (0, -1, -1), (0, 1, 0), (1, 0, 0)] + SHORT_234, "(1 2) to the point (2, 3, 4)"),
    # without (0, 1, 0) it fails at (1 2) too, on a point sorted earlier
    ([(0, 0, 1), (1, 0, 0)] + SHORT_234, "(1 2) to the point (1, 0, 0)"),
    # and sorted between the points of an orbit that starts later
    ([(0, 0, 1), (1, 0, 0), (0, 2, 3), (0, 3, 2), (2, 3, 0), (3, 0, 2), (3, 2, 0)], "(1 2) to the point (0, 2, 3)"),
])
def test_witness_is_the_first_across_short_orbits(points, witness):
    expected = _outcome(lambda: validate_points(points, 3))
    assert expected == (NotSymmetricError, f"set is not symmetric: applying {witness} leaves the set")
    assert _outcome(lambda: validate_symmetric(points[::-1], 3)) == expected
    assert _outcome(lambda: node_set_from_json({"n": 3, "points": [list(p) for p in points]})[0]) == expected


def test_mixed_raw_forms_share_one_rank():
    half = ["1/2", "0.5", [1, 2], [2, 4], 0.5]
    partners = [1, 3, -1, 0, 2]
    # each form of 1/2 meets the next one in the orbit of its partner, so
    # the set is symmetric only if all five read as one value
    raw = [[h, w] for h, w in zip(half, partners)] + [[w, h] for h, w in zip(half[1:] + half[:1], partners)]
    s, snaps = node_set_from_json({"points": raw})
    assert snaps == [] and orbit_vector(s) == (0, 5)
    exact = [(Fraction(1, 2), w) for w in partners] + [(w, Fraction(1, 2)) for w in partners]
    assert s.points == validate_points(exact).points
    # the same point in two forms is a duplicate
    for a, b in itertools.combinations(half, 2):
        with pytest.raises(DuplicatePointError, match=r"^duplicate point \(1/2, 1\)$"):
            node_set_from_json({"points": [[a, 1], [1, a], [b, 1]]})
    # neither true nor [true, 2] shares a key with 1 or [1, 2]
    for bad, message in ((True, "invalid coordinate True"),
                         ([True, 2], "rational pair must be [num, den], got [True, 2]")):
        with pytest.raises(ValueError, match=re.escape(message)):
            node_set_from_json({"points": [[1, [1, 2]], [[1, 2], 1], [1, bad], [bad, 1]]})
    # one snap event per snapped occurrence, whatever the other forms
    raw = [["0.5000001", 1], [1, "0.5000001"], [[1, 2], 2], [2, "0.5"]]
    s, snaps = node_set_from_json({"points": raw}, snap_tol=Fraction(1, 10**6))
    assert [e.original for e in snaps] == ["0.5000001", "0.5000001"] and orbit_vector(s) == (0, 2)


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
    assert result.image == tuple(range(len(s)))


def test_equivalent_case3_at_different_parameters():
    assert equivalent(case3_set(0, 1, 2, 3), case3_set(5, 6, 7, 8)).equivalent


def test_not_equivalent_to_diagonal_family():
    result = equivalent(case3_set(0, 1, 2, 3), case1_set([1, 2, 3, 4, 5, 6]))
    assert not result.equivalent
    assert result.image is None
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
        assert sorted(result.image) == list(range(len(s2)))
        fmap = dict(zip(s1.points, map(s2.points.__getitem__, result.image)))
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


def test_equivalent_hashes_per_orbit_not_per_coordinate(monkeypatch):
    # two orbits of each of the 11 types of R^6: 3204 points, 19,224 coordinates
    rng = random.Random(31)
    vector = tuple(2 for _ in enumerate_types(6))
    s1, s2 = (random_symmetric_set(rng, vector, 6) for _ in range(2))
    assert len(s1) == len(s2) == 3204
    calls = 0
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    result = equivalent(s1, s2)
    monkeypatch.undo()
    assert result.equivalent and sorted(result.image) == list(range(len(s2)))
    assert calls <= len(s1.orbits) * s1.n


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


# -- canonical representatives --------------------------------------------------------

def test_canonical_arrangement_groups_by_multiplicity():
    x = Point.of(2, 3, 4, 4, 3, 4, 1)  # (2,3,4,4,3,4,1) regroups to (1,2,3,3,4,4,4)
    assert orbit_of(x).rep == Point.of(1, 2, 3, 3, 4, 4, 4)


def test_canonical_arrangement_same_type_shares_stabilizer():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 5)
        t = rng.choice(enumerate_types(n))
        x = orbit_of(random_point_of_type(rng, t)).rep
        y = orbit_of(random_point_of_type(rng, t)).rep
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


def test_node_set_from_json_parses_repeated_strings_like_single_ones():
    # each distinct string is parsed once per file; the points and the snap
    # list, one event per snapped occurrence, are those of parsing each
    # coordinate on its own
    free = [list(p) for p in itertools.permutations(["0.333333", "0.666667", "1.5"])]
    pairs = [list(p) for p in set(itertools.permutations(["0.333333", "0.333333", "0.666667"]))]
    raw = free + pairs + [["2", 2, [4, 2]]]
    tol = Fraction(1, 10000)
    s, snaps = node_set_from_json({"n": 3, "points": raw}, snap_tol=tol)
    parsed = [[parse_rational(c, tol) for c in p] for p in raw]
    assert s.points == validate_symmetric([[v for v, _ in p] for p in parsed]).points
    assert snaps == [e for p in parsed for _, e in p if e is not None]
    assert len(snaps) == 6 * 2 + 3 * 3 and orbit_vector(s) == (1, 1, 1)
    # true shares no parse: it equals 1 and 1.0 as a key
    for points in ([[1, "1"], [True, 1]], [["1", 1.0], [1.0, True]]):
        with pytest.raises(ValueError, match="invalid coordinate True"):
            node_set_from_json({"points": points})


def test_node_set_from_json_hashes_per_distinct_raw_form_not_per_coordinate(monkeypatch):
    # nine free orbits in R^5 over 8 values, each spelled two ways: at most
    # 16 distinct raw forms among 5,400 coordinates
    rng = random.Random(5)
    values = [Fraction(v) for v in ("-2", "-1/3", "0", "1/2", "1", "7/4", "3", "5")]
    points = sorted(p for rep in list(itertools.combinations(values, 5))[:9] for p in itertools.permutations(rep))
    raw = [[rng.choice([[v.numerator, v.denominator], f"{v.numerator}/{v.denominator}"]) for v in p] for p in points]
    distinct = {json.dumps(c) for p in raw for c in p}
    assert len(points) == 1080 and len(distinct) <= 16
    calls = 0
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    s, _ = node_set_from_json({"n": 5, "points": raw})
    monkeypatch.undo()
    assert s.points == tuple(Point(p) for p in points)
    assert calls <= 3 * len(distinct)


def test_distinct_values_are_ranked_without_fraction_hashes_or_comparisons(monkeypatch):
    # 400 distinct 20-digit decimals, one per point of R^1: their floats
    # differ, so the exact values are never compared, and none is hashed
    rng = random.Random(11)
    texts = sorted({f"{rng.randrange(-10**20, 10**20)}e-{rng.randrange(0, 25)}" for _ in range(400)})
    calls = 0

    def counting(method):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return method(*args)
        return wrapper

    for name in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    s, _ = node_set_from_json({"n": 1, "points": [[t] for t in texts]})
    monkeypatch.undo()
    assert calls == 0
    assert s.values == tuple(sorted(map(Fraction, texts)))
    assert [s.values[r] for (r,) in s.ranks] == sorted(map(Fraction, texts))


def test_values_beyond_floats_and_between_them_rank_in_order():
    # 1e400 overflows a float and 1e-400 underflows to 0.0; the three values
    # near 0.1 share one float, so only their exact values order them
    texts = ["1e400", "-1e400", "1e401", "-1e401", "0", "1e-400", "-1e-400", "1e308", "-1e308",
             "0.10000000000000000001", "0.1", "0.09999999999999999999", "1e4000", "-1e4000"]
    s, _ = node_set_from_json({"n": 1, "points": [[t] for t in texts]})
    assert s.values == tuple(sorted(map(Fraction, texts)))
    assert s.values[0] == -Fraction(10) ** 4000 and s.values[-1] == Fraction(10) ** 4000
    assert _outcome(lambda: s) == _outcome(lambda: validate_points([(Fraction(t),) for t in texts], 1))
    # the same values in a symmetric set of R^2
    pairs = [[a, b] for a in texts[:6] for b in texts[:6] if a != b]
    s2, _ = node_set_from_json({"n": 2, "points": pairs})
    assert s2.values == tuple(sorted(map(Fraction, texts[:6])))
    assert _outcome(lambda: s2) == _outcome(lambda: validate_points([tuple(map(Fraction, p)) for p in pairs], 2))


def test_node_set_from_json_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        node_set_from_json({"n": 2, "points": [[1, 2, 3]]})


def test_node_set_roundtrip_to_json():
    s = case3_set(0, 1, 2, 3)
    points = [[[c.numerator, c.denominator] for c in p.coords] for p in s.points]
    s2, _ = node_set_from_json({"n": s.n, "points": points})
    assert s2.points == s.points
