"""The orbit engine: swap index maps, orbit classes, closure witnesses,
stabilizer orbit counts and r-vectors, against brute force over S_n."""
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlag import (
    BasisFunction,
    NotSymmetricError,
    Permutation,
    Point,
    enumerate_types,
    orbit_vector,
    r_vector,
    validate_symmetric,
    validate_symmetric_basis,
)
from symlag import interp, nodeset, symcore
from symlag.cli import main
from symlag.symcore import (
    canonical_blocks,
    orbit_classes,
    stabilizer_orbit_count,
    swap_images,
)

from oracles import basis_orbit_count_under_stabilizer, expand_orbit, subgroup_orbit_count

# derandomized: the same examples on every run, so tier-1 stays reproducible
ENGINE = settings(derandomize=True, database=None, deadline=None, max_examples=25)

MAX_N = 5


def _all_permutations(n):
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


@st.composite
def point_sets(draw):
    """A symmetric node set in R^n, n <= 5, as a list of points in no order."""
    n = draw(st.integers(1, MAX_N))
    reps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3))
    points = sorted({p for rep in reps for p in expand_orbit(Point.of(*rep))})
    return draw(st.permutations(points))


@st.composite
def function_sets(draw, monomial=False):
    """A symmetric set of basis functions in n <= 4 variables, in no order."""
    n = draw(st.integers(1, MAX_N - 1))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    if monomial:
        terms = st.lists(st.tuples(exponents, st.just(1)), min_size=1, max_size=1)
    else:
        terms = st.lists(st.tuples(exponents, st.integers(-3, 3).filter(bool)), min_size=1, max_size=3)
    group = _all_permutations(n)
    functions = set()
    for seed in draw(st.lists(terms, min_size=1, max_size=2)):
        try:
            f = BasisFunction.from_terms(seed)
        except ValueError:  # all terms cancelled
            continue
        functions |= {f.permuted(g) for g in group}
    functions = sorted(functions) or [BasisFunction.monomial((0,) * n)]
    return draw(st.permutations(functions))


# -- the primitives ---------------------------------------------------------

def test_swap_images_follow_adjacent_transposition_order():
    points = [Point.of(1, 2, 3), Point.of(2, 1, 3), Point.of(1, 3, 2)]
    # (1 2) then (2 3)
    assert swap_images(points, symcore.adjacent_transpositions(3)) == ((1, 0, None), (2, None, 0))
    assert swap_images(points, [Permutation.transposition(3, 2, 3)]) == ((2, None, 0),)


def test_orbit_classes_order_by_smallest_member():
    assert orbit_classes([[3, 2, 1, 0, 4]], 5) == [[0, 3], [1, 2], [4]]
    assert orbit_classes([[1, 2, 0, 3], [0, 1, 2, 3]], 4) == [[0, 1, 2], [3]]
    assert orbit_classes([], 3) == [[0], [1], [2]]
    assert orbit_classes([], 0) == []


# -- properties ---------------------------------------------------------------

@ENGINE
@given(point_sets())
def test_validation_ignores_input_order_and_orbits_are_full_orbits(points):
    nodes = validate_symmetric(points)
    again = validate_symmetric(sorted(points, reverse=True))
    assert nodes.orbits == again.orbits
    assert orbit_vector(nodes) == orbit_vector(again)
    ordered = nodes.points
    assert ordered == tuple(sorted(points))
    swaps = swap_images(ordered, symcore.adjacent_transpositions(nodes.n))
    assert [list(o.members) for o in nodes.orbits] == orbit_classes(swaps, len(points))
    for orbit in nodes.orbits:
        rep = Point(tuple(map(nodes.values.__getitem__, orbit.rep)))
        assert {ordered[i] for i in orbit.members} == expand_orbit(rep)


@ENGINE
@given(point_sets())
def test_subgroup_orbit_count_matches_brute_force(points):
    nodes = validate_symmetric(points)
    swaps = swap_images(nodes.points, symcore.adjacent_transpositions(nodes.n))
    for t in enumerate_types(nodes.n):
        assert stabilizer_orbit_count(swaps, t, len(nodes)) == subgroup_orbit_count(nodes, t)


@ENGINE
@given(function_sets())
def test_basis_orbit_count_matches_brute_force(functions):
    basis = validate_symmetric_basis(functions)
    assert basis.swaps == swap_images(sorted(functions), symcore.adjacent_transpositions(basis.n))
    group = _all_permutations(basis.n)
    functions = basis.functions
    assert [set(map(functions.__getitem__, o)) for o in basis.orbits] == [
        set(f.permuted(g) for g in group) for f in (functions[o[0]] for o in basis.orbits)
    ]
    assert r_vector(basis) == tuple(
        basis_orbit_count_under_stabilizer(basis, t) for t in enumerate_types(basis.n)
    )
    # type (0, ..., 0, 1) comes first and is fixed by all of S_n, so r[0] is
    # the orbit count, which the solve table reads from the payload's r
    assert r_vector(basis)[0] == len(basis.orbits)


@ENGINE
@given(function_sets(monomial=True))
def test_r_vector_of_monomials_counts_block_sorted_exponents(functions):
    basis = validate_symmetric_basis(functions)
    expected = []
    for t in enumerate_types(basis.n):
        blocks = canonical_blocks(t)
        expected.append(len({
            tuple(tuple(sorted(f.terms[0][0][i - 1] for i in block)) for block in blocks)
            for f in basis.functions
        }))
    assert r_vector(basis) == tuple(expected)


@ENGINE
@given(point_sets(), st.data())
def test_dropping_a_point_breaks_symmetry_with_a_true_witness(points, data):
    movable = [p for p in points if len(set(p.coords)) > 1]
    if not movable:
        return
    dropped = data.draw(st.sampled_from(movable))
    rest = [p for p in points if p != dropped]
    with pytest.raises(NotSymmetricError) as info:
        validate_symmetric(rest)
    witness = info.value
    assert witness.item in rest and witness.item.permuted(witness.permutation) not in rest


@ENGINE
@given(function_sets(), st.data())
def test_dropping_a_function_breaks_symmetry_with_a_true_witness(functions, data):
    group = _all_permutations(functions[0].n)
    movable = [f for f in functions if any(f.permuted(g) != f for g in group)]
    if not movable:
        return
    dropped = data.draw(st.sampled_from(movable))
    rest = [f for f in functions if f != dropped]
    with pytest.raises(NotSymmetricError) as info:
        validate_symmetric_basis(rest)
    witness = info.value
    assert witness.item in rest and witness.item.permuted(witness.permutation) not in rest


@ENGINE
@given(point_sets(), st.data())
def test_equiv_bijection_is_equivariant_onto_and_keeps_orbit_types(points, data):
    a = validate_symmetric(points)
    # B: one orbit per orbit of A, of the same type, on fresh distinct values
    blocks = [canonical_blocks(o.type) for o in a.orbits]
    fresh = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    count = sum(map(len, blocks))
    values = iter(data.draw(st.lists(fresh, min_size=count, max_size=count, unique=True)))
    reps = []
    for orbit_blocks in blocks:
        coords = [None] * a.n
        for block in orbit_blocks:
            value = next(values)
            for pos in block:
                coords[pos - 1] = value
        reps.append(Point(tuple(coords)))
    b = validate_symmetric({p for rep in reps for p in expand_orbit(rep)})

    result = nodeset.equivalent(a, b)
    assert result.equivalent and orbit_vector(a) == orbit_vector(b)
    assert sorted(result.image) == list(range(len(b)))
    phi = dict(zip(a.points, map(b.points.__getitem__, result.image)))
    assert set(phi) == set(a.points)
    assert set(phi.values()) == set(b.points)
    type_of = {s.points[i]: o.type for s in (a, b) for o in s.orbits for i in o.members}
    for x, y in phi.items():
        assert type_of[x] == type_of[y]
        for tau in symcore.adjacent_transpositions(a.n):
            assert phi[x.permuted(tau)] == y.permuted(tau)


@pytest.fixture
def swap_calls(monkeypatch):
    """The items of every swap_images call and the number of transpositions
    it applies, in call order."""
    calls, images = [], symcore.swap_images

    def spy(items, transpositions):
        calls.append((list(items), len(transpositions)))
        return images(items, transpositions)

    # also where a module could have imported it by name
    for module in (symcore, interp, nodeset):
        monkeypatch.setattr(module, "swap_images", spy, raising=False)
    return calls


def test_analyze_permutes_each_set_once(tmp_path, swap_calls, capsys, monkeypatch):
    # validation builds the basis maps, which the r-vector and the
    # determinant split read; the split maps the nodes through their rank
    # tuples, and the clearing reads the value table, so no Point is built
    reads, points_of = [], nodeset.NodeSet.points.fget
    monkeypatch.setattr(nodeset.NodeSet, "points", property(lambda s: reads.append(s) or points_of(s)))
    exponents = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    basis = _write(tmp_path / "basis.json", {"n": 3, "functions": [{"exponents": e} for e in exponents]})
    points = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [2, 2, 3], [2, 3, 2], [3, 2, 2]]
    nodes = _write(tmp_path / "nodes.json", {"n": 3, "points": points})
    assert main(["analyze", "--basis", basis, "--nodes", nodes]) == 0
    assert "unisolvent" in capsys.readouterr().out
    # the basis under (1 2) and (2 3)
    assert [(len(items), count) for items, count in swap_calls] == [(6, 2)]
    assert len(reads) == 0


def test_classify_and_equiv_permute_only_the_short_groups(tmp_path, swap_calls, capsys):
    points = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [2, 3, 4], [2, 4, 3], [3, 2, 4], [3, 4, 2], [4, 2, 3], [4, 3, 2]]
    nodes = _write(tmp_path / "nodes.json", {"n": 3, "points": points})
    assert main(["classify", "--nodes", nodes]) == 0
    assert main(["equiv", nodes, nodes]) == 0
    assert swap_calls == []
    # one point short of the orbit of (2, 3, 4): that group alone is permuted
    asym = _write(tmp_path / "asym.json", {"n": 3, "points": points[:-1]})
    assert main(["classify", "--nodes", asym]) == 2
    assert main(["equiv", nodes, asym]) == 2
    short = [Point.of(*p) for p in sorted(points[3:-1])]
    assert swap_calls == [(short, 2), (short, 2)]
    line = "error: set is not symmetric: applying (1 2) to the point (3, 4, 2) leaves the set\n"
    assert capsys.readouterr().err == 2 * line


# -- pinned outputs -------------------------------------------------------------
# Taken from the CLI before the orbit engine replaced the per-caller closure
# loops and orbit partitions.

def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, kind, content, line", [
    # (1 2) fails at (5, 6, 7) before (2 3) fails at (1, 1, 2): the witness
    # is the first failing point of the first failing transposition
    ("classify", "--nodes", {"n": 3, "points": [[1, 1, 2], [5, 6, 7]]},
     "error: set is not symmetric: applying (1 2) to the point (5, 6, 7) leaves the set\n"),
    ("solve", "--basis", ["x3", "x1^2*x2"],
     "error: set is not symmetric: applying (1 2) to the function x1^2*x2 leaves the set\n"),
])
def test_asymmetric_file_witness_is_pinned(command, kind, content, line, tmp_path, capsys):
    code = main([command, kind, _write(tmp_path / "asym.json", content)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", line)


def _s6_orbit_basis():
    """The S_6-orbit of x1^2*x2 + 1/2*x3: one function per ordered triple."""
    functions = []
    for i, j, k in itertools.permutations(range(6), 3):
        square, linear = [0] * 6, [0] * 6
        square[i], square[j], linear[k] = 2, 1, 1
        functions.append([{"exponents": square}, {"exponents": linear, "coeff": [1, 2]}])
    return {"n": 6, "functions": functions}


@pytest.mark.parametrize("fmt, digest", [
    ("json", "b69345bc74496b4a802fe60d12df28a6d1afb08cdaa4a0b948b3cc6d256167a3"),
    ("table", "8ecc27ce4571749eec16c94f504a73e0585911511e273cb7420ac9ea30531751"),
])
def test_solve_on_a_multi_term_s6_orbit_is_pinned(fmt, digest, tmp_path, capsys):
    basis = _write(tmp_path / "s6.json", _s6_orbit_basis())
    assert main(["solve", "--basis", basis, "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
