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
from symlag.cli import main
from symlag.symcore import (
    adjacent_transpositions,
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
    maps = swap_images(points, 3)
    assert list(maps) == adjacent_transpositions(3)
    assert list(maps.values()) == [[1, 0, None], [2, None, 0]]


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
    assert nodes.points == tuple(sorted(points))
    for orbit in nodes.orbits:
        assert set(orbit.points) == expand_orbit(orbit.rep)


@ENGINE
@given(point_sets())
def test_subgroup_orbit_count_matches_brute_force(points):
    nodes = validate_symmetric(points)
    maps = swap_images(nodes.points, nodes.n)
    for t in enumerate_types(nodes.n):
        assert stabilizer_orbit_count(maps, t, len(nodes)) == subgroup_orbit_count(nodes, t)


@ENGINE
@given(function_sets())
def test_basis_orbit_count_matches_brute_force(functions):
    basis = validate_symmetric_basis(functions)
    group = _all_permutations(basis.n)
    assert [set(o) for o in basis.orbits] == [
        set(f.permuted(g) for g in group) for f in (o[0] for o in basis.orbits)
    ]
    assert r_vector(basis) == tuple(
        basis_orbit_count_under_stabilizer(basis, t) for t in enumerate_types(basis.n)
    )


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
