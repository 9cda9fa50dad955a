"""The symmetry-split exact determinant against plain elimination.

`vandermonde` computes det [f_i(a_j)] from integer symmetry blocks; the
second derivation is plain Gaussian elimination over the rationals
(`oracles.fraction_determinant`) on the matrix `vandermonde_matrix`
returns, itself checked entry by entry against `oracles.evaluate`.
The two must agree exactly, sign included.
"""
import itertools
import random
from fractions import Fraction

import pytest

from symlag import (
    BasisFunction,
    Permutation,
    Point,
    r_vector,
    solve_constraints,
    v_matrix,
    validate_symmetric_basis,
    vandermonde,
    vandermonde_matrix,
)
from symlag import _linalg, interp
from symlag.interp import VERDICT_SINGULAR

from oracles import evaluate, expand_orbit, fraction_determinant
from conftest import case3_set, quadratic_basis, rand_fraction, random_symmetric_set

# total degree d in R^n, kept to at most 35 functions
TOTAL_DEGREE = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 2}


def total_degree_exponents(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]


def rational_basis(n, d):
    """(3/2 + e1/3) x^e over the total-degree-d exponents: rational
    coefficients, several terms, still closed under S_n."""
    return [
        BasisFunction.from_terms(
            [(e, Fraction(3, 2))]
            + [(tuple(x + (i == j) for j, x in enumerate(e)), Fraction(1, 3)) for i in range(n)]
        )
        for e in total_degree_exponents(n, d)
    ]


def forced_node_set(rng, functions):
    """A random symmetric node set with the orbit vector V X = r forces."""
    basis = validate_symmetric_basis(functions)
    vector = solve_constraints(v_matrix(basis.n), r_vector(basis)).integer_solution()
    return random_symmetric_set(rng, vector, basis.n)


def both(functions, points):
    split = vandermonde(functions, points).determinant
    matrix = vandermonde_matrix(functions, points)
    assert matrix == [[evaluate(f, p) for p in points] for f in functions]
    return split, fraction_determinant(matrix)


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("make_basis", [
    lambda n, d: [BasisFunction.monomial(e) for e in total_degree_exponents(n, d)],
    rational_basis,
], ids=["monomial", "rational"])
def test_split_matches_plain_on_shuffled_symmetric_sets(n, make_basis):
    rng = random.Random(7100 + n)
    functions = make_basis(n, TOTAL_DEGREE[n])
    nonzero = 0
    for _ in range(3):
        nodes = forced_node_set(rng, functions)
        fs, pts = shuffled(rng, functions), shuffled(rng, nodes.points)
        split, plain = both(fs, pts)
        assert split == plain
        nonzero += split != 0
        # swapping two rows flips the sign, as it must
        fs[0], fs[-1] = fs[-1], fs[0]
        assert vandermonde(fs, pts).determinant == (-split if len(fs) > 1 else split)
    assert nonzero


def test_split_matches_plain_with_zero_and_negative_coordinates():
    rng = random.Random(71)
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(4, 3)]
    for _ in range(4):
        nodes = forced_node_set(rng, functions)
        # map coordinates onto a small range holding 0 and negatives
        pts = [Point(tuple(Fraction(c.numerator % 7 - 3, c.denominator) for c in p.coords)) for p in nodes.points]
        split, plain = both(shuffled(rng, functions), shuffled(rng, pts))
        assert split == plain


def test_split_matches_plain_on_orbits_with_non_coordinate_stabilizers():
    # x1*x3 + x2*x4 is fixed by (1 2)(3 4) but by neither swap alone
    matchings = [((1, 1, 0, 0), (0, 0, 1, 1)), ((1, 0, 1, 0), (0, 1, 0, 1)), ((1, 0, 0, 1), (0, 1, 1, 0))]
    functions = (
        [BasisFunction.monomial(e) for e in total_degree_exponents(4, 1)]
        + [BasisFunction.from_terms([(a, Fraction(2, 3)), (b, Fraction(2, 3))]) for a, b in matchings]
    )
    rng = random.Random(72)
    nonzero = 0
    for _ in range(6):
        a, b, c, d = (rand_fraction(rng, -9, 9, 4) for _ in range(4))
        pts = list(expand_orbit(Point.of(a, a, b, b))) + [Point.of(c, c, c, c), Point.of(d, d, d, d)]
        if len(set(pts)) < 8:
            continue
        split, plain = both(shuffled(rng, functions), shuffled(rng, pts))
        assert split == plain
        nonzero += split != 0
    assert nonzero


SWAP12 = {n: Permutation.transposition(n, 1, 2) for n in (3, 4, 5)}


def test_split_matches_plain_on_sets_not_closed_under_a_swap():
    rng = random.Random(73)
    for n in (3, 4, 5):
        functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, 2)]
        for _ in range(3):
            # move one (1 2)-orbit off the set's symmetry in coordinates 3..n:
            # closed under (1 2), no longer under (3 4)
            pts = list(forced_node_set(rng, functions).points)
            p = pts[rng.randrange(len(pts))]
            q = Point(p.coords[:2] + tuple(rand_fraction(rng, 31, 60) for _ in range(n - 2)))
            pts = [x for x in pts if x not in (p, p.permuted(SWAP12[n]))] + list({q, q.permuted(SWAP12[n])})
            split, plain = both(functions, shuffled(rng, pts))
            assert split == plain != 0
        # dropping one function breaks the function side's closure instead
        pts = list(forced_node_set(rng, functions).points)
        odd = BasisFunction.monomial((3,) + (0,) * (n - 1))
        fs = [odd if f == BasisFunction.monomial((2,) + (0,) * (n - 1)) else f for f in functions]
        split, plain = both(fs, pts)
        assert split == plain


def test_duplicate_points_and_functions_give_zero():
    functions = quadratic_basis().functions
    pts = list(case3_set(0, 1, 2, 3).points)
    assert both(functions, pts[:-1] + pts[:1]) == (0, 0)
    assert both(functions[:-1] + functions[:1], pts) == (0, 0)


def _count_eliminated_blocks(monkeypatch):
    dets, determinant = [], _linalg.integer_determinant

    def spy(m):
        dets.append(determinant(m))
        return dets[-1]

    monkeypatch.setattr(interp._linalg, "integer_determinant", spy, raising=False)
    return dets


def test_singular_by_a_non_square_block(monkeypatch):
    # x1, x2 form one free orbit of (1 2); both nodes are fixed by it, so the
    # sign character has a row and no column
    dets = _count_eliminated_blocks(monkeypatch)
    functions = [BasisFunction.monomial((1, 0)), BasisFunction.monomial((0, 1))]
    pts = [Point.of(1, 1), Point.of(2, 2)]
    report = vandermonde(functions, pts)
    assert report.verdict == VERDICT_SINGULAR and report.determinant == 0
    assert dets == []
    assert fraction_determinant(vandermonde_matrix(functions, pts)) == 0


def test_singular_by_a_zero_block(monkeypatch):
    # the quadratic basis vanishes on this case-3 set through its symmetric
    # factor, so the trivial-character block is square and singular
    dets = _count_eliminated_blocks(monkeypatch)
    basis, nodes = quadratic_basis(), case3_set(2, 1, 1, Fraction(7, 4))
    report = vandermonde(basis, nodes)
    assert report.determinant == 0 == fraction_determinant(vandermonde_matrix(basis.functions, nodes.points))
    assert dets and dets[-1] == 0


def test_exact_evaluation_refuses_huge_entries():
    functions = [BasisFunction.monomial((999999999, 0)), BasisFunction.monomial((0, 999999999))]
    with pytest.raises(interp.SymlagError, match="bits"):
        vandermonde(functions, [Point.of(1, 2), Point.of(2, 1)])
    with pytest.raises(interp.SymlagError, match="bits"):
        vandermonde_matrix(functions, [Point.of(Fraction(1, 2), 1)])
    # 0 and 1 have no bits to grow: only the exponents that occur are raised
    assert both(functions, [Point.of(0, 1), Point.of(1, 0)]) == (-1, -1)
