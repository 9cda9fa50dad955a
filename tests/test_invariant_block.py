"""The S_n-invariant block against the full evaluation matrix.

`vandermonde` first builds the block B[O][P] = sum_{f in O} f(a_P), one row
per basis orbit and one column per node orbit.  A singular block decides
`singular` with a polynomial g = sum_O y_O s_O sum_{f in O} f, which
`interp._invariant_certificate` checks zero at one node per orbit.  Here g
is rebuilt from y by Fraction arithmetic and evaluated at every node by
`oracles.evaluate`, and plain elimination (`oracles.fraction_determinant`)
decides the full matrix.
"""
import random
from math import lcm

import pytest

from symlag import BasisFunction, Point, validate_symmetric, validate_symmetric_basis, vandermonde, vandermonde_matrix
from symlag import interp
from symlag.interp import VERDICT_SINGULAR

from oracles import evaluate, fraction_determinant
from conftest import TOTAL_DEGREE, forced_node_set, forced_vector, hyperplane_set, total_degree_exponents

def certificate(basis, nodes):
    cleared, degree = interp._cleared_points(basis.functions, [p.coords for p in nodes.points])
    det, found = interp._invariant_certificate(basis, nodes, cleared, degree)
    # the one elimination gives B's determinant or a certificate, never both
    assert (det == 0) == (found is not None)
    return found


def combination(basis, y) -> dict:
    """sum_O y_O s_O sum_{f in O} f in Fractions, zero terms dropped."""
    terms: dict = {}
    for weight, orbit in zip(y, basis.orbits):
        scale = lcm(*(c.denominator for _, c in basis.functions[orbit[0]].terms))
        for f in map(basis.functions.__getitem__, orbit):
            for exponents, c in f.terms:
                terms[exponents] = terms.get(exponents, 0) + weight * scale * c
    return {exponents: c for exponents, c in terms.items() if c}


def check_pair(basis, nodes) -> bool:
    """The properties of one pair; whether its invariant block was singular."""
    matrix = vandermonde_matrix(basis.functions, nodes.points)
    found = certificate(basis, nodes)
    report = vandermonde(basis, nodes)
    if found is None:
        # a nonsingular block proves nothing: the split decides, sign included
        assert report.determinant == fraction_determinant(matrix)
        return False
    y, g = found
    assert report.verdict == VERDICT_SINGULAR and report.determinant == 0
    assert fraction_determinant(matrix) == 0
    assert len(y) == len(basis.orbits) and any(y)
    assert g == combination(basis, y)
    # g is nonzero, or y is a nonzero dependency among the functions; either
    # way g vanishes on every node, not only on the orbit representatives
    if g:
        g = BasisFunction.from_terms(g.items())
        assert all(evaluate(g, p) == 0 for p in nodes.points)
    return True


@pytest.mark.parametrize("n", range(2, 7))
def test_hyperplane_sets_are_decided_by_the_invariant_block(n):
    # the product of the d plane forms is symmetric, of total degree d
    rng = random.Random(7600 + n)
    d = TOTAL_DEGREE[n]
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, d)]
    basis = validate_symmetric_basis(functions)
    vector = forced_vector(functions)
    for _ in range(3):
        assert check_pair(basis, hyperplane_set(rng, vector, n, d))


@pytest.mark.parametrize("n", range(1, 7))
def test_forced_generic_sets_keep_the_split_determinant(n):
    rng = random.Random(7700 + n)
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, TOTAL_DEGREE[n])]
    basis = validate_symmetric_basis(functions)
    decided = [check_pair(basis, forced_node_set(rng, functions)) for _ in range(3)]
    assert not all(decided)


def test_a_singular_pair_the_invariant_block_misses_goes_to_the_split():
    # (x1 - x2)(x1 + x2 - 3) lies in total degree 2 and vanishes on the
    # diagonal and on both free orbits, whose sums are 3; it is
    # antisymmetric, and no symmetric polynomial of degree 2 vanishes there
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(2, 2)]
    basis = validate_symmetric_basis(functions)
    nodes = validate_symmetric([Point.of(*p) for p in [(1, 1), (5, 5), (0, 3), (3, 0), (1, 2), (2, 1)]])
    assert certificate(basis, nodes) is None
    assert not check_pair(basis, nodes)
    assert vandermonde(basis, nodes).verdict == VERDICT_SINGULAR


def test_a_dependent_basis_is_its_own_certificate():
    # x1 - x2 and x2 - x1 sum to zero over their orbit, so the block's only
    # row is zero and g cancels: y is the dependency f1 + f2 = 0
    f = BasisFunction.from_terms([((1, 0), 1), ((0, 1), -1)])
    basis = validate_symmetric_basis([f, BasisFunction.from_terms([((1, 0), -1), ((0, 1), 1)])])
    nodes = validate_symmetric([Point.of(0, 1), Point.of(1, 0)])
    assert certificate(basis, nodes) == ([1], {})
    assert check_pair(basis, nodes)


def test_a_kernel_vector_that_is_not_one_fails_the_check(monkeypatch):
    rng = random.Random(79)
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(3, 4)]
    basis, nodes = validate_symmetric_basis(functions), forced_node_set(rng, functions)
    assert certificate(basis, nodes) is None
    monkeypatch.setattr(interp._linalg, "left_kernel", lambda m: (0, [1] + [0] * (len(m) - 1)))
    with pytest.raises(ArithmeticError, match="not zero at every node"):
        vandermonde(basis, nodes)

