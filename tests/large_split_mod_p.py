"""The split determinant against elimination mod p at N = 210, 252 and 330.

Too slow for the tier-1 suite, whose pattern ``test_*.py`` this file's name
falls outside; run it by name:

    PYTHONPATH=src python -m pytest -q tests/large_split_mod_p.py

Each case follows ``test_split_matches_elimination_mod_p_at_benchmark_size``
at a larger total-degree basis: a random node set with the orbit vector the
basis forces, an exact determinant from ``vandermonde`` that must be
nonzero, and elimination over Z/p, p = 2^61 - 1, on the matrix with its rows
and columns in the sets' sorted order, which must give its residue, sign
included.
"""
import random

import pytest

from symlag import BasisFunction, validate_symmetric_basis, vandermonde

from oracles import determinant_mod_p, residue, vandermonde_mod_p
from conftest import forced_node_set, total_degree_exponents


@pytest.mark.parametrize("n, d", [(6, 4), (5, 5), (4, 7)], ids=["N210", "N252", "N330"])
def test_split_matches_elimination_mod_p_at_large_size(n, d):
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, d)]
    basis = validate_symmetric_basis(functions)
    nodes = forced_node_set(random.Random(7500), functions)
    det = vandermonde(basis, nodes).determinant
    assert det != 0
    assert residue(det) == determinant_mod_p(vandermonde_mod_p(basis.functions, nodes.points))
