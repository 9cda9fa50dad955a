"""Fixed-point table and character Gram matrix, cross-checked by enumeration."""
import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from symlag import (
    KMatrix,
    OrbitType,
    Permutation,
    class_size,
    enumerate_types,
    k_matrix,
    type_rank,
    v_matrix,
)
from symlag import _linalg, charmat
from symlag.errors import DimensionMismatchError

from oracles import (
    cycle_type,
    fixed_point_count,
    fraction_determinant,
    kostka_matrix,
    v_entry_burnside,
    v_kostka_gram,
)

# frozen from the enumeration oracle below (asserted equal in the n<=5 tests)
V4 = (
    (1, 1, 1, 1, 1),
    (1, 2, 2, 3, 4),
    (1, 2, 3, 4, 6),
    (1, 3, 4, 7, 12),
    (1, 4, 6, 12, 24),
)
V5 = (
    (1, 1, 1, 1, 1, 1, 1),
    (1, 2, 2, 3, 3, 4, 5),
    (1, 2, 3, 4, 5, 7, 10),
    (1, 3, 4, 7, 8, 13, 20),
    (1, 3, 5, 8, 11, 18, 30),
    (1, 4, 7, 13, 18, 33, 60),
    (1, 5, 10, 20, 30, 60, 120),
)


# -- class sizes ---------------------------------------------------------------

def test_class_size_identity_is_alone():
    assert class_size(OrbitType((3, 0, 0))) == 1
    assert class_size(OrbitType((6, 0, 0, 0, 0, 0))) == 1


def test_class_size_s3_by_listing():
    tally = {}
    for images in itertools.permutations((1, 2, 3)):
        t = cycle_type(Permutation(images))
        tally[t] = tally.get(t, 0) + 1
    assert class_size(OrbitType((1, 1, 0))) == tally[OrbitType((1, 1, 0))] == 3
    assert class_size(OrbitType((0, 0, 1))) == tally[OrbitType((0, 0, 1))] == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(t) for t in enumerate_types(n)) == factorial(n)


# -- K entries against fixed-point enumeration -----------------------------------

def k_entry(orbit: OrbitType, sigma: OrbitType) -> int:
    return k_matrix(orbit.n).entries[type_rank(sigma) - 1][type_rank(orbit) - 1]


def test_fixed_point_count_examples():
    pair, idn, cyc = OrbitType((1, 1, 0)), OrbitType((3, 0, 0)), OrbitType((0, 0, 1))
    for count in (fixed_point_count, k_entry):
        assert count(pair, idn) == 3   # identity fixes the whole orbit
        assert count(pair, cyc) == 0   # a 3-cycle cannot sit in blocks 1+2
        assert count(pair, pair) == 1  # only (a, b, b) survives (2 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_fixed_point_count_matches_enumeration(n):
    for orbit in enumerate_types(n):
        for sigma in enumerate_types(n):
            assert k_entry(orbit, sigma) == fixed_point_count(orbit, sigma)


def test_fixed_point_count_diagonal_is_product_of_factorials():
    for n in range(1, 8):
        k = k_matrix(n)
        assert k.diagonal() == tuple(prod(factorial(c) for c in t.counts) for t in k.types)


# -- K matrix --------------------------------------------------------------------

def test_k_matrix_n1():
    assert k_matrix(1).entries == ((1,),)


def test_k_matrix_n3_frozen():
    assert k_matrix(3).entries == ((1, 0, 0), (1, 1, 0), (1, 3, 6))


def test_k_matrix_one_point_orbit_column_is_all_ones():
    for n in (2, 3, 4, 5):
        k = k_matrix(n)
        assert all(row[0] == 1 for row in k.entries)


@pytest.mark.parametrize("n", range(1, 8))
def test_k_matrix_lower_triangular_with_positive_diagonal(n):
    k = k_matrix(n)
    assert k.is_lower_triangular()
    assert all(d >= 1 for d in k.diagonal())
    assert k.determinant() != 0


@pytest.mark.parametrize("n", range(1, 11))
def test_k_determinant_is_diagonal_product_and_elimination(n):
    k = k_matrix(n)
    factorials = prod(factorial(c) for t in k.types for c in t.counts)
    assert k.determinant() == _linalg.integer_determinant([list(row) for row in k.entries]) == factorials
    assert fraction_determinant(k.entries) == factorials


def test_k_determinant_refuses_a_table_that_is_not_lower_triangular():
    k = KMatrix(n=2, types=k_matrix(2).types, entries=((1, 1), (1, 2)))
    with pytest.raises(ArithmeticError):
        k.determinant()


def test_k_matrix_smoke_n12():
    k = k_matrix(12)
    assert k.size == 77  # p(12)
    assert k.is_lower_triangular()
    assert all(d >= 1 for d in k.diagonal())


# -- V matrix --------------------------------------------------------------------

def test_v_matrix_n3_known_values():
    v = v_matrix(3)
    assert v.entries == ((1, 1, 1), (1, 2, 3), (1, 3, 6))
    assert v.determinant() == 1


def test_v_matrix_n1():
    assert v_matrix(1).entries == ((1,),)


def test_v_matrix_n4_n5_frozen():
    assert v_matrix(4).entries == V4
    assert v_matrix(5).entries == V5


@pytest.mark.parametrize("n", range(1, 8))
def test_v_matrix_symmetric_positive_definite(n):
    v = v_matrix(n)
    assert v.is_symmetric()
    assert all(m > 0 for m in v.leading_principal_minors())


@pytest.mark.parametrize("n", range(1, 8))
def test_v_matrix_border_is_all_ones(n):
    v = v_matrix(n)
    assert all(x == 1 for x in v.entries[0])
    assert all(row[0] == 1 for row in v.entries)


def test_v_matrix_refuses_a_sum_that_n_factorial_does_not_divide(monkeypatch):
    # with every class size 1, <chi_1, chi_1> sums to 3 over the 3 classes of S_3
    monkeypatch.setattr(charmat, "class_size", lambda t: 1)
    with pytest.raises(ArithmeticError, match=r"<chi_1, chi_1> = 3/6 is not an integer"):
        charmat.v_matrix.__wrapped__(3)


# -- V X = r through K ---------------------------------------------------------------

def test_v_solve_examples():
    assert charmat.v_solve(3, (2, 4, 6)) == [0, 2, 0]
    assert charmat.v_solve(3, (1, 1, 2)) == [2, -2, 1]


def test_v_solve_refuses_an_inexact_division(monkeypatch):
    # V = (1) for n = 1; a class of size 2 would make X = 1/2
    monkeypatch.setattr(charmat, "class_size", lambda t: 2)
    with pytest.raises(ArithmeticError, match="not integral"):
        charmat.v_solve(1, (1,))


def test_v_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError):
        charmat.v_solve(3, (1, 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_every_character_sees_one_orbit_under_the_full_group(n):
    # <chi_j, 1> = (1/n!) sum_i |A_i| K[i][j] must be 1: each class is transitive
    k = k_matrix(n)
    sizes = [class_size(t) for t in k.types]
    for j in range(k.size):
        total = sum(sizes[i] * k.entries[i][j] for i in range(k.size))
        assert Fraction(total, factorial(n)) == 1


# -- Burnside oracle ---------------------------------------------------------------

def test_v_entry_burnside_examples():
    types = enumerate_types(3)
    top = types.index(OrbitType((0, 0, 1))) + 1
    pair = types.index(OrbitType((1, 1, 0))) + 1
    free = types.index(OrbitType((3, 0, 0))) + 1
    assert all(v_entry_burnside(top, j, 3) == 1 for j in (1, 2, 3))
    assert v_entry_burnside(pair, pair, 3) == 2
    assert v_entry_burnside(free, pair, 3) == 3


@pytest.mark.parametrize("n", range(1, 6))
def test_burnside_agrees_with_character_inner_products(n):
    v = v_matrix(n)
    for i in range(1, v.size + 1):
        for j in range(1, v.size + 1):
            assert v_entry_burnside(i, j, n) == v.entries[i - 1][j - 1]


# -- Kostka oracle: V = L^T L without n! ------------------------------------------

@pytest.mark.parametrize("n", range(1, 14))
def test_v_matrix_is_the_kostka_gram_matrix(n):
    assert v_kostka_gram(n) == [list(row) for row in v_matrix(n).entries]


@pytest.mark.parametrize("n", range(1, 14))
def test_kostka_matrix_is_unitriangular_in_the_type_order(n):
    # with V = L^T L, a unitriangular L makes every leading principal minor
    # of V, and det V, equal to 1
    table = kostka_matrix(n)
    assert all(table[a][a] == 1 for a in range(len(table)))
    assert all(table[a][b] == 0 for a in range(len(table)) for b in range(a))


def test_v_entries_are_deterministic_across_orders():
    rng = random.Random(5)
    v = v_matrix(4)
    cells = [(i, j) for i in range(v.size) for j in range(v.size)]
    rng.shuffle(cells)
    k = k_matrix(4)
    sizes = [class_size(t) for t in k.types]
    for i, j in cells:
        acc = sum(sizes[r] * k.entries[r][i] * k.entries[r][j] for r in range(k.size))
        assert Fraction(acc, factorial(4)) == v.entries[i][j]
