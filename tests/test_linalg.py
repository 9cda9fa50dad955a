"""The integer elimination kernel against independent references.

Rational cases are cleared to integers here, row by row; determinants and
leading minors are then checked against the Leibniz permutation expansion
of the rational matrix times the row multipliers, and pivot counts against
the size of the largest nonzero minor.
"""
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod

import pytest

from symlag import _linalg

F = Fraction


def leibniz(a) -> Fraction:
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod((a[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


def reference_rank(a) -> int:
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if leibniz([[a[i][j] for j in cs] for i in rs]) != 0:
                    return k
    return 0


def cleared(a) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators; returns (rows, multipliers)."""
    rows, mults = [], []
    for row in a:
        mult = lcm(*(F(x).denominator for x in row))
        rows.append([int(F(x) * mult) for x in row])
        mults.append(mult)
    return rows, mults


SQUARE = {
    "empty": [],
    "one-by-one": [[F(-3, 7)]],
    "zero-one-by-one": [[0]],
    "needs-a-swap": [[0, 2, 1], [3, 1, 0], [1, 1, 1]],
    "zero-leading-minor": [[0, 1], [1, 0]],
    "later-minors-nonzero": [[1, 1, 2], [1, 1, 3], [2, 5, 1]],
    "two-swaps": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "rational": [[F(1, 2), F(1, 3), F(1, 4)], [F(1, 3), F(1, 4), F(1, 5)], [F(1, 4), F(1, 5), F(1, 6)]],
    "spd-integer": [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]],
    "singular-rows": [[1, 2, 3], [2, 4, 6], [F(1, 2), 5, -1]],
    "singular-zero-column": [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
    "singular-rank-one": [[F(2, 3), F(4, 3)], [1, 2]],
    "five-by-five": [
        [2, -1, 0, 3, F(1, 2)],
        [0, 0, 4, 1, -2],
        [1, 3, -2, 0, 5],
        [F(-2, 3), 1, 1, 1, 0],
        [4, 0, F(5, 4), -3, 2],
    ],
}

RECTANGULAR = {
    "wide-full-rank": [[1, 2, 3, 4], [0, 1, 0, 1]],
    "wide-rank-deficient": [[1, 2, 3, 4], [2, 4, 6, 8], [F(1, 2), 1, F(3, 2), 2]],
    "wide-zero-leading-columns": [[0, 0, 1, 2], [0, 0, 3, 6]],
    "tall-full-rank": [[1, 0], [0, 1], [1, 1]],
    "tall-rank-deficient": [[1, 2], [2, 4], [F(-1, 3), F(-2, 3)], [0, 0]],
    "zero-matrix": [[0, 0, 0], [0, 0, 0]],
    "no-columns": [[], []],
}


@pytest.mark.parametrize("name", SQUARE)
def test_determinant_matches_leibniz(name):
    a = SQUARE[name]
    m, mults = cleared(a)
    det = _linalg.integer_determinant(m)
    assert type(det) is int
    assert det == leibniz(a) * prod(mults)


@pytest.mark.parametrize("name", SQUARE)
def test_leading_minors_match_leibniz_of_each_block(name):
    a = SQUARE[name]
    m, mults = cleared(a)
    expected = [leibniz([row[:k] for row in a[:k]]) * prod(mults[:k]) for k in range(1, len(a) + 1)]
    minors = _linalg.leading_principal_minors(m)
    assert all(type(x) is int for x in minors)
    assert minors == expected
    assert m == cleared(a)[0]  # the rows given are left as they were


def test_zero_leading_minor_then_nonzero():
    assert _linalg.leading_principal_minors([[0, 1], [1, 0]]) == [0, -1]


@pytest.mark.parametrize("name", [*SQUARE, *RECTANGULAR])
def test_rank_is_largest_nonzero_minor(name):
    # the kernel finds one pivot per unit of rank, which is how the
    # determinant tells a singular matrix apart
    a = {**SQUARE, **RECTANGULAR}[name]
    pivots, _, _ = _linalg._echelon(cleared(a)[0])
    assert len(pivots) == reference_rank(a)
