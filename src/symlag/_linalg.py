"""Small dense exact linear algebra on one fraction-free elimination kernel.

The exact routines clear rational rows to integers and run `_echelon`, a
Bareiss pass whose divisions are all exact.  Its pivots give the
determinant, the rank, the leading principal minors (without row swaps the
k-th pivot is the k-th leading minor, Bareiss 1968) and, on [A | b], the
triangular system of an exact solve.  All arithmetic is over the integers
and the rationals.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .errors import SingularMatrixError

Matrix = Sequence[Sequence[Fraction | int]]


def _cleared(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Scale each row to integers; returns (int matrix, row multipliers)."""
    out, mults = [], []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fr))
        mults.append(mult)
        out.append([int(f * mult) for f in fr])
    return out, mults


def _echelon(m: list[list[int]]) -> tuple[list[int], list[int], int, int]:
    """Fraction-free row echelon form of an integer matrix, in place.

    Columns without a pivot are skipped.  Returns (pivots, pivot columns,
    sign of the row swaps, lead), where the first ``lead`` pivots sat on the
    diagonal without a swap: those are the leading principal minors.
    """
    pivots, cols = [], []
    sign, lead, prev, r = 1, 0, 1, 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        elif lead == r == c:
            lead += 1
        piv, tail = m[r][c], m[r][c + 1:]
        for row in m[r + 1:]:
            f = row[c]
            row[c + 1:] = [(x * piv - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            row[c] = 0
        pivots.append(piv)
        cols.append(c)
        prev = piv
        r += 1
    return pivots, cols, sign, lead


def integer_determinant(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, eliminated in place."""
    pivots, _, sign, _ = _echelon(m)
    if len(pivots) < len(m):
        return 0
    return sign * pivots[-1] if pivots else 1


def exact_determinant(rows: Matrix) -> Fraction:
    """Determinant of a square rational matrix."""
    cleared, mults = _cleared(rows)
    return Fraction(integer_determinant(cleared), prod(mults))


def leading_principal_minors(rows: Matrix) -> list[Fraction]:
    """Determinants of the k x k leading blocks, k = 1..n (Sylvester data).

    One elimination gives them all unless a leading minor vanishes; the
    minors from that one on are then computed block by block.
    """
    n = len(rows)
    cleared, mults = _cleared(rows)
    pivots, _, _, lead = _echelon(cleared)
    minors, scale = [], 1
    for piv, mult in zip(pivots[:lead], mults):
        scale *= mult
        minors.append(Fraction(piv, scale))
    return minors + [exact_determinant([row[: k + 1] for row in rows[: k + 1]]) for k in range(lead, n)]


def solve_exact(rows: Matrix, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve a square rational system exactly.

    Eliminates the augmented matrix [A | b], then back-substitutes over the
    rationals.  Raises SingularMatrixError when no unique solution exists;
    callers use this for matrices the theory certifies invertible.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_exact needs a square system with matching rhs")
    m, _ = _cleared([[*row, b] for row, b in zip(rows, rhs)])
    if _echelon(m)[1] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = Fraction(m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n)), m[k][k])
    return x

