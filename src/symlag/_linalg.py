"""Dense integer determinants and left kernel vectors through one entry.

`_echelon` is a Bareiss pass (Bareiss 1968) whose divisions are all exact;
its pivots give the determinant and the rank.  `left_kernel` runs it once
over the transpose of m, which gives the determinant of a square m or a
left kernel vector.  Every entry is an integer; callers clear denominators
first.
"""
from __future__ import annotations


def _echelon(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free row echelon form of an integer matrix, in place, skipping
    columns without a pivot; returns (pivots, sign of the row swaps)."""
    pivots = []
    sign, prev, r = 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv, tail = m[r][c], m[r][c + 1:]
        for row in m[r + 1:]:
            f = row[c]
            row[c + 1:] = [(x * piv - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            row[c] = 0
        pivots.append(piv)
        prev = piv
        r += 1
    return pivots, sign


def left_kernel(m: list[list[int]]) -> tuple[int, list[int] | None]:
    """(det m, None) when the rows of m are independent, else (0, y) for a
    nonzero integer y with y m = 0; det m is read for a square m only.

    y m = 0 is t y = 0 for the transpose t of m.  One _echelon pass over t
    puts pivots on its diagonal up to the first column f without one; y is
    the last of them at f and 0 after it, and back-substitution through the
    triangle above f gives the rest.  By Cramer's rule each y_i is a minor
    of t, up to sign, so every division is exact.  Without such a column,
    the last pivot of the pass is det t = det m, up to the swaps' sign.

    >>> left_kernel([[1, 2], [2, 4]])
    (0, [-2, 1])
    >>> left_kernel([[1, 2], [3, 4]])
    (-2, None)
    """
    t = [list(column) for column in zip(*m)]
    pivots, sign = _echelon(t)
    f = next((i for i in range(len(m)) if i == len(t) or t[i][i] == 0), None)
    if f is None:
        return sign * pivots[-1] if pivots else 1, None
    y = [0] * len(m)
    y[f] = t[f - 1][f - 1] if f else 1
    for i in reversed(range(f)):
        y[i] = -sum(t[i][j] * y[j] for j in range(i + 1, f + 1)) // t[i][i]
    return 0, y
