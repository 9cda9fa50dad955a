"""Dense integer determinants and leading minors on one fraction-free kernel.

`_echelon` is a Bareiss pass (Bareiss 1968) whose divisions are all exact.
Its pivots give the determinant and the rank, and without row swaps the
k-th pivot is the k-th leading principal minor, so one pass gives them
all.  Every entry is an integer; callers clear denominators first.
"""
from __future__ import annotations

from typing import Sequence


def _echelon(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free row echelon form of an integer matrix, in place.

    Columns without a pivot are skipped.  Returns (pivots, sign of the row
    swaps, lead), where the first ``lead`` pivots sat on the diagonal
    without a swap: those are the leading principal minors.
    """
    pivots = []
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
        prev = piv
        r += 1
    return pivots, sign, lead


def integer_determinant(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, eliminated in place.

    >>> integer_determinant([[2, 1], [4, 3]])
    2
    """
    pivots, sign, _ = _echelon(m)
    if len(pivots) < len(m):
        return 0
    return sign * pivots[-1] if pivots else 1


def leading_principal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of the k x k leading blocks, k = 1..n (Sylvester data).

    One elimination of a copy gives them all unless a leading minor
    vanishes; the minors from that one on are then computed block by block.

    >>> leading_principal_minors([[0, 1], [1, 0]])
    [0, -1]
    """
    pivots, _, lead = _echelon([list(row) for row in rows])
    return pivots[:lead] + [
        integer_determinant([list(row[: k + 1]) for row in rows[: k + 1]]) for k in range(lead, len(rows))
    ]
