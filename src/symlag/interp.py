"""Symbolic polynomial bases, the generalized Vandermonde test, and VX = r.

Basis functions are multivariate polynomials with exact rational
coefficients, stored as (exponent vector, coefficient) terms sorted by
exponent vector, so that equality (and hence symmetry closure and orbit
decomposition) is decidable.  Permuting variables sends the monomial x^e
to x^(e') with e'[j] = e[sigma(j)], the same coordinate action used for
points, and evaluation satisfies (sigma f)(x) = f(sigma^{-1} x).

Unisolvence of a (basis, nodes) pair is decided by the exact determinant
of the evaluation matrix f_i(a_j), evaluated over the integers: each point
a as the homogeneous vector (q, q a_1, ..., q a_n), q the lcm of its
denominators, and each function scaled by the lcm of its coefficient
denominators.  The S_n-invariant block comes first: one row per basis
orbit, one column per node orbit.  If it is singular, a polynomial in the
span of the basis, checked zero at the nodes, proves the determinant 0.
Otherwise the matrix is split into one block per character of the group
generated by the swaps (1 2), (3 4), ... that preserve both sets; the
trivial character's block is split again by the pair swaps
(1 3)(2 4), (5 7)(6 8), ..., and what stays trivial is split into the
invariant block, already eliminated, and its complement.  Each other
block goes through _linalg.left_kernel, the pass that eliminates the
invariant block, and the blocks' determinants give the determinant: the
pair is unisolvent exactly when it is not zero.  Inputs whose determinant
would exceed MAX_DETERMINANT_BITS, or whose blocks MAX_ELIMINATION_WORK,
are refused before evaluation.
Before any determinant work, cheap necessary conditions run: equal
counts, equal orbit counts, and the orbit vector forced by the exact
linear system V X = r, solved and certified through the triangular factor
K of V, without building V.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import comb, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from . import _linalg
from .charmat import KMatrix, k_matrix, v_solve
from .errors import DimensionMismatchError, NotSymmetricError, SizeMismatchError, SymlagError, echo
from .nodeset import NodeSet, Point, orbit_vector, read_json, too_many_digits
from .symcore import (
    Permutation,
    Record,
    adjacent_transpositions,
    apply_to_point,
    check_dimension,
    enumerate_types,
    orbit_classes,
    orbit_size,
    stabilizer_orbit_count,
    swap_images,
)

VERDICT_UNISOLVENT = "unisolvent"
VERDICT_SINGULAR = "singular"


def _monomial_str(exponents: Sequence[int]) -> str:
    """x1^e1 * ... * xn^en as 'x1^2*x3', or '1' for the constant monomial."""
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exponents, start=1) if e]
    return "*".join(parts) or "1"


_MONO_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _monomial_factors(text: str) -> dict[int, int]:
    """Variable index -> exponent of shorthand like 'x1^2*x3' ({} for '1')."""
    body = text.replace(" ", "")
    if not body:
        raise ValueError("empty monomial string")
    exps: dict[int, int] = {}
    if body != "1":
        for factor in body.split("*"):
            m = _MONO_FACTOR.match(factor)
            if m is None:
                raise ValueError(f"cannot parse monomial factor {echo(factor)} in {echo(text)}")
            try:  # int() refuses only more digits than Python reads
                idx = int(number := m.group(1))
                e = int(number := m.group(2) or "1")
            except ValueError:
                raise too_many_digits(number) from None
            if idx < 1:
                raise ValueError(f"variable index must be >= 1 in {echo(text)}")
            exps[idx] = exps.get(idx, 0) + e
    return exps


def monomial_from_string(text: str, n: int | None = None) -> tuple[int, ...]:
    """The exponent vector of shorthand like 'x1^2*x3' (or '1' for the constant monomial).

    Unless given, n is the largest variable index mentioned; either way it
    may not exceed MAX_DIMENSION, checked before the vector is built.

    >>> monomial_from_string("x1^2*x3")
    (2, 0, 1)
    >>> monomial_from_string("x2*x2", n=4)
    (0, 2, 0, 0)
    """
    exps = _monomial_factors(text)
    dim = n if n is not None else max(exps, default=1)
    if exps and max(exps) > dim:
        raise ValueError(f"monomial {echo(text)} uses x{echo(max(exps))} but n = {dim}")
    check_dimension(dim, f"the dimension of monomial {echo(text)}")
    return tuple(exps.get(i, 0) for i in range(1, dim + 1))


class BasisFunction(NamedTuple("BasisFunction", [("terms", tuple[tuple[tuple[int, ...], Fraction], ...])])):
    """A polynomial as its terms (exponent vector, nonzero rational coefficient).

    Terms are kept sorted by exponent vector, zero coefficients dropped, so
    two equal polynomials compare equal as values, and functions sort by
    their terms.
    """

    __slots__ = ()

    def __new__(cls, terms: Sequence[tuple[tuple[int, ...], Fraction]]) -> "BasisFunction":
        if not terms:
            raise ValueError("the zero polynomial cannot be a basis function")
        return super().__new__(cls, terms)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Sequence[int], Fraction | int]]) -> "BasisFunction":
        merged: dict[tuple[int, ...], Fraction] = {}
        for exponents, coeff in terms:
            exponents = tuple(int(e) for e in exponents)
            if not exponents or any(e < 0 for e in exponents):
                raise ValueError(f"invalid exponent vector {echo(exponents)}")
            merged[exponents] = merged.get(exponents, Fraction(0)) + Fraction(coeff)
        kept = [(e, c) for e, c in merged.items() if c != 0]
        if not kept:
            raise ValueError("all terms cancelled; the zero polynomial cannot be a basis function")
        dims = {len(e) for e, _ in kept}
        if len(dims) != 1:
            raise DimensionMismatchError(f"terms of mixed dimensions {sorted(dims)}")
        return cls(tuple(sorted(kept)))

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: Fraction | int = 1) -> "BasisFunction":
        return cls.from_terms([(exponents, coeff)])

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

    def permuted(self, sigma: Permutation) -> "BasisFunction":
        """x^e becomes x^(sigma e), the point action on exponent vectors.

        Distinct vectors stay distinct and coefficients are kept, so the
        terms only need sorting again.

        >>> f = BasisFunction.from_terms([((2, 0), 1), ((0, 1), 1)])
        >>> str(f), str(f.permuted(Permutation.transposition(2, 1, 2)))
        ('x2 + x1^2', 'x2^2 + x1')
        """
        return BasisFunction(tuple(sorted((apply_to_point(sigma, e), c) for e, c in self.terms)))

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms:
            mono = _monomial_str(e)
            if c == 1 and mono != "1":
                parts.append(mono)
            elif mono == "1":
                parts.append(str(c))
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


class BasisSet(Record):
    """A validated symmetric set of basis functions with its S_n-orbit decomposition.

    Each orbit is the tuple of its members' indices in ``functions``,
    ascending, orbits in the order of their first member.  Linear
    independence is *not* implied; a dependent set makes every evaluation
    matrix singular, which ``vandermonde`` reports.
    """

    # swaps: the swap_images of ``functions``, in adjacent_transpositions(n)
    # order; they follow from the other fields and are neither compared nor shown
    _compared = ("n", "functions", "orbits")
    __slots__ = (*_compared, "swaps")

    def __len__(self) -> int:
        return len(self.functions)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def validate_symmetric_basis(functions: Iterable[BasisFunction], n: int | None = None) -> BasisSet:
    """Check closure of the function set under variable permutation.

    As with node sets, closure under the adjacent transpositions is closure
    under all of S_n.  Raises NotSymmetricError at the first (transposition,
    f) pair, in transposition-major order and f in sorted order, whose image
    is not in the set.
    """
    fs = list(functions)
    dim = fs[0].n if fs else n
    if dim is None:
        raise ValueError("empty basis needs an explicit dimension n")
    if n is not None and n != dim:
        raise DimensionMismatchError(f"functions have dimension {dim}, expected {n}")
    for f in fs:
        if f.n != dim:
            raise DimensionMismatchError(f"mixed dimensions {dim} and {f.n}")
    if len(set(fs)) != len(fs):
        raise ValueError("duplicate basis function in input")

    ordered = sorted(fs)
    generators = adjacent_transpositions(dim)
    swaps = swap_images(ordered, generators)
    for tau, image in zip(generators, swaps):
        if None in image:
            raise NotSymmetricError(ordered[image.index(None)], tau, kind="function")
    orbits = tuple(map(tuple, orbit_classes(swaps, len(ordered))))
    return BasisSet(n=dim, functions=tuple(ordered), orbits=orbits, swaps=swaps)


def r_vector(b: BasisSet) -> tuple[int, ...]:
    """r[i] = number of basis-function orbits under the class-(i+1) stabilizer,
    ranks in the descending type order, from the swap maps validation kept."""
    return tuple(stabilizer_orbit_count(b.swaps, t, len(b)) for t in enumerate_types(b.n))


class ConstraintSystem(NamedTuple):
    """The exact system V X = r and its solution, classified for admissibility.

    V = L^T L with L the unitriangular Kostka matrix, so det V = 1 and the
    solution is an integer vector for every integer r.  Admissible means
    every component is non-negative; a negative component proves no
    symmetric node set can make the problem unisolvent with this basis.
    """

    r: tuple[int, ...]
    solution: tuple[int, ...]
    admissible: bool
    reason: str | None

    def integer_solution(self) -> tuple[int, ...]:
        if not self.admissible:
            raise ValueError("constraint system is infeasible; no integer solution")
        return self.solution


def solve_constraints(k: KMatrix, r: Sequence[int]) -> ConstraintSystem:
    """Solve V X = r exactly for the dimension of ``k`` and classify the solution.

    Only ``k.n`` is read: X comes from v_solve, which solves and certifies
    it through the factor K of V, so any table of that dimension (K, or V
    itself) may be passed.  A non-integral or uncertified X raises
    ArithmeticError, an r of the wrong length DimensionMismatchError.
    """
    solution = tuple(v_solve(k.n, r))
    reason = None
    for i, x in enumerate(solution):
        if x < 0:
            reason = f"component X_{i + 1} = {x} is negative"
            break
    return ConstraintSystem(
        r=tuple(int(x) for x in r), solution=solution,
        admissible=reason is None, reason=reason,
    )


class UnisolvenceReport(NamedTuple):
    """Size of the evaluation matrix f_i(a_j), its exact determinant, and the verdict."""

    size: int
    determinant: Fraction
    verdict: str

    @property
    def unisolvent(self) -> bool:
        return self.verdict == VERDICT_UNISOLVENT


# Exact evaluation refuses a (basis, nodes) pair whose determinant is
# estimated to need more bits than this: N times the bits of the largest
# cleared matrix entry.
MAX_DETERMINANT_BITS = 1 << 18

# A basis file is refused, before any function is read, when it holds more
# functions than this (reading takes about 0.24 ms per function in R^24, less
# in fewer dimensions), or when its functions times the stabilizer generators
# of all types, the union steps of r_vector (about 0.5 us each), exceed
# MAX_ORBIT_WORK: each bound is about 30 s on a 2-vCPU Xeon (Python 3.11).
MAX_BASIS_FUNCTIONS = 125_000
MAX_ORBIT_WORK = 60_000_000

# analyze refuses a node set over which the character blocks of the first
# layer of _split_determinant, their sizes cubed and summed, exceed this:
# about 30 s of elimination on a 2-vCPU Xeon (Python 3.11) when the split was
# that layer alone, where the grid {-1, 0, 1}^7 (3.9e8) took 56 s.  The later
# layers only split the trivial block further, so the work is now less.
MAX_ELIMINATION_WORK = 250_000_000


def check_elimination_work(nodes: NodeSet) -> None:
    """Raise SymlagError when the character blocks of the first layer of
    _split_determinant over ``nodes``, their sizes cubed and summed, exceed
    MAX_ELIMINATION_WORK; the blocks the split eliminates come to no more.

    The swap (2i-1 2i) fixes a node, bit i of its mask f, when those two
    coordinates are equal; its orbit of 2^(k - |f|) nodes gives one column
    to the block of each character c with c & f = 0.  Only square blocks
    are eliminated, so the nodes alone give their sizes.  A permutation of
    the pairs keeps the set, hence the multiset of masks, so a block's size
    depends only on its character's weight j: the character 2^j - 1 stands
    for C(k, j) blocks.  The masks are counted rather than the blocks of
    _orbits built over the nodes' swap maps, since those maps permute each
    node k times: on the grid {-1, 0, 1}^9 maps and blocks took 113 ms
    against 17 ms for the masks (best of 5, 2-vCPU Xeon, Python 3.11), all
    before the basis is read.  A test checks the sum against those blocks,
    and against the blocks the split eliminates.
    """
    k = nodes.n // 2
    masks = Counter(sum((r[2 * i] == r[2 * i + 1]) << i for i in range(k)) for r in nodes.ranks)
    sizes = [sum(m >> (k - f.bit_count()) for f, m in masks.items() if not f & ((1 << j) - 1)) for j in range(k + 1)]
    work = sum(comb(k, j) * size**3 for j, size in enumerate(sizes))
    if work > MAX_ELIMINATION_WORK:
        raise SymlagError(
            f"exact evaluation over {len(nodes)} nodes would eliminate blocks whose sizes, cubed and summed, "
            f"come to {work}, above the limit of {MAX_ELIMINATION_WORK}; use fewer nodes"
        )


def _log2_bound(x: int) -> int:
    """An integer upper bound on log2 |x|; 0 when |x| <= 1."""
    return max(abs(x) - 1, 0).bit_length()


def _cleared_points(
    functions: Sequence[BasisFunction], points: Sequence[Sequence[Fraction]]
) -> tuple[list[tuple[int, ...]], int]:
    """Each point a, given by its coordinates, as the homogeneous integer
    vector (q, q a_1, ..., q a_n), q the lcm of its coordinate denominators,
    and the largest total degree D of the functions.

    Raises SymlagError, before any power is taken, when N times the
    estimated bits of the largest cleared entry s_i q_j^D f_i(a_j) exceeds
    MAX_DETERMINANT_BITS.
    """
    dims = {len(p) for p in points}
    for f in functions:
        if dims - {f.n}:
            bad = next(p for p in points if len(p) != f.n)
            raise DimensionMismatchError(f"point of dimension {len(bad)}, function of dimension {f.n}")
    cleared = []
    for p in points:
        q = lcm(*(c.denominator for c in p))
        cleared.append((q, *(c.numerator * (q // c.denominator) for c in p)))
    degree = max((sum(e) for f in functions for e, _ in f.terms), default=0)
    if functions and points:
        q_bits, *coord_bits = (max(map(_log2_bound, column)) for column in zip(*cleared))
        entry_bits = degree * q_bits + max(sum(map(mul, e, coord_bits)) for f in functions for e, _ in f.terms)
        estimate = max(len(functions), len(points)) * entry_bits
        if estimate > MAX_DETERMINANT_BITS:
            raise SymlagError(
                f"exact evaluation would need about {estimate} bits, above the limit of "
                f"{MAX_DETERMINANT_BITS}; lower the basis degree or the size of the node coordinates"
            )
    return cleared, degree


def _cleared_values(
    terms: Iterable[tuple[tuple[int, ...], int]], cleared: Sequence[tuple[int, ...]], degree: int
) -> list[int]:
    """q^D g(a) at each cleared point (q, q a_1, ..., q a_n) of _cleared_points,
    for the polynomial g of the integer terms (exponents e, c), of degree at
    most D, each homogenized to c x_0^(D - |e|) x^e."""
    homogeneous = [(c, (degree - sum(e), *e)) for e, c in terms]
    return [sum(c * prod(map(pow, x, e)) for c, e in homogeneous) for x in cleared]


def _row_scale(f: BasisFunction) -> int:
    """The lcm of f's coefficient denominators, which makes s f integral."""
    return lcm(*(c.denominator for _, c in f.terms))


def _integer_rows(
    functions: Sequence[BasisFunction], cleared: Sequence[tuple[int, ...]], degree: int
) -> tuple[list[list[int]], list[int]]:
    """Rows s_i q_j^D f_i(a_j) over the cleared points, and the row scales
    s_i of _row_scale."""
    scales = [_row_scale(f) for f in functions]
    rows = [
        _cleared_values([(exponents, int(c * s)) for exponents, c in f.terms], cleared, degree)
        for f, s in zip(functions, scales)
    ]
    return rows, scales


def vandermonde_matrix(functions: Sequence[BasisFunction], points: Sequence[Point]) -> list[list[Fraction]]:
    """Exact evaluation matrix with rows f_i and columns a_j."""
    cleared, degree = _cleared_points(functions, [p.coords for p in points])
    rows, scales = _integer_rows(functions, cleared, degree)
    columns = [x[0] ** degree for x in cleared]
    return [[Fraction(x, s * t) for x, t in zip(row, columns)] for row, s in zip(rows, scales)]


def _orbits(
    maps: Sequence[Sequence[int]], size: int
) -> tuple[list[tuple[list[int], list[int]]], list[list[tuple[int, int]]]]:
    """Orbits of the group A generated by commuting involutions (index maps),
    and the block of each character of A.

    An element or character of A is a bitmask over the generators.  Each
    orbit is (members, free), grown from its first item x one generator at
    a time: a generator that takes x outside the members found so far is
    free and doubles them, so members[u] is x moved by the free generators
    named by the bits of u.  Each g_b then takes x to some members[u_b], so
    g_b g_(u_b) fixes x; these relations generate the stabilizer of x, and
    a character is trivial on it exactly when it is parity(w & u_b) on each
    g_b, w being its values on the free generators as bits.  blocks[c]
    lists (orbit, w), orbits ascending, for each orbit on whose stabilizer
    c is trivial: O(k) steps per item for k generators.
    """
    place: list[int | None] = [None] * size  # an item's index among its orbit's members
    orbits, blocks = [], [[] for _ in range(1 << len(maps))]
    for x in range(size):
        if place[x] is not None:
            continue
        place[x] = 0
        members, free, relations = [x], [], []
        for b, g in enumerate(maps):
            if place[g[x]] is None:
                free.append(b)
                for y in members[:]:
                    place[g[y]] = len(members)
                    members.append(g[y])
            relations.append(place[g[x]])
        for w in range(len(members)):
            blocks[sum(((w & u).bit_count() & 1) << b for b, u in enumerate(relations))].append((len(orbits), w))
        orbits.append((members, free))
    return orbits, blocks


def _odd(order: Sequence[int]) -> int:
    """1 when listing 0..N-1 in ``order`` is an odd permutation, else 0."""
    # a permutation of N items has the parity of N minus its number of cycles
    return (len(order) - len(Permutation(tuple(i + 1 for i in order)).cycles())) & 1


def _adapted_basis_determinant(orbits, blocks) -> int:
    """Determinant of the symmetry-adapted basis of one side, from _orbits.

    Its columns, in the order of ``blocks``, are the vectors
    sum_u chi(g_u) e_{members[u]}, one per (orbit, w) of the block of chi.
    Grouped by orbit it is block diagonal, one Sylvester block
    [(-1)^popcount(u & w)] of order 2^m per orbit, whose determinant is 1,
    -2 and 2^(m 2^(m-1)) for m = 0, 1 and m >= 2.
    """
    at = {key: i for i, key in enumerate(key for block in blocks for key in block)}
    rows = [y for members, _ in orbits for y in members]
    columns = [at[o, w] for o, (members, _) in enumerate(orbits) for w in range(len(members))]
    det = -1 if _odd(rows) ^ _odd(columns) else 1
    for _, free in orbits:
        m = len(free)
        det *= (1, -2)[m] if m < 2 else 2 ** (m << (m - 1))
    return det


def _walsh(values: list[int]) -> list[int]:
    """[sum_u (-1)^popcount(u & w) values[u] for w], by the fast transform."""
    v, h = list(values), 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


def _character_split(rows_of, row_maps, column_maps, size: int):
    """One layer of the split of a square matrix M of ``size`` rows, whose
    entries commuting involutions keep: M[g r, g c] = M[r, c], g acting by
    ``row_maps`` on rows and by ``column_maps`` on columns, rows_of(indices)
    giving M's rows at those indices.

    Returns (det T_r / det T_c, blocks, row orbits, column orbits), blocks
    in the order of the characters, the trivial one first, or None when a
    block is not square, which makes M singular.  The block of chi is
    B_chi[r, (c, w)] = sum_u chi(g_u) M[r, g_u c] over the orbit
    representatives of _orbits; T_r and T_c are the adapted bases of
    _adapted_basis_determinant, and det M = det T_r / det T_c * prod_chi
    det B_chi (Fassler & Stiefel 1992).  The trivial block holds every
    orbit, in order, and sums each column orbit.
    """
    r_orbits, r_blocks = _orbits(row_maps, size)
    c_orbits, c_blocks = _orbits(column_maps, size)
    if any(len(rows) != len(cols) for rows, cols in zip(r_blocks, c_blocks)):
        return None
    reps = rows_of([members[0] for members, _ in r_orbits])
    spectra = [[_walsh([row[b] for b in members]) for members, _ in c_orbits] for row in reps]
    blocks = [[[spectra[r][a][w] for a, w in cols] for r, _ in rows] for rows, cols in zip(r_blocks, c_blocks)]
    factor = Fraction(_adapted_basis_determinant(r_orbits, r_blocks), _adapted_basis_determinant(c_orbits, c_blocks))
    return factor, blocks, r_orbits, c_orbits


def _orbit_of(classes: Iterable[Sequence[int]], size: int) -> list[int]:
    """For each of 0..size-1, the index of the class that holds it."""
    orbit_of = [0] * size
    for o, members in enumerate(classes):
        for x in members:
            orbit_of[x] = o
    return orbit_of


def _orbit_maps(maps: Sequence[Sequence[int]], orbits, size: int) -> list[list[int]]:
    """Index maps that permute the ``orbits`` of _orbits, as maps of those
    orbits: each orbit goes to the orbit of its first member's image."""
    orbit_of = _orbit_of((members for members, _ in orbits), size)
    return [[orbit_of[g[members[0]]] for members, _ in orbits] for g in maps]


def _class_and_size(outer, inner, orbit_of: Sequence[int]) -> list[tuple[int, int]]:
    """(class, size) of each ``outer`` orbit of _orbits, whose members are
    ``inner`` orbits of one size: the class in ``orbit_of`` of its first
    item, and the number of items it holds."""
    return [(orbit_of[inner[first[0]][0][0]], len(first) * len(inner[first[0]][0])) for first, _ in outer]


def _regrouped(block: list[list[int]], rows, columns) -> tuple[list[list[int]], Fraction]:
    """The complement of the S_n-invariant part of the doubly trivial block
    C, and the factor f with det C = det B * det complement * f, B the
    invariant block of _invariant_certificate.

    rows[h] = (O, |h|): the basis orbit of row h and the number of functions
    it stands for; columns[q] = (P, |q|) likewise for the node orbits.  A
    row of C is one function's values, a column a sum over |q| nodes.
    Within each group O the rows are replaced by sum_h |h| C[h], which is B's
    row O with column P scaled by |P|, and by C[h] - C[h_1] for h != h_1;
    within each group P the columns by sum_q C_q, and |q_1| C_q - |q| C_{q_1}
    for q != q_1.  These have determinants |O| and |q_1|^(r-2) |P| for the r
    columns of P (1 when r = 1), and both cross blocks are 0, since a sum
    over O, or over P, is S_n-invariant.  Listing B's rows and columns first,
    in the order of the orbits, permutes C's rows and columns: f carries the
    sign of both permutations.
    """
    row_groups: dict[int, list[int]] = {}
    for h, (o, _) in enumerate(rows):
        row_groups.setdefault(o, []).append(h)
    column_groups: dict[int, list[int]] = {}
    for q, (p, _) in enumerate(columns):
        column_groups.setdefault(p, []).append(q)
    rest_rows = [(h, group[0]) for group in row_groups.values() for h in group[1:]]
    rest_columns = [(q, group[0]) for group in column_groups.values() for q in group[1:]]
    complement = []
    for h, h_1 in rest_rows:
        diff = [x - y for x, y in zip(block[h], block[h_1])]
        complement.append([columns[q_1][1] * diff[q] - columns[q][1] * diff[q_1] for q, q_1 in rest_columns])
    odd = _odd([row_groups[o][0] for o in sorted(row_groups)] + [h for h, _ in rest_rows]) ^ _odd(
        [column_groups[p][0] for p in sorted(column_groups)] + [q for q, _ in rest_columns]
    )
    factor = Fraction(-1 if odd else 1)
    for group in row_groups.values():
        factor /= sum(rows[h][1] for h in group)
    for group in column_groups.values():
        factor *= Fraction(columns[group[0]][1]) ** (2 - len(group))
    return complement, factor


def _invariant_certificate(
    basis: BasisSet, nodes: NodeSet, cleared: Sequence[tuple[int, ...]], degree: int
) -> tuple[int, tuple[list[int], dict[tuple[int, ...], int]] | None]:
    """(det B, None), or (0, (y, g)) with a polynomial g that proves det [f_i(a_j)] = 0.

    A unisolvent pair's evaluation map is an S_n-equivariant isomorphism,
    hence one on the fixed parts (Fassler & Stiefel 1992), where it is the
    block B[O][P] = sum_{f in O} f(a_P): one row per basis orbit O, one
    column per node orbit P, square by the caller's check.  Row O is scaled
    by s_O, the lcm of the coefficient denominators its functions share,
    and column P by q_P^D, over ``cleared`` and ``degree`` of _cleared_points.
    One elimination gives det B, a factor of the split's determinant.

    A singular B gives (y, g): y a nonzero integer left kernel vector, and
    g = sum_O y_O s_O sum_{f in O} f as merged integer terms, in the span of
    the basis and S_n-invariant.  So g's own terms, zero at one node per
    orbit, show it zero at all N nodes; a g without terms makes y a linear
    dependency among the functions.  A failed check raises ArithmeticError.
    """
    # Counter.update adds, and keeps what cancels to 0 or below
    functions, sums = basis.functions, []
    for orbit in basis.orbits:
        s = _row_scale(functions[orbit[0]])
        terms: Counter = Counter()
        for i in orbit:
            terms.update({exponents: int(c * s) for exponents, c in functions[i].terms})
        sums.append(terms)
    reps = [cleared[orbit.members[0]] for orbit in nodes.orbits]
    det, y = _linalg.left_kernel([_cleared_values(terms.items(), reps, degree) for terms in sums])
    if y is None:
        return det, None
    merged: Counter = Counter()
    for weight, terms in zip(y, sums):
        merged.update({exponents: weight * c for exponents, c in terms.items()})
    g = {exponents: c for exponents, c in merged.items() if c}
    if not any(y) or any(_cleared_values(g.items(), reps, degree)):
        raise ArithmeticError("the kernel of the invariant block gave a polynomial that is not zero at every node")
    return 0, (y, g)


def _split_determinant(
    basis: BasisSet, nodes: NodeSet, cleared: Sequence[tuple[int, ...]], degree: int, invariant: int
) -> Fraction:
    """Exact det [f_i(a_j)] over integers, one symmetry block at a time, on
    the nodes as _cleared_points clears them (to ``degree``), given
    det B = ``invariant`` from _invariant_certificate; both sets have as
    many S_n-orbits.

    Both validated sets are closed under S_n, and M[g f, g a] = M[f, a] for
    every permutation g.  Three exact layers split M:

    1. The swaps (1 2), (3 4), ... generate A = (Z/2)^(n//2), and
       _character_split gives one block per character of A.
    2. The pair swaps tau_j = (4j+1 4j+3)(4j+2 4j+4), j < n//4, commute and
       normalize A, so they permute the A-orbits of both sides and keep A's
       trivial block: _character_split splits it again, on their maps of
       the orbits (no tau for n < 4: the block passes through whole).
    3. The block that stays trivial has one row per orbit h of H = <A, tau>
       on the functions, that of its first function, and one column per
       orbit q of H on the nodes, the sum over it.  _regrouped splits it
       into [B with column P scaled by |P|] + [complement], and det B is
       ``invariant``, so B is eliminated once per request.

    A non-square or singular block means det M = 0.  Otherwise det M is the
    product of the blocks' determinants and the layers' closed-form factors,
    divided by the integer scales, all exact.  For n = 1 only B remains.
    """
    functions, n = basis.functions, basis.n
    k = n // 2
    taus = []
    for j in range(n // 4):
        images = list(range(1, n + 1))
        images[4 * j:4 * j + 4] = [4 * j + 3, 4 * j + 4, 4 * j + 1, 4 * j + 2]
        taus.append(Permutation(images))
    # a node's image is the node whose rank tuple is its own, permuted
    index = {ranks: i for i, ranks in enumerate(nodes.ranks)}
    point_maps = [
        [index[apply_to_point(g, ranks)] for ranks in nodes.ranks] for g in adjacent_transpositions(n)[::2] + taus
    ]
    # tau_j is (a+2 a+3)(a+1 a+2)(a+3 a+4)(a+2 a+3) for a = 4j, from the
    # adjacent swaps the basis keeps
    swaps = basis.swaps
    function_taus = [
        [swaps[a + 1][swaps[a][swaps[a + 2][swaps[a + 1][x]]]] for x in range(len(functions))]
        for a in range(0, 4 * len(taus), 4)
    ]

    def function_rows(reps: list[int]) -> list[list[int]]:
        return _integer_rows([functions[i] for i in reps], cleared, degree)[0]

    first = _character_split(function_rows, swaps[::2], point_maps[:k], len(functions))
    if first is None:
        return Fraction(0)
    factor, blocks, f_orbits, p_orbits = first
    second = _character_split(
        lambda reps: [blocks[0][r] for r in reps],
        _orbit_maps(function_taus, f_orbits, len(functions)),
        _orbit_maps(point_maps[k:], p_orbits, len(nodes)),
        len(f_orbits),
    )
    if second is None:
        return Fraction(0)
    tau_factor, tau_blocks, h_rows, h_columns = second
    complement, regroup_factor = _regrouped(
        tau_blocks[0],
        _class_and_size(h_rows, f_orbits, _orbit_of(basis.orbits, len(functions))),
        _class_and_size(h_columns, p_orbits, _orbit_of((orbit.members for orbit in nodes.orbits), len(nodes))),
    )
    det = factor * tau_factor * regroup_factor * invariant
    for block in [*blocks[1:], *tau_blocks[1:], complement]:
        block_det, _ = _linalg.left_kernel(block)
        if block_det == 0:
            return Fraction(0)
        det *= block_det
    return det / (prod(map(_row_scale, functions)) * prod(x[0] for x in cleared) ** degree)


def vandermonde(basis: BasisSet, nodes: NodeSet, mode: str = "exact") -> UnisolvenceReport:
    """Determinant test for unisolvence of a validated basis and node set.

    Orbit counts that differ, or a singular S_n-invariant block with its
    checked polynomial (_invariant_certificate), decide ``singular``; the
    polynomial stays off the report, which the symlag/1 output could not
    hold.  Otherwise the integer, symmetry-split determinant of
    _split_determinant decides: the pair is unisolvent iff it is not zero.
    The bound on the determinant's bits reads all N nodes before either
    runs.  ``mode`` accepts only "exact".
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if len(basis) != len(nodes):
        raise SizeMismatchError(
            f"{len(basis)} basis functions vs {len(nodes)} nodes; "
            "unisolvence needs the dimension of the space to equal the node count"
        )
    if not basis.functions:
        raise ValueError("need at least one function and one node")
    values = nodes.values
    cleared, degree = _cleared_points(basis.functions, [tuple(map(values.__getitem__, r)) for r in nodes.ranks])
    det = Fraction(0)
    if len(basis.orbits) == len(nodes.orbits):
        invariant, _ = _invariant_certificate(basis, nodes, cleared, degree)
        if invariant:
            det = _split_determinant(basis, nodes, cleared, degree, invariant)
    verdict = VERDICT_UNISOLVENT if det != 0 else VERDICT_SINGULAR
    return UnisolvenceReport(size=len(basis), determinant=det, verdict=verdict)


class ConditionResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class NecessaryConditionsReport(NamedTuple):
    """Outcome of the pre-determinant screen (necessary, never sufficient)."""

    passed: bool
    conditions: tuple[ConditionResult, ...]
    notes: tuple[str, ...]
    constraints: ConstraintSystem | None
    node_vector: tuple[int, ...]

    def first_violation(self) -> ConditionResult | None:
        return next((c for c in self.conditions if not c.passed), None)


def unmatched_orbit_notes(b: BasisSet) -> list[str]:
    """One note per basis orbit size that no point orbit of R^n has."""
    realizable = {orbit_size(t) for t in enumerate_types(b.n)}
    return [
        f"basis has an orbit of size {k}, which matches no point-orbit class in R^{b.n}"
        for k in sorted({size for size in b.orbit_sizes() if size not in realizable})
    ]


def check_necessary_conditions(b: BasisSet, s: NodeSet) -> NecessaryConditionsReport:
    """Cheapest-first screen: (1) equal counts, (2) equal S_n-orbit counts,
    (3) node orbit vector equals the unique solution of V X = r(basis).

    Stops at the first violation, so the last condition decides; determinant
    work is for callers that pass.
    """
    if b.n != s.n:
        raise DimensionMismatchError(f"basis lives in R^{b.n} but nodes in R^{s.n}")
    node_vec = orbit_vector(s)
    cs = None
    conditions = [ConditionResult("size-match", len(b) == len(s), f"{len(b)} basis functions, {len(s)} nodes")]
    if conditions[-1].passed:
        counts_ok = len(b.orbits) == len(s.orbits)
        conditions.append(ConditionResult("orbit-count-match", counts_ok, (
            f"{len(b.orbits)} basis orbits, {len(s.orbits)} node orbits" if counts_ok
            else f"orbit count mismatch ({len(b.orbits)} basis orbits vs {len(s.orbits)} "
            "node orbits), so the orbit vectors cannot match"
        )))
    if conditions[-1].passed:
        cs = solve_constraints(k_matrix(b.n), r_vector(b))
        if not cs.admissible:
            detail = f"V X = r is infeasible ({cs.reason}); no symmetric node set fits this basis"
        elif node_vec == cs.solution:
            detail = f"nodes match the orbit vector {cs.solution} forced by V X = r"
        else:
            detail = f"orbit vector mismatch: nodes have {node_vec}, V X = r forces {cs.solution}"
        conditions.append(ConditionResult("orbit-vector-match", cs.admissible and node_vec == cs.solution, detail))
    return NecessaryConditionsReport(
        conditions[-1].passed, tuple(conditions), tuple(unmatched_orbit_notes(b)), cs, node_vec
    )


# -- ingestion ---------------------------------------------------------------

def basis_function_from_json(entry, n: int | None = None) -> BasisFunction:
    """One function: either a monomial shorthand string or a list of
    {exponents: [...], coeff: [num, den]} terms (coeff defaults to 1)."""
    if isinstance(entry, str):
        return BasisFunction.monomial(monomial_from_string(entry, n))
    if isinstance(entry, dict) and "exponents" in entry:
        entry = [entry]
    if not isinstance(entry, list) or not entry:
        raise ValueError(f"cannot parse basis function {echo(entry)}")
    terms = []
    for term in entry:
        if not isinstance(term, dict) or "exponents" not in term:
            raise ValueError(f"basis term {echo(term)} needs an 'exponents' array")
        exps = term["exponents"]
        # `type(...) is int` also turns away JSON true and false
        if not (isinstance(exps, list) and all(type(e) is int for e in exps)):
            raise ValueError(f"exponents must be an array of integers, got {echo(exps)}")
        if n is not None and len(exps) != n:
            raise DimensionMismatchError(f"exponents {echo(exps)} have length {len(exps)}, expected {n}")
        coeff = term.get("coeff", [1, 1])
        if type(coeff) is int:
            coeff = [coeff, 1]
        if not (isinstance(coeff, list) and len(coeff) == 2 and all(type(v) is int for v in coeff)):
            raise ValueError(f"coefficient must be [num, den], got {echo(coeff)}")
        if coeff[1] == 0:
            raise ValueError(f"coefficient {echo(coeff)} has a zero denominator")
        terms.append((exps, Fraction(coeff[0], coeff[1])))
    return BasisFunction.from_terms(terms)


def basis_from_json(obj, n: int | None = None) -> BasisSet:
    """Build a BasisSet from a JSON list of functions, or {n, functions: [...]}."""
    if isinstance(obj, dict):
        declared = obj.get("n")
        entries = obj.get("functions")
        if entries is None:
            raise ValueError("basis file needs a 'functions' array")
        if declared is not None:
            check_dimension(declared, 'the basis file\'s "n"')
            if n is not None and n != declared:
                raise DimensionMismatchError(f"basis file says n={declared}, caller says n={n}")
            n = declared
    else:
        entries = obj
    if not isinstance(entries, list):
        raise ValueError("basis must be a JSON array of functions")
    if len(entries) > MAX_BASIS_FUNCTIONS:
        raise SymlagError(f"the basis has {len(entries)} functions, above the limit of {MAX_BASIS_FUNCTIONS}")
    if n is None:
        # infer from the first explicit exponent vector, else the largest
        # variable index used by the shorthand strings
        for entry in entries:
            term = entry[0] if isinstance(entry, list) and entry else entry
            if isinstance(term, dict) and isinstance(term.get("exponents"), list):
                n = len(term["exponents"])
                break
        else:
            n = max((max(_monomial_factors(e), default=0) for e in entries if isinstance(e, str)), default=0) or None
    if n is not None:
        check_dimension(n, "the basis dimension")
        work = len(entries) * sum(n - sum(t.counts) for t in enumerate_types(n))
        if work > MAX_ORBIT_WORK:
            raise SymlagError(f"the orbit counts of {len(entries)} functions in R^{n} would take {work} union "
                              f"steps, above the limit of {MAX_ORBIT_WORK}; use fewer functions")
    functions = [basis_function_from_json(entry, n) for entry in entries]
    return validate_symmetric_basis(functions, n=n)


def load_basis(path, n: int | None = None) -> BasisSet:
    return basis_from_json(read_json(path), n=n)
