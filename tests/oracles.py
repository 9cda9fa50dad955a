"""Independent oracles for the tests: each computes by enumeration, or by a
second derivation, what the library computes by formula.

The enumerating ones walk all n! permutations or a whole orbit, so the
tests call them with small n only.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import prod

from symlag import (
    NodeSet,
    Orbit,
    OrbitType,
    Permutation,
    Point,
    apply_to_point,
    enumerate_types,
    orbit_size,
)
from symlag.errors import DimensionMismatchError, DuplicatePointError, NotSymmetricError
from symlag.symcore import adjacent_transpositions, canonical_blocks, orbit_classes, swap_images


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The product with ``a`` applied first: label i goes to b(a(i)).

    Under it the point action is associative:
    ``apply_to_point(compose(a, b), x) == apply_to_point(a, apply_to_point(b, x))``.
    """
    return Permutation(tuple(b.images[v - 1] for v in a.images))


def inverse(p: Permutation) -> Permutation:
    """The permutation q with q(p(i)) = i."""
    images = [0] * p.n
    for i, v in enumerate(p.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


def cycle_type(p: Permutation) -> OrbitType:
    """Cycle type of a permutation; counts[i-1] = number of i-cycles."""
    counts = [0] * p.n
    for cycle in p.cycles():
        counts[len(cycle) - 1] += 1
    return OrbitType(tuple(counts))


def canonical_point(t: OrbitType) -> tuple[Fraction, ...]:
    """A representative of type t with block values 1, 2, 3, ... in block order.

    Type (1,1,0) gives (1, 2, 2); type (3,0,0) gives (1, 2, 3).
    """
    return tuple(Fraction(value) for value, block in enumerate(canonical_blocks(t), start=1) for _ in block)


def representative_permutation(t: OrbitType) -> Permutation:
    """A permutation of cycle type t, with cycles on consecutive labels."""
    images = list(range(1, t.n + 1))
    for block in canonical_blocks(t):
        for k, label in enumerate(block):
            images[label - 1] = block[(k + 1) % len(block)]
    return Permutation(tuple(images))


def stabilizer_generators(t: OrbitType) -> list[Permutation]:
    """The adjacent transpositions inside each block of the canonical point
    of type t; empty for the free type (trivial stabilizer)."""
    return [
        Permutation.transposition(t.n, a, a + 1) for block in canonical_blocks(t) for a in block[:-1]
    ]


def unique_arrangements(values) -> list[tuple]:
    """All distinct orderings of a multiset, in lexicographic order."""
    return sorted(set(itertools.permutations(values)))


def point_type(x: Point) -> OrbitType:
    """Orbit type of a point, each value's multiplicity counted along the
    coordinates: counts[i-1] = number of values occurring i times."""
    counts = [0] * x.n
    for value in set(x.coords):
        counts[x.coords.count(value) - 1] += 1
    return OrbitType(tuple(counts))


def canonical_arrangement(x: Point) -> Point:
    """The arrangement of x whose values come in blocks of ascending
    multiplicity, equal multiplicities by ascending value: the layout of
    canonical_point, so (2,3,4,4,3,4,1) becomes (1,2,3,3,4,4,4)."""
    blocks = sorted((x.coords.count(value), value) for value in set(x.coords))
    return Point(tuple(value for size, value in blocks for _ in range(size)))


def expand_orbit(x: Point) -> set[Point]:
    """All distinct coordinate permutations of x."""
    return {Point(coords) for coords in itertools.permutations(x.coords)}


def stabilizer_elements(t: OrbitType) -> list[Permutation]:
    """All of stab(canonical_point(t)), by filtering the n! permutations."""
    x = canonical_point(t)
    group = (Permutation(images) for images in itertools.permutations(range(1, t.n + 1)))
    return [p for p in group if apply_to_point(p, x) == x]


def fixed_point_count(orbit: OrbitType, sigma: OrbitType) -> int:
    """Points of the type-``orbit`` orbit fixed by one permutation of cycle
    type ``sigma``, counted one by one: K[sigma][orbit]."""
    rep = representative_permutation(sigma)
    return sum(apply_to_point(rep, y) == y for y in unique_arrangements(canonical_point(orbit)))


@functools.lru_cache(maxsize=None)
def _deal(cycles: tuple[int, ...], capacities: tuple[int, ...]) -> int:
    """The ways to send each of ``cycles`` to one labelled block, filling
    every block to exactly its capacity; the capacities come sorted, since
    the count does not depend on the blocks' labels."""
    if not cycles:
        return int(not any(capacities))
    first, rest = cycles[0], cycles[1:]
    return sum(
        _deal(rest, tuple(sorted((*capacities[:b], cap - first, *capacities[b + 1:]))))
        for b, cap in enumerate(capacities)
        if cap >= first
    )


def dealt_k_matrix(n: int) -> list[list[int]]:
    """K by dealing: a permutation of cycle type sigma fixes a point of type
    lambda once every cycle lies inside one of the point's equal-value
    blocks, so K[sigma][lambda] counts the ways to deal sigma's cycles,
    longest first, onto lambda's blocks with exact length sums."""
    parts = [_parts(t) for t in enumerate_types(n)]
    return [[_deal(sigma, tuple(sorted(blocks))) for blocks in parts] for sigma in parts]


def v_entry_burnside(i: int, j: int, n: int) -> int:
    """V[i][j] (1-based ranks) as the number of orbits of the class-i
    stabilizer on the explicit class-j orbit, by Burnside's lemma."""
    types = enumerate_types(n)
    stab = stabilizer_elements(types[i - 1])
    orbit = unique_arrangements(canonical_point(types[j - 1]))
    count = Fraction(sum(apply_to_point(s, y) == y for s in stab for y in orbit), len(stab))
    assert count.denominator == 1, "Burnside average is not an integer"
    return int(count)


def _stabilizer_orbit_count(items, t: OrbitType) -> int:
    stab = stabilizer_elements(t)
    return len({frozenset(x.permuted(g) for g in stab) for x in items})


def subgroup_orbit_count(s, t: OrbitType) -> int:
    """Orbits of a node set under stab(canonical_point(t))."""
    return _stabilizer_orbit_count(s.points, t)


def basis_orbit_count_under_stabilizer(b, t: OrbitType) -> int:
    """Orbits of a basis set under stab(canonical_point(t))."""
    return _stabilizer_orbit_count(b.functions, t)


# -- symmetry validation on the Points themselves -------------------------------

def validate_points(points, n: int | None = None) -> NodeSet:
    """validate_symmetric without the ranks: sort the Points, permute them
    with swap_images and union-find their orbits, comparing and hashing
    the Fractions throughout.  Raises what validate_symmetric raises, with
    the same messages."""
    pts = [p if isinstance(p, Point) else Point(tuple(Fraction(c) for c in p)) for p in points]
    dim = pts[0].n if pts else n
    if dim is None:
        raise ValueError("empty node set needs an explicit dimension n")
    if n is not None and n != dim:
        raise DimensionMismatchError(f"points have dimension {dim}, expected {n}")
    for p in pts:
        if p.n != dim:
            raise DimensionMismatchError(f"mixed dimensions {dim} and {p.n}")
    seen: set[Point] = set()
    for p in pts:
        if p in seen:
            raise DuplicatePointError(f"duplicate point {p}")
        seen.add(p)
    ordered = sorted(pts)
    generators = adjacent_transpositions(dim)
    swaps = swap_images(ordered, generators)
    for tau, image in zip(generators, swaps):
        if None in image:
            raise NotSymmetricError(ordered[image.index(None)], tau, kind="point")
    # the values and ranks only name what the Points found: each point, and
    # each orbit's canonical arrangement
    values = tuple(sorted({c for p in ordered for c in p.coords}))
    rank = {v: r for r, v in enumerate(values)}
    ranks = tuple(tuple(rank[c] for c in p.coords) for p in ordered)
    orbits = []
    for members in orbit_classes(swaps, len(ordered)):
        group = tuple(ordered[i] for i in members)
        t = point_type(group[0])
        assert len(group) == orbit_size(t), "orbit decomposition does not match orbit size"
        rep = tuple(rank[c] for c in canonical_arrangement(group[0]).coords)
        orbits.append(Orbit(type=t, members=tuple(members), rep=rep))
    nodes = NodeSet(n=dim, values=values, ranks=ranks, orbits=tuple(orbits))
    assert nodes.points == tuple(ordered), "the ranks do not give back the points"
    return nodes


# -- a basis function at a point, term by term -----------------------------------

def evaluate(f, point: Point) -> Fraction:
    """f(point) in Fraction arithmetic: the oracle for the integer
    evaluation behind vandermonde_matrix."""
    return sum(
        (c * prod(x**e for x, e in zip(point.coords, exponents, strict=True)) for exponents, c in f.terms),
        Fraction(0),
    )


# -- V without n!: the Gram matrix of the Kostka numbers ------------------------

def _parts(t: OrbitType) -> tuple[int, ...]:
    return tuple(size for size in range(t.n, 0, -1) for _ in range(t.counts[size - 1]))


def _inner_shapes(shape: tuple[int, ...], k: int):
    """The shapes rho with shape / rho a horizontal strip of k cells:
    shape_{i+1} <= rho_i <= shape_i for every row i."""
    below = shape[1:] + (0,)
    for rho in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(below, shape))):
        if sum(rho) == sum(shape) - k:
            yield tuple(part for part in rho if part)


@functools.lru_cache(maxsize=None)
def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard tableaux of the given shape and content.  The cells that
    hold the largest entry form a horizontal strip of content[-1] cells
    (Macdonald, Symmetric Functions and Hall Polynomials, I.6)."""
    if not content:
        return int(not shape)
    return sum(kostka(rho, content[:-1]) for rho in _inner_shapes(shape, content[-1]))


def kostka_matrix(n: int) -> list[list[int]]:
    """L[a][b] = K_{lambda_a, lambda_b}, both indices in the descending type order."""
    parts = [_parts(t) for t in enumerate_types(n)]
    return [[kostka(shape, content) for content in parts] for shape in parts]


def v_kostka_gram(n: int) -> list[list[int]]:
    """V = L^T L: V[a][b] = sum over shapes nu of K_{nu, lambda_a} K_{nu, lambda_b} (Young's rule)."""
    rows = kostka_matrix(n)
    c = len(rows)
    return [[sum(row[a] * row[b] for row in rows) for b in range(c)] for a in range(c)]


# -- linear algebra over the rationals, by plain Gaussian elimination ------------

def _eliminated(rows, rhs=None) -> tuple[list[list[Fraction]], int]:
    """Upper triangular form of [rows | rhs] in Fractions by row swaps and
    row operations, and the sign of the swaps; stops at a column with no
    pivot, leaving a zero on the diagonal."""
    m = [[Fraction(x) for x in row] for row in rows]
    if rhs is not None:
        m = [[*row, Fraction(b)] for row, b in zip(m, rhs)]
    sign = 1
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if p is None:
            break
        if p != c:
            m[c], m[p], sign = m[p], m[c], -sign
        for row in m[c + 1:]:
            f = row[c] / m[c][c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], m[c][c:])]
    return m, sign


def fraction_determinant(rows) -> Fraction:
    """Determinant of a square rational matrix: the product of the pivots."""
    m, sign = _eliminated(rows)
    det = Fraction(sign)
    for i, row in enumerate(m):
        det *= row[i]
    return det


def fraction_rank(rows) -> int:
    """Rank of a rational matrix: the pivots of Gaussian elimination that
    passes over the columns without one."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for row in m[rank + 1:]:
            f = row[c] / m[rank][c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], m[rank][c:])]
        rank += 1
    return rank


def fraction_solve(rows, rhs) -> list[Fraction]:
    """The solution of the invertible rational system A x = b, by back substitution."""
    m, _ = _eliminated(rows, rhs)
    n = len(m)
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))) / m[k][k]
    return x


# -- the evaluation matrix modulo a prime ---------------------------------------

P61 = (1 << 61) - 1


def residue(x: Fraction, p: int = P61) -> int:
    """x mod p, for a rational x whose denominator p does not divide."""
    return x.numerator * pow(x.denominator, -1, p) % p


def vandermonde_mod_p(functions, points, p: int = P61) -> list[list[int]]:
    """[f_i(a_j)] mod p, rows and columns in the order given."""
    coords = [[residue(c, p) for c in point.coords] for point in points]
    rows = []
    for f in functions:
        terms = [(residue(c, p), exponents) for exponents, c in f.terms]
        rows.append([
            sum(c * prod(pow(x, e, p) for x, e in zip(xs, exponents)) for c, exponents in terms) % p
            for xs in coords
        ])
    return rows


def determinant_mod_p(rows, p: int = P61) -> int:
    """Determinant of a square matrix over Z/p, by Gaussian elimination with row swaps."""
    m = [list(row) for row in rows]
    det = 1
    for c in range(len(m)):
        k = next((i for i in range(c, len(m)) if m[i][c]), None)
        if k is None:
            return 0
        if k != c:
            m[c], m[k], det = m[k], m[c], -det
        pivot = m[c]
        det = det * pivot[c] % p
        inverse_pivot = pow(pivot[c], -1, p)
        for row in m[c + 1:]:
            f = row[c] * inverse_pivot % p
            if f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], pivot[c:])]
    return det % p


# -- the split's first layer, by walking the group ------------------------------

def split_orbits(maps, size):
    """interp._orbits by enumeration: all 2^k images of each orbit's first
    member, its stabilizer among them, the free generators by a greedy span
    that complements the stabilizer, and every character tested against
    every stabilizer element."""
    seen = [False] * size
    orbits, blocks = [], [[] for _ in range(1 << len(maps))]
    for x in range(size):
        if seen[x]:
            continue
        at = [x]
        for g in maps:
            at += [g[y] for y in at]
        stabilizer = [h for h, y in enumerate(at) if y == x]
        span, free = set(stabilizer), []
        for b in range(len(maps)):
            if 1 << b not in span:
                free.append(b)
                span |= {h ^ 1 << b for h in span}
        members = [
            at[sum(1 << b for j, b in enumerate(free) if u >> j & 1)] for u in range(1 << len(free))
        ]
        for y in members:
            seen[y] = True
        for c, block in enumerate(blocks):
            if not any((c & h).bit_count() & 1 for h in stabilizer):
                block.append((len(orbits), sum((c >> b & 1) << j for j, b in enumerate(free))))
        orbits.append((members, free))
    return orbits, blocks


def elimination_work(nodes) -> int:
    """The measure of interp.check_elimination_work one character at a
    time: the size of the block of each of the 2^k characters c of
    (1 2), (3 4), ..., cubed and summed."""
    k = nodes.n // 2
    masks = Counter(sum((r[2 * i] == r[2 * i + 1]) << i for i in range(k)) for r in nodes.ranks)
    sizes = [sum(m >> (k - f.bit_count()) for f, m in masks.items() if not c & f) for c in range(1 << k)]
    return sum(size**3 for size in sizes)
