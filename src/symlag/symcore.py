"""Permutations of {1..n} and the classification of their orbits in R^n.

Coordinate permutations act on points by position: component ``i`` of
``apply_to_point(s, x)`` is ``x[s(i)]`` (labels are 1-based throughout, so
serialized permutations read exactly like the usual one-line notation).
An orbit of this action is classified by its *type* ``(c_1, ..., c_n)``,
where ``c_i`` counts the groups of exactly ``i`` equal coordinates; hence
``sum(i * c_i) == n``.  The same tuples enumerate permutation cycle types,
which is what makes the fixed-point bookkeeping in :mod:`symlag.charmat`
line up index-for-index.

Types are ordered by the "high component first" rule: compare ``c_n`` down
to ``c_1`` and let the first difference decide.  ``enumerate_types`` lists
all types of a dimension in this descending order and ranks are 1-based,
so rank 1 is always ``(0, ..., 0, 1)``, the one-point diagonal orbit.

Everything here is a pure function on immutable values.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence, TypeVar

from .errors import DimensionMismatchError, NotSymmetricError

T = TypeVar("T")

#: Largest dimension n accepted from input.  V at n = 24 has 1575 classes
#: and takes about 17 s to build (K 1.1-1.2 s, V 15.4-15.6 s) on a 2-vCPU
#: Xeon with Python 3.11.
MAX_DIMENSION = 24


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored in one-line notation: images[i-1] = s(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(int(v) for v in self.images))
        n = len(self.images)
        if n == 0 or sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images!r} are not a bijection on 1..{len(self.images)}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The permutation exchanging labels i and j (1-based)."""
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    def __call__(self, label: int) -> int:
        return self.images[label - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Product with ``self`` applied first: ``a.compose(b)(i) == b(a(i))``.

        This is the convention under which the point action is associative:
        ``apply_to_point(a.compose(b), x) == apply_to_point(a, apply_to_point(b, x))``.

        >>> a = Permutation((2, 3, 1)); b = Permutation((2, 1, 3))
        >>> a.compose(b).images
        (1, 3, 2)
        """
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot compose permutations of sizes {self.n} and {other.n}")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its smallest label, fixed labels included.

        >>> Permutation((2, 3, 1, 4)).cycles()
        ((1, 2, 3), (4,))
        """
        seen = [False] * (self.n + 1)
        out = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cycle = []
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur)
                cur = self.images[cur - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_notation(self) -> str:
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "id"


@functools.total_ordering
@dataclass(frozen=True)
class OrbitType:
    """Composition vector (c_1..c_n) with sum(i*c_i) = n.

    Doubles as a permutation cycle type: both range over the non-negative
    solutions of the same Diophantine equation.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        n = len(self.counts)
        if n == 0 or any(v < 0 for v in self.counts):
            raise ValueError(f"invalid type counts {self.counts!r}")
        total = sum(i * c for i, c in enumerate(self.counts, start=1))
        if total != n:
            raise ValueError(f"counts {self.counts!r} weigh to {total}, expected {n}")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def _key(self) -> tuple[int, ...]:
        return tuple(reversed(self.counts))

    def __lt__(self, other: "OrbitType") -> bool:
        """The type order: the first difference from c_n down to c_1 decides.

        >>> OrbitType((1, 1, 0)) < OrbitType((0, 0, 1))
        True
        """
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot compare types of dimensions {self.n} and {other.n}")
        return self._key < other._key

    def to_json(self) -> list[int]:
        return list(self.counts)


@functools.lru_cache(maxsize=None)
def _types_descending(n: int) -> tuple[OrbitType, ...]:
    out: list[OrbitType] = []

    def descend(i: int, remaining: int, suffix: tuple[int, ...]) -> None:
        # suffix already holds (c_{i+1}, ..., c_n); largest c_i first keeps
        # the emission order descending without a sort
        if i == 1:
            out.append(OrbitType((remaining,) + suffix))
            return
        for c in range(remaining // i, -1, -1):
            descend(i - 1, remaining - i * c, (c,) + suffix)

    descend(n, n, ())
    return tuple(out)


def check_dimension(n, what: str) -> int:
    """``n`` itself when it is an int from 1 to MAX_DIMENSION; ValueError naming ``what`` otherwise."""
    if type(n) is not int or n < 1:  # `type(n) is int` also turns away JSON true and false
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    if n > MAX_DIMENSION:
        raise ValueError(f"{what} is {n}, above the largest supported dimension {MAX_DIMENSION}")
    return n


def enumerate_types(n: int) -> list[OrbitType]:
    """All orbit types of R^n in descending order; length is the partition number p(n).

    >>> [t.counts for t in enumerate_types(3)]
    [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
    """
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    return list(_types_descending(n))


def type_rank(t: OrbitType) -> int:
    """1-based position of ``t`` in the descending order of its dimension."""
    return _types_descending(t.n).index(t) + 1


def apply_to_point(p: Permutation, coords: Sequence[T]) -> tuple[T, ...]:
    """Permute coordinates: slot i of the result is coords[p(i)].

    Works on any coordinate-like sequence (rational points, exponent
    vectors).  Satisfies apply(a.compose(b), x) == apply(a, apply(b, x)).
    """
    if len(coords) != p.n:
        raise DimensionMismatchError(f"point of dimension {len(coords)} under permutation of size {p.n}")
    return tuple(coords[v - 1] for v in p.images)


def stabilizer_order(t: OrbitType) -> int:
    """|stab(x)| for any point x of type t: prod (i!)^(c_i)."""
    order = 1
    for i, c in enumerate(t.counts, start=1):
        order *= factorial(i) ** c
    return order


def orbit_size(t: OrbitType) -> int:
    """Number of points in an orbit of type t: n! / stabilizer_order."""
    return factorial(t.n) // stabilizer_order(t)


def canonical_blocks(t: OrbitType) -> list[list[int]]:
    """Positions (1-based) of the equal-value blocks of the canonical point:
    singleton blocks first, then pairs, then triples, ..."""
    blocks = []
    pos = 1
    for size in range(1, t.n + 1):
        for _ in range(t.counts[size - 1]):
            blocks.append(list(range(pos, pos + size)))
            pos += size
    return blocks


def stabilizer_generators(t: OrbitType) -> list[Permutation]:
    """Generators of the stabilizer of the canonical point of type t: adjacent
    transpositions inside each equal-value block.  Empty for the free type (trivial stabilizer)."""
    gens = []
    for block in canonical_blocks(t):
        for a, b in zip(block, block[1:]):
            gens.append(Permutation.transposition(t.n, a, b))
    return gens


def adjacent_transpositions(n: int) -> list[Permutation]:
    """The standard generating set {(i i+1)} of S_n (empty for n = 1)."""
    return [Permutation.transposition(n, i, i + 1) for i in range(1, n)]


def swap_images(items: Sequence, n: int) -> dict[Permutation, list[int | None]]:
    """Index maps of the adjacent transpositions on distinct ``items``.

    For each (i i+1), in ``adjacent_transpositions(n)`` order, position k
    holds the index in ``items`` of ``items[k].permuted((i i+1))``, or None
    where that image is not an item.  Keyed by the transposition, so the
    maps of a stabilizer are ``[maps[g] for g in stabilizer_generators(t)]``.
    This is the one place where a set of items is permuted.
    """
    index = {x: k for k, x in enumerate(items)}
    return {tau: [index.get(x.permuted(tau)) for x in items] for tau in adjacent_transpositions(n)}


def orbit_classes(maps: Iterable[Sequence[int]], size: int) -> list[list[int]]:
    """Orbits of the group the index maps generate on 0..size-1 (union-find).

    Classes come in the order of their smallest member, members ascending.
    """
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for image in maps:
        for i, j in enumerate(image):
            parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(size):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def symmetric_orbit_classes(items: Sequence, n: int, kind: str) -> list[list[int]]:
    """orbit_classes of distinct ``items`` under S_n, after checking closure.

    Closure under the adjacent transpositions is closure under all of S_n.
    Raises NotSymmetricError at the first (transposition, item) pair, in
    transposition-major order, whose image is not an item.
    """
    maps = swap_images(items, n)
    for tau, image in maps.items():
        if None in image:
            raise NotSymmetricError(items[image.index(None)], tau, kind=kind)
    return orbit_classes(maps.values(), len(items))


def stabilizer_orbit_count(maps: dict[Permutation, list[int]], t: OrbitType, size: int) -> int:
    """Orbits of ``size`` items under the stabilizer of the canonical point of
    type t, given their swap_images (which must not hold None)."""
    return len(orbit_classes([maps[g] for g in stabilizer_generators(t)], size))
