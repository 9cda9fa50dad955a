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
from math import factorial
from typing import Iterable, NamedTuple, Sequence, TypeVar

from .errors import DimensionMismatchError, NotSymmetricError, echo

T = TypeVar("T")

#: Largest dimension n accepted from input.  At n = 24 (1575 classes) only
#: ``vmatrix`` builds V, in about 285 s, most of it V's leading minors;
#: ``solve`` on total degree 2 takes 4-6 s (2-vCPU Xeon, Python 3.11).
MAX_DIMENSION = 24


class Permutation(NamedTuple("Permutation", [("images", tuple[int, ...])])):
    """A bijection of {1..n} stored in one-line notation: images[i-1] = s(i)."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        images = tuple(int(v) for v in images)
        n = len(images)
        if n == 0 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images!r} are not a bijection on 1..{n}")
        return super().__new__(cls, images)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The permutation exchanging labels i and j (1-based)."""
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

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


class OrbitType(NamedTuple("OrbitType", [("counts", tuple[int, ...])])):
    """Composition vector (c_1..c_n) with sum(i*c_i) = n.

    Doubles as a permutation cycle type: both range over the non-negative
    solutions of the same Diophantine equation.  Types compare in the type
    order, in which the first difference from c_n down to c_1 decides; types
    of different dimensions do not compare.

    >>> OrbitType((1, 1, 0)) < OrbitType((0, 0, 1))
    True
    """

    __slots__ = ()

    def __new__(cls, counts: Iterable[int]) -> "OrbitType":
        counts = tuple(int(v) for v in counts)
        n = len(counts)
        if n == 0 or any(v < 0 for v in counts):
            raise ValueError(f"invalid type counts {counts!r}")
        total = sum(i * c for i, c in enumerate(counts, start=1))
        if total != n:
            raise ValueError(f"counts {counts!r} weigh to {total}, expected {n}")
        return super().__new__(cls, counts)

    @property
    def n(self) -> int:
        return len(self.counts)

    def _keys(self, other: "OrbitType") -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Both count vectors from c_n down to c_1, for the same dimension."""
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot compare types of dimensions {self.n} and {other.n}")
        return self.counts[::-1], other.counts[::-1]

    # a tuple already compares by its own order, so each comparison is spelled out
    def __lt__(self, other: "OrbitType") -> bool:
        return tuple.__lt__(*self._keys(other))

    def __le__(self, other: "OrbitType") -> bool:
        return tuple.__le__(*self._keys(other))

    def __gt__(self, other: "OrbitType") -> bool:
        return tuple.__gt__(*self._keys(other))

    def __ge__(self, other: "OrbitType") -> bool:
        return tuple.__ge__(*self._keys(other))


class Record:
    """An immutable value whose fields are its ``__slots__``, for a set whose
    length is its size and which so cannot be a tuple; ``==``, ``hash`` and
    ``repr`` read the fields named in ``_compared``, which give the others."""

    __slots__ = ()
    _compared: tuple[str, ...]

    def __init__(self, *values, **named):
        fields = self.__slots__
        if len(values) + len(named) != len(fields) or not named.keys() <= set(fields[len(values):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in (*zip(fields, values), *named.items()):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)


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
        raise ValueError(f"{what} must be a positive integer, got {echo(n)}")
    if n > MAX_DIMENSION:
        raise ValueError(f"{what} is {echo(n)}, above the largest supported dimension {MAX_DIMENSION}")
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
    vectors).  Satisfies apply(p, x) == apply(a, apply(b, x)) for the
    product p(i) = b(a(i)).
    """
    if len(coords) != p.n:
        raise DimensionMismatchError(f"point of dimension {len(coords)} under permutation of size {p.n}")
    return tuple([coords[v - 1] for v in p.images])


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


def adjacent_transpositions(n: int) -> list[Permutation]:
    """The standard generating set {(i i+1)} of S_n (empty for n = 1)."""
    return [Permutation.transposition(n, i, i + 1) for i in range(1, n)]


def swap_images(items: Sequence, n: int) -> tuple[tuple[int | None, ...], ...]:
    """Index maps of the adjacent transpositions on distinct ``items``.

    One map per (i i+1), in ``adjacent_transpositions(n)`` order: position k
    holds the index in ``items`` of ``items[k].permuted((i i+1))``, or None
    where that image is not an item.  This is the one place where a set of
    items is permuted: a basis is validated on these maps and keeps them; a
    node set, grouped by coordinate multiset instead, only for its witness.
    """
    index = {x: k for k, x in enumerate(items)}
    return tuple(tuple(index.get(x.permuted(tau)) for x in items) for tau in adjacent_transpositions(n))


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


def symmetric_orbit_classes(
    items: Sequence, n: int, kind: str
) -> tuple[tuple[tuple[int, ...], ...], list[list[int]]]:
    """The swap_images of distinct ``items`` and their orbit_classes under
    S_n, after checking closure.

    Closure under the adjacent transpositions is closure under all of S_n.
    Raises NotSymmetricError at the first (transposition, item) pair, in
    transposition-major order, whose image is not an item.
    """
    maps = swap_images(items, n)
    for tau, image in zip(adjacent_transpositions(n), maps):
        if None in image:
            raise NotSymmetricError(items[image.index(None)], tau, kind=kind)
    return maps, orbit_classes(maps, len(items))


def stabilizer_orbit_count(swaps: Sequence[Sequence[int]], t: OrbitType, size: int) -> int:
    """Orbits of ``size`` items under the stabilizer of the canonical point of
    type t, given their swap maps in ``adjacent_transpositions`` order.

    The stabilizer is generated by the swaps (a a+1) inside each block of
    ``canonical_blocks(t)``, the map at index a - 1.
    """
    return len(orbit_classes([swaps[a - 1] for block in canonical_blocks(t) for a in block[:-1]], size))
