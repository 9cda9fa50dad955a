"""Rational points, symmetric node sets, orbit vectors, and equivalence.

Coordinates are exact rationals because the whole classification rides on
exact equality patterns between coordinates.  JSON numbers and decimal
strings are read exactly (a float as its shortest repr); ``--snap-tol``
optionally moves each onto a nearby simple rational and reports it
(``parse_rational``).

A validated :class:`NodeSet` is immutable: points sorted lexicographically,
orbits discovered greedily in that order, each orbit tagged with its type.
The orbit vector counts orbits per type rank (descending order), and two
symmetric sets admit an equivariant bijection exactly when their orbit
vectors agree; ``equivalent`` also constructs the bijection explicitly.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, DuplicatePointError, SymlagError
from .symcore import (
    OrbitType,
    Permutation,
    apply_to_point,
    check_dimension,
    enumerate_types,
    orbit_size,
    symmetric_orbit_classes,
    type_rank,
)


@dataclass(frozen=True, order=True)
class Point:
    """A point of R^n with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("a point needs at least one coordinate")
        if not all(isinstance(c, Fraction) for c in self.coords):
            object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *values) -> "Point":
        """Convenience constructor accepting ints, Fractions or 'p/q' strings."""
        return cls(tuple(Fraction(v) for v in values))

    def permuted(self, sigma: Permutation) -> "Point":
        return Point(apply_to_point(sigma, self.coords))

    def to_json(self) -> list[list[int]]:
        return [[c.numerator, c.denominator] for c in self.coords]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def classify_point(x: Point) -> OrbitType:
    """Orbit type of a point: counts[i-1] = number of values occurring i times."""
    multiplicity: dict[Fraction, int] = {}
    for c in x.coords:
        multiplicity[c] = multiplicity.get(c, 0) + 1
    counts = [0] * x.n
    for m in multiplicity.values():
        counts[m - 1] += 1
    return OrbitType(tuple(counts))


def canonical_arrangement(x: Point) -> Point:
    """The orbit representative in canonical block order: values grouped by
    ascending multiplicity, ties by value, e.g. (b,c,d,d,c,d,a) -> (a,b,c,c,d,d,d).

    Two same-type representatives built this way share their equality pattern
    position-for-position, hence share their stabilizer subgroup — which is
    what makes the equivalence bijection below well defined.
    """
    multiplicity: dict[Fraction, int] = {}
    for c in x.coords:
        multiplicity[c] = multiplicity.get(c, 0) + 1
    coords: list[Fraction] = []
    for value in sorted(multiplicity, key=lambda v: (multiplicity[v], v)):
        coords.extend([value] * multiplicity[value])
    return Point(tuple(coords))


@dataclass(frozen=True)
class Orbit:
    """One S_n-orbit inside a node set."""

    type: OrbitType
    points: tuple[Point, ...]
    rep: Point  # canonical arrangement


@dataclass(frozen=True)
class NodeSet:
    """A validated symmetric set of distinct points with its orbit decomposition.

    Construct via :func:`validate_symmetric`; instances are immutable and
    safe to share between threads.
    """

    n: int
    points: tuple[Point, ...]
    orbits: tuple[Orbit, ...]

    def __len__(self) -> int:
        return len(self.points)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "points": [p.to_json() for p in self.points]}


def validate_symmetric(points: Iterable[Point | Sequence], n: int | None = None) -> NodeSet:
    """Check closure under coordinate permutation and decompose into orbits.

    Closure against the adjacent transpositions suffices: a finite set closed
    under generators is closed under everything they generate.  Raises
    NotSymmetricError with an (x, transposition) witness on failure and
    DuplicatePointError on repeated points.  ``n`` is only needed for
    the empty set.
    """
    pts: list[Point] = []
    for p in points:
        pts.append(p if isinstance(p, Point) else Point(tuple(Fraction(c) for c in p)))
    if not pts:
        if n is None:
            raise ValueError("empty node set needs an explicit dimension n")
        return NodeSet(n=n, points=(), orbits=())
    dim = pts[0].n
    if n is not None and n != dim:
        raise DimensionMismatchError(f"points have dimension {dim}, expected {n}")
    for p in pts:
        if p.n != dim:
            raise DimensionMismatchError(f"mixed dimensions {dim} and {p.n}")
    if len(set(pts)) != len(pts):
        seen: set[Point] = set()
        dup = next(p for p in pts if p in seen or seen.add(p))
        raise DuplicatePointError(f"duplicate point {dup}")

    ordered = sorted(pts)
    orbits = []
    for members in symmetric_orbit_classes(ordered, dim, kind="point"):
        group = [ordered[i] for i in members]
        t = classify_point(group[0])
        if len(group) != orbit_size(t):
            raise AssertionError("orbit decomposition does not match orbit size")
        orbits.append(Orbit(type=t, points=tuple(group), rep=canonical_arrangement(group[0])))
    return NodeSet(n=dim, points=tuple(ordered), orbits=tuple(orbits))


def orbit_vector(s: NodeSet) -> tuple[int, ...]:
    """Counts of orbits per type rank, in the descending type order."""
    counts = [0] * len(enumerate_types(s.n))
    for orbit in s.orbits:
        counts[type_rank(orbit.type) - 1] += 1
    return tuple(counts)


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of comparing two symmetric node sets."""

    equivalent: bool
    vector_a: tuple[int, ...]
    vector_b: tuple[int, ...]
    bijection: tuple[tuple[Point, Point], ...] | None

    def __bool__(self) -> bool:
        return self.equivalent


def equivalent(s1: NodeSet, s2: NodeSet) -> EquivalenceResult:
    """Decide equivalence of the two S_n-actions and build the bijection.

    The actions are equivalent iff the orbit vectors agree.  The witness maps
    sigma * (canonical rep of an orbit of s1) to sigma * (canonical rep of the
    matched same-type orbit of s2).  The two reps share their equality pattern
    position by position, so that map replaces each coordinate value of the
    first rep by the value in the same position of the second, whatever sigma.
    """
    if s1.n != s2.n:
        raise DimensionMismatchError(f"node sets of dimensions {s1.n} and {s2.n}")
    va, vb = orbit_vector(s1), orbit_vector(s2)
    if va != vb:
        return EquivalenceResult(False, va, vb, None)

    def by_type(s: NodeSet) -> dict[OrbitType, list[Orbit]]:
        grouped: dict[OrbitType, list[Orbit]] = {}
        for orbit in s.orbits:
            grouped.setdefault(orbit.type, []).append(orbit)
        for orbits in grouped.values():
            orbits.sort(key=lambda o: o.points[0])
        return grouped

    pairs: list[tuple[Point, Point]] = []
    grouped_b = by_type(s2)
    for t, orbits_a in by_type(s1).items():
        for oa, ob in zip(orbits_a, grouped_b[t]):
            value = dict(zip(oa.rep.coords, ob.rep.coords))
            for x in oa.points:
                pairs.append((x, Point(tuple(value[c] for c in x.coords))))
    pairs.sort()
    return EquivalenceResult(True, va, vb, tuple(pairs))


# -- ingestion ---------------------------------------------------------------

@dataclass(frozen=True)
class SnapEvent:
    """Record of one coordinate being quantized onto a nearby rational."""

    original: str
    snapped: Fraction
    delta: Fraction

    def describe(self) -> str:
        return f"snapped {self.original} -> {self.snapped} (|delta| = {abs(self.delta)})"


# Snapping gives up after this many continued-fraction terms.  Coordinates
# written to a dozen digits and snapped at 1e-6 take at most 5; a walk this
# long means a tolerance far finer than the input's own precision.
MAX_SNAP_STEPS = 1000

# Largest |exponent| accepted in a decimal string such as "1e-5": the value
# is built as an exact rational, so "1e999999999" would need 10^999999999.
MAX_DECIMAL_EXPONENT = 10_000

_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with the smallest denominator in [lo, hi] (Stern-Brocot walk).

    Walks the continued fraction shared by both endpoints, keeping the last
    two convergents p/q; raises SymlagError after MAX_SNAP_STEPS terms.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    p, q, p_prev, q_prev = 1, 0, 0, 1
    for _ in range(MAX_SNAP_STEPS):
        floor_lo = lo.numerator // lo.denominator
        last = floor_lo if floor_lo >= lo else floor_lo + 1
        if last <= hi:
            return Fraction(last * p + p_prev, last * q + q_prev)
        # both endpoints inside (floor, floor+1): continue on the reciprocals
        p, q, p_prev, q_prev = floor_lo * p + p_prev, floor_lo * q + q_prev, p, q
        lo, hi = 1 / (hi - floor_lo), 1 / (lo - floor_lo)
    raise SymlagError(
        f"snapping needs more than {MAX_SNAP_STEPS} continued-fraction terms; use a larger tolerance"
    )


def parse_rational(value, snap_tol: Fraction | None = None) -> tuple[Fraction, SnapEvent | None]:
    """Parse one coordinate: int, [num, den], 'p/q' or a decimal string/float.

    With ``snap_tol`` set, the parsed value is replaced by the simplest
    rational within the tolerance and the substitution is reported; exact
    hits produce no event.
    """
    if isinstance(value, bool):
        raise ValueError(f"invalid coordinate {value!r}")
    if isinstance(value, int):
        return Fraction(value), None
    if isinstance(value, (list, tuple)):
        # `type(v) is int` also turns away JSON true and false
        if len(value) != 2 or not all(type(v) is int for v in value):
            raise ValueError(f"rational pair must be [num, den], got {value!r}")
        if value[1] == 0:
            raise ValueError(f"rational pair {value!r} has a zero denominator")
        return Fraction(value[0], value[1]), None
    if isinstance(value, float):
        exact = Fraction(repr(value))
    elif isinstance(value, str):
        exponent = _DECIMAL_EXPONENT.search(value)
        if exponent is not None and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in size")
        try:
            exact = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"coordinate {value!r} has a zero denominator") from None
    else:
        raise ValueError(f"invalid coordinate {value!r}")
    if snap_tol is None:
        return exact, None
    if snap_tol <= 0:
        raise ValueError("snap tolerance must be positive")
    snapped = simplest_rational_between(exact - snap_tol, exact + snap_tol)
    if snapped == exact:
        return exact, None
    return snapped, SnapEvent(original=str(value), snapped=snapped, delta=snapped - exact)


def node_set_from_json(obj, snap_tol: Fraction | None = None) -> tuple[NodeSet, list[SnapEvent]]:
    """Build a NodeSet from the file schema {n, points: [[coord, ...], ...]}.

    Coordinates follow :func:`parse_rational`.  A bare list of points is also
    accepted, and so is a file without "n": n is then taken from the points.
    """
    dim = None
    if isinstance(obj, dict):
        dim = obj.get("n")
        if dim is not None:
            check_dimension(dim, 'the node file\'s "n"')
        raw_points = obj.get("points")
        if raw_points is None:
            raise ValueError("node file needs a 'points' array")
    else:
        raw_points = obj
    if not isinstance(raw_points, list):
        raise ValueError("'points' must be an array of coordinate arrays")
    snaps: list[SnapEvent] = []
    points: list[Point] = []
    for raw in raw_points:
        if not isinstance(raw, list):
            raise ValueError(f"point {raw!r} is not a coordinate array")
        coords = []
        for c in raw:
            value, event = parse_rational(c, snap_tol)
            coords.append(value)
            if event is not None:
                snaps.append(event)
        points.append(Point(tuple(coords)))
        check_dimension(points[-1].n, "a point's dimension")
    if dim is not None:
        for p in points:
            if p.n != dim:
                raise DimensionMismatchError(f"point {p} has dimension {p.n}, file says {dim}")
    return validate_symmetric(points, n=dim), snaps


def load_node_set(path, snap_tol: Fraction | None = None) -> tuple[NodeSet, list[SnapEvent]]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return node_set_from_json(obj, snap_tol=snap_tol)
