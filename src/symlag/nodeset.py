"""Rational points, symmetric node sets, orbit vectors, and equivalence.

Coordinates are exact rationals because the whole classification rides on
exact equality patterns between coordinates.  JSON numbers and decimal
strings are read exactly (a float as its shortest repr); ``--snap-tol``
optionally moves each onto a nearby simple rational and reports it
(``parse_rational``).

A validated :class:`NodeSet` is a value table: its sorted distinct
coordinates, and each point, in lexicographic order, as the ranks of its
coordinates among them.  Ranking keeps equality and order.  The distinct
values are found by their (numerator, denominator) pairs and sorted by
their floats, comparing two exactly only when their floats tie, so no
Fraction is hashed, from a file or a list of Points; validation then works
on ranks.  The orbit of a point is every arrangement of its coordinate
multiset, so the set is symmetric exactly when each group of points with
one sorted rank tuple is a whole orbit; only the rank tuples of short
groups are permuted, and the witness is the one Point a refusal builds.
``node_set_from_json`` ranks straight from its parse cache, one entry per
distinct raw form (string, int or [int, int] pair).  Orbits come in the
order of their first point, each as indices into the table: its members
into ``ranks``, its canonical arrangement into ``values``, so a valid set
builds no Point.  The orbit vector counts them per type rank, and two sets
admit an equivariant bijection exactly when their orbit vectors agree.
``equivalent`` builds it as an index map.
"""
from __future__ import annotations

import functools
import json
import math
import operator
import re
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, DuplicatePointError, NotSymmetricError, SymlagError, echo
from .symcore import (
    OrbitType,
    Permutation,
    Record,
    adjacent_transpositions,
    apply_to_point,
    check_dimension,
    enumerate_types,
    orbit_size,
    type_rank,
)


class Point(NamedTuple("Point", [("coords", tuple[Fraction, ...])])):
    """A point of R^n with exact rational coordinates; points sort by them."""

    __slots__ = ()

    def __new__(cls, coords: Sequence) -> "Point":
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        if not all(isinstance(c, Fraction) for c in coords):
            coords = tuple(Fraction(c) for c in coords)
        return super().__new__(cls, coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *values) -> "Point":
        """Convenience constructor accepting ints, Fractions or 'p/q' strings."""
        return cls(tuple(Fraction(v) for v in values))

    def permuted(self, sigma: Permutation) -> "Point":
        return Point(apply_to_point(sigma, self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


# R^n has 2^(n-1) shapes, one set few of them; the bound keeps a process small
@functools.lru_cache(maxsize=1 << 12)
def _shape(steps: tuple[bool, ...]) -> tuple[OrbitType, tuple[int, ...]]:
    """The orbit type of a sorted rank key whose neighbours differ where
    ``steps`` is true, and the positions of the key that list its canonical
    representative.

    The key's runs of equal ranks are its value blocks, counts[m-1] of them
    of length m.  The canonical order takes the blocks by ascending length,
    ties by value, e.g. (b,c,d,d,c,d,a) -> (a,b,c,c,d,d,d): a stable sort of
    the runs by length, since ranks keep the order of values.  Two same-type
    representatives built this way share their equality pattern position
    for position, hence their stabilizer subgroup, which makes the
    equivalence bijection below well defined.
    """
    starts = [0, *(i + 1 for i, step in enumerate(steps) if step), len(steps) + 1]
    runs = sorted((range(a, b) for a, b in zip(starts, starts[1:])), key=len)
    counts = [0] * (len(steps) + 1)
    for run in runs:
        counts[len(run) - 1] += 1
    return OrbitType(tuple(counts)), tuple(i for run in runs for i in run)


class Orbit(NamedTuple):
    """One S_n-orbit inside a node set, as indices into its NodeSet."""

    type: OrbitType
    members: tuple[int, ...]  # the indices of its points in ``ranks``, ascending
    rep: tuple[int, ...]  # the canonical arrangement, as ranks into ``values``


class NodeSet(Record):
    """A validated symmetric set of distinct points with its orbit decomposition.

    Each point is stored once, as the ranks of its coordinates among
    ``values``; ``points`` builds Points from them.  Construct via
    :func:`validate_symmetric`; instances are immutable and thread-safe.
    """

    # ranks sorted, so the points are in lexicographic order
    __slots__ = _compared = ("n", "values", "ranks", "orbits")

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(Point(tuple(map(self.values.__getitem__, ranks))) for ranks in self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)


def _order_key(v: Fraction) -> tuple[float, Fraction]:
    """A sort key for v: its correctly rounded float, which is monotone, and
    v itself, which is compared only when two floats tie."""
    try:
        return v.numerator / v.denominator, v
    except OverflowError:  # |v| beyond the largest float, up to 10^MAX_DECIMAL_EXPONENT
        return (math.inf if v > 0 else -math.inf), v


def _validated(rows: list[Sequence[int]], slot_values: Sequence[Fraction], n: int | None) -> NodeSet:
    """The NodeSet of points given as rows of slots, slot k holding value
    ``slot_values[k]`` (several slots may hold one value), validated on the
    ranks of the values, as set out in the module docstring."""
    dim = len(rows[0]) if rows else n
    if dim is None:
        raise ValueError("empty node set needs an explicit dimension n")
    if n is not None and n != dim:
        raise DimensionMismatchError(f"points have dimension {dim}, expected {n}")
    for row in rows:
        if len(row) != dim:
            raise DimensionMismatchError(f"mixed dimensions {dim} and {len(row)}")
    # a Fraction is in lowest terms, so its (numerator, denominator) pair
    # names it, and ints hash in C where a Fraction hash takes a pow
    keys = [(v.numerator, v.denominator) for v in slot_values]
    values = sorted(dict(zip(keys, slot_values)).values(), key=_order_key)
    rank = {(v.numerator, v.denominator): r for r, v in enumerate(values)}
    slot_rank = list(map(rank.__getitem__, keys))
    ranked = [tuple(map(slot_rank.__getitem__, row)) for row in rows]

    # only the messages of a refused set build Points
    def point(ranks: Sequence[int]) -> Point:
        return Point(tuple(map(values.__getitem__, ranks)))

    if len(set(ranked)) != len(ranked):
        seen: set[tuple[int, ...]] = set()
        dup = next(x for x in ranked if x in seen or seen.add(x))
        raise DuplicatePointError(f"duplicate point {point(dup)}")

    ranked.sort()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, ranks in enumerate(ranked):
        groups.setdefault(tuple(sorted(ranks)), []).append(i)
    orbits = []
    for key, members in groups.items():
        orbit_type, positions = _shape(tuple(map(operator.ne, key, key[1:])))
        orbits.append(Orbit(orbit_type, tuple(members), tuple(map(key.__getitem__, positions))))
    # swaps keep each point in its group, so the first (transposition, point)
    # witness, transposition-major, is a point of a short one
    short = sorted(ranked[i] for orbit in orbits if len(orbit.members) != orbit_size(orbit.type) for i in orbit.members)
    if short:
        present = set(short)
        for tau in adjacent_transpositions(dim):
            for ranks in short:
                if apply_to_point(tau, ranks) not in present:
                    raise NotSymmetricError(point(ranks), tau)
    return NodeSet(n=dim, values=tuple(values), ranks=tuple(ranked), orbits=tuple(orbits))


def validate_symmetric(points: Iterable[Point | Sequence], n: int | None = None) -> NodeSet:
    """Check closure under coordinate permutation and decompose into orbits.

    Raises NotSymmetricError with the first (adjacent transposition, x)
    witness on failure and DuplicatePointError on repeated points.  ``n``
    is only needed for the empty set.
    """
    # one slot per coordinate: _validated finds the distinct values
    slot_values: list[Fraction] = []
    rows = []
    for p in points:
        coords = p.coords if isinstance(p, Point) else Point(tuple(p)).coords
        rows.append(range(len(slot_values), len(slot_values) + len(coords)))
        slot_values.extend(coords)
    return _validated(rows, slot_values, n)


def orbit_vector(s: NodeSet) -> tuple[int, ...]:
    """Counts of orbits per type rank, in the descending type order."""
    counts = [0] * len(enumerate_types(s.n))
    for orbit in s.orbits:
        counts[type_rank(orbit.type) - 1] += 1
    return tuple(counts)


class EquivalenceResult(NamedTuple):
    """Outcome of comparing two symmetric node sets."""

    equivalent: bool
    vector_a: tuple[int, ...]
    vector_b: tuple[int, ...]
    image: tuple[int, ...] | None  # image[i]: the index in the second set of point i's image


def equivalent(s1: NodeSet, s2: NodeSet) -> EquivalenceResult:
    """Decide equivalence of the two S_n-actions and build the bijection.

    The actions are equivalent iff the orbit vectors agree.  The witness maps
    sigma * (canonical rep of an orbit of s1) to sigma * (canonical rep of the
    matched same-type orbit of s2): the two reps share their equality pattern
    position by position, so the map replaces each rank of the first rep by
    the rank in the same position of the second, whatever sigma.  No Fraction
    or Point is hashed.
    """
    if s1.n != s2.n:
        raise DimensionMismatchError(f"node sets of dimensions {s1.n} and {s2.n}")
    va, vb = orbit_vector(s1), orbit_vector(s2)
    if va != vb:
        return EquivalenceResult(False, va, vb, None)

    # the k-th orbit of a type in s1 goes to the k-th of that type in s2
    unmatched: dict[OrbitType, list[Orbit]] = {}
    for orbit in reversed(s2.orbits):
        unmatched.setdefault(orbit.type, []).append(orbit)
    index_b = {ranks: j for j, ranks in enumerate(s2.ranks)}
    image = [0] * len(s1)
    for oa in s1.orbits:
        rank = dict(zip(oa.rep, unmatched[oa.type].pop().rep))
        for i in oa.members:
            image[i] = index_b[tuple(map(rank.__getitem__, s1.ranks[i]))]
    return EquivalenceResult(True, va, vb, tuple(image))


# -- ingestion ---------------------------------------------------------------

class SnapEvent(NamedTuple):
    """Record of one coordinate being quantized onto a nearby rational."""

    original: str
    snapped: Fraction
    delta: Fraction


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


def exact_decimal(text: str) -> Fraction | None:
    """The exact value of a 'p/q' or decimal string, or None if it is not
    one ('abc', 'inf', '0x10').  Raises ValueError for an exponent beyond
    MAX_DECIMAL_EXPONENT or an int beyond Python's digit limit, and
    ZeroDivisionError for a zero denominator."""
    try:
        exponent = _DECIMAL_EXPONENT.search(text)
        if exponent is None or abs(int(exponent.group(1))) <= MAX_DECIMAL_EXPONENT:
            return Fraction(text)
    except ValueError as exc:
        # Fraction's word for text it cannot read; its only other ValueError,
        # and int's, is Python's limit on the digits of an int
        if str(exc).startswith("Invalid literal"):
            return None
        raise too_many_digits(text) from None
    raise ValueError(f"decimal exponent of {echo(text)} exceeds {MAX_DECIMAL_EXPONENT} in size")


def too_many_digits(text: str) -> ValueError:
    """The error for a number string whose int has more digits than Python's limit."""
    limit = sys.get_int_max_str_digits()
    return ValueError(f"number {text[:20]}... has more than {limit} digits, the most symlag reads")


def parse_rational(value, snap_tol: Fraction | None = None) -> tuple[Fraction, SnapEvent | None]:
    """Parse one coordinate: int, [num, den], 'p/q' or a decimal string/float.

    With ``snap_tol`` set, the parsed value is replaced by the simplest
    rational within the tolerance and the substitution is reported; exact
    hits produce no event.
    """
    if isinstance(value, bool):
        raise ValueError(f"invalid coordinate {echo(value)}")
    if isinstance(value, int):
        return Fraction(value), None
    if isinstance(value, (list, tuple)):
        # `type(v) is int` also turns away JSON true and false
        if len(value) != 2 or not all(type(v) is int for v in value):
            raise ValueError(f"rational pair must be [num, den], got {echo(value)}")
        if value[1] == 0:
            raise ValueError(f"rational pair {echo(value)} has a zero denominator")
        return Fraction(value[0], value[1]), None
    # a float is read as its shortest repr, so JSON's Infinity and NaN are
    # 'inf' and 'nan', which are no number
    text = repr(value) if isinstance(value, float) else value
    exact = None
    if isinstance(text, str):
        try:
            exact = exact_decimal(text)
        except ZeroDivisionError:
            raise ValueError(f"coordinate {echo(value)} has a zero denominator") from None
    if exact is None:
        raise ValueError(f"invalid coordinate {echo(value)}")
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
    # one slot per distinct raw form, each parsed and snapped once; only
    # strings, plain ints and [int, int] pairs are keys, since true, 1 and
    # 1.0 would share one
    slot: dict = {}
    slot_values: list[Fraction] = []
    slot_events: list[SnapEvent | None] = []
    rows: list[list[int]] = []
    for raw in raw_points:
        if not isinstance(raw, list):
            raise ValueError(f"point {echo(raw)} is not a coordinate array")
        row = []
        for c in raw:
            if type(c) is list:
                key = tuple(c) if len(c) == 2 and type(c[0]) is int and type(c[1]) is int else None
            else:
                key = c if type(c) is str or type(c) is int else None
            k = slot.get(key)
            if k is None:
                value, event = parse_rational(c, snap_tol)
                try:  # the output writes each value, and each snap's delta, with str()
                    str(value) + (str(event.delta) if event else "")
                except ValueError:
                    raise ValueError(f"coordinate {echo(c)} needs more than {sys.get_int_max_str_digits()} digits, "
                                     "the most symlag writes") from None
                k = len(slot_values)
                slot_values.append(value)
                slot_events.append(event)
                if key is not None:
                    slot[key] = k
            row.append(k)
            if slot_events[k] is not None:
                snaps.append(slot_events[k])
        if not row:
            raise ValueError("a point needs at least one coordinate")
        check_dimension(len(row), "a point's dimension")
        if dim is not None and len(row) != dim:
            raise DimensionMismatchError(f"point {echo(raw)} has dimension {len(row)}, file says {dim}")
        rows.append(row)
    return _validated(rows, slot_values, dim), snaps


# A JSON input file larger than this is refused after reading one byte past
# it.  It admits the 12 MB file of the tensor basis {0..4}^8, which
# MAX_BASIS_FUNCTIONS then refuses by its count.  At this size, a file of
# empty arrays takes classify 3.2 s and a 433 MB peak, nearly all in json;
# integer points in R^6 take 2.8 s.  Distinct 20-digit decimals, the slowest
# content measured, one orbit each, take about 2.7 s per MB: 3.1 s for 1 MB
# and 10.7 s (224 MB peak) for 4 MB, so about 45 s at this size.  80,000
# random points of R^24, ints in [-10^6, 10^6] (16.3 MB, the first entry of
# tests/worst_inputs.py), are refused as asymmetric in 9.7-12.3 s with a
# 634 MB peak, nearly all parsing and ranking 1.23 million distinct ints
# (2-vCPU Xeon, Python 3.11).
MAX_INPUT_BYTES = 1 << 24


def read_json(path):
    """The JSON value in the file at ``path``, with symlag's words for what json cannot read."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"{path}: the file has more than {MAX_INPUT_BYTES} bytes, the most symlag reads")
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON arrays and objects nest too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ValueError:
        # json's only other ValueError: int() refusing the digits of a number
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{path}: a JSON integer has more than {limit} digits, the most symlag reads") from None


def load_node_set(path, snap_tol: Fraction | None = None) -> tuple[NodeSet, list[SnapEvent]]:
    return node_set_from_json(read_json(path), snap_tol=snap_tol)
