"""Seeded inputs and independent answer checks for the three workloads.

Every input is drawn from ``random.Random(seed)`` and written as JSON under
the run directory; symlag sees only those files.  Each case carries the
argv of one ``symlag ... --format json`` request, the exit code it must
return, and a check of its stdout that uses only this package's own
arithmetic (``combinat``), never symlag code.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path
from typing import Callable

import combinat as cb

# Shapes of the workloads; RATIONALE.md says why each was chosen.
TABLE_CASES = (("vmatrix", 12), ("vmatrix", 13), ("kmatrix", 16))
UNISOLVE_BASES = ((4, 4), (6, 3), (3, 6), (5, 4))
ORBIT_DIM = 6
ORBITS_PER_TYPE = 6  # every one of the 11 types of R^6: 9612 points
SOLVE_BASES = ((8, 4), (10, 3))
SNAP_DIGITS = 12
SNAP_TOL = "1e-6"
# Coordinates are p/q in lowest terms with |p| <= bound and q from a set.
# Rows of the evaluation matrix are cleared by the lcm of their denominators,
# so the denominators set the determinant's bit growth.  Singular sets use a
# single denominator: their solved block values bring in their own, and a
# pool value with denominator 5 would otherwise vanish into a plane sum 5v on
# some seeds and not others, which moved the case's cost by a third.
UNISOLVE_VALUES = (40, range(1, 7))
SINGULAR_VALUES = (120, (6,))
ORBITS_VALUES = (40, range(1, 13))
HOSTILE_DIGITS = 1400
HOSTILE_TOL = "1e-1300"


@dataclass
class Case:
    name: str
    command: str  # the subcommand, which names its end-to-end sum
    argv: list[str]
    rc: int
    check: Callable[[dict], list[str]] | None  # None: an error exit, no stdout to check
    timed: bool = True


def _orbit(c: tuple[int, ...], values: list[Fraction]) -> list[tuple[Fraction, ...]]:
    """Every arrangement of a point whose blocks (ascending size) take `values`."""
    coords = [v for size, v in zip(cb.blocks(c), values) for _ in range(size)]
    return sorted(set(itertools.permutations(coords)))


def _draw_values(rng: random.Random, count: int, values: tuple) -> list[Fraction]:
    bound, dens = values
    out: list[Fraction] = []
    while len(out) < count:
        p, q = rng.randint(-bound, bound), rng.choice(dens)
        if gcd(p, q) == 1 and Fraction(p, q) not in out:
            out.append(Fraction(p, q))
    return out


def _pool(rng: random.Random, count: int, values: tuple) -> list[Fraction]:
    """`count` distinct values, the same multiset for every seed, in an order
    the seed shuffles.  What exact arithmetic on a node set costs depends
    mostly on which values it holds, so a fixed multiset keeps each case's
    cost nearly independent of the seed."""
    pool = _draw_values(random.Random(f"pool-{count}-{values}"), count, values)
    rng.shuffle(pool)
    return pool


def _node_set(rng: random.Random, vector: dict[tuple[int, ...], int], values: tuple) -> list[tuple[Fraction, ...]]:
    """Random symmetric node set with the given {type: orbit count}; all block
    values distinct across the set, so all points are distinct."""
    pool = iter(_pool(rng, sum(sum(c) * k for c, k in vector.items()), values))
    points = []
    for c, count in sorted(vector.items()):
        for _ in range(count):
            points += _orbit(c, [next(pool) for _ in range(sum(c))])
    return points


def _on_hyperplanes(rng: random.Random, n: int, d: int, vector: dict[tuple[int, ...], int]):
    """Node set with the given orbit vector on d hyperplanes sum(x) = s_j, each
    holding at least one orbit.  The product of the d linear forms lies in the
    total-degree-d space and vanishes on every node, so the set is singular.
    With d planes (not fewer) that product is, generically, the only such
    polynomial: the evaluation matrix has rank N - 1, and elimination runs to
    the end instead of stopping at a column that depends on the seed.

    Each all-equal point is its own plane.  Every other orbit takes pool
    values for all blocks but its smallest, whose value puts it on its plane;
    that block is a singleton when the type has one, so no division enlarges
    its denominator."""
    flat = (0,) * (n - 1) + (1,)
    planes = vector.get(flat, 0)
    if planes > d:
        raise ValueError(f"{planes} all-equal orbits need more than {d} planes")
    others = [c for c, k in sorted(vector.items()) for _ in range(k) if c != flat]
    while True:  # a solved value can collide with another value; shuffle again
        pool = _pool(rng, d + sum(sum(c) - 1 for c in others), SINGULAR_VALUES)
        sums = [n * v for v in pool[:d]]
        free = iter(pool[d:])
        points = [(s / n,) * n for s in sums[:planes]]
        seen: set[tuple] = set()
        for k, c in enumerate(others):
            sizes = cb.blocks(c)
            rest = [next(free) for _ in sizes[1:]]
            values = [(sums[(planes + k) % d] - sum(s * v for s, v in zip(sizes[1:], rest))) / sizes[0]] + rest
            key = tuple(sorted(zip(sizes, values)))
            if len(set(values)) < len(values) or key in seen:
                break
            seen.add(key)
            points += _orbit(c, values)
        else:
            return points


def _wrong_vectors(n: int, vector: dict[tuple[int, ...], int], rng: random.Random):
    """Two orbit vectors with the right point count but not the forced one:
    one with another orbit count, one with the same orbit count.  Each trades
    the fewest orbits of the forced vector for orbits of equal total size (in
    R^3 that takes five: 1 + 1 + 1 + 6 + 6 = 3 + 3 + 3 + 3 + 3 points)."""
    ts = cb.types(n)
    size = {c: cb.orbit_size(c) for c in ts}
    for limit in range(1, 6):
        pool = [c for c in ts for _ in range(min(vector.get(c, 0), limit))]
        removals = {m for k in range(1, limit + 1) for m in itertools.combinations(pool, k)}
        additions: dict[int, list[tuple]] = {}
        for k in range(1, limit + 1):
            for m in itertools.combinations_with_replacement(ts, k):
                additions.setdefault(sum(size[c] for c in m), []).append(m)
        same, other = [], []
        for out in sorted(removals):
            for add in additions.get(sum(size[c] for c in out), []):
                if sorted(add) == sorted(out):
                    continue
                y = dict(vector)
                for c in out:
                    y[c] -= 1
                for c in add:
                    y[c] = y.get(c, 0) + 1
                (same if len(add) == len(out) else other).append({c: k for c, k in y.items() if k})
        if same and other:
            return rng.choice(other), rng.choice(same)
    raise ValueError(f"no wrong orbit vector found for R^{n}")


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _points_json(n: int, points, rng: random.Random) -> dict:
    rows = [[[x.numerator, x.denominator] for x in p] for p in points]
    rng.shuffle(rows)
    return {"n": n, "points": rows}


def _basis_json(n: int, d: int, rng: random.Random) -> dict:
    exps = cb.total_degree_exponents(n, d)
    rng.shuffle(exps)
    return {"n": n, "functions": [{"exponents": list(e)} for e in exps]}


def _order_vector(n: int, vector: dict[tuple[int, ...], int]) -> list[int]:
    return [vector.get(c, 0) for c in cb.types(n)]


def _expect(ok: bool, what: str) -> list[str]:
    return [] if ok else [what]


# -- tables ------------------------------------------------------------------

def _check_kmatrix(n: int):
    ts = cb.types(n)

    def check(out: dict) -> list[str]:
        k = out["entries"]
        diag = [k[i][i] for i in range(len(k))]
        want_diag = [prod(factorial(x) for x in c) for c in ts]
        return (
            _expect([tuple(t) for t in out["order"]] == list(ts), "type order")
            + _expect(all(k[i][j] == 0 for i in range(len(k)) for j in range(i + 1, len(k))),
                      "K not lower triangular")
            + _expect(all(row[0] == 1 for row in k), "first column of K not all 1")
            + _expect(diag == want_diag and out["diagonal"] == want_diag, "diag K != prod c_l!")
            + _expect(out["determinant"] == prod(want_diag), "det K != prod diag")
            + _expect(out["lower_triangular"] is True, "lower_triangular flag")
        )

    return check


def _check_vmatrix(n: int):
    ts = cb.types(n)
    want_diag_k = prod(prod(factorial(x) for x in c) for c in ts)
    closed = Fraction(want_diag_k**2 * prod(cb.class_size(c) for c in ts),
                      factorial(n) ** len(ts))

    def check(out: dict) -> list[str]:
        v = out["entries"]
        minors = out["leading_principal_minors"]
        return (
            _expect([tuple(t) for t in out["order"]] == list(ts), "type order")
            + _expect(all(v[i][j] == v[j][i] for i in range(len(v)) for j in range(i)), "V not symmetric")
            + _expect(all(x == 1 for x in v[0]), "first row of V not all 1")
            + _expect(len(minors) == len(ts) and all(m > 0 for m in minors), "a minor is not positive")
            + _expect(minors[-1] == closed and out["determinant"] == closed, "det V != closed form")
            + _expect(out["positive_definite"] is True and out["symmetric"] is True, "flags")
        )

    return check


def tables(rng: random.Random, run_dir: Path) -> list[Case]:
    make = {"vmatrix": _check_vmatrix, "kmatrix": _check_kmatrix}
    return [
        Case(f"{cmd}-n{n}", cmd, [cmd, "--n", str(n)], 0, make[cmd](n))
        for cmd, n in TABLE_CASES
    ]


# -- unisolve ----------------------------------------------------------------

def _check_analyze(verdict: str, det_mod: int | None, failed_at: str | None):
    def check(out: dict) -> list[str]:
        errors = _expect(out["verdict"] == verdict, f"verdict {out['verdict']} != {verdict}")
        det = out["determinant"]
        if verdict == "necessary-conditions-failed":
            first = next((c["name"] for c in out["conditions"] if not c["passed"]), None)
            errors += _expect(det is None, "determinant computed for a screened set")
            errors += _expect(first == failed_at, f"screen failed at {first}, expected {failed_at}")
        elif verdict == "singular":
            errors += _expect(det == [0, 1], "singular determinant is not 0")
        else:
            got = det[0] % cb.P61 * pow(det[1], -1, cb.P61) % cb.P61
            errors += _expect(got in (det_mod, -det_mod % cb.P61), "determinant != modular certificate")
        return errors

    return check


def unisolve(rng: random.Random, run_dir: Path) -> list[Case]:
    cases = []
    for n, d in UNISOLVE_BASES:
        tag = f"n{n}d{d}"
        exps = cb.total_degree_exponents(n, d)
        basis = _write(run_dir / f"basis-{tag}.json", _basis_json(n, d, rng))
        forced = cb.forced_orbit_vector(n, d)
        while True:  # a generic draw is unisolvent unless det vanishes mod p
            generic = _node_set(rng, forced, UNISOLVE_VALUES)
            det_mod = cb.det_mod_p(cb.vandermonde_mod_p(exps, generic))
            if det_mod:
                break
        singular = _on_hyperplanes(rng, n, d, forced)
        wrong_count, wrong_vector = _wrong_vectors(n, forced, rng)
        sets = [
            ("generic", generic, 0, "unisolvent", det_mod, None),
            ("singular", singular, 1, "singular", None, None),
            ("screen-count", _node_set(rng, wrong_count, UNISOLVE_VALUES), 1, "necessary-conditions-failed", None,
             "orbit-count-match"),
            ("screen-vector", _node_set(rng, wrong_vector, UNISOLVE_VALUES), 1, "necessary-conditions-failed", None,
             "orbit-vector-match"),
        ]
        for kind, points, rc, verdict, dm, failed_at in sets:
            nodes = _write(run_dir / f"nodes-{tag}-{kind}.json", _points_json(n, points, rng))
            cases.append(Case(
                f"analyze-{tag}-{kind}", "analyze", ["analyze", "--basis", basis, "--nodes", nodes],
                rc, _check_analyze(verdict, dm, failed_at),
            ))
    return cases


# -- orbits ------------------------------------------------------------------

def _decimal(x: Fraction) -> str:
    scaled = round(x * 10**SNAP_DIGITS)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**SNAP_DIGITS)
    return f"{sign}{whole}.{frac:0{SNAP_DIGITS}d}"


def _point_key(p) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, b) for a, b in p)


def _pattern(p: tuple[Fraction, ...]) -> tuple[int, ...]:
    counts = [0] * len(p)
    for m in {v: p.count(v) for v in p}.values():
        counts[m - 1] += 1
    return tuple(counts)


def _check_classify(n: int, points: int, vector: dict, snaps: int, reference: dict, snapped: bool):
    """The exact case records its orbits in `reference`; the snapped case,
    which runs after it in every pass, must reproduce them."""

    def check(out: dict) -> list[str]:
        errors = (
            _expect(out["point_count"] == points, "point count")
            + _expect(out["orbit_vector"] == _order_vector(n, vector), "orbit vector")
            + _expect(len(out["snaps"]) == snaps, f"{len(out['snaps'])} snaps, expected {snaps}")
            + _expect(sum(len(o["points"]) for o in out["orbits"]) == points, "orbit sizes")
        )
        if snapped:
            return errors + _expect(out["orbits"] == reference.get("orbits"), "snapped set classifies differently")
        reference["orbits"] = out["orbits"]
        return errors

    return check


def _check_equiv(n: int, a_points, b_points):
    a_set, b_set = set(a_points), set(b_points)
    swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)) for i in range(n - 1)]

    def check(out: dict) -> list[str]:
        if not out["equivalent"] or out["bijection"] is None:
            return ["sets reported inequivalent"]
        pairs = {_point_key(x): _point_key(y) for x, y in out["bijection"]}
        errors = (
            _expect(set(pairs) == a_set and len(out["bijection"]) == len(a_set), "bijection domain")
            + _expect(set(pairs.values()) == b_set, "bijection is not onto B")
            + _expect(all(_pattern(x) == _pattern(y) for x, y in pairs.items()), "orbit type not kept")
        )
        equivariant = all(
            pairs[tuple(x[i] for i in s)] == tuple(y[i] for i in s) for x, y in pairs.items() for s in swaps
        )
        return errors + _expect(equivariant, "bijection is not equivariant")

    return check


def _check_solve(n: int, d: int):
    forced = _order_vector(n, cb.forced_orbit_vector(n, d))
    r = cb.r_total_degree(n, d)
    count = len(cb.total_degree_exponents(n, d))
    sizes = [cb.orbit_size(c) for c in cb.types(n)]

    def check(out: dict) -> list[str]:
        x = [Fraction(s) for s in out["solution"]]
        return (
            _expect(out["admissible"] is True, "not admissible")
            + _expect(out["function_count"] == count, "function count")
            + _expect(out["r"] == r, "r vector")
            + _expect(x == forced, "X differs from the contingency-table solve")
            + _expect(sum(a * s for a, s in zip(x, sizes)) == count, "sum X_t |orbit(t)| != functions")
        )

    return check


def _fib_ratio_decimal(digits: int) -> str:
    a, b = 0, 1
    for _ in range(3001):
        a, b = b, a + b  # a = Fib(3001), b = Fib(3002)
    prev = b - a  # Fib(3000)
    text = str(a * 10**digits // prev)
    return f"{text[:-digits]}.{text[-digits:]}"


def orbits(rng: random.Random, run_dir: Path) -> list[Case]:
    n = ORBIT_DIM
    vector = {c: ORBITS_PER_TYPE for c in cb.types(n)}
    a_points = _node_set(rng, vector, ORBITS_VALUES)
    b_points = _node_set(rng, vector, ORBITS_VALUES)
    count = len(a_points)
    exact = _points_json(n, a_points, rng)
    decimal = {"n": n, "points": [[_decimal(Fraction(p, q)) for p, q in row] for row in exact["points"]]}
    snaps = sum(Fraction(x) != Fraction(p, q)
                for row, drow in zip(exact["points"], decimal["points"]) for (p, q), x in zip(row, drow))
    a_file = _write(run_dir / "orbits-a.json", exact)
    dec_file = _write(run_dir / "orbits-a-decimal.json", decimal)
    b_file = _write(run_dir / "orbits-b.json", _points_json(n, b_points, rng))
    hostile = _write(run_dir / "hostile.json", {"n": 1, "points": [[_fib_ratio_decimal(HOSTILE_DIGITS)]]})
    reference: dict = {}
    # cheap cases first: a run of orbits fits about one pass, and the cases
    # that also start the second pass get the repeat the byte check needs
    cases = [
        Case(f"solve-n{sn}d{sd}", "solve",
             ["solve", "--basis", _write(run_dir / f"solve-n{sn}d{sd}.json", _basis_json(sn, sd, rng))], 0,
             _check_solve(sn, sd))
        for sn, sd in SOLVE_BASES
    ]
    cases += [
        Case("classify-exact", "classify", ["classify", "--nodes", a_file], 0,
             _check_classify(n, count, vector, 0, reference, snapped=False)),
        Case("classify-decimal", "classify", ["classify", "--nodes", dec_file, "--snap-tol", SNAP_TOL], 0,
             _check_classify(n, count, vector, snaps, reference, snapped=True)),
        Case("equiv", "equiv", ["equiv", a_file, b_file], 0,
             _check_equiv(n, [tuple(p) for p in a_points], [tuple(p) for p in b_points])),
    ]
    cases.append(Case("hostile-snap", "classify", ["classify", "--nodes", hostile, "--snap-tol", HOSTILE_TOL],
                      2, None, timed=False))
    return cases


WORKLOADS = {"tables": tables, "unisolve": unisolve, "orbits": orbits}
