"""Acceptance suite: one test per criterion, exact arithmetic, timed.

Each test prints a single [PASS] line (visible with ``pytest -s`` or in the
captured output section); a failed assertion marks the criterion red.
"""
import random
import time
from fractions import Fraction

from symlag import (
    BasisFunction,
    Permutation,
    apply_to_point,
    enumerate_types,
    k_matrix,
    orbit_size,
    orbit_vector,
    r_vector,
    solve_constraints,
    stabilizer_order,
    v_matrix,
    vandermonde,
)
from symlag.interp import VERDICT_UNISOLVENT

from oracles import compose, identity, v_entry_burnside
from conftest import (
    case1_set,
    case2_set,
    case3_set,
    case4_set,
    quadratic_basis,
    rand_fraction,
    random_symmetric_set,
)

V3 = ((1, 1, 1), (1, 2, 3), (1, 3, 6))


def _finish(num: int, desc: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit:.0f}s"
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s < {limit:.0f}s)")


def det_factor_product(a, b, c, d) -> Fraction:
    a, b, c, d = map(Fraction, (a, b, c, d))
    return (a - b) ** 2 * (c - d) ** 2 * (a * d - b * c) ** 2 * (
        4 * a * c - a * d - b * c - 2 * b * d
    )


def test_criterion_1_v_matrix_reproduction():
    started = time.perf_counter()
    v = v_matrix(3)
    assert v.entries == V3
    assert v.determinant() == 1
    _finish(1, "v_matrix(3) = [[1,1,1],[1,2,3],[1,3,6]] with determinant 1", started, 1.0)


def test_criterion_2_orbit_class_table():
    started = time.perf_counter()
    types = enumerate_types(3)
    assert [t.counts for t in types] == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
    assert [orbit_size(t) for t in types] == [1, 3, 6]
    assert [stabilizer_order(t) for t in types] == [6, 2, 1]
    _finish(2, "orbit classes of R^3 with sizes 1, 3, 6", started, 1.0)


def test_criterion_3_algebraic_criterion_for_the_quadratic_example():
    started = time.perf_counter()
    basis = quadratic_basis()
    rng = random.Random(20240613)

    checked = zeros_seen = 0
    while checked < 100 or zeros_seen < 10:
        a, b, c, d = (rand_fraction(rng, -9, 9, 5) for _ in range(4))
        roll = rng.random()
        # steer a share of the draws onto each vanishing locus so the
        # zero->singular direction is genuinely exercised
        if roll < 0.25 and a != 0:
            d = b * c / a  # ad - bc = 0
        elif roll < 0.5 and a + 2 * b != 0:
            d = c * (4 * a - b) / (a + 2 * b)  # 4ac - ad - bc - 2bd = 0
        if a == b or c == d or (a, b) == (c, d):
            continue
        factor = det_factor_product(a, b, c, d)
        report = vandermonde(basis, case3_set(a, b, c, d))
        assert (report.determinant == 0) == (factor == 0), (a, b, c, d)
        checked += 1
        zeros_seen += factor == 0

    for trial in range(20):
        local = random.Random(5000 + trial)
        vals = set()
        while len(vals) < 6:
            vals.add(rand_fraction(local, -20, 20, 7))
        a1, a2, a3, b, c, *_ = sorted(vals)
        assert vandermonde(basis, case1_set(sorted(vals))).determinant == 0
        assert vandermonde(basis, case2_set(a1, a2, a3, b, c)).determinant == 0
        assert vandermonde(basis, case4_set(a1, a2, a3)).determinant == 0
    _finish(
        3,
        f"determinant zero iff (a-b)^2(c-d)^2(ad-bc)^2(4ac-ad-bc-2bd) zero "
        f"({checked} draws, {zeros_seen} on the zero locus); cases 1, 2, 4 singular x20",
        started, 30.0,
    )


def test_criterion_4_triangularity_and_positive_definiteness():
    started = time.perf_counter()
    for n in range(1, 8):
        k = k_matrix(n)
        assert k.is_lower_triangular(), n
        assert all(d >= 1 for d in k.diagonal()), n
        v = v_matrix(n)
        assert v.entries == tuple(zip(*v.entries)), n
        assert all(m > 0 for m in v.leading_principal_minors()), n
    _finish(4, "n=1..7: K lower triangular, diag >= 1; V symmetric, minors positive", started, 60.0)


def test_criterion_5_burnside_cross_check():
    started = time.perf_counter()
    entries = 0
    for n in range(1, 6):
        v = v_matrix(n)
        for i in range(1, v.size + 1):
            for j in range(1, v.size + 1):
                assert v_entry_burnside(i, j, n) == v.entries[i - 1][j - 1], (n, i, j)
                entries += 1
    _finish(5, f"n=1..5: all {entries} V entries match the Burnside orbit oracle", started, 60.0)


def test_criterion_6_constraint_solver_matches_exhaustive_search():
    started = time.perf_counter()
    basis = quadratic_basis()
    r = r_vector(basis)
    assert r == (2, 4, 6)
    cs = solve_constraints(v_matrix(3), r)
    assert cs.admissible and cs.integer_solution() == (0, 2, 0)

    # exhaustive determinant testing across the four 6-point families
    rng = random.Random(99)
    families = {
        (6, 0, 0): lambda g: case1_set(_distinct(g, 6)),
        (3, 1, 0): lambda g: _case2(g),
        (0, 2, 0): lambda g: _case3(g),
        (0, 0, 1): lambda g: case4_set(*_distinct(g, 3)),
    }
    admitting = set()
    for vector, build in families.items():
        for _ in range(10):
            if vandermonde(basis, build(rng)).verdict == VERDICT_UNISOLVENT:
                admitting.add(vector)
    assert admitting == {(0, 2, 0)}
    assert cs.integer_solution() == (0, 2, 0)
    _finish(6, "r = (2,4,6), X = (0,2,0); only that family is ever unisolvent", started, 10.0)


def _distinct(rng, count):
    vals = set()
    while len(vals) < count:
        vals.add(rand_fraction(rng, -20, 20, 6))
    return sorted(vals)


def _case2(rng):
    a1, a2, a3, b, c = _distinct(rng, 5)
    return case2_set(a1, a2, a3, b, c)


def _case3(rng):
    while True:
        a, b, c, d = (rand_fraction(rng, -15, 15, 6) for _ in range(4))
        if a != b and c != d and (a, b) != (c, d):
            return case3_set(a, b, c, d)


def test_criterion_7_unisolvent_implies_the_forced_orbit_vector():
    started = time.perf_counter()
    basis = quadratic_basis()
    rng = random.Random(777)
    vectors = [(6, 0, 0), (3, 1, 0), (0, 2, 0), (0, 0, 1)]
    certified = 0
    draws = 0
    while certified < 50:
        vector = vectors[draws % len(vectors)]
        draws += 1
        nodes = random_symmetric_set(rng, vector, 3)
        report = vandermonde(basis, nodes)
        if report.verdict == VERDICT_UNISOLVENT:
            certified += 1
            assert orbit_vector(nodes) == (0, 2, 0), nodes.points
    _finish(
        7,
        f"{certified} certified-unisolvent sets out of {draws} draws, "
        "every one with orbit vector (0, 2, 0)",
        started, 60.0,
    )


def test_criterion_8_round_trips_and_action_laws():
    started = time.perf_counter()
    rng = random.Random(31337)
    for n in range(1, 7):
        v = v_matrix(n)
        for _ in range(100):
            x = tuple(rng.randint(0, 9) for _ in range(v.size))
            r = tuple(sum(v.entries[i][j] * x[j] for j in range(v.size)) for i in range(v.size))
            cs = solve_constraints(v, r)
            assert cs.admissible and cs.integer_solution() == x

    for _ in range(1000):
        n = rng.randint(1, 6)
        a = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        b = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        x = tuple(rand_fraction(rng, -9, 9, 4) for _ in range(n))
        assert apply_to_point(identity(n), x) == x
        assert apply_to_point(compose(a, b), x) == apply_to_point(a, apply_to_point(b, x))

    for _ in range(1000):
        n = rng.randint(1, 5)
        f = BasisFunction.from_terms(
            [(tuple(rng.randint(0, 2) for _ in range(n)), rng.randint(1, 5))]
        )
        a = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        b = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert f.permuted(identity(n)) == f
        assert f.permuted(compose(a, b)) == f.permuted(b).permuted(a)
    _finish(
        8,
        "600 exact V-solve round trips; 2000 point and function action-law triples",
        started, 30.0,
    )
