"""Symbolic polynomial bases, the generalized Vandermonde test, and VX = r.

Basis functions are multivariate polynomials with exact rational
coefficients, stored as canonical term maps so that equality (and hence
symmetry closure and orbit decomposition) is decidable.  Permuting
variables sends the monomial x^e to x^(e') with e'[j] = e[sigma(j)], the
same coordinate action used for points, and evaluation satisfies
(sigma f)(x) = f(sigma^{-1} x).

Unisolvence of a (basis, nodes) pair is decided by the determinant of the
evaluation matrix f_i(a_j): exact fraction-free elimination on the rational
path, pivoted elimination with a relative smallness threshold on the
floating path.  Before any determinant work, cheap necessary conditions
run: equal counts, equal orbit counts, and the orbit vector forced by the
exact linear system V X = r.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _linalg
from .charmat import VMatrix, v_matrix
from .errors import (
    DimensionMismatchError,
    NotSymmetricError,
    SizeMismatchError,
)
from .nodeset import NodeSet, Point, orbit_vector
from .symcore import (
    OrbitType,
    Permutation,
    adjacent_transpositions,
    apply_to_point,
    enumerate_types,
    orbit_partition,
    orbit_size,
    stabilizer_generators,
)

VERDICT_UNISOLVENT = "unisolvent"
VERDICT_SINGULAR = "singular"
VERDICT_INDETERMINATE = "numerically-indeterminate"


@dataclass(frozen=True)
class Monomial:
    """x1^e1 * ... * xn^en, stored as the exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if not self.exponents or any(e < 0 for e in self.exponents):
            raise ValueError(f"invalid exponent vector {self.exponents!r}")

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def evaluate(self, coords: Sequence[Fraction]) -> Fraction:
        value = Fraction(1)
        for c, e in zip(coords, self.exponents):
            if e:
                value *= Fraction(c) ** e
        return value

    def evaluate_float(self, coords: Sequence[float]) -> float:
        value = 1.0
        for c, e in zip(coords, self.exponents):
            if e:
                value *= float(c) ** e
        return value

    def permuted(self, sigma: Permutation) -> "Monomial":
        return Monomial(apply_to_point(sigma, self.exponents))

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"


_MONO_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def monomial_from_string(text: str, n: int | None = None) -> Monomial:
    """Parse shorthand like 'x1^2*x3' (or '1' for the constant monomial).

    Unless given, n is the largest variable index mentioned.
    """
    body = text.replace(" ", "")
    if not body:
        raise ValueError("empty monomial string")
    exps: dict[int, int] = {}
    if body != "1":
        for factor in body.split("*"):
            m = _MONO_FACTOR.match(factor)
            if m is None:
                raise ValueError(f"cannot parse monomial factor {factor!r} in {text!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError(f"variable index must be >= 1 in {text!r}")
            exps[idx] = exps.get(idx, 0) + int(m.group(2) or 1)
    dim = n if n is not None else max(exps, default=1)
    if exps and max(exps) > dim:
        raise ValueError(f"monomial {text!r} uses x{max(exps)} but n = {dim}")
    return Monomial(tuple(exps.get(i, 0) for i in range(1, dim + 1)))


@dataclass(frozen=True)
class BasisFunction:
    """A polynomial as a canonical map monomial -> nonzero rational coefficient.

    Terms are kept sorted by exponent vector, zero coefficients dropped, so
    two equal polynomials compare equal as values.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("the zero polynomial cannot be a basis function")

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Monomial | Sequence[int], Fraction | int]]) -> "BasisFunction":
        merged: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            if not isinstance(mono, Monomial):
                mono = Monomial(tuple(mono))
            coeff = Fraction(coeff)
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        kept = {m: c for m, c in merged.items() if c != 0}
        if not kept:
            raise ValueError("all terms cancelled; the zero polynomial cannot be a basis function")
        dims = {m.n for m in kept}
        if len(dims) != 1:
            raise DimensionMismatchError(f"terms of mixed dimensions {sorted(dims)}")
        ordered = tuple(sorted(kept.items(), key=lambda mc: mc[0].exponents))
        return cls(ordered)

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: Fraction | int = 1) -> "BasisFunction":
        return cls.from_terms([(Monomial(tuple(exponents)), coeff)])

    @property
    def n(self) -> int:
        return self.terms[0][0].n

    def evaluate(self, point: Point | Sequence[Fraction]) -> Fraction:
        coords = point.coords if isinstance(point, Point) else point
        if len(coords) != self.n:
            raise DimensionMismatchError(f"point of dimension {len(coords)}, function of dimension {self.n}")
        return sum((c * m.evaluate(coords) for m, c in self.terms), Fraction(0))

    def evaluate_float(self, coords: Sequence[float]) -> float:
        return sum(float(c) * m.evaluate_float(coords) for m, c in self.terms)

    def permuted(self, sigma: Permutation) -> "BasisFunction":
        return BasisFunction.from_terms((m.permuted(sigma), c) for m, c in self.terms)

    def sort_key(self):
        return tuple((m.exponents, c) for m, c in self.terms)

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(m.exponents), "coeff": [c.numerator, c.denominator]}
            for m, c in self.terms
        ]

    def __str__(self) -> str:
        parts = []
        for m, c in self.terms:
            mono = str(m)
            if c == 1 and mono != "1":
                parts.append(mono)
            elif mono == "1":
                parts.append(str(c))
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def act_on_function(sigma: Permutation, f: BasisFunction) -> BasisFunction:
    """(sigma f)(x) = f(sigma^{-1} x); on monomials this permutes exponents
    by the same rule points use, so the action laws match apply_to_point's."""
    if sigma.n != f.n:
        raise DimensionMismatchError(f"permutation of size {sigma.n}, function of dimension {f.n}")
    return f.permuted(sigma)


@dataclass(frozen=True)
class BasisSet:
    """A validated symmetric set of basis functions with its S_n-orbit decomposition.

    Linear independence is *not* implied; see verify_linear_independence.
    """

    n: int
    functions: tuple[BasisFunction, ...]
    orbits: tuple[tuple[BasisFunction, ...], ...]

    def __len__(self) -> int:
        return len(self.functions)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def validate_symmetric_basis(functions: Iterable[BasisFunction], n: int | None = None) -> BasisSet:
    """Check closure of the function set under variable permutation.

    As with node sets, closure under the adjacent transpositions is closure
    under all of S_n.  Raises NotSymmetricError with an (f, transposition)
    witness.
    """
    fs = list(functions)
    if not fs:
        if n is None:
            raise ValueError("empty basis needs an explicit dimension n")
        return BasisSet(n=n, functions=(), orbits=())
    dim = fs[0].n
    if n is not None and n != dim:
        raise DimensionMismatchError(f"functions have dimension {dim}, expected {n}")
    for f in fs:
        if f.n != dim:
            raise DimensionMismatchError(f"mixed dimensions {dim} and {f.n}")
    if len(set(fs)) != len(fs):
        raise ValueError("duplicate basis function in input")

    ordered = sorted(fs, key=BasisFunction.sort_key)
    index = set(ordered)
    gens = adjacent_transpositions(dim)
    for g in gens:
        for f in ordered:
            if f.permuted(g) not in index:
                raise NotSymmetricError(f, g, kind="function")
    orbits = tuple(
        tuple(group)
        for group in orbit_partition(ordered, gens, lambda g, f: f.permuted(g))
    )
    return BasisSet(n=dim, functions=tuple(ordered), orbits=orbits)


def basis_orbit_count_under_stabilizer(b: BasisSet, t: OrbitType) -> int:
    """Orbits of the basis functions under the stabilizer of a class-t point
    (union-find over the stabilizer's generator images)."""
    if b.n != t.n:
        raise DimensionMismatchError(f"basis of dimension {b.n}, type of dimension {t.n}")
    if not b.functions:
        return 0
    gens = stabilizer_generators(t)
    return len(orbit_partition(b.functions, gens, lambda g, f: f.permuted(g)))


def r_vector(b: BasisSet) -> tuple[int, ...]:
    """r[i] = number of basis-function orbits under the class-(i+1) stabilizer,
    ranks in the descending type order."""
    return tuple(basis_orbit_count_under_stabilizer(b, t) for t in enumerate_types(b.n))


@dataclass(frozen=True)
class ConstraintSystem:
    """The exact system V X = r and its solution, classified for admissibility.

    Admissible means every component is a non-negative integer; anything
    else proves no symmetric node set can make the problem unisolvent with
    this basis.
    """

    v: VMatrix
    r: tuple[int, ...]
    solution: tuple[Fraction, ...]
    admissible: bool
    reason: str | None

    def integer_solution(self) -> tuple[int, ...]:
        if not self.admissible:
            raise ValueError("constraint system is infeasible; no integer solution")
        return tuple(int(x) for x in self.solution)


def solve_constraints(v: VMatrix, r: Sequence[int]) -> ConstraintSystem:
    """Solve V X = r exactly over the rationals and classify the solution."""
    if len(r) != v.size:
        raise DimensionMismatchError(f"r has length {len(r)}, V is {v.size} x {v.size}")
    solution = tuple(_linalg.solve_exact(v.entries, list(r)))
    residual = [
        sum(v.entries[i][j] * solution[j] for j in range(v.size)) - r[i]
        for i in range(v.size)
    ]
    if any(res != 0 for res in residual):
        raise ArithmeticError("exact solve failed to reproduce the right-hand side")
    reason = None
    for k, x in enumerate(solution):
        if x.denominator != 1:
            reason = f"component X_{k + 1} = {x} is not an integer"
            break
        if x < 0:
            reason = f"component X_{k + 1} = {x} is negative"
            break
    return ConstraintSystem(
        v=v, r=tuple(int(x) for x in r), solution=solution,
        admissible=reason is None, reason=reason,
    )


@dataclass(frozen=True)
class UnisolvenceReport:
    """Evaluation matrix f_i(a_j), its determinant, and the verdict."""

    size: int
    entries: tuple[tuple, ...]
    determinant: Fraction | float
    verdict: str
    mode: str
    det_tol: float | None

    @property
    def unisolvent(self) -> bool:
        return self.verdict == VERDICT_UNISOLVENT


def vandermonde_matrix(functions: Sequence[BasisFunction], points: Sequence[Point]) -> list[list[Fraction]]:
    """Exact evaluation matrix with rows f_i and columns a_j."""
    return [[f.evaluate(p) for p in points] for f in functions]


def vandermonde(
    basis: BasisSet | Sequence[BasisFunction],
    nodes: NodeSet | Sequence[Point],
    mode: str = "exact",
    det_tol: float = 1e-9,
) -> UnisolvenceReport:
    """Determinant test for unisolvence.

    Exact mode: fraction-free elimination; unisolvent iff the determinant is
    not zero.  Float mode: pivoted elimination; |det| below ``det_tol``
    relative to the product of row norms is reported numerically
    indeterminate rather than silently passed either way.
    """
    functions = tuple(basis.functions if isinstance(basis, BasisSet) else basis)
    points = tuple(nodes.points if isinstance(nodes, NodeSet) else nodes)
    if len(functions) != len(points):
        raise SizeMismatchError(
            f"{len(functions)} basis functions vs {len(points)} nodes; "
            "unisolvence needs the dimension of the space to equal the node count"
        )
    if not functions:
        raise ValueError("need at least one function and one node")
    if mode == "exact":
        matrix = vandermonde_matrix(functions, points)
        det = _linalg.exact_determinant(matrix)
        verdict = VERDICT_UNISOLVENT if det != 0 else VERDICT_SINGULAR
        return UnisolvenceReport(
            size=len(functions),
            entries=tuple(tuple(row) for row in matrix),
            determinant=det, verdict=verdict, mode="exact", det_tol=None,
        )
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    if det_tol <= 0:
        raise ValueError("det_tol must be positive")
    coords = [[float(c) for c in p.coords] for p in points]
    matrix_f = [[f.evaluate_float(x) for x in coords] for f in functions]
    det_f, scale = _linalg.float_determinant(matrix_f)
    if det_f == 0.0 or scale == 0.0:
        verdict = VERDICT_SINGULAR
    elif abs(det_f) < det_tol * scale:
        verdict = VERDICT_INDETERMINATE
    else:
        verdict = VERDICT_UNISOLVENT
    return UnisolvenceReport(
        size=len(functions),
        entries=tuple(tuple(row) for row in matrix_f),
        determinant=det_f, verdict=verdict, mode="float", det_tol=det_tol,
    )


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class NecessaryConditionsReport:
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


def check_necessary_conditions(
    b: BasisSet, s: NodeSet, v: VMatrix | None = None
) -> NecessaryConditionsReport:
    """Cheapest-first screen: (1) equal counts, (2) equal S_n-orbit counts,
    (3) node orbit vector equals the unique solution of V X = r(basis).

    Stops at the first violation; determinant work is for callers that pass.
    """
    if b.n != s.n:
        raise DimensionMismatchError(f"basis in dimension {b.n}, nodes in dimension {s.n}")
    notes = unmatched_orbit_notes(b)
    conditions: list[ConditionResult] = []
    node_vec = orbit_vector(s)

    size_ok = len(b) == len(s)
    conditions.append(ConditionResult(
        "size-match", size_ok, f"{len(b)} basis functions, {len(s)} nodes",
    ))
    if not size_ok:
        return NecessaryConditionsReport(False, tuple(conditions), tuple(notes), None, node_vec)

    counts_ok = len(b.orbits) == len(s.orbits)
    count_detail = (
        f"{len(b.orbits)} basis orbits, {len(s.orbits)} node orbits"
        if counts_ok
        else f"orbit count mismatch ({len(b.orbits)} basis orbits vs {len(s.orbits)} "
        "node orbits), so the orbit vectors cannot match"
    )
    conditions.append(ConditionResult("orbit-count-match", counts_ok, count_detail))
    if not counts_ok:
        return NecessaryConditionsReport(False, tuple(conditions), tuple(notes), None, node_vec)

    cs = solve_constraints(v if v is not None else v_matrix(b.n), r_vector(b))
    if not cs.admissible:
        conditions.append(ConditionResult(
            "orbit-vector-match", False,
            f"V X = r is infeasible ({cs.reason}); no symmetric node set fits this basis",
        ))
        return NecessaryConditionsReport(False, tuple(conditions), tuple(notes), cs, node_vec)
    expected = cs.integer_solution()
    vec_ok = node_vec == expected
    detail = (
        f"nodes match the orbit vector {expected} forced by V X = r"
        if vec_ok
        else f"orbit vector mismatch: nodes have {node_vec}, V X = r forces {expected}"
    )
    conditions.append(ConditionResult("orbit-vector-match", vec_ok, detail))
    return NecessaryConditionsReport(vec_ok, tuple(conditions), tuple(notes), cs, node_vec)


def verify_linear_independence(b: BasisSet, seed: int = 0, batches: int = 3) -> bool:
    """Optional check that the supplied functions are linearly independent.

    Evaluates the basis at 2N seeded random rational points and computes the
    exact rank; full rank certifies independence.  Repeated rank deficiency
    means the functions are (almost surely) dependent.
    """
    n_funcs = len(b.functions)
    if n_funcs == 0:
        return True
    rng = random.Random(seed)
    for _ in range(batches):
        points = [
            Point(tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(b.n)))
            for _ in range(2 * n_funcs)
        ]
        rows = [[f.evaluate(p) for p in points] for f in b.functions]
        if _linalg.exact_rank(rows) == n_funcs:
            return True
    return False


# -- ingestion ---------------------------------------------------------------

def basis_function_from_json(entry, n: int | None = None) -> BasisFunction:
    """One function: either a monomial shorthand string or a list of
    {exponents: [...], coeff: [num, den]} terms (coeff defaults to 1)."""
    if isinstance(entry, str):
        return BasisFunction.monomial(monomial_from_string(entry, n).exponents)
    if isinstance(entry, dict) and "exponents" in entry:
        entry = [entry]
    if not isinstance(entry, list) or not entry:
        raise ValueError(f"cannot parse basis function {entry!r}")
    terms = []
    for term in entry:
        if not isinstance(term, dict) or "exponents" not in term:
            raise ValueError(f"basis term {term!r} needs an 'exponents' array")
        exps = term["exponents"]
        if n is not None and len(exps) != n:
            raise DimensionMismatchError(f"exponents {exps!r} have length {len(exps)}, expected {n}")
        coeff = term.get("coeff", [1, 1])
        if isinstance(coeff, int):
            coeff = [coeff, 1]
        if not (isinstance(coeff, list) and len(coeff) == 2 and all(isinstance(v, int) for v in coeff)):
            raise ValueError(f"coefficient must be [num, den], got {coeff!r}")
        terms.append((Monomial(tuple(exps)), Fraction(coeff[0], coeff[1])))
    return BasisFunction.from_terms(terms)


def basis_from_json(obj, n: int | None = None) -> BasisSet:
    """Build a BasisSet from a JSON list of functions, or {n, functions: [...]}."""
    if isinstance(obj, dict):
        declared = obj.get("n")
        entries = obj.get("functions")
        if entries is None:
            raise ValueError("basis file needs a 'functions' array")
        if declared is not None:
            if n is not None and n != declared:
                raise DimensionMismatchError(f"basis file says n={declared}, caller says n={n}")
            n = declared
    else:
        entries = obj
    if not isinstance(entries, list):
        raise ValueError("basis must be a JSON array of functions")
    if n is None:
        # infer from the first explicit exponent vector, else the largest
        # variable index used by the shorthand strings
        for entry in entries:
            if isinstance(entry, list) and entry and isinstance(entry[0], dict):
                n = len(entry[0].get("exponents", []))
                break
            if isinstance(entry, dict) and "exponents" in entry:
                n = len(entry["exponents"])
                break
        else:
            indices = [0]
            for entry in entries:
                if isinstance(entry, str) and entry.replace(" ", "") != "1":
                    indices += [int(m) for m in re.findall(r"x(\d+)", entry)]
            n = max(indices) or None
    functions = [basis_function_from_json(entry, n) for entry in entries]
    return validate_symmetric_basis(functions, n=n)


def load_basis(path, n: int | None = None) -> BasisSet:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return basis_from_json(obj, n=n)
