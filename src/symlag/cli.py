"""Command-line front end: every analysis as a subcommand, JSON or table output.

Exit codes: 0 success (for analyze: unisolvent; for solve: admissible; for
equiv: equivalent), 1 negative verdict, 2 input or usage error.  Every input
error, whichever subcommand meets it, reaches ``main`` and is printed as one
``error:`` line.  JSON output is byte-deterministic for identical inputs, and
analyze's determinant is always exact.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import charmat, interp, nodeset, symcore
from .errors import SymlagError

SCHEMA = "symlag/1"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    if value > symcore.MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"must be at most {symcore.MAX_DIMENSION}, the largest supported dimension")
    return value


def _positive_fraction(text: str) -> Fraction:
    try:
        decimal = Decimal(text)
        if abs(decimal.adjusted()) > nodeset.MAX_DECIMAL_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"decimal exponent of {text!r} exceeds {nodeset.MAX_DECIMAL_EXPONENT} in size"
            )
        value = Fraction(decimal)
    except (InvalidOperation, ValueError, OverflowError):  # OverflowError: infinity
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError("tolerance must be strictly positive")
    return value


def _snaps_json(snaps) -> list[dict]:
    return [{"original": s.original, "snapped": str(s.snapped), "delta": str(s.delta)} for s in snaps]


def _emit(payload: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _type_str(t: symcore.OrbitType) -> str:
    return "(" + ", ".join(map(str, t.counts)) + ")"


def _matrix_lines(title: str, types, entries) -> list[str]:
    labels = [_type_str(t) for t in types]
    width = max(len(s) for s in labels)
    cell = max((len(str(v)) for row in entries for v in row), default=1)
    lines = [title, " " * (width + 2) + "  ".join(str(j + 1).rjust(cell) for j in range(len(types)))]
    for label, row in zip(labels, entries):
        lines.append(label.rjust(width) + "  " + "  ".join(str(v).rjust(cell) for v in row))
    return lines


# -- subcommands -------------------------------------------------------------

def cmd_types(args) -> int:
    types = symcore.enumerate_types(args.n)
    rows = [
        {
            "rank": rank,
            "counts": t.to_json(),
            "orbit_size": symcore.orbit_size(t),
            "stabilizer_order": symcore.stabilizer_order(t),
        }
        for rank, t in enumerate(types, start=1)
    ]
    payload = {"schema": SCHEMA, "command": "types", "n": args.n, "types": rows}
    lines = [f"orbit types of R^{args.n} in descending order ({len(types)} classes)"]
    lines.append(f"{'rank':>4}  {'type':<{4 + 3 * args.n}}  {'orbit size':>10}  {'stab order':>10}")
    for row, t in zip(rows, types):
        lines.append(
            f"{row['rank']:>4}  {_type_str(t):<{4 + 3 * args.n}}  "
            f"{row['orbit_size']:>10}  {row['stabilizer_order']:>10}"
        )
    _emit(payload, lines, args.format)
    return 0


def cmd_vmatrix(args) -> int:
    v = charmat.v_matrix(args.n)
    minors = v.leading_principal_minors()
    det = minors[-1]  # the last leading minor is det V
    positive_definite = all(m > 0 for m in minors)
    payload = {
        "schema": SCHEMA,
        "command": "vmatrix",
        "determinant": det,
        "leading_principal_minors": minors,
        "positive_definite": positive_definite,
        "symmetric": v.is_symmetric(),
        **v.to_json_dict(),
    }
    lines = _matrix_lines(f"V matrix for n={args.n} (v[i][j] = <chi_i, chi_j>)", v.types, v.entries)
    lines.append(f"determinant: {det}")
    lines.append(f"leading principal minors: {minors} (all positive: {positive_definite})")
    _emit(payload, lines, args.format)
    return 0


def cmd_kmatrix(args) -> int:
    k = charmat.k_matrix(args.n)
    det = k.determinant()
    lower_triangular = k.is_lower_triangular()
    diagonal = list(k.diagonal())
    payload = {
        "schema": SCHEMA,
        "command": "kmatrix",
        "determinant": det,
        "lower_triangular": lower_triangular,
        "diagonal": diagonal,
        **k.to_json_dict(),
    }
    lines = _matrix_lines(
        f"K matrix for n={args.n} (rows: conjugacy classes, columns: orbit classes)",
        k.types, k.entries,
    )
    lines.append(f"lower triangular: {lower_triangular}, diagonal: {diagonal}")
    lines.append(f"determinant: {det}")
    _emit(payload, lines, args.format)
    return 0


def cmd_classify(args) -> int:
    nodes, snaps = nodeset.load_node_set(args.nodes, snap_tol=args.snap_tol)
    vector = nodeset.orbit_vector(nodes)
    payload = {
        "schema": SCHEMA,
        "command": "classify",
        "n": nodes.n,
        "point_count": len(nodes),
        "orbit_vector": list(vector),
        "orbits": [
            {
                "type": o.type.to_json(),
                "size": len(o.points),
                "representative": o.rep.to_json(),
                "points": [p.to_json() for p in o.points],
            }
            for o in nodes.orbits
        ],
        "snaps": _snaps_json(snaps),
    }
    lines = [f"{len(nodes)} points in R^{nodes.n}, {len(nodes.orbits)} orbits, orbit vector {vector}"]
    for o in nodes.orbits:
        lines.append(f"  type {_type_str(o.type)}  size {len(o.points):>3}  representative {o.rep}")
    for s in snaps:
        lines.append(f"  note: {s.describe()}")
    _emit(payload, lines, args.format)
    return 0


def _orbit_template(types, solution) -> list[dict]:
    template = []
    instance = 0
    for t, count in zip(types, solution):
        for _ in range(count):
            instance += 1
            pattern = []
            for letter, block in zip("abcdefghijklmnopqrstuvwxyz", symcore.canonical_blocks(t)):
                pattern.extend([f"{letter}{instance}"] * len(block))
            template.append({"type": t.to_json(), "pattern": pattern})
    return template


def cmd_solve(args) -> int:
    basis = interp.load_basis(args.basis, n=args.n)
    k = charmat.k_matrix(basis.n)
    cs = interp.solve_constraints(k, interp.r_vector(basis))
    notes = interp.unmatched_orbit_notes(basis)
    template = _orbit_template(k.types, cs.integer_solution()) if cs.admissible else None
    payload = {
        "schema": SCHEMA,
        "command": "solve",
        "n": basis.n,
        "function_count": len(basis),
        "r": list(cs.r),
        "solution": [str(x) for x in cs.solution],
        "admissible": cs.admissible,
        "reason": cs.reason,
        "template": template,
        "notes": notes,
    }
    lines = [f"basis: {len(basis)} functions in {len(basis.orbits)} orbits (n = {basis.n})"]
    lines.append(f"r vector: {cs.r}")
    lines.append("solution X: (" + ", ".join(map(str, cs.solution)) + ")")
    if cs.admissible:
        lines.append("admissible: yes — node-set template:")
        for entry in template:
            lines.append(f"  orbit of type {tuple(entry['type'])}: pattern ({', '.join(entry['pattern'])})")
        lines.append("  (values within an orbit distinct per letter; orbits pairwise disjoint)")
    else:
        lines.append(f"infeasible: no symmetric unisolvent node set exists ({cs.reason})")
    for note in notes:
        lines.append(f"note: {note}")
    _emit(payload, lines, args.format)
    return 0 if cs.admissible else 1


def cmd_equiv(args) -> int:
    nodes_a, snaps_a = nodeset.load_node_set(args.nodes_a, snap_tol=args.snap_tol)
    nodes_b, snaps_b = nodeset.load_node_set(args.nodes_b, snap_tol=args.snap_tol)
    result = nodeset.equivalent(nodes_a, nodes_b)
    payload = {
        "schema": SCHEMA,
        "command": "equiv",
        "n": nodes_a.n,
        "orbit_vector_a": list(result.vector_a),
        "orbit_vector_b": list(result.vector_b),
        "equivalent": result.equivalent,
        "bijection": (
            [[x.to_json(), y.to_json()] for x, y in result.bijection]
            if result.bijection is not None
            else None
        ),
        "snaps": _snaps_json((*snaps_a, *snaps_b)),
    }
    lines = [
        f"orbit vector A: {result.vector_a}",
        f"orbit vector B: {result.vector_b}",
        f"equivalent: {'yes' if result.equivalent else 'no'}",
    ]
    if result.bijection is not None:
        lines.append("equivariant bijection:")
        for x, y in result.bijection:
            lines.append(f"  {x} -> {y}")
    _emit(payload, lines, args.format)
    return 0 if result.equivalent else 1


def cmd_analyze(args) -> int:
    basis = interp.load_basis(args.basis, n=args.n)
    nodes, snaps = nodeset.load_node_set(args.nodes, snap_tol=args.snap_tol)
    if basis.n != nodes.n:
        raise SymlagError(f"basis lives in R^{basis.n} but nodes in R^{nodes.n}")

    screen = interp.check_necessary_conditions(basis, nodes)
    det = None
    if screen.passed:
        report = interp.vandermonde(basis, nodes)
        det, verdict = report.determinant, report.verdict
        reason = None if report.unisolvent else f"determinant test: {verdict}"
    else:
        violation = screen.first_violation()
        verdict = "necessary-conditions-failed"
        reason = violation.detail if violation is not None else "necessary conditions failed"

    payload = {
        "schema": SCHEMA,
        "command": "analyze",
        "n": basis.n,
        "verdict": verdict,
        "reason": reason,
        "determinant": [det.numerator, det.denominator] if det is not None else None,
        # kept so that symlag/1 keeps its bytes; the determinant is always exact
        "determinant_mode": "exact" if det is not None else None,
        "conditions": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in screen.conditions
        ],
        "notes": list(screen.notes),
        "basis": {"function_count": len(basis), "orbit_sizes": list(basis.orbit_sizes())},
        "nodes": {"point_count": len(nodes), "orbit_vector": list(screen.node_vector)},
        "snaps": _snaps_json(snaps),
    }
    lines = [f"analyze: {len(basis)} basis functions vs {len(nodes)} nodes in R^{basis.n}"]
    for c in screen.conditions:
        lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    for note in screen.notes:
        lines.append(f"  note: {note}")
    for s in snaps:
        lines.append(f"  note: {s.describe()}")
    if det is not None:
        lines.append(f"determinant (exact): {det}")
    lines.append(f"verdict: {verdict}")
    if reason:
        lines.append(f"reason: {reason}")
    _emit(payload, lines, args.format)
    return 0 if verdict == interp.VERDICT_UNISOLVENT else 1


# -- parser ------------------------------------------------------------------

# one argument: its names and its add_argument keywords
N_REQUIRED = (("--n",), {"type": _positive_int, "required": True})
N_OPTIONAL = (("--n",), {"type": _positive_int, "default": None})
BASIS = (("--basis",), {"required": True})
NODES = (("--nodes",), {"required": True})
SNAP_TOL = (("--snap-tol",), {"type": _positive_fraction, "default": None})
FORMAT = (("--format",), {"choices": ("json", "table"), "default": "table",
                          "help": "output format (default: table)"})

# name, help line, handler and arguments of each subcommand; --format comes last
SUBCOMMANDS = (
    ("types", "list all orbit types of R^n with sizes", cmd_types, (N_REQUIRED,)),
    ("vmatrix", "Gram matrix V of permutation characters", cmd_vmatrix, (N_REQUIRED,)),
    ("kmatrix", "fixed-point table K", cmd_kmatrix, (N_REQUIRED,)),
    ("classify", "orbit decomposition of a node-set file", cmd_classify, (NODES, SNAP_TOL)),
    ("solve", "solve V X = r for a symmetric basis", cmd_solve, (BASIS, N_OPTIONAL)),
    ("equiv", "decide equivalence of two symmetric node sets", cmd_equiv,
     ((("nodes_a",), {"metavar": "NODES_A"}), (("nodes_b",), {"metavar": "NODES_B"}), SNAP_TOL)),
    ("analyze", "full unisolvence analysis of basis + nodes", cmd_analyze,
     (BASIS, NODES, N_OPTIONAL, SNAP_TOL)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlag",
        description="Symmetry analysis for multivariate Lagrange interpolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, arguments in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_line)
        for names, options in (*arguments, FORMAT):
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, SymlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
