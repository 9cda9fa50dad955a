"""Command-line front end: every analysis as a subcommand, JSON or table output.

Each ``cmd_<name>(args)`` returns its exit code and its ``symlag/1`` payload;
no other module knows that format.  The table is a view of the payload,
drawn by ``table_<name>(payload)`` alone, and ``main`` prints one of the two.
The points of ``classify`` and ``equiv`` stay in their payloads as ``_Rows``,
ranks into the node sets' value tables, which iterate as the lists they
stand for.  ``main`` sends the payload to stdout through ``_json``, in runs
of about 32 KiB, with the bytes of ``json.dumps(payload, indent=2,
sort_keys=True)`` and without json's pure-Python encoder.

Exit codes: 0 success (for analyze: unisolvent; for solve: admissible; for
equiv: equivalent), 1 negative verdict, 2 input or usage error.  Every input
error, whichever subcommand meets it, reaches ``main`` and is printed as one
``error:`` line.  JSON output is byte-deterministic for identical inputs, and
analyze's determinant is always exact.
"""
from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import charmat, interp, nodeset, symcore
from .errors import SymlagError, echo

SCHEMA = "symlag/1"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{echo(text)} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    if value > symcore.MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"must be at most {symcore.MAX_DIMENSION}, the largest supported dimension")
    return value


def _positive_fraction(text: str) -> Fraction:
    try:
        value = nodeset.exact_decimal(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{echo(text)} has a zero denominator")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value is None:
        raise argparse.ArgumentTypeError(f"{echo(text)} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError("tolerance must be strictly positive")
    return value


class _Rows:
    """A payload list of points kept as ranks into value tables (a NodeSet's
    ``values``): each item holds one rank tuple per table, part j ranking
    into ``tables[j]``.  With one table an item is a point, with two a
    [point of A, point of B] pair.  Iterating yields those lists, each
    coordinate a [num, den] list; ``_json`` writes them from the tables."""

    __slots__ = ("tables", "items")

    def __init__(self, tables: tuple, items: list[tuple]):
        self.tables, self.items = tables, items

    def __iter__(self):
        cells = [[[v.numerator, v.denominator] for v in table] for table in self.tables]
        for parts in self.items:
            rows = [list(map(c.__getitem__, ranks)) for c, ranks in zip(cells, parts)]
            yield rows if len(rows) > 1 else rows[0]


def _table_json(m: charmat.KMatrix | charmat.VMatrix) -> dict:
    return {"n": m.n, "order": [list(t.counts) for t in m.types], "entries": [list(row) for row in m.entries]}


def _snaps_json(snaps) -> list[dict]:
    # a repeated coordinate repeats its event: one shared record each, which _json writes once
    records: dict = {}
    return [records.get(id(s)) or records.setdefault(id(s), {"original": s.original, "snapped": str(s.snapped),
                                                             "delta": str(s.delta)}) for s in snaps]


def _fraction_str(num: int, den: int) -> str:
    """A [num, den] pair as str(Fraction) writes it."""
    return str(num) if den == 1 else f"{num}/{den}"


def _point_str(point: list[list[int]]) -> str:
    return "(" + ", ".join(_fraction_str(*c) for c in point) + ")"


def _type_str(counts: list[int]) -> str:
    return "(" + ", ".join(map(str, counts)) + ")"


def _snap_notes(snaps: list[dict]) -> list[str]:
    # a delta is str(Fraction), so dropping its sign gives |delta|
    return [f"  note: snapped {s['original']} -> {s['snapped']} (|delta| = {s['delta'].lstrip('-')})" for s in snaps]


def _matrix_lines(title: str, payload: dict) -> list[str]:
    labels = [_type_str(t) for t in payload["order"]]
    entries = payload["entries"]
    width = max(len(s) for s in labels)
    cell = max((len(str(v)) for row in entries for v in row), default=1)
    lines = [title, " " * (width + 2) + "  ".join(str(j + 1).rjust(cell) for j in range(len(labels)))]
    for label, row in zip(labels, entries):
        lines.append(label.rjust(width) + "  " + "  ".join(str(v).rjust(cell) for v in row))
    return lines


# -- subcommands: each cmd_<name> returns (exit code, payload) ---------------

def cmd_types(args) -> tuple[int, dict]:
    rows = [
        {
            "rank": rank,
            "counts": list(t.counts),
            "orbit_size": symcore.orbit_size(t),
            "stabilizer_order": symcore.stabilizer_order(t),
        }
        for rank, t in enumerate(symcore.enumerate_types(args.n), start=1)
    ]
    return 0, {"schema": SCHEMA, "command": "types", "n": args.n, "types": rows}


def table_types(payload: dict) -> list[str]:
    n, rows = payload["n"], payload["types"]
    lines = [f"orbit types of R^{n} in descending order ({len(rows)} classes)"]
    lines.append(f"{'rank':>4}  {'type':<{4 + 3 * n}}  {'orbit size':>10}  {'stab order':>10}")
    for row in rows:
        lines.append(
            f"{row['rank']:>4}  {_type_str(row['counts']):<{4 + 3 * n}}  "
            f"{row['orbit_size']:>10}  {row['stabilizer_order']:>10}"
        )
    return lines


def cmd_vmatrix(args) -> tuple[int, dict]:
    v = charmat.v_matrix(args.n)
    minors = v.leading_principal_minors()
    return 0, {
        "schema": SCHEMA,
        "command": "vmatrix",
        "determinant": minors[-1],  # the last leading minor is det V
        "leading_principal_minors": minors,
        "positive_definite": all(m > 0 for m in minors),
        "symmetric": True,  # the minors' certificate refuses an asymmetric V
        **_table_json(v),
    }


def table_vmatrix(payload: dict) -> list[str]:
    lines = _matrix_lines(f"V matrix for n={payload['n']} (v[i][j] = <chi_i, chi_j>)", payload)
    lines.append(f"determinant: {payload['determinant']}")
    minors, positive = payload["leading_principal_minors"], payload["positive_definite"]
    lines.append(f"leading principal minors: {minors} (all positive: {positive})")
    return lines


def cmd_kmatrix(args) -> tuple[int, dict]:
    k = charmat.k_matrix(args.n)
    return 0, {
        "schema": SCHEMA,
        "command": "kmatrix",
        "determinant": k.determinant(),
        "lower_triangular": True,  # determinant() refuses any other K
        "diagonal": list(k.diagonal()),
        **_table_json(k),
    }


def table_kmatrix(payload: dict) -> list[str]:
    title = f"K matrix for n={payload['n']} (rows: conjugacy classes, columns: orbit classes)"
    lines = _matrix_lines(title, payload)
    lines.append(f"lower triangular: {payload['lower_triangular']}, diagonal: {payload['diagonal']}")
    lines.append(f"determinant: {payload['determinant']}")
    return lines


def cmd_classify(args) -> tuple[int, dict]:
    nodes, snaps = nodeset.load_node_set(args.nodes, snap_tol=args.snap_tol)
    return 0, {
        "schema": SCHEMA,
        "command": "classify",
        "n": nodes.n,
        "point_count": len(nodes),
        "orbit_vector": list(nodeset.orbit_vector(nodes)),
        "orbits": [
            {
                "type": list(o.type.counts),
                "size": len(o.members),
                "representative": [[c.numerator, c.denominator] for c in o.rep.coords],
                "points": _Rows((nodes.values,), list(zip(map(nodes.ranks.__getitem__, o.members)))),
            }
            for o in nodes.orbits
        ],
        "snaps": _snaps_json(snaps),
    }


def table_classify(payload: dict) -> list[str]:
    orbits, vector = payload["orbits"], tuple(payload["orbit_vector"])
    lines = [f"{payload['point_count']} points in R^{payload['n']}, {len(orbits)} orbits, orbit vector {vector}"]
    for o in orbits:
        rep = _point_str(o["representative"])
        lines.append(f"  type {_type_str(o['type'])}  size {o['size']:>3}  representative {rep}")
    lines.extend(_snap_notes(payload["snaps"]))
    return lines


def _orbit_template(types, solution) -> list[dict]:
    template = []
    instance = 0
    for t, count in zip(types, solution):
        for _ in range(count):
            instance += 1
            pattern = []
            for letter, block in zip("abcdefghijklmnopqrstuvwxyz", symcore.canonical_blocks(t)):
                pattern.extend([f"{letter}{instance}"] * len(block))
            template.append({"type": list(t.counts), "pattern": pattern})
    return template


def cmd_solve(args) -> tuple[int, dict]:
    basis = interp.load_basis(args.basis, n=args.n)
    k = charmat.k_matrix(basis.n)
    cs = interp.solve_constraints(k, interp.r_vector(basis))
    return (0 if cs.admissible else 1), {
        "schema": SCHEMA,
        "command": "solve",
        "n": basis.n,
        "function_count": len(basis),
        "r": list(cs.r),
        "solution": [str(x) for x in cs.solution],
        "admissible": cs.admissible,
        "reason": cs.reason,
        "template": _orbit_template(k.types, cs.integer_solution()) if cs.admissible else None,
        "notes": interp.unmatched_orbit_notes(basis),
    }


def table_solve(payload: dict) -> list[str]:
    # r[0] counts the basis orbits under the stabilizer of type (0, ..., 0, 1),
    # which is all of S_n: it is the basis's orbit count
    lines = [f"basis: {payload['function_count']} functions in {payload['r'][0]} orbits (n = {payload['n']})"]
    lines.append(f"r vector: {tuple(payload['r'])}")
    lines.append("solution X: (" + ", ".join(payload["solution"]) + ")")
    if payload["admissible"]:
        lines.append("admissible: yes — node-set template:")
        for entry in payload["template"]:
            lines.append(f"  orbit of type {tuple(entry['type'])}: pattern ({', '.join(entry['pattern'])})")
        lines.append("  (values within an orbit distinct per letter; orbits pairwise disjoint)")
    else:
        lines.append(f"infeasible: no symmetric unisolvent node set exists ({payload['reason']})")
    lines.extend(f"note: {note}" for note in payload["notes"])
    return lines


def cmd_equiv(args) -> tuple[int, dict]:
    nodes_a, snaps_a = nodeset.load_node_set(args.nodes_a, snap_tol=args.snap_tol)
    nodes_b, snaps_b = nodeset.load_node_set(args.nodes_b, snap_tol=args.snap_tol)
    result = nodeset.equivalent(nodes_a, nodes_b)
    bijection = None
    if result.image is not None:
        pairs = zip(nodes_a.ranks, map(nodes_b.ranks.__getitem__, result.image))
        bijection = _Rows((nodes_a.values, nodes_b.values), list(pairs))
    return (0 if result.equivalent else 1), {
        "schema": SCHEMA,
        "command": "equiv",
        "n": nodes_a.n,
        "orbit_vector_a": list(result.vector_a),
        "orbit_vector_b": list(result.vector_b),
        "equivalent": result.equivalent,
        "bijection": bijection,
        "snaps": _snaps_json((*snaps_a, *snaps_b)),
    }


def table_equiv(payload: dict) -> list[str]:
    lines = [
        f"orbit vector A: {tuple(payload['orbit_vector_a'])}",
        f"orbit vector B: {tuple(payload['orbit_vector_b'])}",
        f"equivalent: {'yes' if payload['equivalent'] else 'no'}",
    ]
    if payload["bijection"] is not None:
        lines.append("equivariant bijection:")
        for x, y in payload["bijection"]:
            lines.append(f"  {_point_str(x)} -> {_point_str(y)}")
    lines.extend(_snap_notes(payload["snaps"]))
    return lines


def cmd_analyze(args) -> tuple[int, dict]:
    # the work bound needs only the nodes, and is checked before the basis is
    # read: reading and screening a basis as large as a refused set takes seconds
    nodes, snaps = nodeset.load_node_set(args.nodes, snap_tol=args.snap_tol)
    interp.check_elimination_work(nodes)
    basis = interp.load_basis(args.basis, n=args.n)

    screen = interp.check_necessary_conditions(basis, nodes)
    det = None
    if screen.passed:
        report = interp.vandermonde(basis, nodes)
        det, verdict = report.determinant, report.verdict
        reason = None if report.unisolvent else f"determinant test: {verdict}"
    else:
        # a failed screen always ends on a failed condition
        verdict = "necessary-conditions-failed"
        reason = screen.first_violation().detail

    return (0 if verdict == interp.VERDICT_UNISOLVENT else 1), {
        "schema": SCHEMA,
        "command": "analyze",
        "n": basis.n,
        "verdict": verdict,
        "reason": reason,
        "determinant": [det.numerator, det.denominator] if det is not None else None,
        # kept so that symlag/1 keeps its bytes; the determinant is always exact
        "determinant_mode": "exact" if det is not None else None,
        "conditions": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in screen.conditions],
        "notes": list(screen.notes),
        "basis": {"function_count": len(basis), "orbit_sizes": list(basis.orbit_sizes())},
        "nodes": {"point_count": len(nodes), "orbit_vector": list(screen.node_vector)},
        "snaps": _snaps_json(snaps),
    }


def table_analyze(payload: dict) -> list[str]:
    sizes = f"{payload['basis']['function_count']} basis functions vs {payload['nodes']['point_count']} nodes"
    lines = [f"analyze: {sizes} in R^{payload['n']}"]
    for c in payload["conditions"]:
        lines.append(f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    lines.extend(f"  note: {note}" for note in payload["notes"])
    lines.extend(_snap_notes(payload["snaps"]))
    if payload["determinant"] is not None:
        lines.append(f"determinant (exact): {_fraction_str(*payload['determinant'])}")
    lines.append(f"verdict: {payload['verdict']}")
    if payload["reason"]:
        lines.append(f"reason: {payload['reason']}")
    return lines


# -- output ------------------------------------------------------------------

_FLAT = frozenset((int, str))  # the exact types of the items a memoized container holds
_RUN = 1 << 15  # characters of a list's items sent in one write, unless one item is longer


def _json(payload, write) -> None:
    """Send ``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte,
    through ``write`` in chunks, for what symlag/1 holds: dicts with str
    keys, lists, ``_Rows``, str, int, bool and None.  Anything else raises
    TypeError.

    The payload's keys go out in sorted order.  The items of a list under a
    key (the orbits, the bijection, the snaps) go out in runs of about
    ``_RUN`` characters, and any other value whole, so the largest chunk is
    a run or one orbit.  A container of exact ints and strs (a snap record)
    is written once per object and depth, and its parent finds it with its
    siblings in one lookup.  A ``_Rows`` writes each value's [num, den] cell
    once per table and depth, and each point as one join of its cells.
    """
    # indent -> {id: text}: the payload keeps each container alive, so no id
    # is reused while it is written
    written: defaultdict = defaultdict(dict)
    # (indent, id of each table of a _Rows) -> the pieces its items are
    # joined from, built once however many _Rows share the tables
    shapes: dict = {}

    def row_texts(rows: _Rows, indent: str):
        # indent: the newline and spaces before each item's closing bracket
        key = (indent, *map(id, rows.tables))
        shape = shapes.get(key)
        if shape is None:
            # an item of one table is a point; of more, a list of points
            point = indent if len(rows.tables) == 1 else indent + "  "
            cell = point + "  "
            getters = [[f"[{cell}  {v.numerator!r},{cell}  {v.denominator!r}{cell}]" for v in table].__getitem__
                       for table in rows.tables]
            head, end = "[" + cell, point + "]"
            if len(rows.tables) > 1:
                head, end = "[" + point + head, end + indent + "]"
            shape = shapes[key] = (head, point + "]," + point + "[" + cell, "," + cell, end, getters)
        head, between, sep, end, getters = shape
        return (head + between.join(map(sep.join, map(map, getters, parts))) + end for parts in rows.items)

    def text(obj, indent: str) -> str:
        # indent: the newline and spaces before obj's closing bracket
        if isinstance(obj, (list, dict)):
            if not obj:
                return "[]" if isinstance(obj, list) else "{}"
            memo = written[indent]
            found = memo.get(id(obj))
            if found is None:
                inner = indent + "  "
                is_dict = isinstance(obj, dict)
                kinds = set(map(type, obj.values() if is_dict else obj))
                if is_dict:
                    # sorted() and encode_basestring_ascii raise TypeError on a non-str key
                    items = [encode_basestring_ascii(k) + ": " + text(obj[k], inner) for k in sorted(obj)]
                elif kinds == {int}:
                    items = map(int.__repr__, obj)
                else:
                    items = list(map(written[inner].get, map(id, obj)))
                    if None in items:
                        items = [t or text(x, inner) for t, x in zip(items, obj)]
                start, end = "{}" if is_dict else "[]"
                found = start + inner + ("," + inner).join(items) + indent + end
                if kinds <= _FLAT:
                    memo[id(obj)] = found
            return found
        if type(obj) is _Rows:
            inner = indent + "  "
            return "[" + inner + ("," + inner).join(row_texts(obj, inner)) + indent + "]" if obj.items else "[]"
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        raise TypeError(f"symlag/1 holds no {type(obj).__name__}")

    if not isinstance(payload, dict) or not payload:
        write(text(payload, "\n"))
        return
    head = "{"
    for key in sorted(payload):
        head += "\n  " + encode_basestring_ascii(key) + ": "
        value = payload[key]
        if type(value) is _Rows and value.items:
            items = row_texts(value, "\n    ")
        elif isinstance(value, list) and value:
            # an item already written is flat: it goes out from the memo
            items = (found or text(x, "\n    ") for x, found in zip(value, map(written["\n    "].get, map(id, value))))
        else:
            write(head + text(value, "\n  "))
            head = ","
            continue
        head += "[\n    "
        run: list[str] = []
        size = 0
        for item in items:
            if run and size + len(item) > _RUN:
                write(head + ",\n    ".join(run))
                head, run, size = ",\n    ", [], 0
            run.append(item)
            size += len(item)
        write(head + ",\n    ".join(run) + "\n  ]")
        head = ","
    write("\n}")


# -- parser ------------------------------------------------------------------

# one argument: its names and its add_argument keywords
N_REQUIRED = (("--n",), {"type": _positive_int, "required": True})
N_OPTIONAL = (("--n",), {"type": _positive_int, "default": None})
BASIS = (("--basis",), {"required": True})
NODES = (("--nodes",), {"required": True})
SNAP_TOL = (("--snap-tol",), {"type": _positive_fraction, "default": None})
FORMAT = (("--format",), {"choices": ("json", "table"), "default": "table",
                          "help": "output format (default: table)"})

# name, help line, handler, table view and arguments; --format comes last
SUBCOMMANDS = (
    ("types", "list all orbit types of R^n with sizes", cmd_types, table_types, (N_REQUIRED,)),
    ("vmatrix", "Gram matrix V of permutation characters", cmd_vmatrix, table_vmatrix, (N_REQUIRED,)),
    ("kmatrix", "fixed-point table K", cmd_kmatrix, table_kmatrix, (N_REQUIRED,)),
    ("classify", "orbit decomposition of a node-set file", cmd_classify, table_classify, (NODES, SNAP_TOL)),
    ("solve", "solve V X = r for a symmetric basis", cmd_solve, table_solve, (BASIS, N_OPTIONAL)),
    ("equiv", "decide equivalence of two symmetric node sets", cmd_equiv, table_equiv,
     ((("nodes_a",), {"metavar": "NODES_A"}), (("nodes_b",), {"metavar": "NODES_B"}), SNAP_TOL)),
    ("analyze", "full unisolvence analysis of basis + nodes", cmd_analyze, table_analyze,
     (BASIS, NODES, N_OPTIONAL, SNAP_TOL)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlag",
        description="Symmetry analysis for multivariate Lagrange interpolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, table, arguments in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_line)
        for names, options in (*arguments, FORMAT):
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler, table=table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.handler(args)
        # all input is read, and MAX_DETERMINANT_BITS bounds what was computed: write every int in full
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if args.format == "json" and sys.stdout:  # as print does, write nothing to a closed stdout
                _json(payload, sys.stdout.write)
            print("" if args.format == "json" else "\n".join(args.table(payload)))
        finally:
            sys.set_int_max_str_digits(limit)
    except (OSError, ValueError, SymlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code

if __name__ == "__main__":
    sys.exit(main())
