"""One traced request, run in a fresh process so every lru_cache starts cold.

    python3 perfbench/tracer.py main OUT_FILE -- ARGV...
        Times symlag.cli.main(ARGV) in-process, writes its stdout to OUT_FILE.
    python3 perfbench/tracer.py replay -- ARGV...
        Replays the public layer calls the subcommand makes, one span each,
        then reads the counters.

Either prints one JSON object on its last stdout line.  The spans live in
this file, around calls into symlag; nothing is added inside symlag.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time


class Spans:
    """Seconds per span name, summed; spans here never nest."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


def run_main(out_file: str, argv: list[str]) -> dict:
    from symlag import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    main_s = time.perf_counter() - start
    data = out.getvalue().encode()
    with open(out_file, "wb") as fh:
        fh.write(data)
    return {"main_s": main_s, "rc": rc, "stdout_bytes": len(data), "stderr": err.getvalue()[-2000:]}


def _cache_info(module, name: str):
    fn = getattr(module, name, None)
    return fn.cache_info() if hasattr(fn, "cache_info") else None


def replay(argv: list[str]) -> dict:
    from symlag import charmat, cli, interp, nodeset, symcore

    args = cli.build_parser().parse_args(argv)
    span = Spans()
    counts = {"symcore.classes": 0, "nodeset.points": 0, "nodeset.orbits": 0, "nodeset.snaps": 0,
              "interp.functions": 0, "interp.screens": 0, "interp.screen_rejects": 0,
              "interp.matrix_dim": 0, "linalg.det_bits": 0}

    def load_nodes(path):
        with span("nodeset.parse_s"):
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            points, snaps = [], 0
            for raw in obj["points"]:
                coords = []
                for c in raw:
                    value, event = nodeset.parse_rational(c, args.snap_tol)
                    coords.append(value)
                    snaps += event is not None
                points.append(nodeset.Point(tuple(coords)))
        with span("nodeset.validate_s"):
            nodes = nodeset.validate_symmetric(points, n=obj.get("n"))
        counts["nodeset.points"] += len(nodes)
        counts["nodeset.orbits"] += len(nodes.orbits)
        counts["nodeset.snaps"] += snaps
        return nodes

    def load_basis():
        with span("interp.load_basis_s"):
            basis = interp.load_basis(args.basis, n=args.n)
        counts["interp.functions"] += len(basis)
        return basis

    start = time.perf_counter()
    if args.command in ("vmatrix", "kmatrix"):
        n = args.n
        with span("charmat.k_matrix_s"):
            k = charmat.k_matrix(n)
        if args.command == "kmatrix":
            with span("linalg.k_det_s"):
                k.determinant()
        else:
            with span("charmat.v_matrix_s"):
                v = charmat.v_matrix(n)
            with span("linalg.v_minors_s"):
                v.leading_principal_minors()
            with span("linalg.v_det_s"):
                v.determinant()
    elif args.command == "solve":
        basis = load_basis()
        n = basis.n
        with span("charmat.k_matrix_s"):
            charmat.k_matrix(n)
        with span("charmat.v_matrix_s"):
            v = charmat.v_matrix(n)
        with span("interp.r_vector_s"):
            r = interp.r_vector(basis)
        with span("linalg.solve_s"):
            interp.solve_constraints(v, r)
    elif args.command == "classify":
        n = load_nodes(args.nodes).n
    elif args.command == "equiv":
        a, b = load_nodes(args.nodes_a), load_nodes(args.nodes_b)
        n = a.n
        with span("nodeset.equivalent_s"):
            nodeset.equivalent(a, b)
    elif args.command == "analyze":
        basis = load_basis()
        nodes = load_nodes(args.nodes)
        n = basis.n
        with span("interp.screen_s"):
            screen = interp.check_necessary_conditions(basis, nodes)
        counts["interp.screens"] += 1
        if screen.passed:
            # vandermonde builds the same matrix again, so its determinant
            # share is the difference of the two spans
            with span("interp.vandermonde_matrix_s"):
                interp.vandermonde_matrix(basis.functions, nodes.points)
            with span("interp.vandermonde_s"):
                report = interp.vandermonde(basis, nodes, mode="exact")
            det = report.determinant
            counts["interp.matrix_dim"] += report.size
            counts["linalg.det_bits"] += abs(det.numerator).bit_length() + det.denominator.bit_length()
        else:
            counts["interp.screen_rejects"] += 1
    else:
        raise SystemExit(f"no replay for subcommand {args.command!r}")
    replay_s = time.perf_counter() - start

    # counters are read after the timed part and before anything else runs
    deal = _cache_info(charmat, "_deal_count")
    options = _cache_info(charmat, "_deal_options")
    counts["charmat.deal_count_hits"] = deal.hits if deal else 0
    counts["charmat.deal_count_misses"] = deal.misses if deal else 0
    counts["charmat.cache_entries"] = (deal.currsize if deal else 0) + (options.currsize if options else 0)
    built = _cache_info(charmat, "k_matrix")
    if built is None or built.currsize:
        entries = [x for row in charmat.k_matrix(n).entries for x in row]
        counts["charmat.k_entries"] = len(entries)
        counts["charmat.k_zeros"] = entries.count(0)
    counts["symcore.classes"] += len(symcore.enumerate_types(n))

    spans = dict(span.seconds)
    raw = sum(spans.values())
    if "interp.vandermonde_s" in spans:
        whole = spans.pop("interp.vandermonde_s")
        spans["linalg.vandermonde_det_s"] = whole - spans["interp.vandermonde_matrix_s"]
    return {"spans": spans, "counts": counts, "overhead_s": replay_s - raw}


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--")
    opts, argv = rest[:split], rest[split + 1:]
    result = run_main(opts[0], argv) if mode == "main" else replay(argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
