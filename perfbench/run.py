#!/usr/bin/env python3
"""The symlag benchmark: seeded, closed-loop workloads through the real CLI.

    python3 perfbench/run.py --workload {tables,unisolve,orbits} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a symlag checkout (the directory holding src/symlag).
One client sends one request at a time; each request is a fresh
``symlag <subcommand> ... --format json`` process, so every lru_cache starts
cold, exactly as for a CLI user.  Inputs are drawn from --seed and written
under .bench_build/; symlag sees only those files.  Every answer is checked
by the benchmark's own arithmetic, and repeats of a case must print
identical bytes.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (see tracer.py).  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Why each workload
and metric exists, and what each layer metric should move: RATIONALE.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_MIN = 9  # import-only processes per run, at least
REQUEST_TIMEOUT_S = 60.0  # the slowest request takes about 5 s
HOSTILE_TIMEOUT_S = 20.0
PROBE_LOOPS = 1_000_000
CLI = "import sys; from symlag.cli import main; sys.exit(main())"

LAYER_TIMES = (
    "charmat.k_matrix_s", "charmat.v_matrix_s", "linalg.v_minors_s", "linalg.v_det_s",
    "linalg.k_det_s", "linalg.solve_s", "linalg.vandermonde_det_s", "interp.load_basis_s",
    "interp.r_vector_s", "interp.screen_s", "interp.vandermonde_matrix_s", "nodeset.parse_s",
    "nodeset.validate_s", "nodeset.equivalent_s",
)
LAYER_COUNTS = (
    "charmat.deal_count_hits", "charmat.deal_count_misses", "charmat.cache_entries",
    "linalg.det_bits", "interp.functions", "interp.screens", "interp.matrix_dim",
    "nodeset.points", "nodeset.orbits", "nodeset.snaps", "symcore.classes",
)


def probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed, recorded, never gated."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def spawn(cmd: list[str], env: dict, out_path: Path, timeout: float):
    """Run one process to completion; stdout goes to out_path.

    Returns (wall seconds, exit code or None on timeout, stderr text).
    """
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            _, err = proc.communicate(timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            rc = None
        wall = time.perf_counter() - start
    return wall, rc, err.decode("utf-8", "replace")


def tail(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return "n/a (needs 11 samples)"
    pct = math.floor(100 * (1 - 10 / len(samples)))
    value = sorted(samples)[math.ceil(pct / 100 * len(samples)) - 1]
    return f"p{pct} {value:.4f} s"


def commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return found.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "symlag").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Outcome:
    """Samples and failures of one case, plus the bytes its first run printed."""

    def __init__(self, case: wl.Case):
        self.case = case
        self.samples: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.digest: str | None = None

    def judge(self, rc, stderr: str, out_path: Path) -> list[str]:
        """Failures of one request: exit code, traceback, bytes, answer."""
        case = self.case
        if rc is None:
            return ["timeout"]
        problems = []
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip().splitlines()[-1][:200])
        if rc != case.rc:
            problems.append(f"exit {rc}, expected {case.rc}")
        if case.check is None:
            if not any(line.startswith("error:") for line in stderr.splitlines()):
                problems.append("no 'error:' line")
            return problems
        data = out_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
            try:
                payload = json.loads(data)
                if payload.get("schema") != "symlag/1":
                    problems.append(f"schema {payload.get('schema')!r}")
                problems += case.check(payload)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        elif digest != self.digest:
            problems.append("stdout bytes differ from the first run of this case")
        return problems

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def import_seconds(env) -> float:
    """Wall time of a fresh process that imports symlag.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import symlag.cli"], env=env, cwd=ROOT, check=True,
                   timeout=REQUEST_TIMEOUT_S)
    return time.perf_counter() - start


def timed_run(cases, env, run_dir: Path, seconds: int):
    """Closed loop over the cases until `seconds` have passed (at least one
    full pass).  An import-only process runs before every request, so the
    set-up samples spread over the run like the request samples do."""
    timed = [Outcome(c) for c in cases if c.timed]
    hostile = [Outcome(c) for c in cases if not c.timed]
    setup, probes = [], []
    import_seconds(env)  # writes the bytecode cache once
    deadline = time.perf_counter() + seconds
    out_path = run_dir / "stdout.bin"
    finished = False
    while not finished:
        before = probe()
        for outcome in timed:
            setup.append(import_seconds(env))
            wall, rc, err = spawn([sys.executable, "-c", CLI, *outcome.case.argv, "--format", "json"],
                                  env, out_path, REQUEST_TIMEOUT_S)
            outcome.record(outcome.judge(rc, err, out_path))
            outcome.samples.append(wall)
            # a hung request ends the run rather than the time limit
            if rc is None or (timed[-1].samples and time.perf_counter() >= deadline):
                finished = True
                break
        probes.append((before, probe()))
    while len(setup) < SETUP_MIN:
        setup.append(import_seconds(env))
    for outcome in hostile:  # once per run, outside the timing sums
        wall, rc, err = spawn([sys.executable, "-c", CLI, *outcome.case.argv, "--format", "json"],
                              env, out_path, HOSTILE_TIMEOUT_S)
        outcome.record(outcome.judge(rc, err, out_path))
        outcome.samples.append(wall)
    return timed, (hostile[0] if hostile else None), setup, probes


def end_to_end(args, cases, env, run_dir, log) -> dict:
    timed, hostile, setup, probes = timed_run(cases, env, run_dir, args.seconds)
    for k, (before, after) in enumerate(probes, start=1):
        log(f"probe pass {k}: {before:.4f} s before, {after:.4f} s after ({PROBE_LOOPS} loop iterations)")
    log(f"setup: {len(setup)} import-only processes, median {statistics.median(setup):.4f} s")
    medians = {o.case.name: statistics.median(o.samples) for o in timed}
    for o in timed:
        log(f"case {o.case.name:28s} median {medians[o.case.name]:9.4f} s  tail {tail(o.samples)}  "
            f"samples {len(o.samples)}  failed {len(o.failures)}")
        for failure in sorted(set(o.failures)):
            log(f"  FAIL {o.case.name}: {failure}")
    by_command: dict[str, float] = {}
    for o in timed:
        by_command[o.case.command] = by_command.get(o.case.command, 0.0) + medians[o.case.name]
    attempted = sum(o.attempted for o in timed)
    failed = sum(len(o.failures) for o in timed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(medians.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    for command, total in sorted(by_command.items()):
        log(f"metric {command}_s {total:.4f} s (sum of case medians)")
    if hostile is not None:
        verdict = "ok" if not hostile.failures else "FAIL: " + hostile.failures[0]
        log(f"hostile {hostile.case.name}: {hostile.samples[0]:.4f} s, {verdict} "
            "(expected exit 2 with an 'error:' line; not in the timing sums or in 'failed')")
        all_failed = failed + len(hostile.failures)
        log(f"metric error_rate {all_failed / (attempted + hostile.attempted):.4f} "
            f"({all_failed} of {attempted + hostile.attempted} requests, hostile case included)")
    else:
        log(f"metric error_rate {failed / attempted:.4f} ({failed} of {attempted} requests)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args, cases, env, run_dir, log) -> dict:
    tracer = str(HERE / "tracer.py")
    outcomes = [Outcome(c) for c in cases if c.timed]
    per_case = {o.case.name: [] for o in outcomes}
    deadline = time.perf_counter() + args.seconds
    out_path = run_dir / "stdout.bin"
    attempted = failed = 0
    finished = False
    while not finished:
        for o in outcomes:
            main_out = run_dir / "main.json"
            _, rc, err = spawn([sys.executable, tracer, "main", str(out_path), "--", *o.case.argv,
                                "--format", "json"], env, main_out, REQUEST_TIMEOUT_S)
            problems = [f"tracer exit {rc}: {err.strip()[-200:]}"] if rc != 0 else []
            main = json.loads(main_out.read_text().splitlines()[-1]) if not problems else None
            if main is not None:
                problems += o.judge(main["rc"], main["stderr"], out_path)
            _, rc, err = spawn([sys.executable, tracer, "replay", "--", *o.case.argv, "--format", "json"],
                               env, main_out, REQUEST_TIMEOUT_S)
            if rc != 0:
                problems.append(f"replay exit {rc}: {err.strip()[-200:]}")
            o.record(problems)
            attempted += 1
            failed += bool(problems)
            if not problems:
                per_case[o.case.name].append((main, json.loads(main_out.read_text().splitlines()[-1])))
            if failed or (outcomes[-1].attempted and time.perf_counter() >= deadline):
                finished = True
                break
    for o in outcomes:
        for failure in sorted(set(o.failures)):
            log(f"  FAIL {o.case.name}: {failure}")
    totals = {name: 0.0 for name in LAYER_TIMES + ("cli.main_s", "cli.self_s", "trace.overhead_s")}
    counts = {name: 0 for name in LAYER_COUNTS + ("cli.stdout_bytes", "interp.screen_rejects",
                                                 "charmat.k_entries", "charmat.k_zeros")}
    for name, runs in per_case.items():
        if not runs:
            continue
        main_s = statistics.median(m["main_s"] for m, _ in runs)
        spans = {s: statistics.median(r["spans"].get(s, 0.0) for _, r in runs) for s in LAYER_TIMES}
        overhead = statistics.median(r["overhead_s"] for _, r in runs)
        self_s = main_s - sum(spans.values())
        for s, v in spans.items():
            totals[s] += v
        totals["cli.main_s"] += main_s
        totals["cli.self_s"] += self_s
        totals["trace.overhead_s"] += overhead
        last_main, last = runs[-1]
        for c in counts:
            counts[c] += last["counts"].get(c, 0)
        counts["cli.stdout_bytes"] += last_main["stdout_bytes"]
        covered = " + ".join(f"{s.split('.', 1)[1]} {v:.4f}" for s, v in spans.items() if v)
        log(f"case {name:28s} samples {len(runs)}  main {main_s:.4f} s = {covered or '0'} + self {self_s:.4f}"
            f"  (trace overhead {overhead:.6f} s)")
    calls = counts["charmat.deal_count_hits"] + counts["charmat.deal_count_misses"]
    metrics = {name: (value, "s") for name, value in totals.items()}
    metrics.update({name: (counts[name], "count") for name in LAYER_COUNTS})
    metrics["cli.stdout_bytes"] = (counts["cli.stdout_bytes"], "B")
    metrics["linalg.det_bits"] = (counts["linalg.det_bits"], "bit")
    metrics["charmat.deal_count_calls"] = (calls, "count")
    metrics["charmat.deal_hit_ratio"] = (counts["charmat.deal_count_hits"] / calls if calls else 0.0, "ratio")
    metrics["charmat.k_zero_share"] = (
        counts["charmat.k_zeros"] / counts["charmat.k_entries"] if counts["charmat.k_entries"] else 0.0, "ratio")
    metrics["interp.screen_reject_share"] = (
        counts["interp.screen_rejects"] / counts["interp.screens"] if counts["interp.screens"] else 0.0, "ratio")
    for name, (value, unit) in sorted(metrics.items()):
        log(f"layer {name} {value} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "symlag" / "cli.py").is_file():
        print(f"error: {ROOT} is not a symlag checkout (no src/symlag/cli.py); run from its root",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    build = ROOT / ".bench_build"
    run_dir = build / f"perfbench-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # the caller's PYTHON* settings (unbuffered output, no bytecode cache, ...)
    # would change what a request costs, so children get none of them
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        log(f"symlag benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
        log(f"host: nproc {os.cpu_count()}, python {sys.version.split()[0]}, commit {commit()}, "
            f"src sha256 {source_digest()}")
        start = time.perf_counter()
        cases = wl.WORKLOADS[args.workload](random.Random(args.seed), run_dir)
        log(f"inputs: {len(cases)} cases generated in {time.perf_counter() - start:.2f} s")
        result = (traced if args.trace else end_to_end)(args, cases, env, run_dir, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
