"""The benchmark's layer replay (perfbench/tracer.py) still runs against the
library: it calls symlag's layer functions by name, so a change to one of
them must not break the benchmark's --trace 1 runs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BASIS = ["x1^2", "x2^2", "x3^2", "x1*x2", "x2*x3", "x1*x3"]


def _nodes(a, b, c, d):
    return {"n": 3, "points": [[a, a, b], [a, b, a], [b, a, a], [c, c, d], [c, d, c], [d, c, c]]}


def _argv(command, tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    if command in ("kmatrix", "vmatrix"):
        return [command, "--n", "4"]
    if command == "solve":
        return ["solve", "--basis", write("basis.json", BASIS)]
    if command == "classify":
        return ["classify", "--nodes", write("nodes.json", _nodes(0, 1, 2, 3))]
    if command == "equiv":
        return ["equiv", write("a.json", _nodes(0, 1, 2, 3)), write("b.json", _nodes(5, 4, 7, 6))]
    return ["analyze", "--basis", write("basis.json", BASIS), "--nodes", write("nodes.json", _nodes(0, 1, 2, 3))]


@pytest.mark.parametrize("command", ["kmatrix", "vmatrix", "solve", "classify", "equiv", "analyze"])
def test_tracer_replay_exits_0_with_a_json_last_line(command, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "replay", "--",
         *_argv(command, tmp_path), "--format", "json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert {"spans", "counts", "overhead_s"} <= result.keys()
