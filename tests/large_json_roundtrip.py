"""The symlag/1 writer against json.dumps on 9,612-point node sets in R^6.

Too slow for the tier-1 suite, whose pattern ``test_*.py`` this file's name
falls outside; run it by name:

    PYTHONPATH=src python -m pytest -q tests/large_json_roundtrip.py

Each set has six orbits of each of the 11 types of R^6, the size of the
benchmark's ``orbits`` files.  ``classify`` on the exact set and on its
7-digit decimal spelling under ``--snap-tol 1e-6``, and ``equiv`` of two such
sets, run as fresh processes, and each stdout must be the text of
``json.dumps(payload, indent=2, sort_keys=True)`` and one newline.
"""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symlag import cli
from symlag.symcore import enumerate_types

from conftest import random_symmetric_set

N = 6
POINTS = 9612


@pytest.fixture(scope="module")
def node_files(tmp_path_factory):
    """The exact file of set A, its decimal spelling, and the file of set B."""
    tmp = tmp_path_factory.mktemp("large-json")
    rng = random.Random(9612)
    files = []
    for name in ("a", "b"):
        nodes = random_symmetric_set(rng, [6] * len(enumerate_types(N)), N)
        assert len(nodes) == POINTS
        exact = [[[c.numerator, c.denominator] for c in p.coords] for p in nodes.points]
        files.append(tmp / f"{name}.json")
        files[-1].write_text(json.dumps({"n": N, "points": exact}), encoding="utf-8")
        if name == "a":
            decimal = [[f"{num / den:.7f}" for num, den in p] for p in exact]
            files.append(tmp / "a-decimal.json")
            files[-1].write_text(json.dumps({"n": N, "points": decimal}), encoding="utf-8")
    return [str(f) for f in files]


def _stdout(argv) -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "symlag.cli", *argv, "--format", "json"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


@pytest.mark.parametrize("command", ["classify", "classify-snapped", "equiv"])
def test_stdout_is_the_text_of_json_dumps(command, node_files):
    exact, decimal, other = node_files
    argv = {
        "classify": ["classify", "--nodes", exact],
        "classify-snapped": ["classify", "--nodes", decimal, "--snap-tol", "1e-6"],
        "equiv": ["equiv", exact, other],
    }[command]
    out = _stdout(argv)
    payload = json.loads(out)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out != expected:
        # not an assert on the texts, which pytest would diff: megabytes each
        first = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b), min(len(out), len(expected)))
        pytest.fail(f"stdout leaves json.dumps at character {first}: {out[max(first - 60, 0):first + 60]!r}")
    if command == "equiv":
        assert len(payload["bijection"]) == POINTS
    else:
        assert sum(len(o["points"]) for o in payload["orbits"]) == POINTS
        assert (len(payload["snaps"]) > 1000) == (command == "classify-snapped")
