"""The worst-input catalogue: inputs under every size limit that symlag must
still answer, or refuse, within a time budget.

Too slow for the tier-1 suite, whose pattern ``test_*.py`` this file's name
falls outside; run it by name:

    PYTHONPATH=src python -m pytest -q tests/worst_inputs.py

Each entry writes its input file from a fixed seed, checks that the file is
under ``MAX_INPUT_BYTES``, and runs the command in a fresh process, which
must give the expected exit code, stdout and stderr within ``BUDGET_S``
seconds of wall time.

- ``asymmetric-R24``: 80,000 random points of R^24, integer coordinates in
  [-10^6, 10^6], about 16.3 MB.  No two coordinates of a point are equal, so
  each point's orbit has 24! points and the set is refused at (1 2) on its
  first point in sorted order.
"""
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from symlag import cli
from symlag.nodeset import MAX_INPUT_BYTES

BUDGET_S = 30


def asymmetric_r24(path: Path) -> tuple[list[str], int, str, str]:
    rng = random.Random(24)
    points = [[rng.randint(-10**6, 10**6) for _ in range(24)] for _ in range(80_000)]
    path.write_text(json.dumps({"n": 24, "points": points}), encoding="utf-8")
    first = min(map(tuple, points))
    assert (first[1], first[0], *first[2:]) not in set(map(tuple, points))
    line = f"error: set is not symmetric: applying (1 2) to the point ({', '.join(map(str, first))}) leaves the set\n"
    return ["classify", "--nodes", str(path)], 2, "", line


@pytest.mark.parametrize("entry", [asymmetric_r24], ids=["asymmetric-R24"])
def test_worst_input_is_answered_within_the_budget(entry, tmp_path):
    argv, code, out, err = entry(tmp_path / "input.json")
    assert (tmp_path / "input.json").stat().st_size <= MAX_INPUT_BYTES
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "symlag.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=10 * BUDGET_S)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert elapsed < BUDGET_S, f"{argv[0]} took {elapsed:.1f} s, over the {BUDGET_S} s budget"
