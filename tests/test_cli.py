"""CLI subcommands: exit codes, JSON determinism, file handling."""
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlag import charmat, cli, interp, nodeset, symcore
from symlag.cli import main

from conftest import forced_vector, hyperplane_set, random_symmetric_set


BASIS_38 = ["x1^2", "x2^2", "x3^2", "x1*x2", "x2*x3", "x1*x3"]


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def case3_file(tmp_path, a, b, c, d, name="nodes.json"):
    points = [[a, a, b], [a, b, a], [b, a, a], [c, c, d], [c, d, c], [d, c, c]]
    return write_json(tmp_path / name, {"n": 3, "points": points})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- types --------------------------------------------------------------------

def test_types_table_matches_known_classes(capsys):
    code, out, _ = run(capsys, ["types", "--n", "3"])
    assert code == 0
    assert "(0, 0, 1)" in out and "(1, 1, 0)" in out and "(3, 0, 0)" in out
    rows = [line for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
    assert len(rows) == 3
    sizes = [int(r.split()[-2]) for r in rows]
    assert sizes == [1, 3, 6]


def test_types_n1(capsys):
    code, out, _ = run(capsys, ["types", "--n", "1", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["types"]) == 1


def test_types_n5_has_seven_rows(capsys):
    code, out, _ = run(capsys, ["types", "--n", "5", "--format", "json"])
    assert json.loads(out)["types"].__len__() == 7


def test_types_rejects_n_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["types", "--n", "0"])
    assert exc.value.code == 2


# -- vmatrix / kmatrix ----------------------------------------------------------

def test_vmatrix_n3_json(capsys):
    code, out, _ = run(capsys, ["vmatrix", "--n", "3", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["entries"] == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]
    assert payload["determinant"] == 1
    assert payload["positive_definite"] is True


def test_vmatrix_n1(capsys):
    code, out, _ = run(capsys, ["vmatrix", "--n", "1", "--format", "json"])
    assert json.loads(out)["entries"] == [[1]]


def test_vmatrix_n4_symmetric_positive_definite(capsys):
    code, out, _ = run(capsys, ["vmatrix", "--n", "4", "--format", "json"])
    payload = json.loads(out)
    entries = payload["entries"]
    assert len(entries) == 5
    assert payload["symmetric"] is True
    assert all(m > 0 for m in payload["leading_principal_minors"])


def test_kmatrix_n3_json(capsys):
    code, out, _ = run(capsys, ["kmatrix", "--n", "3", "--format", "json"])
    payload = json.loads(out)
    assert payload["entries"] == [[1, 0, 0], [1, 1, 0], [1, 3, 6]]
    assert payload["lower_triangular"] is True


def test_table_commands_check_each_property_once(capsys, monkeypatch):
    # det K checks that K is lower triangular, and V's unit factor that V is
    # symmetric; the payloads report those checks instead of repeating them
    calls = []
    for owner, name in ((charmat.KMatrix, "is_lower_triangular"), (charmat, "_unit_factor")):
        check = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, check=check, name=name: calls.append(name) or check(*args))
    assert run(capsys, ["kmatrix", "--n", "6", "--format", "json"])[0] == 0
    assert run(capsys, ["vmatrix", "--n", "6", "--format", "json"])[0] == 0
    assert calls == ["is_lower_triangular", "_unit_factor"]


# -- classify ----------------------------------------------------------------------

def test_classify_case3(tmp_path, capsys):
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, out, _ = run(capsys, ["classify", "--nodes", nodes, "--format", "json"])
    assert code == 0
    assert json.loads(out)["orbit_vector"] == [0, 2, 0]


def test_classify_reports_snaps(tmp_path, capsys):
    obj = {"n": 3, "points": [["0.333333", 1, 1], [1, "0.3333334", 1], [1, 1, "0.33333"]]}
    nodes = write_json(tmp_path / "snappy.json", obj)
    code, out, _ = run(capsys, ["classify", "--nodes", nodes, "--snap-tol", "1e-4", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert len(payload["snaps"]) == 3
    assert all(s["snapped"] == "1/3" for s in payload["snaps"])
    assert payload["orbit_vector"] == [0, 1, 0]


def test_classify_asymmetric_input_is_error(tmp_path, capsys):
    nodes = write_json(tmp_path / "bad.json", {"n": 3, "points": [[1, 2, 3]]})
    code, _, err = run(capsys, ["classify", "--nodes", nodes])
    assert code == 2
    assert "not symmetric" in err


def test_snap_tol_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nodes", "x.json", "--snap-tol", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "1e-999999999"])
def test_snap_tol_must_be_a_finite_number_of_bounded_size(tol, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nodes", "x.json", "--snap-tol", tol])
    assert time.perf_counter() - start < 5
    assert exc.value.code == 2
    assert "error: argument --snap-tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["abc", "inf", "nan", "0x10", ""])
def test_snap_tol_that_is_no_number_says_so(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nodes", "x.json", "--snap-tol", tol])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"symlag classify: error: argument --snap-tol: {tol!r} is not a number"


def test_snap_tol_with_a_zero_denominator_is_no_coordinate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nodes", "x.json", "--snap-tol", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "symlag classify: error: argument --snap-tol: '1/0' has a zero denominator"
    assert "coordinate" not in err


def test_coordinate_that_is_no_number_is_named(tmp_path, capsys):
    nodes = write_json(tmp_path / "nodes.json", {"n": 2, "points": [["abc", 1], [1, "abc"]]})
    code, out, err = run(capsys, ["classify", "--nodes", nodes])
    assert (code, out, err) == (2, "", "error: invalid coordinate 'abc'\n")


# -- solve --------------------------------------------------------------------------

def test_solve_quadratic_basis(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    code, out, _ = run(capsys, ["solve", "--basis", basis, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["r"] == [2, 4, 6]
    assert payload["solution"] == ["0", "2", "0"]
    assert payload["admissible"] is True
    patterns = [entry["pattern"] for entry in payload["template"]]
    assert patterns == [["a1", "b1", "b1"], ["a2", "b2", "b2"]]


def test_solve_constant_basis(tmp_path, capsys):
    basis = write_json(tmp_path / "one.json", ["1"])
    code, out, _ = run(capsys, ["solve", "--basis", basis, "--n", "3", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["solution"] == ["1", "0", "0"]


def test_solve_infeasible_basis(tmp_path, capsys):
    obj = [
        [{"exponents": [2, 1, 0]}, {"exponents": [0, 2, 1]}, {"exponents": [1, 0, 2]}],
        [{"exponents": [2, 0, 1]}, {"exponents": [1, 2, 0]}, {"exponents": [0, 1, 2]}],
    ]
    basis = write_json(tmp_path / "cyclic.json", obj)
    code, out, _ = run(capsys, ["solve", "--basis", basis, "--format", "json"])
    payload = json.loads(out)
    assert code == 1
    assert payload["admissible"] is False
    assert payload["solution"] == ["2", "-2", "1"]
    assert any("matches no point-orbit class" in note for note in payload["notes"])


def test_solve_table_mentions_infeasibility(tmp_path, capsys):
    obj = [
        [{"exponents": [2, 1, 0]}, {"exponents": [0, 2, 1]}, {"exponents": [1, 0, 2]}],
        [{"exponents": [2, 0, 1]}, {"exponents": [1, 2, 0]}, {"exponents": [0, 1, 2]}],
    ]
    basis = write_json(tmp_path / "cyclic.json", obj)
    code, out, _ = run(capsys, ["solve", "--basis", basis])
    assert code == 1
    assert "infeasible: no symmetric unisolvent node set exists" in out


# -- equiv ---------------------------------------------------------------------------

def test_equiv_case3_different_parameters(tmp_path, capsys):
    a = case3_file(tmp_path, 0, 1, 2, 3, "a.json")
    b = case3_file(tmp_path, 5, 6, 7, 8, "b.json")
    code, out, _ = run(capsys, ["equiv", a, b, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["equivalent"] is True
    assert len(payload["bijection"]) == 6


def test_equiv_case3_vs_case2(tmp_path, capsys):
    a = case3_file(tmp_path, 0, 1, 2, 3, "a.json")
    case2 = {"n": 3, "points": [[1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 5], [4, 5, 4], [5, 4, 4]]}
    b = write_json(tmp_path / "b.json", case2)
    code, out, _ = run(capsys, ["equiv", a, b, "--format", "json"])
    payload = json.loads(out)
    assert code == 1
    assert payload["orbit_vector_a"] == [0, 2, 0]
    assert payload["orbit_vector_b"] == [3, 1, 0]


def test_equiv_set_with_itself_identity(tmp_path, capsys):
    a = case3_file(tmp_path, 0, 1, 2, 3, "a.json")
    code, out, _ = run(capsys, ["equiv", a, a, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert all(x == y for x, y in payload["bijection"])


def test_equiv_invalid_input(tmp_path, capsys):
    a = case3_file(tmp_path, 0, 1, 2, 3, "a.json")
    b = write_json(tmp_path / "b.json", {"n": 3, "points": [[1, 2, 3]]})
    code, _, err = run(capsys, ["equiv", a, b])
    assert code == 2 and err


def test_equiv_table_notes_the_snaps_of_both_sets(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", {"n": 2, "points": [["0.3333333", 1], [1, "0.3333333"]]})
    b = write_json(tmp_path / "b.json", {"n": 2, "points": [[1, "0.6666667"], ["0.6666667", 1]]})
    code, out, _ = run(capsys, ["equiv", a, b, "--snap-tol", "1e-6", "--format", "json"])
    assert code == 0
    assert [s["original"] for s in json.loads(out)["snaps"]] == ["0.3333333"] * 2 + ["0.6666667"] * 2
    code, out, _ = run(capsys, ["equiv", a, b, "--snap-tol", "1e-6"])
    assert code == 0
    assert out.splitlines()[-6:] == [
        "  (1/3, 1) -> (2/3, 1)",
        "  (1, 1/3) -> (1, 2/3)",
        *["  note: snapped 0.3333333 -> 1/3 (|delta| = 1/30000000)"] * 2,
        *["  note: snapped 0.6666667 -> 2/3 (|delta| = 1/30000000)"] * 2,
    ]


# -- analyze --------------------------------------------------------------------------

def test_analyze_case3_unisolvent(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "unisolvent"
    num, den = payload["determinant"]
    assert den == 1 and num != 0
    assert all(c["passed"] for c in payload["conditions"])


def test_analyze_case1_orbit_structure_mismatch(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    case1 = {"n": 3, "points": [[v, v, v] for v in range(1, 7)]}
    nodes = write_json(tmp_path / "case1.json", case1)
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert code == 1
    assert payload["verdict"] == "necessary-conditions-failed"
    assert "orbit" in payload["reason"] and "mismatch" in payload["reason"]
    assert payload["determinant"] is None


def test_analyze_singular_case3_parameters(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 2, 1, 1, [7, 4])
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert code == 1
    assert payload["verdict"] == "singular"
    assert payload["determinant"] == [0, 1]


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    code, _, err = run(capsys, ["analyze", "--basis", basis, "--nodes", str(bad)])
    assert code == 2 and err


def test_analyze_missing_file(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    code, _, err = run(capsys, ["analyze", "--basis", basis, "--nodes", str(tmp_path / "nope.json")])
    assert code == 2 and err


def test_analyze_duplicate_points_is_input_error(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 1, 1, 2, 3)  # a = b collapses the first orbit
    code, _, err = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes])
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("option", [["--float"], ["--det-tol", "1e-9"]])
def test_analyze_float_options_are_unknown(option, tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 1, 0, 0, 1)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--basis", basis, "--nodes", nodes, *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_analyze_snap_tol_pipeline(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    pts = [["0.33333", "0.333333", 1], ["0.333334", 1, "0.33333"], [1, "0.3333333", "0.333331"],
           [2, 2, 3], [2, 3, 2], [3, 2, 2]]
    nodes = write_json(tmp_path / "snappy.json", {"n": 3, "points": pts})
    code, out, _ = run(
        capsys,
        ["analyze", "--basis", basis, "--nodes", nodes, "--snap-tol", "1e-3", "--format", "json"],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "unisolvent"
    assert payload["snaps"]  # every snapped coordinate is reported


def test_analyze_huge_exponents_exit_2_quickly(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", ["x1^999999999", "x2^999999999"])
    nodes = write_json(tmp_path / "nodes.json", {"n": 2, "points": [[1, 2], [2, 1]]})
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error: exact evaluation would need about") and err.count("\n") == 1


def test_analyze_refuses_the_tensor_grid_of_r9_by_its_elimination_work(tmp_path, capsys):
    # exponents {0, 1, 2}^9 on the grid {-1, 0, 1}^9: a legal, unisolvent pair
    # of N = 19,683 whose coordinates add no bits.  Per coordinate pair the
    # blocks are 6 wide under the trivial character of its swap and 3 under
    # the other, and the ninth coordinate triples them all
    grid = list(product((-1, 0, 1), repeat=9))
    functions = [[{"exponents": [x + 1 for x in p]}] for p in grid]
    basis = write_json(tmp_path / "basis.json", {"n": 9, "functions": functions})
    nodes = write_json(tmp_path / "nodes.json", {"n": 9, "points": [list(p) for p in grid]})
    work = (6**3 + 3**3) ** 4 * 3**3
    message = (
        f"error: exact evaluation over 19683 nodes would eliminate blocks whose sizes, cubed and summed, "
        f"come to {work}, above the limit of {interp.MAX_ELIMINATION_WORK}; use fewer nodes\n"
    )
    start = time.perf_counter()
    assert run(capsys, ["analyze", "--basis", basis, "--nodes", nodes]) == (2, "", message)
    assert time.perf_counter() - start < 5
    # the bound needs only the nodes, so the basis is not even read
    assert run(capsys, ["analyze", "--basis", str(tmp_path / "missing.json"), "--nodes", nodes]) == (2, "", message)


def test_solve_huge_exponents_quickly(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", ["x1^999999999", "x2^999999999"])
    start = time.perf_counter()
    code, out, _ = run(capsys, ["solve", "--basis", basis, "--format", "json"])
    assert time.perf_counter() - start < 5
    payload = json.loads(out)
    assert code == 0
    assert payload["r"] == [1, 2] and payload["solution"] == ["0", "1"]


def test_solve_refuses_the_tensor_basis_of_r8_by_its_function_count(tmp_path, capsys):
    # exponents {0, ..., 4}^8: 390,625 functions in a 12 MB file, which
    # would take over a minute to read and count
    functions = ["*".join(f"x{i}^{e}" for i, e in enumerate(p, 1) if e) or "1" for p in product(range(5), repeat=8)]
    basis = write_json(tmp_path / "basis.json", {"n": 8, "functions": functions})
    message = f"error: the basis has 390625 functions, above the limit of {interp.MAX_BASIS_FUNCTIONS}\n"
    start = time.perf_counter()
    assert run(capsys, ["solve", "--basis", basis]) == (2, "", message)
    assert time.perf_counter() - start < 5


def test_solve_refuses_total_degree_3_in_r24_by_its_orbit_work(tmp_path, capsys):
    # 2,925 functions and 24,626 stabilizer generators over the 1,575 types
    # of R^24: r_vector would take over 20 s on them
    basis = _td_basis(tmp_path, 24, 3)
    message = (
        f"error: the orbit counts of 2925 functions in R^24 would take {2925 * 24626} union steps, "
        f"above the limit of {interp.MAX_ORBIT_WORK}; use fewer functions\n"
    )
    start = time.perf_counter()
    assert run(capsys, ["solve", "--basis", basis]) == (2, "", message)
    assert time.perf_counter() - start < 5
    # total degree 2 there is inside the bound
    assert 325 * 24626 <= interp.MAX_ORBIT_WORK


def test_analyze_huge_exponents_on_zero_one_nodes(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", ["x1^999999999", "x2^999999999"])
    nodes = write_json(tmp_path / "nodes.json", {"n": 2, "points": [[0, 1], [1, 0]]})
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "unisolvent" and payload["determinant"] == [1, 1]


def test_analyze_bounds_the_bits_over_every_node_not_one_per_orbit(tmp_path, capsys, monkeypatch):
    # x1^5000 x2^5000 is zero at (0, 0) and at both points of the other
    # orbit, so the invariant block is singular.  The bound takes the bits
    # of each coordinate index over all three nodes: 3 * (5000 + 5000) * 10
    # bits.  Over one node per orbit, (0, 0) and (0, 1024), index 1 would
    # carry no bits, and the estimate would be half as large and pass.
    basis = write_json(tmp_path / "basis.json", ["x1^5000*x2^5000", "x1", "x2"])
    nodes = write_json(tmp_path / "nodes.json", {"n": 2, "points": [[0, 0], [0, 1024], [1024, 0]]})
    argv = ["analyze", "--basis", basis, "--nodes", nodes]
    message = (
        "error: exact evaluation would need about 300000 bits, above the limit of 262144; "
        "lower the basis degree or the size of the node coordinates\n"
    )
    assert interp.MAX_DETERMINANT_BITS == 262144
    assert run(capsys, argv) == (2, "", message)
    monkeypatch.setattr(interp, "MAX_DETERMINANT_BITS", 300000)
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1 and json.loads(out)["verdict"] == "singular"


def test_analyze_json_output_is_byte_identical(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    argv = ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# SHA-256 of `--format json` and `--format table` stdout for fixed inputs.
# The symlag/1 schema promises the JSON bytes across versions; changing them
# needs a schema bump.  vmatrix-12, vmatrix-13 and kmatrix-16 are the sizes
# the `tables` benchmark workload runs; kmatrix-18 and kmatrix-20 pin K past
# the sizes the dealing oracle checks entry by entry; solve-td-16-2 (total degree 2 in
# R^16) runs the V X = r solve at a size where its algorithm shows.
# classify-n5-* and equiv-n5 validate 492 points in R^5 whose coordinate
# values recur across orbits and types; their digests were taken before
# node sets were validated on the ranks of their coordinates.
# analyze-td-5-4-* and analyze-td-3-6-singular are the sizes of the `unisolve`
# workload: a generic set with the forced orbit vector, and sets on d planes
# sum(x) = s_j, singular for total degree d; their digests were taken before
# the invariant block decided singular pairs.
PINNED_JSON_DIGESTS = {
    "vmatrix-1": "9ab7621fba24aa8733d958b76b07b36c220c816d73e8220899d23cf95b9e9eff",
    "vmatrix-2": "3cd652d972f0b759855ed1bfe3e63bb7dec85d9607cf37dfb7a385a7031e1bcf",
    "vmatrix-3": "e24fa593e9070dc18c922ef70c0e2879609dc728faa4e8bcceb261e199ee0b41",
    "vmatrix-4": "fa04dac2b0ec05bd749ee5d875ed994007f8d69f3422e1a4bc970b73fd1151d4",
    "vmatrix-5": "757cb0764420b267194636c0ecd989e07ce878cef99cda13d5ea708ff346003f",
    "vmatrix-6": "2f5a7d159d4a0cb5155892af63cc3a101a7e6c6d38e9909a295bf845020d6503",
    "vmatrix-7": "14e18049ea06bad6a5a8869e6e9df0fceccf73573db44b193f946543f5039c63",
    "vmatrix-8": "403f0a7ef691b2b27e9763d5b4c7037ce16f45880e92f58cfb0a33aab217c972",
    "vmatrix-9": "ab4274471bfe1d8a9506c7944f5589baddd70c3c31eb87389d44ba33e0c1bbd5",
    "vmatrix-12": "2ecd088ec5dc496984f6f1b588e0e8d5679ab97d5aa58d88ac845fd65cef5e65",
    "vmatrix-13": "cc3cf1755db2f2fda666756ce4508c3d7aebcff067eb1cacda01d085a45b3d95",
    "kmatrix-1": "33d5dd9f236b523545e0ea414dcc7f3f9f25cab90537177ad14f1dd73b3c012c",
    "kmatrix-2": "2278dd4a9fb78a603da719e75a24573a36255fe6cd5ed7662ed4a2438fe40406",
    "kmatrix-3": "1dd87a1cc2f5eba1337f8d74fb07d3e913875f50fc05ae0f2ed435312ca9dbab",
    "kmatrix-4": "ed37d89575e403bd238c00a3abac7888c4038d9b223fb96aa9075e820fb61737",
    "kmatrix-5": "d289ef8a842906417fa21c85748e8553b5e7c592ab14aec9c0d489f3655a2b22",
    "kmatrix-6": "92511aac6220292ccbf6c56cf4517282fc3d9c777b51347330cd4e1f4e5a857c",
    "kmatrix-7": "4621fe9be7eb8ba451f7691a5a14291b0c7ce00056f55e8fd2cd74925e7431e4",
    "kmatrix-8": "0ea442d8d4de74600fefb6c16819fdbbfbe27f8f706921c62ec7a6e54764e4f7",
    "kmatrix-9": "443a1abf4ec965a69db45aee1f8718d319ded0e2fc2df210ec7c674d62ea46a9",
    "kmatrix-16": "699862becec244bb2c98af93caff8746b36d60b6e30aa01f5f4cfb909b6ae33d",
    "kmatrix-18": "9ed940061ba9190880b50298f4d719c44329f291e1a4ba0df6636fa29b8246d1",
    "kmatrix-20": "5c7142cb5fc7e656454fe865b725c05b45734dbb5a29e456ff5e28c41dcbf7a6",
    "solve-td-4-3": "41fcc04c35d4ecd6f65106b93783f90675ca9b9a98e66cae9ba4db7d207c89d0",
    "solve-td-16-2": "feeb1f7a9cde0bc7d0ba08b8266cce195d6755a81302c806144c41d0cec429e7",
    "analyze-unisolvent": "bcd74a649f499e204b11dafe8fb3ef710b1fa42eb6434ce60f19c68b3e57699f",
    "analyze-singular": "a27dadbde6c6637ef574b44cbc07a2e294d1e3497521907a76b2ef58e0c84cdf",
    "analyze-td-4-3": "e554503cd4386b421679a5a8545f0c733bcf12df6b8c2b569d56b0763f4ed171",
    "analyze-td-5-4-singular": "18bd75963dcd13ba2770a9f2c09dd7f82cbb4fd60b11996920243187b6bc5b2a",
    "analyze-td-5-4-generic": "774d37e7e09ad14c00b0e8f8d350fb5b0c0bef88e553073b6340929ec93e5931",
    "analyze-td-3-6-singular": "c6247ffb1b900c6b95ed907b26ee80fb44d120a7020216f41432db3666a73dc8",
    "types-4": "21fdfbc0ec2021b5de1432e4cd331cd27e625e722e4e5ef75eb81b22d85fa194",
    "classify-exact": "0a27819485672feb01b3688039e1c8540bb010a41f40b1df0f34f6aa520100c3",
    "classify-snapped": "c7e8a423c077c1cd319c5f21925e2e38d9ce1ccc5d03661b0e734a6b78e745cb",
    "equiv-td-4-3": "dde61b4e426fa5fa52eb4e16ab29c4b3cfeab6df94e305a295d5c96c3d64dfae",
    "classify-n5-exact": "628b916d2b505f355a1c8546b1227ce87fbb012bdf05b146e6fa91a385b01dcc",
    "classify-n5-snapped": "6b532e325362d86f8637487a89b403833e5dd97baeacbe8eb17919e0d5d3cfa5",
    "equiv-n5": "977c870ac09f7281f79166fa2221867d64788acd80ffe2797ce5cf63b657e095",
}

PINNED_TABLE_DIGESTS = {
    "vmatrix-12": "7cf1f24dccbcd3f6b25ffc9da8964b2272ba5b75835768b5346eed60e68e840e",
    "vmatrix-13": "72fa9ba42a38a7429a074d760a486b5a51f41e742f8aa9e7fd12c48ef8ce69ff",
    "kmatrix-16": "48d735cd20d38c8cbbec5f71026619184666258b48098e33042179ca630a4764",
    "solve-td-4-3": "35f1c3ad8e97f5386011a8f84a4f4fdf7f93b33178a8e06f66c4fdf862057d85",
    "solve-td-16-2": "09516d29a9ad425f1c081da530a97de6ba5aa3a0dcd8e787e09112bd56115339",
    "analyze-unisolvent": "63a3790f91124149da81bc02248e595accedcb4ae899e970f8e2b57955987e39",
    "analyze-singular": "8fdf4da39f8b01938357a422cb6145ad07c9e78b003077ed2d98429eaefc347c",
    "analyze-td-4-3": "679e313d879207e00e7c54fc354e9497d8ed470c45c44920e65826315a9034ae",
    "analyze-td-5-4-singular": "88ed352b088fbde4ec9a411e5453d7f4d162052c9179eaa4dfa849b898784f90",
    "analyze-td-5-4-generic": "6d47363d6d6f174f4b9e4a5110486c3920632a33ae49704a3f1f295369ff2329",
    "analyze-td-3-6-singular": "debaf22caa6e97d827d1a3460b5afff234801215417f4dab4765dc11c3b41065",
    "types-4": "09efbc00fe91120912913e06b8d160f2081648d596edf95d2a2fcceccb22ed21",
    "classify-exact": "e5be949c14645b0b9cf55c0452c8b6ae1c8362934b24ca748c04cfc09f42bc61",
    "classify-snapped": "13f9fcbb35e10d55d279a3c28e27138f0eb47aa001a56de73786cf538ada9edc",
    "equiv-td-4-3": "e5dab104c791a53d177bccc4901aaf78bea50ccab97271cb4871ad471519753b",
    "classify-n5-exact": "91fdacb333c07d5c70a04d5efd2aa8a807d453b9859463fb673e67eda0846191",
    "classify-n5-snapped": "979e7af8f0e5fadcc37befc29e26eba6946f6feaeb8a4b2d3627891f4698eeb1",
    "equiv-n5": "df3289c9fa5d025d8485dd88c54f4470744829746008e7a74fd1d8538b595699",
}


# one orbit representative per orbit of the vector (1, 4, 1, 1, 0) that
# V X = r forces for total degree (4, 3); zero, negative and fractional values
TD43_ORBITS = [
    ("1/2", "1/2", "1/2", "1/2"),
    (0, 1, 1, 1), (2, -1, -1, -1), (-3, "1/3", "1/3", "1/3"), ("5/2", 2, 2, 2),
    (-2, -2, 3, 3),
    (1, "-1/2", 4, 4),
]


def _td_basis(tmp_path, n, d):
    """The monomials of total degree at most d in R^n."""
    exponents = [
        [c.count(i) for i in range(n)] for k in range(d + 1) for c in combinations_with_replacement(range(n), k)
    ]
    return write_json(tmp_path / f"td-{n}-{d}.json", {"n": n, "functions": [{"exponents": e} for e in exponents]})


# the same orbit vector with other values, and TD43_ORBITS written as
# decimals that --snap-tol 1e-6 snaps back onto it
TD43_OTHER_ORBITS = [
    (-1, -1, -1, -1),
    (5, 0, 0, 0), ("1/7", 3, 3, 3), (-4, 2, 2, 2), (6, "-5/3", "-5/3", "-5/3"),
    (7, 7, "1/4", "1/4"),
    (0, 8, -6, -6),
]
TD43_DECIMAL = {"1/2": "0.5", "1/3": "0.3333333", "5/2": "2.4999999", "-1/2": "-0.5000001"}


# two orbits of each of the 7 types of R^5; most values recur across orbits
# and types, so one coordinate value stands in many equality patterns
N5_ORBITS = [
    (2, 2, 2, 2, 2), ("-1/3", "-1/3", "-1/3", "-1/3", "-1/3"),
    (0, 2, 2, 2, 2), ("5/2", -1, -1, -1, -1),
    (0, 0, 2, 2, 2), ("-1/3", "-1/3", 1, 1, 1),
    (1, 0, 2, 2, 2), (-1, "5/2", 0, 0, 0),
    (2, 0, 0, 1, 1), ("1/2", "1/2", -1, -1, "5/2"),
    (0, 1, 2, "-1/3", "-1/3"), ("5/2", "1/2", -1, 2, 2),
    (0, 1, 2, -1, "5/2"), ("-1/3", "1/2", 1, 2, 0),
]
N5_RELABEL = {2: 7, "-1/3": "1/5", 0: -2, "5/2": 4, -1: "3/7", 1: 1, "1/2": -5}
N5_OTHER_ORBITS = [tuple(N5_RELABEL[x] for x in rep) for rep in N5_ORBITS]
N5_DECIMAL = {"-1/3": "-0.3333333", "5/2": "2.4999999", "1/2": "0.5000001"}


def _orbit_nodes(tmp_path, orbits=TD43_ORBITS, name="td43-nodes.json"):
    # the sorted node set interleaves the orbits, so the determinant's
    # sign depends on how the symmetry blocks are put back in order
    points = sorted({p for rep in orbits for p in permutations(rep)}, key=str)
    return write_json(tmp_path / name, {"n": len(orbits[0]), "points": [list(p) for p in points]})


def _forced_nodes(tmp_path, basis_path, d, kind):
    """A node set with the orbit vector V X = r forces for the basis: a
    generic draw, or one on d planes sum(x) = s_j, singular for total degree d."""
    basis = interp.load_basis(basis_path)
    vector = forced_vector(basis.functions)
    rng = random.Random(f"{basis.n}-{d}-{kind}")
    nodes = hyperplane_set(rng, vector, basis.n, d) if kind == "singular" else random_symmetric_set(rng, vector, basis.n)
    points = [[[c.numerator, c.denominator] for c in p.coords] for p in nodes.points]
    return write_json(tmp_path / f"nodes-{kind}.json", {"n": basis.n, "points": points})


def _pinned_argv(name, tmp_path):
    command, _, arg = name.partition("-")
    if command in ("vmatrix", "kmatrix", "types"):
        return [command, "--n", arg]
    if command == "solve":
        n, d = map(int, arg.split("-")[1:])
        return ["solve", "--basis", _td_basis(tmp_path, n, d)]
    if arg.startswith("n5"):
        orbits, other, decimal = N5_ORBITS, N5_OTHER_ORBITS, N5_DECIMAL
    else:
        orbits, other, decimal = TD43_ORBITS, TD43_OTHER_ORBITS, TD43_DECIMAL
    if command == "classify" and arg.endswith("exact"):
        return ["classify", "--nodes", _orbit_nodes(tmp_path, orbits)]
    if command == "classify":
        spelled = [tuple(decimal.get(str(x), x) for x in rep) for rep in orbits]
        return ["classify", "--nodes", _orbit_nodes(tmp_path, spelled), "--snap-tol", "1e-6"]
    if command == "equiv":
        return ["equiv", _orbit_nodes(tmp_path, orbits), _orbit_nodes(tmp_path, other, "other.json")]
    if arg == "td-4-3":
        return ["analyze", "--basis", _td_basis(tmp_path, 4, 3), "--nodes", _orbit_nodes(tmp_path)]
    if command == "analyze" and arg.startswith("td-"):
        _, n, d, kind = arg.split("-")
        basis = _td_basis(tmp_path, int(n), int(d))
        return ["analyze", "--basis", basis, "--nodes", _forced_nodes(tmp_path, basis, int(d), kind)]
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    values = (0, 1, 2, 3) if arg == "unisolvent" else (2, 1, 1, [7, 4])
    return ["analyze", "--basis", basis, "--nodes", case3_file(tmp_path, *values)]


@pytest.mark.parametrize("name", PINNED_JSON_DIGESTS)
def test_json_stdout_matches_pinned_digest(name, tmp_path, capsys):
    _, out, _ = run(capsys, _pinned_argv(name, tmp_path) + ["--format", "json"])
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_DIGESTS[name]


@pytest.mark.parametrize("name", PINNED_TABLE_DIGESTS)
def test_table_stdout_matches_pinned_digest(name, tmp_path, capsys):
    _, out, _ = run(capsys, _pinned_argv(name, tmp_path) + ["--format", "table"])
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", [name for name in PINNED_TABLE_DIGESTS if name in PINNED_JSON_DIGESTS])
def test_table_is_drawn_from_the_json_payload(name, tmp_path, capsys):
    argv = _pinned_argv(name, tmp_path)
    _, out, _ = run(capsys, argv + ["--format", "json"])
    _, table, _ = run(capsys, argv + ["--format", "table"])
    view = {command: table for command, _, _, table, _ in cli.SUBCOMMANDS}[argv[0]]
    assert "\n".join(view(json.loads(out))) + "\n" == table


@pytest.mark.parametrize("name", ["classify-exact", "classify-snapped", "equiv-td-4-3"])
def test_json_output_writes_no_point_as_text(name, tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a point was written as text")

    monkeypatch.setattr(nodeset.Point, "__str__", refuse)
    code, out, _ = run(capsys, _pinned_argv(name, tmp_path) + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_DIGESTS[name]


@pytest.mark.parametrize("name", ["classify-n5-exact", "classify-n5-snapped", "equiv-n5"])
def test_json_output_needs_no_json_encoder(name, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's encoder was called")

    argv = _pinned_argv(name, tmp_path) + ["--format", "json"]  # writes its files with json.dumps
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_DIGESTS[name]


@pytest.mark.parametrize("name", ["classify-n5-exact", "classify-n5-snapped", "equiv-n5", "analyze-td-5-4-generic"])
def test_valid_input_builds_no_point(name, tmp_path, capsys, monkeypatch):
    # every orbit is an index record into its set's value table, so only the
    # message of a refused set needs a Point
    argv = _pinned_argv(name, tmp_path)  # builds its files from Points
    built = 0
    new = nodeset.Point.__new__  # every Point is made here

    def counting(cls, coords):
        nonlocal built
        built += 1
        return new(cls, coords)

    monkeypatch.setattr(nodeset.Point, "__new__", counting)
    for output, digests in (("json", PINNED_JSON_DIGESTS), ("table", PINNED_TABLE_DIGESTS)):
        code, out, _ = run(capsys, argv + ["--format", output])
        assert code == 0 and built == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[name]
    # the counter counts: a refused set builds the Point its message names
    nodes = tmp_path / "short.json"
    nodes.write_text(json.dumps({"n": 2, "points": [[1, 2]]}))
    code, _, err = run(capsys, ["classify", "--nodes", str(nodes)])
    assert code == 2 and "(1, 2)" in err and built > 0


def test_importing_the_cli_leaves_dataclasses_and_its_imports_out():
    # each request is a fresh process and pays for everything this import loads
    code = "import sys, symlag.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# -- the symlag/1 writer ---------------------------------------------------------

_INTS = st.one_of(st.integers(-3, 3), st.integers(), st.sampled_from([-(2**200), 2**200 + 1, 10**60]))
_TEXTS = st.one_of(
    st.text(max_size=5),
    st.sampled_from(['"', "\\", '\\"', "\n\t", "\x00\x1f\x7f", "caf\u00e9", "\u2603", "\U0001f600", ""]),
)


@st.composite
def _payload_trees(draw):
    # a [num, den]-like list and a snap-like record, each drawn once and put
    # at several depths, as the memo meets them, next to twins that share
    # their values but not their types or keys; bools sit among the ints
    coordinate = draw(st.lists(st.one_of(_INTS, st.booleans()), max_size=3))
    record = draw(st.dictionaries(_TEXTS, st.one_of(_INTS, _TEXTS, st.booleans()), max_size=3))
    twins = [list(map(str, coordinate)), {key + "'": value for key, value in record.items()}]
    leaves = st.one_of(st.none(), st.booleans(), _INTS, _TEXTS, st.sampled_from([coordinate, record, *twins]))
    trees = st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_TEXTS, inner, max_size=4)),
        max_leaves=24,
    )
    # payload-shaped trees: long lists of containers, shared or not, on the
    # levels the writer streams item by item and on the ones below them
    small = st.one_of(leaves, st.lists(leaves, max_size=3), st.dictionaries(_TEXTS, leaves, max_size=2))
    rows = st.lists(small, min_size=5, max_size=30)
    return draw(st.one_of(
        trees,
        st.dictionaries(_TEXTS, st.one_of(trees, rows, st.lists(st.one_of(rows, st.lists(rows, max_size=3)), max_size=8)),
                        max_size=5),
    ))


def _written(tree) -> str:
    chunks = []
    cli._json(tree, chunks.append)
    return "".join(chunks)


# derandomized: the same examples on every run, so tier-1 stays reproducible
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_payload_trees())
def test_json_writer_matches_json_dumps(tree):
    assert _written(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_json_writer_keeps_apart_what_its_memo_could_confuse():
    coordinate = [1, 2]
    record = {"original": "0.5000001", "snapped": "1/2", "delta": "-1/10000000"}
    tree = {
        "bools": [True, 1, False, 0, [True, 1], [1, True], [1, 1], [True, True]],
        "siblings": [[True], [1], [False], [0], {"k": True}, {"k": 1}, ["1"], [1]],
        "depths": [coordinate, [coordinate, [coordinate]], {"x": coordinate}],
        "records": [record, {"inner": [record, [record]]}, dict(reversed(record.items()))],
        "empty": [[], {}, [[]], [{}], {"k": {}}, {"k": []}, [[], [[]]]],
        "ints": [-1, -(2**200), 10**60, 0, [-5, 10**30]],
        "texts": ["caf\u00e9 \u2603 \U0001f600", "\x00\x1f\x7f", '"quoted"', "back\\slash", "", ["\n", 1]],
        "scalars": [None, [None], {"n": None}],
    }
    assert _written(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("tree", [1.5, [1, 2.0], {"a": [0.5]}, {1: "x"}, {"a": 1, 2: "b"}, {True: 1}, (1, 2)])
def test_json_writer_refuses_what_symlag_1_does_not_hold(tree):
    with pytest.raises(TypeError):
        _written(tree)


def _big_node_files(tmp_path):
    """Two draws of 1,968 points in R^5 (eight orbits of each type), the
    first also as 7-digit decimals that --snap-tol 1e-6 snaps back onto it."""
    files = []
    for seed in (1, 2):
        nodes = random_symmetric_set(random.Random(seed), [8] * 7, 5)
        points = [[[c.numerator, c.denominator] for c in p.coords] for p in nodes.points]
        files.append(write_json(tmp_path / f"big-{seed}.json", {"n": 5, "points": points}))
        if seed == 1:
            decimal = [[f"{num / den:.7f}" for num, den in p] for p in points]
            files.append(write_json(tmp_path / "big-decimal.json", {"n": 5, "points": decimal}))
    return files


@pytest.mark.parametrize("command", ["classify", "classify-snapped", "equiv"])
def test_json_writer_holds_no_copy_of_the_document(command, tmp_path):
    exact, decimal, other = _big_node_files(tmp_path)
    argv = {
        "classify": ["classify", "--nodes", exact],
        "classify-snapped": ["classify", "--nodes", decimal, "--snap-tol", "1e-6"],
        "equiv": ["equiv", exact, other],
    }[command]
    args = cli.build_parser().parse_args(argv)
    _, payload = args.handler(args)
    if command == "classify-snapped":
        assert len(payload["snaps"]) > 1000
    tracemalloc.start()
    try:
        sink = io.StringIO()
        lengths = []

        def write(chunk):
            lengths.append(len(chunk))
            sink.write(chunk)

        cli._json(payload, write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sink holds the document once; the text of one level is never
    # copied into the level above it
    size = len(sink.getvalue())
    assert size > 400_000
    assert peak < 2 * size
    # the document goes out in pieces no larger than one orbit or pair
    assert max(lengths) <= size // 10


def _text_calls(payload) -> tuple[int, list[int]]:
    """The calls of _json's text function, and the length of each write, as
    _json writes the payload."""
    code = next(c for c in cli._json.__code__.co_consts if getattr(c, "co_name", None) == "text")
    calls = 0
    lengths = []

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        cli._json(payload, lambda chunk: lengths.append(len(chunk)))
    finally:
        sys.setprofile(None)
    return calls, lengths


@pytest.mark.parametrize("command", ["classify", "classify-snapped", "equiv"])
def test_json_writer_batches_its_writes_and_writes_no_point_through_text(command, tmp_path):
    exact, decimal, other = _big_node_files(tmp_path)
    argv = {
        "classify": ["classify", "--nodes", exact],
        "classify-snapped": ["classify", "--nodes", decimal, "--snap-tol", "1e-6"],
        "equiv": ["equiv", exact, other],
    }[command]
    args = cli.build_parser().parse_args(argv)
    _, payload = args.handler(args)
    calls, lengths = _text_calls(payload)
    # a list's run goes out once it and its next item pass _RUN, so two
    # runs in a row hold more than _RUN; any other value is one write
    assert len(lengths) <= 2 * sum(lengths) // cli._RUN + 2 * len(payload) + 1
    assert len(lengths) < 100
    if command == "classify-snapped":
        assert len(payload["snaps"]) > 1000  # one write each, before runs
    # the same payload without its points needs no fewer text calls: the
    # points, 1,968 of them, are written from their tables alone
    stripped = dict(payload)
    if command == "equiv":
        stripped["bijection"] = cli._Rows(payload["bijection"].tables, [])
    else:
        stripped["orbits"] = [{**o, "points": cli._Rows(o["points"].tables, [])} for o in payload["orbits"]]
    assert calls <= _text_calls(stripped)[0] < 1968


def _rows_as_lists(obj):
    """The payload as json.dumps takes it: each _Rows as the lists it yields."""
    if isinstance(obj, dict):
        return {key: _rows_as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, cli._Rows)):
        return [_rows_as_lists(x) for x in obj]
    return obj


@st.composite
def _node_set_pairs(draw):
    # a set of R^n with up to two orbits of each type, spelled exactly or as
    # 7-digit decimals that --snap-tol 1e-6 snaps back, and a second set
    # with the same orbit vector or a drawn one
    n = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(0, 2), min_size=len(symcore.enumerate_types(n)),
                       max_size=len(symcore.enumerate_types(n)))
    vector_a = draw(vectors)
    vector_b = vector_a if draw(st.booleans()) else draw(vectors)
    return n, vector_a, vector_b, draw(st.integers(0, 2**32)), draw(st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_node_set_pairs())
@example((2, [0, 0], [0, 0], 0, False))  # the empty set: "orbits": [] and "bijection": []
@example((1, [2], [2], 1, True))  # n = 1, every orbit one point
@example((3, [2, 1, 0], [2, 1, 0], 2, False))  # one-point orbits among larger ones
@example((3, [1, 1, 1], [0, 1, 2], 3, True))  # unequal vectors: "bijection": null
def test_row_writer_matches_json_dumps(case):
    n, vector_a, vector_b, seed, snapped = case
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name, vector in (("a", vector_a), ("b", vector_b)):
            nodes = random_symmetric_set(rng, vector, n)
            spell = (lambda v: f"{v.numerator / v.denominator:.7f}") if snapped else (lambda v: [v.numerator, v.denominator])
            points = [[spell(c) for c in p.coords] for p in nodes.points]
            files.append(write_json(Path(tmp) / f"{name}.json", {"n": n, "points": points}))
        tol = ["--snap-tol", "1e-6"] if snapped else []
        for argv in (["classify", "--nodes", files[0], *tol], ["equiv", *files, *tol]):
            args = cli.build_parser().parse_args(argv)
            _, payload = args.handler(args)
            assert _written(payload) == json.dumps(_rows_as_lists(payload), indent=2, sort_keys=True)


def test_a_repeated_snap_event_is_one_shared_record():
    event = nodeset.SnapEvent("0.5000001", Fraction(1, 2), Fraction(-1, 10_000_000))
    other = nodeset.SnapEvent("2.4999999", Fraction(5, 2), Fraction(1, 10_000_000))
    events = [event, other, event, event, other, event]
    records = cli._snaps_json(events)
    assert [id(r) for r in records] == [id(records[i]) for i in (0, 1, 0, 0, 1, 0)]
    fresh = [{"original": s.original, "snapped": str(s.snapped), "delta": str(s.delta)} for s in events]
    assert records == fresh
    payload = {"snaps": records, "nested": [records, {"snaps": records}]}
    expected = {"snaps": fresh, "nested": [fresh, {"snaps": fresh}]}
    assert _written(payload) == json.dumps(expected, indent=2, sort_keys=True)


class _PipeClosingAt(io.StringIO):
    """A stdout whose reader goes away once ``limit`` characters are written."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("output", ["json", "table"])
def test_a_failed_write_leaves_a_prefix_and_one_error_line(output, capsys, monkeypatch):
    argv = ["kmatrix", "--n", "6", "--format", output]
    _, whole, _ = run(capsys, argv)
    stdout = _PipeClosingAt(len(whole) // 2)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")
    assert whole.startswith(stdout.getvalue())


def test_a_closed_stdout_takes_no_output(monkeypatch):
    # with its stdout closed, Python sets sys.stdout to None, and print writes nothing
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["types", "--n", "3", "--format", "json"]) == 0
    assert main(["types", "--n", "3"]) == 0


def test_solve_and_the_screen_build_no_v(tmp_path, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("V was built")

    assert not {"VMatrix", "v_matrix"} & vars(interp).keys()
    monkeypatch.setattr(charmat, "v_matrix", refuse)
    code, out, _ = run(capsys, ["solve", "--basis", _td_basis(tmp_path, 16, 2), "--format", "json"])
    assert code == 0 and json.loads(out)["admissible"]
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    assert code == 0
    assert [c["name"] for c in json.loads(out)["conditions"]][-1] == "orbit-vector-match"


def test_pipeline_coherence_analyze_solve_classify(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, _, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes])
    assert code == 0
    _, solve_out, _ = run(capsys, ["solve", "--basis", basis, "--format", "json"])
    _, classify_out, _ = run(capsys, ["classify", "--nodes", nodes, "--format", "json"])
    solved = [int(x) for x in json.loads(solve_out)["solution"]]
    assert solved == json.loads(classify_out)["orbit_vector"]


# -- malformed input files ---------------------------------------------------

# one bad file per row, each read by every subcommand that loads its kind,
# next to a good file of the same dimension; None stands for a file that
# does not exist and a str for raw file text
BAD_NODE_FILES = {
    "missing": None,
    "invalid-json": "{not json",
    "points-not-array": {"points": 3},
    "zero-denominator-pair": {"n": 1, "points": [[[1, 0]]]},
    "zero-denominator-string": {"n": 1, "points": [["1/0"]]},
    "boolean-in-pair": {"n": 1, "points": [[[True, 2]]]},
    "huge-decimal-exponent": {"n": 1, "points": [["1e999999999"]]},
    "huge-negative-decimal-exponent": {"n": 1, "points": [["-2.5E-999_999_999"]]},
    "deeply-nested": "[" * 100_000,
}
BAD_BASIS_FILES = {
    "missing": None,
    "invalid-json": "[not json",
    "functions-not-array": {"functions": 5},
    "zero-denominator-coeff": [{"exponents": [1], "coeff": [1, 0]}],
    "boolean-coeff": [{"exponents": [1], "coeff": True}],
    "fractional-exponent": [{"exponents": [1.5]}],
    "boolean-exponent": [{"exponents": [True]}],
    "exponents-not-array": [{"exponents": 2}],
    "deeply-nested": "[" * 100_000,
}


def _bad_file(tmp_path, name, content):
    path = tmp_path / f"bad-{name}.json"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif content is not None:
        write_json(path, content)
    return str(path)


@pytest.mark.parametrize(
    "command, kind, name",
    [(c, "nodes", name) for c in ("classify", "equiv", "analyze") for name in BAD_NODE_FILES]
    + [(c, "basis", name) for c in ("solve", "analyze") for name in BAD_BASIS_FILES],
)
def test_malformed_file_exits_2_with_one_error_line(command, kind, name, tmp_path, capsys):
    table = BAD_NODE_FILES if kind == "nodes" else BAD_BASIS_FILES
    bad = _bad_file(tmp_path, name, table[name])
    basis = write_json(tmp_path / "basis.json", ["x1"])
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[5]]})
    argv = {
        "classify": ["classify", "--nodes", bad],
        "equiv": ["equiv", nodes, bad],
        "solve": ["solve", "--basis", bad],
        "analyze": ["analyze", "--basis", bad if kind == "basis" else basis,
                    "--nodes", bad if kind == "nodes" else nodes],
    }[command]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", ['{"n": 1, "points": [[1], [2', b"\xff\xfe{}"], ids=["json-syntax", "not-utf-8"])
@pytest.mark.parametrize("command", ["equiv", "analyze"])
def test_an_unreadable_file_is_named_in_the_error(command, content, tmp_path, capsys):
    # equiv's second file, analyze's basis: the other file given is good
    bad = tmp_path / "bad-input.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[5]]})
    argv = ["equiv", nodes, str(bad)] if command == "equiv" else ["analyze", "--basis", str(bad), "--nodes", nodes]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert nodes not in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs an endless file")
@pytest.mark.parametrize("command", ["classify", "equiv", "solve", "analyze"])
def test_an_endless_file_is_refused_after_the_input_limit(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(nodeset, "MAX_INPUT_BYTES", 1000)
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[5]]})
    basis = write_json(tmp_path / "basis.json", ["x1"])
    argv = {
        "classify": ["classify", "--nodes", "/dev/zero"],
        "equiv": ["equiv", nodes, "/dev/zero"],
        "solve": ["solve", "--basis", "/dev/zero"],
        "analyze": ["analyze", "--basis", basis, "--nodes", "/dev/zero"],
    }[command]
    start = time.perf_counter()
    result = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert result == (2, "", "error: /dev/zero: the file has more than 1000 bytes, the most symlag reads\n")


def test_a_file_of_exactly_the_input_limit_is_read(monkeypatch, tmp_path, capsys):
    text = json.dumps({"n": 1, "points": [[5]]})
    monkeypatch.setattr(nodeset, "MAX_INPUT_BYTES", len(text) + 10)
    nodes = tmp_path / "nodes.json"
    nodes.write_text(text + " " * 10, encoding="utf-8")
    assert run(capsys, ["classify", "--nodes", str(nodes)])[0] == 0
    nodes.write_text(text + " " * 11, encoding="utf-8")
    message = f"error: {nodes}: the file has more than {len(text) + 10} bytes, the most symlag reads\n"
    assert run(capsys, ["classify", "--nodes", str(nodes)]) == (2, "", message)


# Python reads an int of at most sys.get_int_max_str_digits() digits, 4300
# unless set otherwise; symlag keeps that limit and says so in its own words
DIGIT_LIMIT = sys.get_int_max_str_digits()
TOO_LONG = "1" + "0" * (DIGIT_LIMIT + 699)


@pytest.mark.parametrize("kind, text", [
    ("nodes", '{"n": 1, "points": [[%s]]}' % TOO_LONG),
    ("basis", '[{"exponents": [1], "coeff": %s}]' % TOO_LONG),
    ("basis", '[{"exponents": [1], "coeff": [1, %s]}]' % TOO_LONG),
], ids=["coordinate", "coeff", "coeff-denominator"])
def test_json_integer_beyond_the_digit_limit_is_named(kind, text, tmp_path, capsys):
    bad = _bad_file(tmp_path, "long", text)
    argv = ["classify", "--nodes", bad] if kind == "nodes" else ["solve", "--basis", bad]
    message = f"error: {bad}: a JSON integer has more than {DIGIT_LIMIT} digits, the most symlag reads\n"
    assert run(capsys, argv) == (2, "", message)
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


@pytest.mark.parametrize("text", [TOO_LONG, f"1/{TOO_LONG}", f"0.{TOO_LONG}", f"1e{TOO_LONG}"],
                         ids=["integer", "denominator", "decimal", "exponent"])
def test_number_string_beyond_the_digit_limit_is_named(text, tmp_path, capsys):
    message = f"number {text[:20]}... has more than {DIGIT_LIMIT} digits, the most symlag reads"
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[text]]})
    assert run(capsys, ["classify", "--nodes", nodes]) == (2, "", f"error: {message}\n")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nodes", nodes, "--snap-tol", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.splitlines()[-1] == f"symlag classify: error: argument --snap-tol: {message}"
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


def test_determinant_beyond_the_digit_limit_is_written_in_full(tmp_path, capsys):
    # 1, x1, ..., x1^39 on 0, 10^6, ..., 39 * 10^6: a legal, unisolvent pair
    # whose Vandermonde determinant has 18,126 bits, 5,457 digits
    basis = write_json(tmp_path / "basis.json", ["1"] + [f"x1^{k}" for k in range(1, 40)])
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[k * 10**6] for k in range(40)]})
    det = prod(10**6 * (j - i) for i, j in combinations(range(40), 2))
    assert det.bit_length() == 18126
    argv = ["analyze", "--basis", basis, "--nodes", nodes, "--format"]
    code, out, err = run(capsys, argv + ["json"])
    table_code, table, table_err = run(capsys, argv + ["table"])
    assert (code, err, table_code, table_err) == (0, "", 0, "")
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT
    sys.set_int_max_str_digits(0)  # for this test's own reading of the digits
    try:
        assert json.loads(out)["determinant"] == [det, 1]
        assert table.endswith(f"determinant (exact): {det}\nverdict: unisolvent\n")
    finally:
        sys.set_int_max_str_digits(DIGIT_LIMIT)


# a coordinate symlag reads but whose value, or whose snap's delta, has more
# digits than the output writes: 10^4999, and 10^-5000 snapped onto 0
@pytest.mark.parametrize("command", ["classify", "equiv", "analyze"])
@pytest.mark.parametrize("text, snap_tol", [("1e4999", None), ("1e4999", "1e-6"), ("1e-5000", None), ("1e-5000", "1")])
def test_coordinate_beyond_the_digit_limit_of_the_output_is_refused(command, text, snap_tol, tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"n": 1, "points": [[text]]})
    good = write_json(tmp_path / "good.json", {"n": 1, "points": [[5]]})
    argv = {
        "classify": ["classify", "--nodes", bad],
        "equiv": ["equiv", good, bad],
        "analyze": ["analyze", "--basis", write_json(tmp_path / "basis.json", ["1"]), "--nodes", bad],
    }[command] + (["--snap-tol", snap_tol] if snap_tol else [])
    message = f"error: coordinate {text!r} needs more than {DIGIT_LIMIT} digits, the most symlag writes\n"
    assert run(capsys, argv) == (2, "", message)


# monomial shorthand is read in one place, which names Python's digit limit
# as exact_decimal does, whether the number is a variable index or an exponent
# and whether n is given or inferred from the indices
TOO_LONG_INDEX = "1" * (DIGIT_LIMIT + 700)


@pytest.mark.parametrize("command", ["solve", "analyze"])
@pytest.mark.parametrize("basis", [
    ["x" + TOO_LONG_INDEX],
    ["x1", "x2*x" + TOO_LONG_INDEX],
    {"n": 1, "functions": ["x" + TOO_LONG_INDEX]},
    ["x1^" + TOO_LONG_INDEX],
    {"n": 1, "functions": ["1", "x1^" + TOO_LONG_INDEX]},
], ids=["index", "index-later", "index-given-n", "exponent", "exponent-given-n"])
def test_monomial_number_beyond_the_digit_limit_is_named(command, basis, tmp_path, capsys):
    path = write_json(tmp_path / "basis.json", basis)
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[5]]})
    argv = ["solve", "--basis", path] if command == "solve" else ["analyze", "--basis", path, "--nodes", nodes]
    message = f"error: number {TOO_LONG_INDEX[:20]}... has more than {DIGIT_LIMIT} digits, the most symlag reads\n"
    assert run(capsys, argv) == (2, "", message)
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


# input echoed in an error message is cut; each file is valid JSON whose
# malformed part is long or deep
NESTED = json.loads("[" * 500 + "1" + "]" * 500)
LONG_ECHO_NODES = {
    "nested-coordinate": {"n": 1, "points": [[NESTED]]},
    "nested-n": {"n": NESTED, "points": [[1]]},
    "long-point": {"points": [{"k": "v" * 5000}]},
    "long-zero-denominator": {"n": 1, "points": [["1" * 4000 + "/0"]]},
    "long-decimal-exponent": {"n": 1, "points": [["1" * 4000 + "e99999"]]},
    "point-of-wrong-dimension": {"n": 1, "points": [["0." + "3" * 1000] * 20]},
}
LONG_ECHO_BASES = {
    "nested-function": [NESTED],
    "nested-term": [[NESTED]],
    "nested-exponents": [{"exponents": NESTED}],
    "long-exponents": {"n": 1, "functions": [{"exponents": [1] * 5000}]},
    "nested-coeff": [{"exponents": [1], "coeff": NESTED}],
    "long-zero-coeff": [{"exponents": [1], "coeff": [10**4000, 0]}],
    "long-monomial": ["x1*" * 5000 + "y1"],
    "long-bad-index": ["x0*" + "x1*" * 5000],
    "index-beyond-n": {"n": 1, "functions": ["x" + "9" * 4000]},
    "negative-exponent": {"n": 2, "functions": [{"exponents": [-(10**4000), 1]}]},
}


@pytest.mark.parametrize(
    "command, kind, name",
    [(c, "nodes", name) for c in ("classify", "analyze") for name in LONG_ECHO_NODES]
    + [(c, "basis", name) for c in ("solve", "analyze") for name in LONG_ECHO_BASES],
)
def test_echoed_input_is_cut(command, kind, name, tmp_path, capsys):
    content = (LONG_ECHO_NODES if kind == "nodes" else LONG_ECHO_BASES)[name]
    bad = write_json(tmp_path / "bad.json", content)
    basis = write_json(tmp_path / "basis.json", ["x1"])
    nodes = write_json(tmp_path / "nodes.json", {"n": 1, "points": [[5]]})
    argv = {
        "classify": ["classify", "--nodes", bad],
        "solve": ["solve", "--basis", bad],
        "analyze": ["analyze", "--basis", bad if kind == "basis" else basis,
                    "--nodes", bad if kind == "nodes" else nodes],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 160, err[:300]


# a dimension read from a file must be an int from 1 to MAX_DIMENSION = 24
BAD_DIMENSION_FILES = {
    "nodes-n-string": ("nodes", {"n": "2", "points": [[1, 2], [2, 1]]}, 'the node file\'s "n" must be a positive integer'),
    "nodes-n-float": ("nodes", {"n": 2.0, "points": [[1, 2], [2, 1]]}, 'the node file\'s "n" must be a positive integer'),
    "nodes-n-true": ("nodes", {"n": True, "points": [[1]]}, 'the node file\'s "n" must be a positive integer'),
    "nodes-n-zero": ("nodes", {"n": 0, "points": []}, 'the node file\'s "n" must be a positive integer'),
    "nodes-n-25": ("nodes", {"n": 25, "points": [[1] * 25]}, 'the node file\'s "n" is 25'),
    "nodes-point-25": ("nodes", {"points": [[1] * 25]}, "a point's dimension is 25"),
    "basis-n-string": ("basis", {"n": "2", "functions": ["x1", "x2"]}, 'the basis file\'s "n" must be a positive integer'),
    "basis-n-float": ("basis", {"n": 2.0, "functions": ["x1", "x2"]}, 'the basis file\'s "n" must be a positive integer'),
    "basis-n-true": ("basis", {"n": True, "functions": ["x1"]}, 'the basis file\'s "n" must be a positive integer'),
    "basis-n-25": ("basis", {"n": 25, "functions": ["x1"]}, 'the basis file\'s "n" is 25'),
    "basis-exponents-25": ("basis", [{"exponents": [1] + [0] * 24}], "the basis dimension is 25"),
    "basis-index-huge": ("basis", ["x99999999"], "the basis dimension is 99999999"),
    "basis-index-huge-later": ("basis", ["x1", "x99999999"], "the basis dimension is 99999999"),
}


@pytest.mark.parametrize("name", BAD_DIMENSION_FILES)
def test_bad_dimension_exits_2_with_one_error_line(name, tmp_path, capsys):
    kind, content, message = BAD_DIMENSION_FILES[name]
    bad = write_json(tmp_path / "bad.json", content)
    argv = ["classify", "--nodes", bad] if kind == "nodes" else ["solve", "--basis", bad]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["types", "vmatrix", "kmatrix", "solve", "analyze"])
def test_n_flag_is_bounded_by_max_dimension(command, tmp_path, capsys):
    files = {"solve": ["--basis", "b.json"], "analyze": ["--basis", "b.json", "--nodes", "n.json"]}
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "200", *files.get(command, [])])
    assert time.perf_counter() - start < 5
    assert exc.value.code == 2
    assert "argument --n: must be at most 24" in capsys.readouterr().err


def test_classify_hostile_snap_tol_exits_2(tmp_path, capsys):
    # F(3001)/F(3000) to 1400 digits: snapping at 1e-1300 would take about
    # 3000 continued-fraction terms
    a, b = 0, 1
    for _ in range(3001):
        a, b = b, a + b
    digits = str(a * 10**1400 // (b - a))
    nodes = write_json(tmp_path / "hostile.json", {"n": 1, "points": [[f"{digits[:-1400]}.{digits[-1400:]}"]]})
    code, out, err = run(capsys, ["classify", "--nodes", nodes, "--snap-tol", "1e-1300"])
    assert code == 2 and out == ""
    assert err.startswith("error: snapping needs more than") and err.count("\n") == 1


# -- ingestion paths -----------------------------------------------------------
# Expected outputs taken from the CLI before the nodes were cleared from
# their value table.

def test_a_node_file_may_be_a_bare_list_of_points(tmp_path, capsys):
    nodes = write_json(tmp_path / "nodes.json", [[1, 2], [2, 1]])
    out = "2 points in R^2, 1 orbits, orbit vector (0, 1)\n  type (2, 0)  size   2  representative (1, 2)\n"
    assert run(capsys, ["classify", "--nodes", nodes]) == (0, out, "")


def test_an_integer_coefficient_is_a_whole_number(tmp_path, capsys):
    # rows 3*x2 and 3*x1 at (1, 2) and (2, 1): det [[6, 3], [3, 6]] = 27
    functions = [[{"exponents": [1, 0], "coeff": 3}], [{"exponents": [0, 1], "coeff": 3}]]
    basis = write_json(tmp_path / "basis.json", {"n": 2, "functions": functions})
    nodes = write_json(tmp_path / "nodes.json", [[1, 2], [2, 1]])
    code, out, err = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["determinant"] == [27, 1] and payload["verdict"] == "unisolvent"


@pytest.mark.parametrize("argv, content, message", [
    (["solve", "--basis"], {"n": 2}, "basis file needs a 'functions' array"),
    (["solve", "--n", "4", "--basis"], {"n": 3, "functions": ["x1", "x2", "x3"]},
     "basis file says n=3, caller says n=4"),
    (["classify", "--nodes"], {"n": 2}, "node file needs a 'points' array"),
], ids=["no-functions", "basis-n-against-flag", "no-points"])
def test_a_file_without_its_array_or_with_another_n_is_refused(argv, content, message, tmp_path, capsys):
    path = write_json(tmp_path / "input.json", content)
    assert run(capsys, [*argv, path]) == (2, "", f"error: {message}\n")


def test_n_flag_that_is_no_integer_says_so(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["types", "--n", "abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --n: 'abc' is not an integer\n")


# -- remaining error paths ----------------------------------------------------

def test_solve_asymmetric_basis_is_input_error(tmp_path, capsys):
    basis = write_json(tmp_path / "asym.json", ["x1^2", "x2"])
    code, _, err = run(capsys, ["solve", "--basis", basis])
    assert code == 2
    assert "not symmetric" in err


def test_analyze_dimension_mismatch_between_files(tmp_path, capsys):
    basis = write_json(tmp_path / "b2.json", ["x1", "x2"])
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, _, err = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes])
    assert code == 2
    assert "R^2" in err and "R^3" in err


def test_kmatrix_table_output(capsys):
    code, out, _ = run(capsys, ["kmatrix", "--n", "3"])
    assert code == 0
    assert "lower triangular: True" in out


def test_classify_table_output(tmp_path, capsys):
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, out, _ = run(capsys, ["classify", "--nodes", nodes])
    assert code == 0
    assert "orbit vector (0, 2, 0)" in out
    assert out.count("type (1, 1, 0)") == 2


def test_types_table_n1(capsys):
    code, out, _ = run(capsys, ["types", "--n", "1"])
    assert code == 0
    assert "(1)" in out


def test_analyze_n1_degenerate_dimension(tmp_path, capsys):
    basis = write_json(tmp_path / "b1.json", ["x1"])
    nodes = write_json(tmp_path / "n1.json", {"n": 1, "points": [[5]]})
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "unisolvent"
    assert payload["determinant"] == [5, 1]
