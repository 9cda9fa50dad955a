"""CLI subcommands: exit codes, JSON determinism, file handling."""
import hashlib
import json
import time
from itertools import permutations, product

import pytest

from symlag.cli import main

from conftest import QUADRATIC_EXPONENTS


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


def test_analyze_float_path(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 1, 0, 0, 1)
    code, out, _ = run(
        capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--float", "--format", "json"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["determinant_mode"] == "float"
    assert isinstance(payload["determinant"], float)


def test_analyze_float_huge_tolerance_is_indeterminate(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 1, 0, 0, 1)
    code, out, _ = run(
        capsys,
        ["analyze", "--basis", basis, "--nodes", nodes, "--float", "--det-tol", "1.0",
         "--format", "json"],
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["verdict"] == "numerically-indeterminate"


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


def test_analyze_huge_exponents_on_zero_one_nodes(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", ["x1^999999999", "x2^999999999"])
    nodes = write_json(tmp_path / "nodes.json", {"n": 2, "points": [[0, 1], [1, 0]]})
    code, out, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "unisolvent" and payload["determinant"] == [1, 1]


def test_analyze_json_output_is_byte_identical(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    argv = ["analyze", "--basis", basis, "--nodes", nodes, "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# SHA-256 of `--format json` stdout for fixed inputs.  The symlag/1 schema
# promises these bytes across versions; changing them needs a schema bump.
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
    "kmatrix-1": "33d5dd9f236b523545e0ea414dcc7f3f9f25cab90537177ad14f1dd73b3c012c",
    "kmatrix-2": "2278dd4a9fb78a603da719e75a24573a36255fe6cd5ed7662ed4a2438fe40406",
    "kmatrix-3": "1dd87a1cc2f5eba1337f8d74fb07d3e913875f50fc05ae0f2ed435312ca9dbab",
    "kmatrix-4": "ed37d89575e403bd238c00a3abac7888c4038d9b223fb96aa9075e820fb61737",
    "kmatrix-5": "d289ef8a842906417fa21c85748e8553b5e7c592ab14aec9c0d489f3655a2b22",
    "kmatrix-6": "92511aac6220292ccbf6c56cf4517282fc3d9c777b51347330cd4e1f4e5a857c",
    "kmatrix-7": "4621fe9be7eb8ba451f7691a5a14291b0c7ce00056f55e8fd2cd74925e7431e4",
    "kmatrix-8": "0ea442d8d4de74600fefb6c16819fdbbfbe27f8f706921c62ec7a6e54764e4f7",
    "kmatrix-9": "443a1abf4ec965a69db45aee1f8718d319ded0e2fc2df210ec7c674d62ea46a9",
    "solve-td-4-3": "41fcc04c35d4ecd6f65106b93783f90675ca9b9a98e66cae9ba4db7d207c89d0",
    "analyze-unisolvent": "bcd74a649f499e204b11dafe8fb3ef710b1fa42eb6434ce60f19c68b3e57699f",
    "analyze-singular": "a27dadbde6c6637ef574b44cbc07a2e294d1e3497521907a76b2ef58e0c84cdf",
    "analyze-td-4-3": "e554503cd4386b421679a5a8545f0c733bcf12df6b8c2b569d56b0763f4ed171",
}


# one orbit representative per orbit of the vector (1, 4, 1, 1, 0) that
# V X = r forces for total degree (4, 3); zero, negative and fractional values
TD43_ORBITS = [
    ("1/2", "1/2", "1/2", "1/2"),
    (0, 1, 1, 1), (2, -1, -1, -1), (-3, "1/3", "1/3", "1/3"), ("5/2", 2, 2, 2),
    (-2, -2, 3, 3),
    (1, "-1/2", 4, 4),
]


def _td43_basis(tmp_path):
    exponents = [list(e) for e in product(range(4), repeat=4) if sum(e) <= 3]
    return write_json(tmp_path / "td43.json", {"n": 4, "functions": [{"exponents": e} for e in exponents]})


def _pinned_argv(name, tmp_path):
    command, _, arg = name.partition("-")
    if command in ("vmatrix", "kmatrix"):
        return [command, "--n", arg]
    if command == "solve":
        return ["solve", "--basis", _td43_basis(tmp_path)]
    if arg == "td-4-3":
        # the sorted node set interleaves the orbits, so the determinant's
        # sign depends on how the symmetry blocks are put back in order
        points = sorted({p for rep in TD43_ORBITS for p in permutations(rep)}, key=str)
        nodes = write_json(tmp_path / "td43-nodes.json", {"n": 4, "points": [list(p) for p in points]})
        return ["analyze", "--basis", _td43_basis(tmp_path), "--nodes", nodes]
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    values = (0, 1, 2, 3) if arg == "unisolvent" else (2, 1, 1, [7, 4])
    return ["analyze", "--basis", basis, "--nodes", case3_file(tmp_path, *values)]


@pytest.mark.parametrize("name", PINNED_JSON_DIGESTS)
def test_json_stdout_matches_pinned_digest(name, tmp_path, capsys):
    _, out, _ = run(capsys, _pinned_argv(name, tmp_path) + ["--format", "json"])
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_DIGESTS[name]


def test_pipeline_coherence_analyze_solve_classify(tmp_path, capsys):
    basis = write_json(tmp_path / "basis.json", BASIS_38)
    nodes = case3_file(tmp_path, 0, 1, 2, 3)
    code, _, _ = run(capsys, ["analyze", "--basis", basis, "--nodes", nodes])
    assert code == 0
    _, solve_out, _ = run(capsys, ["solve", "--basis", basis, "--format", "json"])
    _, classify_out, _ = run(capsys, ["classify", "--nodes", nodes, "--format", "json"])
    solved = [int(x) for x in json.loads(solve_out)["solution"]]
    assert solved == json.loads(classify_out)["orbit_vector"]


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
