"""CLI subcommands: exit codes, JSON determinism, file handling."""
import hashlib
import json
import time
from itertools import combinations_with_replacement, permutations

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


@pytest.mark.parametrize("tol", ["inf", "nan", "1e-999999999"])
def test_snap_tol_must_be_a_finite_number_of_bounded_size(tol, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nodes", "x.json", "--snap-tol", tol])
    assert time.perf_counter() - start < 5
    assert exc.value.code == 2
    assert "error: argument --snap-tol" in capsys.readouterr().err


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


# SHA-256 of `--format json` and `--format table` stdout for fixed inputs.
# The symlag/1 schema promises the JSON bytes across versions; changing them
# needs a schema bump.  vmatrix-12, vmatrix-13 and kmatrix-16 are the sizes
# the `tables` benchmark workload runs; solve-td-16-2 (total degree 2 in
# R^16) runs the V X = r solve at a size where its algorithm shows.
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
    "solve-td-4-3": "41fcc04c35d4ecd6f65106b93783f90675ca9b9a98e66cae9ba4db7d207c89d0",
    "solve-td-16-2": "feeb1f7a9cde0bc7d0ba08b8266cce195d6755a81302c806144c41d0cec429e7",
    "analyze-unisolvent": "bcd74a649f499e204b11dafe8fb3ef710b1fa42eb6434ce60f19c68b3e57699f",
    "analyze-singular": "a27dadbde6c6637ef574b44cbc07a2e294d1e3497521907a76b2ef58e0c84cdf",
    "analyze-td-4-3": "e554503cd4386b421679a5a8545f0c733bcf12df6b8c2b569d56b0763f4ed171",
    "types-4": "21fdfbc0ec2021b5de1432e4cd331cd27e625e722e4e5ef75eb81b22d85fa194",
    "classify-exact": "0a27819485672feb01b3688039e1c8540bb010a41f40b1df0f34f6aa520100c3",
    "classify-snapped": "c7e8a423c077c1cd319c5f21925e2e38d9ce1ccc5d03661b0e734a6b78e745cb",
    "equiv-td-4-3": "dde61b4e426fa5fa52eb4e16ab29c4b3cfeab6df94e305a295d5c96c3d64dfae",
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
    "types-4": "09efbc00fe91120912913e06b8d160f2081648d596edf95d2a2fcceccb22ed21",
    "classify-exact": "e5be949c14645b0b9cf55c0452c8b6ae1c8362934b24ca748c04cfc09f42bc61",
    "classify-snapped": "13f9fcbb35e10d55d279a3c28e27138f0eb47aa001a56de73786cf538ada9edc",
    "equiv-td-4-3": "e5dab104c791a53d177bccc4901aaf78bea50ccab97271cb4871ad471519753b",
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


def _td43_nodes(tmp_path, orbits=TD43_ORBITS, name="td43-nodes.json"):
    # the sorted node set interleaves the orbits, so the determinant's
    # sign depends on how the symmetry blocks are put back in order
    points = sorted({p for rep in orbits for p in permutations(rep)}, key=str)
    return write_json(tmp_path / name, {"n": 4, "points": [list(p) for p in points]})


def _pinned_argv(name, tmp_path):
    command, _, arg = name.partition("-")
    if command in ("vmatrix", "kmatrix", "types"):
        return [command, "--n", arg]
    if command == "solve":
        n, d = map(int, arg.split("-")[1:])
        return ["solve", "--basis", _td_basis(tmp_path, n, d)]
    if command == "classify" and arg == "exact":
        return ["classify", "--nodes", _td43_nodes(tmp_path)]
    if command == "classify":
        decimal = [tuple(TD43_DECIMAL.get(str(x), x) for x in rep) for rep in TD43_ORBITS]
        return ["classify", "--nodes", _td43_nodes(tmp_path, decimal), "--snap-tol", "1e-6"]
    if command == "equiv":
        return ["equiv", _td43_nodes(tmp_path), _td43_nodes(tmp_path, TD43_OTHER_ORBITS, "td43-other.json")]
    if arg == "td-4-3":
        return ["analyze", "--basis", _td_basis(tmp_path, 4, 3), "--nodes", _td43_nodes(tmp_path)]
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
