"""Command-line interface: exit codes, determinism, formats."""

import json

import pytest

from lie2check import serialize
from lie2check.bundle import (
    AnchoredBundle, BaseSpace, DullBracket, LieAlgebroidData,
)
from lie2check.cli import RECIPES, main
from lie2check.courant import DiracData
from lie2check.examples import EXAMPLES, build_example
from lie2check.exactpoly import EXP_BOUND, Polynomial, PolyMatrix

SOUND = sorted(n for n in EXAMPLES if not n.startswith("broken_"))
BROKEN = sorted(n for n in EXAMPLES if n.startswith("broken_"))

DIRAC_EXAMPLES = {"so3_e3_dirac", "broken_so3_e12_dirac"}


def _emit(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(["example", name, "--out", str(path)]) == 0
    return path


def test_every_sound_example_checks_clean(tmp_path):
    for name in SOUND:
        path = _emit(tmp_path, name)
        if name in DIRAC_EXAMPLES:
            continue
        assert main(["check", str(path), "--out",
                     str(tmp_path / "r.txt")]) == 0, name


def test_every_broken_example_fails_with_advertised_labels(tmp_path):
    for name in BROKEN:
        path = _emit(tmp_path, name)
        expect = json.loads(path.read_text())["expect_fail"]
        out = tmp_path / "rep.json"
        if name in DIRAC_EXAMPLES:
            struct = _emit(tmp_path, "so3_lie2")
            code = main(["check", "--mode", "dirac-vb", str(struct),
                         str(path), "--format", "json", "--out", str(out)])
        else:
            code = main(["check", str(path), "--format", "json",
                         "--out", str(out)])
        assert code == 1, name
        report = json.loads(out.read_text())
        failing = {c["label"] for c in report["checks"] if not c["passed"]}
        assert set(expect) <= failing, (name, expect, sorted(failing))


def test_unknown_example_lists_names(capsys):
    assert main(["example", "definitely_not_a_name"]) == 2
    err = capsys.readouterr().err
    assert "so3_string" in err


def test_schema_error_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "kind": "nope"}')
    assert main(["check", str(bad)]) == 2
    bad.write_text("not json")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def _first_term(doc):
    """The first polynomial term ({"coeff", "exps"}) with an exponent."""
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if set(node) == {"coeff", "exps"} and node["exps"]:
                return node
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    raise AssertionError("no polynomial term in the document")


@pytest.mark.parametrize("field, value", [
    ("coeff", "1/0"), ("coeff", True),
    ("exps", -1), ("exps", 1.5), ("exps", "1"), ("exps", True),
    ("exps", EXP_BOUND),
])
def test_malformed_polynomial_term_is_exit_2(tmp_path, capsys, field, value):
    path = _emit(tmp_path, "tm_r1_lie1")
    doc = json.loads(path.read_text())
    term = _first_term(doc)
    if field == "coeff":
        term["coeff"] = value
    else:
        term["exps"][0] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _payload(name):
    """The fields of an example's document, without format and kind."""
    doc = serialize.encode_structure(build_example(name)[0])
    return {k: v for k, v in doc.items() if k not in ("format", "kind")}


@pytest.mark.parametrize("example, field, value", [
    ("tm_r1_lie1", "base_dim", "abc"), ("tm_r1_lie1", "base_dim", -1),
    ("tm_r1_lie1", "base_dim", None), ("tm_r1_lie1", "base_dim", 1.0),
    ("tm_r1_lie1", "base_dim", True), ("tm_r1_lie1", "bracket", 5),
    ("tm_r1_lie1", "bracket", [[5]]), ("so3_e3_dirac", "U", 5),
    ("so3_e3_dirac", "U", [5]), ("so3_e3_dirac", "rank_q", "a"),
    ("so3_e3_dirac", "U", [[[]], [[]], [[]]]),
    ("so3_symplectic_pair", "selfdual", 5),
    ("standard_courant_r1", "kind", []), ("standard_courant_r1", "kind", {}),
    ("tm_r1_lie1", "anchor/0/0", {}), ("tm_r1_lie1", "anchor/0/0", ""),
    ("tm_r1_lie1", "bracket/0/0/0", {}), ("tm_r1_lie1", "bracket/0/0/0", ""),
    ("euclidean_curved_r2", "curvB", {}), ("euclidean_curved_r2", "curvB", ""),
    ("tm_r1_lie1", "format", True), ("tm_r1_lie1", "format", 1.0),
    ("tm_r1_lie1", "name", 5), ("broken_so3_bad_jacobi", "expect_fail", "zz"),
    ("broken_so3_bad_jacobi", "expect_fail", [5]),
    # a Dorfman half whose B has rank 0 against a self-dual half of rank 3
    ("so3_symplectic_pair", "dorfman", _payload("so3_lie2")),
])
def test_malformed_field_is_exit_2(tmp_path, capsys, example, field, value):
    """``field`` is a top-level field or a "/"-separated path into one."""
    path = _emit(tmp_path, example)
    doc = json.loads(path.read_text())
    *parents, last = field.split("/")
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    path.write_text(json.dumps(doc))
    inputs = [str(path)]
    if example in DIRAC_EXAMPLES:
        inputs = ["--mode", "dirac-vb", str(_emit(tmp_path, "so3_lie2")),
                  str(path)]
    capsys.readouterr()
    assert main(["check", *inputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", [1.5, True, "1", None, -1])
def test_malformed_tensor_index_is_exit_2(tmp_path, capsys, value):
    path = _emit(tmp_path, "euclidean_curved_r2")
    doc = json.loads(path.read_text())
    doc["curvB"][0]["idx"][1] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_json_reports_are_byte_identical(tmp_path):
    path = _emit(tmp_path, "so3_symplectic_pair")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert main(["check", str(path), "--format", "json", "--seed", "7",
                     "--out", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["seed"] == 7
    assert report["format"] == 1
    assert report["tool_version"]
    assert len(report["input_digest"]) == 64
    assert all(set(c) == {"label", "ref", "passed", "witness", "residual"}
               for c in report["checks"])


def test_example_output_is_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["example", "so3_string", "--out", str(p1)]) == 0
    assert main(["example", "so3_string", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_witness_printed_for_bad_jacobi(tmp_path, capsys):
    path = _emit(tmp_path, "broken_so3_bad_jacobi")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "(q1, q2" in out


def test_format_env_default(tmp_path, monkeypatch):
    path = _emit(tmp_path, "so3_quadratic")
    out = tmp_path / "r.out"
    monkeypatch.setenv("LIE2CHECK_FORMAT", "json")
    assert main(["check", str(path), "--out", str(out)]) == 0
    json.loads(out.read_text())
    monkeypatch.setenv("LIE2CHECK_FORMAT", "bogus")
    assert main(["check", str(path), "--out", str(out)]) == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.read_text())


def test_construct_core_courant_equals_quadratic(tmp_path):
    pair = _emit(tmp_path, "so3_symplectic_pair")
    quad = _emit(tmp_path, "so3_quadratic")
    out = tmp_path / "cc.json"
    assert main(["construct", "core-courant", str(pair),
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads(quad.read_text())
    want.pop("name")
    assert got == want


def test_construct_change_splitting_zero_phi_is_byte_identical(tmp_path):
    split = _emit(tmp_path, "so3_string")
    dorf = tmp_path / "dorf.json"
    assert main(["construct", "dorfman-from-split", str(split),
                 "--out", str(dorf)]) == 0
    out = tmp_path / "shift.json"
    assert main(["construct", "change-splitting", str(dorf), "--phi", "zero",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == dorf.read_bytes()


def test_construct_bicrossproduct_trivial_core_has_zero_l3(tmp_path):
    pair = _emit(tmp_path, "axb_matched")
    out = tmp_path / "bx.json"
    assert main(["construct", "bicrossproduct", str(pair),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "splitlie2"
    assert doc["l3"] == []
    assert main(["check", str(out)]) == 0


def test_construct_outputs_pass_their_checkers(tmp_path):
    split = _emit(tmp_path, "so3_string")
    pair = _emit(tmp_path, "so3_poisson_pair")
    dirac = _emit(tmp_path, "so3_e3_dirac")
    steps = [
        (["construct", "dorfman-from-split", str(split)], "d.json", []),
        (["construct", "manin-pair", str(pair), str(dirac)], "m.json", []),
        (["construct", "induced-la", str(pair), str(dirac)], "i.json", []),
        (["construct", "adjoint", str(_emit(tmp_path, "so3_quadratic"))],
         "a.json", []),
    ]
    for argv, fname, extra in steps:
        out = tmp_path / fname
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert main(["check", str(out)] + extra) == 0, argv


def _zero_algebroid_file(tmp_path, base_dim, rank):
    """A rank-``rank`` algebroid over R^base_dim with zero bracket,
    anchored by the projection onto the first min(rank, base_dim) frames."""
    anchor = PolyMatrix(base_dim, base_dim, rank)
    for m in range(min(rank, base_dim)):
        anchor[m, m] = Polynomial.const(base_dim, 1)
    bundle = AnchoredBundle(BaseSpace(base_dim), rank, anchor)
    z = Polynomial.zero(base_dim)
    comps = [[[z] * rank for _ in range(rank)] for _ in range(rank)]
    path = tmp_path / f"alg_{base_dim}_{rank}.json"
    path.write_text(serialize.dumps(serialize.encode_structure(
        LieAlgebroidData(bundle, DullBracket(bundle, comps)))))
    return path


def test_construct_standard_passes_the_dorfman_check(tmp_path):
    out = tmp_path / "standard.json"
    assert main(["construct", "standard", str(_zero_algebroid_file(
        tmp_path, 1, 2)), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rank_b"] == 1
    assert main(["check", "--mode", "dorfman", str(out),
                 "--out", str(tmp_path / "r.txt")]) == 0


def test_construct_standard_rank_below_base_is_exit_1(tmp_path, capsys):
    alg = _zero_algebroid_file(tmp_path, 2, 1)
    capsys.readouterr()
    assert main(["construct", "standard", str(alg)]) == 1
    assert "precondition failed" in capsys.readouterr().err


def test_construct_precondition_failure_is_exit_1(tmp_path, capsys):
    split = _emit(tmp_path, "so3_string")
    assert main(["construct", "decompose", str(split), "--rank-a", "2"]) == 1
    assert "precondition failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--mode", "dirac-vb"], ["check", "--mode", "dirac-la-sub"],
    ["check", "--mode", "dirac-la"], ["construct", "manin-pair"],
    ["construct", "induced-la"],
], ids=lambda argv: argv[-1])
@pytest.mark.parametrize("u_incl, bprime_incl", [
    # so3_poisson_pair has rank Q = 3, rank B = 0, base dimension 1
    (PolyMatrix.identity(1, 3), PolyMatrix.identity(1, 3)),
    (PolyMatrix.identity(1, 2), PolyMatrix(1, 0, 0)),
    (PolyMatrix.identity(2, 3), PolyMatrix(2, 0, 0)),
], ids=["bprime_rows", "u_rows", "base_dim"])
def test_dirac_file_of_the_wrong_shape_is_exit_2(tmp_path, capsys, argv,
                                                 u_incl, bprime_incl):
    pair = _emit(tmp_path, "so3_poisson_pair")
    dirac = tmp_path / "d.json"
    dirac.write_text(serialize.dumps(serialize.encode_structure(
        DiracData(u_incl, bprime_incl))))
    capsys.readouterr()
    assert main([*argv, str(pair), str(dirac)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dirac ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", [{}, 5], ids=["object", "int"])
@pytest.mark.parametrize("example, recipe, option", [
    ("semidirect_flat", "change-splitting", "--phi"),
    ("so3_lie2", "change-splitting", "--phi"),
    ("so3_quadratic", "adjoint", "--connection"),
])
def test_malformed_side_file_is_exit_2(tmp_path, capsys, example, recipe,
                                       option, value):
    side = tmp_path / "side.json"
    side.write_text(json.dumps(value))
    capsys.readouterr()
    assert main(["construct", recipe, str(_emit(tmp_path, example)),
                 option, str(side)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option[2:]} file {side}: ") \
        and err.count("\n") == 1, err


@pytest.mark.parametrize("rank_a", ["-1", "99"])
def test_decompose_rank_a_out_of_range_is_exit_2(tmp_path, capsys, rank_a):
    split = _emit(tmp_path, "so3_string")
    capsys.readouterr()
    assert main(["construct", "decompose", str(split),
                 "--rank-a", rank_a]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# a structure file each single-input recipe accepts, and its options
_ONE_FILE_RECIPES = {
    "dorfman-from-split": ["so3_string"],
    "split-from-dorfman": ["so3_lie2"],
    "bicrossproduct": ["axb_matched"],
    "decompose": ["so3_string", "--rank-a", "0"],
    "core-courant": ["so3_poisson_pair"],
    "adjoint": ["so3_quadratic"],
    "standard": ["tm_r2_algebroid"],
    "semidirect": ["tm_r1_identity_2rep"],
    "change-splitting": ["so3_lie2"],
    "dualize-2rep": ["tm_r1_identity_2rep"],
}


@pytest.mark.parametrize("recipe", sorted(
    set(RECIPES) - {"manin-pair", "induced-la"}))
def test_construct_second_path_is_exit_2(tmp_path, capsys, recipe):
    example, *options = _ONE_FILE_RECIPES[recipe]
    path = _emit(tmp_path, example)
    capsys.readouterr()
    assert main(["construct", recipe, str(path), str(path), *options]) == 2
    err = capsys.readouterr().err
    assert err == f"error: recipe {recipe!r} takes a single input file\n", err


def test_mode_mismatch_is_exit_2(tmp_path):
    quad = _emit(tmp_path, "so3_quadratic")
    assert main(["check", "--mode", "la-pair", str(quad)]) == 2
    dirac = _emit(tmp_path, "so3_e3_dirac")
    assert main(["check", str(dirac)]) == 2


@pytest.mark.parametrize("command", ["check", "construct", "example"])
@pytest.mark.parametrize("where", ["missing_dir", "is_a_dir"])
def test_unwritable_out_path_is_exit_2(tmp_path, capsys, command, where):
    split = _emit(tmp_path, "so3_string")
    argv = {"check": ["check", str(split)],
            "construct": ["construct", "dorfman-from-split", str(split)],
            "example": ["example", "so3_string"]}[command]
    out = tmp_path / "missing" / "r.json" if where == "missing_dir" \
        else tmp_path
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") \
        and err.count("\n") == 1, err
