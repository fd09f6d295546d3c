"""Command-line surface tests: wire formats, exit codes, named suites."""

import io
import json
from pathlib import Path

import pytest

from transys.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_commands(capsys):
    code, out, _ = run(capsys, "group", "subgroups", "--group", "C4")
    assert code == 0
    data = json.loads(out)
    assert len(data["subgroups"]) == 3
    code, out, _ = run(capsys, "group", "subgroups", "--group", "S3")
    assert len(json.loads(out)["subgroups"]) == 6
    code, out, _ = run(capsys, "group", "show", "--group", "K4")
    data = json.loads(out)
    assert data["order"] == 4 and len(data["mul"]) == 4
    code, _, err = run(capsys, "group", "show", "--group", "Q8")
    assert code == 1 and "unknown group" in err


def test_ts_enumerate(capsys):
    code, out, _ = run(capsys, "ts", "enumerate", "--group", "C2")
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "ts", "enumerate", "--group", "C8")
    data = json.loads(out)
    assert data["count"] == 14
    code, out, _ = run(capsys, "ts", "enumerate", "--group", "C8", "--dot")
    assert code == 0
    assert out.count("[label=") == 14 and out.count(" -> ") == 21


def test_ts_enumerate_budget_exit_code(capsys):
    code, _, err = run(capsys, "ts", "enumerate", "--group", "S3",
                       "--budget", "2")
    assert code == 2 and "budget" in err


def test_ts_enumerate_budget_must_be_non_negative(capsys):
    # -3 used to be reported as a spent budget (exit 2)
    code, out, err = run(capsys, "ts", "enumerate", "--group", "C4",
                         "--budget", "-3")
    assert code == 1 and out == "" and "budget must be" in err
    code, _, err = run(capsys, "ts", "enumerate", "--group", "C4",
                       "--budget", "0")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("argv", [("ts", "enumerate"), ("group", "show"),
                                  ("group", "subgroups")])
def test_commands_without_group_rejected(argv, capsys):
    # used to escape as an AttributeError traceback from group_by_name(None)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert "needs --group" in err


def test_ts_validate_and_ops(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"group": {"kind": "cyclic", "n": 4}, "pairs": [[0, 2]]}))
    code, out, _ = run(capsys, "ts", "validate", str(bad))
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False and data["violation"]["axiom"] == "restriction"

    code, out, _ = run(capsys, "ts", "generate", str(bad))
    assert code == 0
    assert json.loads(out)["pairs"] == [[0, 1], [0, 2]]

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"group": "C4", "pairs": [[0, 1]]}))
    b.write_text(json.dumps({"group": "C4", "pairs": [[1, 2]]}))
    code, out, _ = run(capsys, "ts", "join", str(a), str(b))
    assert code == 0
    assert json.loads(out)["pairs"] == [[0, 1], [0, 2], [1, 2]]
    code, out, _ = run(capsys, "ts", "meet", str(a), str(b))
    assert json.loads(out)["pairs"] == []

    code, out, _ = run(capsys, "ts", "cogenerate", str(a))
    assert code == 0 and json.loads(out)["pairs"] == [[0, 1]]


def test_ts_meet_join_without_second_file(tmp_path, capsys):
    # used to escape as a TypeError traceback from open(None)
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"group": "C4", "pairs": [[0, 1]]}))
    for action in ("meet", "join"):
        code, out, err = run(capsys, "ts", action, str(a))
        assert code == 1 and out == "" and "Traceback" not in err
        assert "missing the JSON file argument 'other'" in err


def test_ts_meet_across_groups_names_both(tmp_path, capsys):
    # used to say only "refinement violated at reason=group mismatch"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"group": "C4", "pairs": [[0, 1]]}))
    b.write_text(json.dumps({"group": "S3", "pairs": []}))
    for action in ("meet", "join"):
        code, out, err = run(capsys, "ts", action, str(a), str(b))
        assert code == 1 and out == ""
        assert "Group(C4, order=4)" in err and "Group(S3, order=6)" in err


def test_ts_meet_join_name_the_first_operand_group(tmp_path, capsys):
    # lattices are cached per equal group, and equality ignores the name:
    # an unnamed C4 table used to lend "G" to a system read as "C4", or
    # the other way round, whichever reached the cache first
    C4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    u = tmp_path / "u.json"
    n = tmp_path / "n.json"
    u.write_text(json.dumps({"group": {"mul": C4}, "pairs": [[0, 1]]}))
    n.write_text(json.dumps({"group": "C4", "pairs": [[1, 2]]}))
    for first, second, name in ((u, n, "G"), (n, u, "C4")):
        for action, pairs in (("join", [[0, 1], [0, 2], [1, 2]]),
                              ("meet", [])):
            code, out, _ = run(capsys, "ts", action, str(first), str(second))
            data = json.loads(out)
            assert code == 0 and data["pairs"] == pairs
            assert data["group"]["name"] == name, (action, first.name)


def test_ts_catalog_group_values_of_the_wrong_type_rejected(tmp_path, capsys):
    # "4" and 4.0 used to escape as TypeError tracebacks, and true built
    # a one-element group named CTrue
    for n in ("4", 4.0, True):
        err = _missing_key(tmp_path, capsys,
                           {"group": {"kind": "cyclic", "n": n}, "pairs": []},
                           "ts", "validate")
        assert "group key 'n' must be an int" in err
    err = _missing_key(tmp_path, capsys,
                       {"group": {"kind": "direct_product", "factors": 5},
                        "pairs": []}, "ts", "validate")
    assert "group key 'factors' must be a list" in err


@pytest.mark.parametrize("name", ["C3000", "S6", "D1500"])
def test_group_over_the_order_cap_rejected(name, capsys):
    # used to build the whole Cayley table first (C3000: 1.5 s, 336 MB)
    code, out, err = run(capsys, "group", "show", "--group", name)
    assert code == 1 and out == "" and "Traceback" not in err
    assert "exceeds supported maximum 24" in err


def test_ts_group_over_the_order_cap_rejected(tmp_path, capsys):
    err = _missing_key(tmp_path, capsys,
                       {"group": {"kind": "cyclic", "n": 3000}, "pairs": []},
                       "ts", "validate")
    assert "order 3000 exceeds supported maximum 24" in err


def test_ts_negative_pair_id_rejected(tmp_path, capsys):
    # -1 used to index from the end and read as the pair (0, 2)
    rel = tmp_path / "neg.json"
    rel.write_text(json.dumps({"group": "C4", "pairs": [[0, -1]]}))
    for action in ("validate", "generate", "cogenerate"):
        code, out, err = run(capsys, "ts", action, str(rel))
        assert code == 1 and out == "" and "subgroup id" in err
    code, _, err = run(capsys, "ts", "join", str(rel), str(rel))
    assert code == 1 and "subgroup id" in err


def test_ts_out_of_range_pair_id_rejected(tmp_path, capsys):
    # 7 used to escape as an IndexError traceback
    rel = tmp_path / "big.json"
    rel.write_text(json.dumps({"group": "C4", "pairs": [[0, 7]]}))
    code, out, err = run(capsys, "ts", "validate", str(rel))
    assert code == 1 and out == "" and "id=7" in err
    code, _, err = run(capsys, "functor", "apply", "--kind", "fR",
                       "--hom", "id_C4", "--input", str(rel))
    assert code == 1 and "subgroup id" in err
    for pairs in ([[0, True]], [[0, 1.0]], [[0]], [3]):
        rel.write_text(json.dumps({"group": "C4", "pairs": pairs}))
        code, _, err = run(capsys, "ts", "generate", str(rel))
        assert code == 1 and "subgroup id" in err


def test_ts_diagonal_pair_rejected(tmp_path, capsys):
    # [1, 1] is no pair K < H; it used to be dropped and the rest accepted
    rel = tmp_path / "diag.json"
    rel.write_text(json.dumps({"group": "C4", "pairs": [[1, 1], [0, 1]]}))
    for action in ("validate", "generate", "cogenerate"):
        code, out, err = run(capsys, "ts", action, str(rel))
        assert code == 1 and out == ""
        assert "strict pair violated at pair=[1, 1]" in err
    code, _, err = run(capsys, "ts", "join", str(rel), str(rel))
    assert code == 1 and "pair=[1, 1]" in err
    code, _, err = run(capsys, "functor", "apply", "--kind", "fR",
                       "--hom", "id_C4", "--input", str(rel))
    assert code == 1 and "pair=[1, 1]" in err


def _missing_key(tmp_path, capsys, payload, *argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == "" and "Traceback" not in err
    return err


def test_ts_file_without_pairs_rejected(tmp_path, capsys):
    # used to escape as a KeyError traceback
    for action in ("validate", "generate", "cogenerate"):
        err = _missing_key(tmp_path, capsys, {"group": "C4"}, "ts", action)
        assert "missing the key 'pairs'" in err


def test_ts_file_without_group_rejected(tmp_path, capsys):
    err = _missing_key(tmp_path, capsys, {"pairs": []}, "ts", "validate")
    assert "missing the key 'group'" in err
    err = _missing_key(tmp_path, capsys, {"group": {"name": "G"}, "pairs": []},
                       "ts", "validate")
    assert "missing the key 'mul'" in err


@pytest.mark.parametrize("payload, message", [
    # the first three used to escape as TypeError tracebacks
    ({"group": "C4", "pairs": 5}, "key 'pairs' must be a list, got int"),
    ({"group": {"mul": 5}, "pairs": []}, "key 'mul' must be a list, got int"),
    ({"group": {"mul": [1]}, "pairs": []},
     "key 'mul' must be a list of rows, each a list"),
    # these used to be accepted, the first echoed back as "order": 1
    ({"group": {"name": "G", "order": 5, "mul": [[0]]}, "pairs": []},
     "group key 'order' is 5, but 'mul' has 1 rows"),
    ({"group": {"order": True, "mul": [[0]]}, "pairs": []},
     "group key 'order' is True"),
    ({"group": {"name": 5, "mul": [[0]]}, "pairs": []},
     "group key 'name' must be a str, got int"),
])
def test_ts_wire_values_of_the_wrong_shape_rejected(payload, message,
                                                    tmp_path, capsys):
    err = _missing_key(tmp_path, capsys, payload, "ts", "validate")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("payload, message", [
    # each used to be accepted: the groups were echoed back as C4 or K4,
    # the transfer system as valid with its one pair, the hom applied
    ({"group": {"kind": "cyclic", "n": 4, "order": 5, "name": 7},
      "pairs": []},
     "group of kind 'cyclic' has unknown keys ['name', 'order']"),
    ({"group": {"kind": "cyclic", "n": 4, "factors": [1]}, "pairs": []},
     "group of kind 'cyclic' has unknown keys ['factors']"),
    ({"group": {"kind": "klein_four", "n": 9}, "pairs": []},
     "group of kind 'klein_four' has unknown keys ['n']"),
    ({"group": {"kind": "direct_product", "factors": ["C2", "C2"], "n": 4},
      "pairs": []},
     "group of kind 'direct_product' has unknown keys ['n']"),
    ({"group": {"name": "C1", "order": 1, "mul": [[0]], "foo": 1},
      "pairs": []},
     "group has unknown keys ['foo']"),
    ({"group": "C4", "pairs": [[0, 1]], "pair": [[1, 2]]},
     "transfer system has unknown keys ['pair']"),
    ({"source": "C2", "target": "C4", "map": [0, 2], "extra": 1},
     "hom has unknown keys ['extra']"),
])
def test_unknown_wire_keys_rejected(payload, message, tmp_path, capsys):
    argv = ("ts", "validate")
    if "source" in payload:
        c2 = tmp_path / "c2.json"
        c2.write_text(json.dumps({"group": "C2", "pairs": []}))
        argv = ("functor", "apply", "--kind", "fL", "--input", str(c2),
                "--hom-file")
    err = _missing_key(tmp_path, capsys, payload, *argv)
    assert err.startswith("error: ") and message in err


def test_command_output_reads_back(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"group": "C4", "pairs": [[0, 1]]}))
    b.write_text(json.dumps({"group": "C4", "pairs": [[1, 2]]}))
    code, out, _ = run(capsys, "ts", "validate", str(a))
    assert code == 0 and json.loads(out)["valid"] is True
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "ts", "join", "-", str(b))
    assert code == 0 and json.loads(out)["pairs"] == [[0, 1], [0, 2], [1, 2]]

    code, out, _ = run(capsys, "group", "show", "--group", "K4")
    assert code == 0
    a.write_text(json.dumps({"group": json.loads(out), "pairs": [[0, 1]]}))
    code, out, _ = run(capsys, "ts", "validate", str(a))
    data = json.loads(out)
    assert code == 0 and data["valid"] is True
    assert data["group"]["name"] == "K4" and data["pairs"] == [[0, 1]]


def test_ts_group_order_equal_to_the_table_size_accepted(tmp_path, capsys):
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"group": {"order": 1, "mul": [[0]]},
                                "pairs": []}))
    assert run(capsys, "ts", "validate", str(path))[0] == 0


def test_ts_file_not_an_object_rejected(tmp_path, capsys):
    err = _missing_key(tmp_path, capsys, [], "ts", "validate")
    assert "must be a JSON object" in err and "'group'" in err


def test_hom_file_without_map_rejected(tmp_path, capsys):
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"group": "C2", "pairs": []}))
    err = _missing_key(tmp_path, capsys, {"source": "C2", "target": "C4"},
                       "functor", "apply", "--kind", "fL", "--input", str(c2),
                       "--hom-file")
    assert "missing the key 'map'" in err


def test_hom_file_map_not_a_list_rejected(tmp_path, capsys):
    # used to escape as a TypeError traceback
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"group": "C2", "pairs": []}))
    err = _missing_key(tmp_path, capsys,
                       {"source": "C2", "target": "C4", "map": 5},
                       "functor", "apply", "--kind", "fL", "--input", str(c2),
                       "--hom-file")
    assert err.startswith("error: ")
    assert "hom key 'map' must be a list, got int" in err


def test_functor_apply(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"group": {"kind": "cyclic", "n": 1},
                               "pairs": []}))
    code, out, _ = run(capsys, "functor", "apply", "--kind", "finvL",
                       "--hom", "bang_C4", "--input", str(one))
    assert code == 0 and json.loads(out)["pairs"] == []
    code, out, _ = run(capsys, "functor", "apply", "--kind", "finvR",
                       "--hom", "bang_C4", "--input", str(one))
    assert json.loads(out)["pairs"] == [[0, 1], [0, 2], [1, 2]]
    # identity leaves systems alone
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({"group": "C4", "pairs": [[0, 1]]}))
    for kind in ("fL", "finvL", "fR", "finvR"):
        code, out, _ = run(capsys, "functor", "apply", "--kind", kind,
                           "--hom", "id_C4", "--input", str(c4))
        assert json.loads(out)["pairs"] == [[0, 1]]


def test_functor_hom_file(tmp_path, capsys):
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "source": {"kind": "cyclic", "n": 2},
        "target": {"kind": "cyclic", "n": 4},
        "map": [0, 2],
    }))
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"group": "C2", "pairs": [[0, 1]]}))
    code, out, _ = run(capsys, "functor", "apply", "--kind", "fL",
                       "--hom-file", str(hom), "--input", str(c2))
    assert code == 0 and json.loads(out)["pairs"] == [[0, 1]]


def test_functor_input_on_the_wrong_group_rejected(tmp_path, capsys,
                                                  monkeypatch):
    # the hom's group used to replace the file's, so a C4 system was read
    # as a C2 one and the command exited 0
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({"group": "C4", "pairs": [[0, 1]]}))
    argv = ("functor", "apply", "--kind", "fL", "--hom", "C2_into_C4")
    code, out, err = run(capsys, *argv, "--input", str(c4))
    assert code == 1 and out == "" and "Traceback" not in err
    assert "on C2 (order 2)" in err and "on C4 (order 4)" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(c4.read_text()))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert "on C2 (order 2)" in err and "on C4 (order 4)" in err


def test_functor_apply_without_hom(tmp_path, capsys):
    # used to say "unknown hom None; known: [...]"
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({"group": "C4", "pairs": []}))
    code, out, err = run(capsys, "functor", "apply", "--kind", "fL",
                         "--input", str(c4))
    assert code == 1 and out == ""
    assert "needs --hom or --hom-file" in err and "None" not in err


def test_functor_fL_noninjective_warns(tmp_path, capsys):
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({"group": "C4", "pairs": []}))
    code, out, err = run(capsys, "functor", "apply", "--kind", "fL",
                         "--hom", "C4_onto_C2", "--input", str(c4))
    assert code == 0
    assert "no operadic induction" in err


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "galois", "--hom", "C2_into_C4")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["cases"] == 2 * 2 * 5
    assert data["seed"] == 0

    code, out, _ = run(capsys, "verify", "noninj-ind", "--hom", "C4_onto_C2")
    data = json.loads(out)
    assert code == 0 and data["passed"]
    assert data["notes"][0]["permutation"]  # witness printed in the report

    code, out, _ = run(capsys, "verify", "rewrite-criteria", "--mode",
                       "tensor", "--seed", "7", "--count", "60")
    data = json.loads(out)
    assert code == 0 and data["passed"]
    assert data["config"]["seed"] == 7

    code, out, _ = run(capsys, "verify", "thmB-coind", "--group", "C4")
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("hom", ["C2_into_C8", "C4_into_C8"])
def test_verify_double_coset_at_level_8(hom, capsys):
    # the level-8 orbit over C8, whose pullback has |C8/C8| * 8! = 40320
    # points
    code, out, _ = run(capsys, "verify", "double-coset", "--hom", hom)
    data = json.loads(out)
    assert code == 0 and data["passed"] and data["cases"] == 37


@pytest.mark.parametrize("mode", ["tensor", "coproduct"])
def test_verify_rewrite_criteria_golden(mode, capsys):
    code, out, _ = run(capsys, "verify", "rewrite-criteria", "--mode", mode)
    assert code == 0
    assert out.encode() == (GOLDEN / f"rewrite_criteria_{mode}.json").read_bytes()


#: `transys verify` arguments -> the golden file holding its exact stdout:
#: every suite at its defaults, then suites under their options
VERIFY_GOLDENS = [
    *[((suite,), f"verify_{suite}.json") for suite in (
        "galois", "functoriality", "injective-collapse", "thmA-meet",
        "thmA-join", "thmA-tensor", "thmB-res", "thmB-ind", "thmB-coind",
        "double-coset", "noninj-ind")],
    (("rewrite-criteria",), "rewrite_criteria_tensor.json"),
    (("galois", "--hom", "C2_into_C4"), "verify_galois_hom_C2_into_C4.json"),
    (("thmA-meet", "--group", "K4"), "verify_thmA-meet_group_K4.json"),
    (("thmA-join", "--group", "S3"), "verify_thmA-join_group_S3.json"),
    (("thmB-res", "--hom", "C4_onto_C2"),
     "verify_thmB-res_hom_C4_onto_C2.json"),
    (("thmB-coind", "--group", "C4"), "verify_thmB-coind_group_C4.json"),
    (("rewrite-criteria", "--mode", "coproduct", "--seed", "7", "--count",
      "60", "--window", "6"), "verify_rewrite-criteria_coproduct_seed_7.json"),
    (("--help",), "verify_help.txt"),
]


@pytest.mark.parametrize("argv, golden", VERIFY_GOLDENS,
                         ids=[g for _, g in VERIFY_GOLDENS])
def test_verify_matches_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")    # argparse wraps help to the width
    try:
        code = main(["verify", *argv])
    except SystemExit as exc:              # --help
        code = exc.code
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("suite, option", [
    *[(s, "--hom") for s in ("galois", "injective-collapse", "thmB-res",
                             "thmB-ind", "double-coset", "noninj-ind")],
    *[(s, "--group") for s in ("thmA-meet", "thmA-join", "thmA-tensor",
                               "thmB-coind")]])
def test_verify_empty_name_rejected(suite, option, capsys):
    # an empty name used to select the suite's defaults in some suites and
    # fail as unknown in others
    code, out, err = run(capsys, "verify", suite, option, "")
    assert code == 1 and out == "" and "unknown" in err


@pytest.mark.parametrize("option, value, message", [
    ("--count", "-1", "count must be non-negative"),
    ("--window", "0", "max_symbols must be at least 1")])
def test_verify_rewrite_criteria_bad_numbers_rejected(option, value, message,
                                                      capsys):
    # --count -1 used to pass with 0 cases, and --window 0 died inside
    # randrange
    code, out, err = run(capsys, "verify", "rewrite-criteria", option, value)
    assert code == 1 and out == "" and message in err


@pytest.mark.parametrize("argv, error", [
    (("galois", "--group", "D4"), "verify galois takes no --group"),
    (("thmA-meet", "--hom", "C2_into_C4"), "verify thmA-meet takes no --hom"),
    (("thmA-join", "--mode", "coproduct", "--count", "3"),
     "verify thmA-join takes no --mode, --count"),
    (("functoriality", "--window", "6"),
     "verify functoriality takes no --window"),
    (("rewrite-criteria", "--group", "C4"),
     "verify rewrite-criteria takes no --group"),
    (("noninj-ind", "--seed", "5", "--budget", "9"), None),
])
def test_verify_options_the_suite_does_not_take(argv, error, capsys):
    # each rejected call used to exit 0 on the suite's defaults; --seed and
    # --budget are taken by every suite
    code, out, err = run(capsys, "verify", *argv)
    if error is None:
        assert code == 0 and err == "" and json.loads(out)["seed"] == 5
    else:
        assert code == 1 and out == "" and err == f"error: {error}\n"


def test_verify_budget_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "galois", "--hom", "C2_into_C8",
                       "--budget", "2")
    assert code == 2
    assert json.loads(out)["outcome"] == "budget-exceeded"


@pytest.mark.parametrize("argv, message", [
    (("verify", "galois", "--budget", "x"), "invalid int value: 'x'"),
    (("verify", "galois", "extra"), "unrecognized arguments: extra"),
    (("ts", "nosuch"), "invalid choice"),
])
def test_usage_errors_exit_1(argv, message, capsys):
    # argparse exited 2, the code of a spent budget
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert message in err and "usage:" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_suite_failure_context_built_only_for_failures():
    from transys.functors import LawReport
    from transys.suites import SuiteReport

    report = SuiteReport("law", {})
    report.absorb(LawReport("law", 3),
                  lambda: pytest.fail("context built for a passed check"))
    report.absorb(LawReport("law", 2, {"x": 1}), lambda: {"at": 5})
    report.absorb(LawReport("law", 1, {"x": 2}), {"at": 6})
    assert report.cases == 6
    assert report.failures == [
        {"law": "law", "counterexample": {"x": 1}, "at": 5},
        {"law": "law", "counterexample": {"x": 2}, "at": 6}]


@pytest.mark.parametrize("suite, check, option, failing", [
    ("thmA-join", "coproduct_join_check", {"group": "C2"}, 2),
    ("double-coset", "double_coset_check", {"hom": "C2_into_C4"}, 3)])
def test_suite_failure_names_its_case(suite, check, option, failing,
                                      monkeypatch):
    """A failure deep in a suite's loop carries the systems of its own
    case, not those of a later one."""
    from transys import operads
    from transys.catalog import catalog_hom, group_by_name
    from transys.suites import run_suite
    from transys.transfer import enumerate_transfer_systems

    real, calls = getattr(operads, check), []

    def fail_once(*args):
        r = real(*args)
        calls.append(r)
        if len(calls) == failing:
            r.counterexample = {"forced": True}
        return r

    monkeypatch.setattr(operads, check, fail_once)
    (entry,) = run_suite(suite, **option).failures
    assert entry["counterexample"] == {"forced": True}
    if suite == "thmA-join":
        d, c = enumerate_transfer_systems(group_by_name("C2"))
        assert (entry["group"], entry["s"], entry["t"]) == (
            "C2", d.pairs(), c.pairs())
    else:
        ts = enumerate_transfer_systems(catalog_hom("C2_into_C4").target)
        assert (entry["hom"], entry["t"]) == ("C2_into_C4", ts[2].pairs())
