import json

import pytest

from qrec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_gen_e6_example(capsys):
    code, out = run(capsys, "gen", "--type", "E6", "--q", "17,22,38,40,14,31",
                    "--depth", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,m,value"
    table = {(int(n), int(m)): v for n, m, v in
             (line.split(",") for line in lines[1:])}
    assert table[(1, 3)] == "4203"
    assert table[(3, 2)] == "-25836"
    assert table[(6, 3)] == "28315"


def test_gen_a1_closed_form(capsys):
    code, payload = run_json(capsys, "gen", "--type", "A1", "--q", "2",
                             "--depth", "5", "--node", "1")
    assert code == 0
    assert payload["table"]["values"]["1"] == ["1", "2", "3", "4", "5", "6"]


def test_detect_e6(capsys):
    code, payload = run_json(capsys, "detect", "--type", "E6",
                             "--q", "17,22,38,40,14,31")
    assert code == 0
    rec = payload["recurrence"]
    assert rec["order"] == 27
    assert rec["coeffs"][1] == "17"
    assert rec["coeffs"][26] == "14"
    assert payload["ell_predicted"] == 27


def test_detect_a3_random_seed_orders(capsys):
    for node, expected in [(1, 4), (2, 6), (3, 4)]:
        code, payload = run_json(capsys, "detect", "--type", "A3", "--seed", "1",
                                 "--node", str(node))
        assert code == 0
        assert payload["recurrence"]["order"] == expected


def test_verify_b3_character_point(capsys):
    code, payload = run_json(capsys, "verify", "--type", "B3", "--node", "1",
                             "--mode", "character-point", "--seed", "7")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    for name in ("order_prediction", "identity_catalogue", "factorization",
                 "coefficient_formula", "numerator", "clamb", "elldim"):
        assert statuses[name] == "pass", name
    assert payload["ell_detected"] == 6


def test_verify_exit_code_on_failure(capsys, tmp_path):
    # a wrong level-1 decomposition makes the identity checks fail
    bad = tmp_path / "branching.json"
    bad.write_text(json.dumps({
        "type": "B3", "rank": 3,
        "branching": {"1": [[0, 1, 0]]},
    }))
    code, payload = run_json(capsys, "verify", "--type", "B3", "--node", "1",
                             "--mode", "character-point", "--seed", "7",
                             "--branching", str(bad))
    assert code == 2
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert "fail" in statuses.values()


def test_config_error_exit_code(capsys, tmp_path):
    assert main(["gen", "--type", "Z9", "--depth", "3"]) == 3
    assert main(["gen", "--type", "B3", "--q", "1,2", "--depth", "3"]) == 3
    assert main(["detect", "--type", "B3", "--mode", "character-point",
                 "--modular", "3"]) == 3
    assert main(["tables", "--type", "A9"]) == 3
    mismatched = tmp_path / "wrong.json"
    mismatched.write_text(json.dumps({"type": "C3", "rank": 3, "branching": {}}))
    assert main(["gen", "--type", "B3", "--depth", "3",
                 "--branching", str(mismatched)]) == 3


def test_resource_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("QREC_CAP_DIM", "10")
    assert main(["verify", "--type", "E6", "--node", "1", "--mode",
                 "character-point", "--seed", "1"]) in (3, 4)
    monkeypatch.delenv("QREC_CAP_DIM")
    # depth policy cap: E8 node 7 in rational mode wants order 241 > 400? no;
    # B7 node 7 order 2060 exceeds the rational cap 400
    code = main(["detect", "--type", "B7", "--node", "7"])
    assert code == 4


def test_tables_output(capsys):
    code, out = run(capsys, "tables", "--type", "C4", "--format", "csv")
    assert code == 0
    assert "10 42 98 16" in out
    code, out = run(capsys, "tables", "--type", "E7", "--format", "csv")
    assert "127 * * * * 56 *" in out
    code, payload = run_json(capsys, "tables")
    assert len(payload["rows"]) == 29


def test_dims_g2(capsys):
    code, payload = run_json(capsys, "dims", "--type", "G2")
    assert code == 0
    growth = {g["node"]: g for g in payload["growth"]}
    assert growth[1]["detected"] == 6 and growth[1]["status"] == "pass"
    assert growth[2]["detected"] == 10
    assert payload["table"]["values"]["1"][:5] == ["1", "15", "92", "365", "1113"]


def test_detect_doubling_for_unknown_orders(capsys, monkeypatch):
    # discovery targets resolve depth by doubling until detection stabilizes
    import qrec.cli as cli_mod
    monkeypatch.setattr(cli_mod, "predicted_order", lambda lt, a: None)
    code, payload = run_json(capsys, "detect", "--type", "G2", "--node", "1",
                             "--seed", "4")
    assert code == 0
    assert payload["recurrence"]["order"] == 7
    assert payload["depth"] == 32
    assert payload["ell_predicted"] is None


def test_weights_export(capsys):
    code, out = run(capsys, "weights", "--type", "A2", "--highest", "1,0",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["c1,c2,multiplicity", "-1,1,1", "0,-1,1", "1,0,1"]
    code, payload = run_json(capsys, "weights", "--type", "G2",
                             "--highest", "1,0")
    assert code == 0
    assert payload["dimension"] == 14
    assert main(["weights", "--type", "A2", "--highest", "1"]) == 3


def test_report_reproducibility(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["verify", "--type", "G2", "--node", "1", "--seed", "11",
                     "--out", str(out)])
        assert code == 0
    p1 = json.loads(out1.read_text())
    p2 = json.loads(out2.read_text())
    assert p1["digest"] == p2["digest"]
    p1.pop("timings"), p2.pop("timings")
    assert p1 == p2


def test_modular_detect_cli(capsys):
    code, payload = run_json(capsys, "detect", "--type", "G2", "--seed", "3",
                             "--modular", "3")
    assert code == 0
    rec = payload["recurrence"]
    assert rec["confidence"] == "modular"
    assert rec["order"] == 7
    assert len(rec["primes"]) == 3


def test_interpolate_e6_table_row(capsys):
    code, payload = run_json(capsys, "interpolate", "--type", "E6", "--node", "1",
                             "--k", "2", "--runs", "40", "--modular", "3",
                             "--seed", "5")
    assert code == 0
    assert payload["polynomial"] == "q_2 - q_5"


def test_verify_g2_node2_character_point(capsys):
    code, payload = run_json(capsys, "verify", "--type", "G2", "--node", "2",
                             "--mode", "character-point", "--seed", "3")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["factorization"] == "pass"  # stride-3 factors in play
    assert statuses["clamb"] == "pass"
    assert payload["ell_detected"] == 27


def test_dims_respects_stride(capsys):
    code, payload = run_json(capsys, "dims", "--type", "B3")
    assert code == 0
    assert [g["detected"] for g in payload["growth"]] == [5, 8, 9]


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QREC_SEED", "11")
    code, payload = run_json(capsys, "detect", "--type", "A2")
    assert code == 0
    assert payload["config"]["seed"] == 11


def test_interpolate_a2(capsys):
    code, payload = run_json(capsys, "interpolate", "--type", "A2", "--node", "1",
                             "--k", "1", "--runs", "12", "--degree", "1",
                             "--seed", "2")
    assert code == 0
    assert payload["polynomial"] == "q_1"


def test_branching_file_roundtrip(capsys, tmp_path):
    # overriding with the true decomposition must keep everything green
    good = tmp_path / "branching.json"
    good.write_text(json.dumps({
        "type": "B3", "rank": 3,
        "branching": {"2": [[0, 1, 0], [0, 0, 0]]},
    }))
    code, payload = run_json(capsys, "verify", "--type", "B3", "--node", "1",
                             "--mode", "character-point", "--seed", "7",
                             "--branching", str(good))
    assert code == 0


def test_detection_and_depth_errors_keep_their_exit_codes():
    # InsufficientData and InsufficientDepth are ValueErrors, but not
    # configuration errors
    assert main(["detect", "--type", "A3", "--depth", "5"]) == 2
    assert main(["dims", "--type", "G2", "--depth", "5"]) == 4


IGNORED_BEFORE = {
    "gen": ["--modular", "3"],
    "detect": ["--format", "csv"],
    "verify": ["--format", "csv"],
    "tables": ["--node", "1", "--seed", "1", "--depth", "5", "--guard", "8",
               "--modular", "3", "--branching", "b.json"],
    "interpolate": ["--branching", "b.json", "--format", "csv"],
    "dims": ["--node", "1", "--seed", "1", "--guard", "8", "--modular", "3"],
    "weights": ["--node", "1", "--seed", "1", "--depth", "5", "--guard", "8",
                "--modular", "3", "--branching", "b.json"],
}


@pytest.mark.parametrize("command", sorted(IGNORED_BEFORE))
def test_options_a_subcommand_does_not_read_are_usage_errors(command, capsys):
    options = IGNORED_BEFORE[command]
    for flag, value in zip(options[::2], options[1::2]):
        with pytest.raises(SystemExit) as exc:
            main([command, "--type", "A2", flag, value])
        assert exc.value.code == 3, (command, flag)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_3_and_help_exits_0(capsys):
    for argv in (["detect", "--bogus"], [], ["frobnicate"],
                 ["detect", "--type", "A2", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
    for argv in (["--help"], ["detect", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv


def test_unreadable_branching_file_is_a_config_error(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    no_table = tmp_path / "no_table.json"
    no_table.write_text(json.dumps({"type": "A3"}))
    for path in (tmp_path / "missing.json", tmp_path, broken, no_table):
        assert main(["detect", "--type", "A3", "--branching", str(path)]) == 3, path
        assert "cannot read branching file" in capsys.readouterr().err


def test_unwritable_out_file_is_a_config_error(capsys, tmp_path):
    assert main(["tables", "--out", str(tmp_path / "missing" / "t.json")]) == 3
    assert "cannot write --out file" in capsys.readouterr().err


def test_modular_detection_rejects_non_integral_q(capsys):
    assert main(["detect", "--type", "A2", "--q", "1/3,3", "--modular", "3"]) == 3
    assert "--q must be integers" in capsys.readouterr().err
    code, payload = run_json(capsys, "detect", "--type", "A2", "--q", "1/3,3")
    assert code == 0
    assert payload["recurrence"]["coeffs"][1] == "1/3"


def test_zero_valued_node_and_modular_are_config_errors(capsys):
    for argv in (["detect", "--type", "A2", "--node", "0"],
                 ["gen", "--type", "A2", "--node", "0", "--depth", "3"],
                 ["detect", "--type", "A2", "--modular", "0"],
                 ["detect", "--type", "A2", "--modular", "2"],
                 ["detect", "--type", "A2", "--modular", "-1"]):
        assert main(argv) == 3, argv
        assert "configuration error" in capsys.readouterr().err, argv


def test_interpolate_k_out_of_range_is_a_config_error(capsys):
    for k, message in (("-1", "is negative"), ("4", "exceeds the order 3")):
        argv = ["interpolate", "--type", "A2", "--k", k, "--runs", "12", "--degree", "1"]
        assert main(argv) == 3, k
        assert message in capsys.readouterr().err, k
    # k equal to the order is in range: C_3 of A2 node 1 is 1
    code, payload = run_json(capsys, "interpolate", "--type", "A2", "--k", "3",
                             "--runs", "12", "--degree", "1", "--seed", "2")
    assert code == 0 and payload["polynomial"] == "1"
