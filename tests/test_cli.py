import argparse
import json
import random
import re
from fractions import Fraction

import pytest

from qrec.cartan import LieType, predicted_order
from qrec.cli import _verify_checks, build_parser, main
from qrec.conjectures import check_numerator, identity_catalogue
from qrec.linrec import RecurrencePoly, find_min_recurrence
from qrec.qsystem import RawQ, SingularSpecialization, generate

from test_cli_digests import PINS


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
    # C7 node 6 (order 3670) needs a window of 8261 levels, past the depth ceiling
    code = main(["detect", "--type", "C7", "--node", "6"])
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
    # an untabulated order is read online until detection stabilizes; here
    # the first read of 33 terms suffices
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


def test_a_seed_in_the_environment_that_is_no_integer_is_a_usage_error(capsys,
                                                                       monkeypatch):
    monkeypatch.setenv("QREC_SEED", "abc")
    for command in (["detect", "--type", "A2"], ["gen", "--type", "A2", "--depth", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert exc.value.code == 3, command
        assert "--seed: invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit --seed is read instead of the environment
    code, payload = run_json(capsys, "detect", "--type", "A2", "--seed", "11")
    assert code == 0 and payload["config"]["seed"] == 11


def test_interpolate_a2(capsys):
    code, payload = run_json(capsys, "interpolate", "--type", "A2", "--node", "1",
                             "--k", "1", "--runs", "12", "--degree", "1",
                             "--seed", "2")
    assert code == 0
    assert payload["polynomial"] == "q_1"


def test_experiments_that_do_not_pin_down_the_candidates_exit_2(capsys, monkeypatch):
    import qrec.cli as cli_mod
    # distinct q on the line q_2 = q_1 + 1, where the columns 1, q_1, q_2 are dependent
    monkeypatch.setattr(cli_mod, "_random_q",
                        lambda lt, rng: (lambda x: (x, x + 1))(rng.randint(-50, 49)))
    assert main(["interpolate", "--type", "A2", "--k", "1", "--runs", "8",
                 "--degree", "1"]) == 2
    assert "8 experiments do not pin down 3 candidates" in capsys.readouterr().err


def test_a_non_integer_interpolation_exits_2_with_one_line(capsys, monkeypatch):
    import qrec.conjectures as conjectures

    def non_integer(*args):
        raise conjectures.NonIntegerSolution(["1/2", "3"])

    monkeypatch.setattr(conjectures, "interpolate_coefficients", non_integer)
    assert main(["interpolate", "--type", "A2", "--k", "1", "--runs", "8",
                 "--degree", "1", "--seed", "2"]) == 2
    assert capsys.readouterr().err == (
        "detection failed: interpolated coefficients are not integers: ['1/2', '3']\n")


def test_a_numerator_that_does_not_terminate_fails_its_check(capsys, monkeypatch):
    import qrec.linrec as linrec

    def non_vanishing(seq, rec):
        raise linrec.NonVanishingTail("product coefficient at degree 9 is 1")

    monkeypatch.setattr(linrec, "numerator", non_vanishing)
    code, payload = run_json(capsys, "verify", "--type", "B4", "--node", "1",
                             "--mode", "character-point", "--seed", "13")
    assert code == 2
    [check] = [c for c in payload["checks"] if c["name"] == "numerator"]
    assert check == {"name": "numerator", "status": "fail",
                     "witness": "product coefficient at degree 9 is 1"}
    assert [c["name"] for c in payload["checks"] if c["status"] == "fail"] == ["numerator"]


def test_every_exception_of_qrec_has_an_exit_group_or_is_handled_in_its_subcommand():
    import importlib
    import pkgutil

    import qrec
    from qrec.cli import EXIT_GROUPS
    from qrec.conjectures import NonIntegerSolution, NotInCatalogue
    from qrec.linrec import NonVanishingTail
    # verify reports these as skipped or failed checks
    handled = {NotInCatalogue, NonVanishingTail}
    defined = set()
    for info in pkgutil.iter_modules(qrec.__path__):
        module = importlib.import_module(f"qrec.{info.name}")
        defined |= {cls for cls in vars(module).values() if isinstance(cls, type)
                    and issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert handled | {NonIntegerSolution} <= defined
    grouped = {cls for cls in defined
               if any(issubclass(cls, kinds) for _, _, kinds in EXIT_GROUPS)}
    assert not grouped & handled
    assert sorted(cls.__name__ for cls in defined - grouped - handled) == []


def test_interpolate_skips_a_repeated_q(capsys, monkeypatch):
    import qrec.cli as cli_mod
    draws = iter([(2, 3), (2, 3), (5, 7), (2, 3), (-4, 9), (5, 7), (1, -6), (8, 8), (-3, 2),
                  (6, -1), (-9, -5), (4, 11), (7, 3), (-2, -8)])
    monkeypatch.setattr(cli_mod, "_random_q", lambda lt, rng: next(draws))
    detected, real = [], cli_mod._detect

    def detect(lt, node, specs, *rest):
        detected.extend(spec.values for spec in specs)
        return real(lt, node, specs, *rest)

    monkeypatch.setattr(cli_mod, "_detect", detect)
    code, payload = run_json(capsys, "interpolate", "--type", "A2", "--k", "1",
                             "--runs", "8", "--degree", "1")
    assert code == 0 and payload["polynomial"] == "q_1"
    assert len(detected) == len(set(detected)) == 8


def test_more_runs_than_distinct_q_is_a_usage_error_before_any_detection(capsys,
                                                                          monkeypatch):
    import qrec.cli as cli_mod

    def never(*args):
        raise AssertionError("detected")

    monkeypatch.setattr(cli_mod, "_detect", never)
    assert main("interpolate --type A1 --k 1 --degree 97 --runs 103 --seed 1".split()) == 3
    assert "--runs 103 exceeds the 101 distinct q" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "interpolate --type E6 --node 1 --k 1 --degree 3 --runs 40 --modular 3",
    "interpolate --type E6 --node 1 --k 1 --degree 50",
    "interpolate --type A2 --k 1 --runs=-1",
])
def test_too_few_runs_for_the_candidates_is_a_usage_error_before_any_detection(
        argv, capsys, monkeypatch):
    import qrec.cli as cli_mod

    def never(*args):
        raise AssertionError("detected or listed candidates")

    monkeypatch.setattr(cli_mod, "_detect", never)
    monkeypatch.setattr(cli_mod.conjectures, "degree_monomials", never)
    assert main(argv.split()) == 3
    assert "--runs" in capsys.readouterr().err


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


@pytest.mark.parametrize("lie_type, accepted", [("B3", True), ("C3", False), ("B4", False)])
def test_a_branching_file_may_give_the_family_and_the_rank_apart(lie_type, accepted, capsys,
                                                                 tmp_path):
    apart = tmp_path / "branching.json"
    apart.write_text(json.dumps({"type": "B", "rank": 3,
                                 "branching": {"2": [[0, 1, 0], [0, 0, 0]]}}))
    code = main(["gen", "--type", lie_type, "--depth", "3", "--branching", str(apart)])
    if accepted:
        assert code == 0
    else:
        assert code == 3
        assert f"branching file is for B3, not {lie_type}" in capsys.readouterr().err


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


def test_the_rank_is_read_off_the_type(capsys):
    assert main("detect --type B3 --seed 1".split()) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main("detect --type B --rank 3 --seed 1".split())
    assert exc.value.code == 3
    assert main("detect --type B --seed 1".split()) == 3
    assert "cannot parse Lie type 'B'" in capsys.readouterr().err


def _catalogue_status(lt, rec, q):
    checks = _verify_checks(lt, 1, rec, None, q, None)
    return next(c["status"] for c in checks if c["name"] == "identity_catalogue")


def test_a_catalogued_identity_past_the_detected_order_fails_the_catalogue():
    # A2 node 1 has order 3 and catalogues C_3 = 1; an order-2 recurrence cannot hold it
    rec = RecurrencePoly(order=2, coeffs=(1, 5, 1), start=0)
    checks = _verify_checks(LieType.parse("A2"), 1, rec, None, (5, 5), None)
    catalogue = next(c for c in checks if c["name"] == "identity_catalogue")
    assert catalogue["status"] == "fail"
    assert "C_3 = 1: k=3 beyond order 2" in catalogue["witness"]


@pytest.mark.parametrize("name, q, first", [("B3", None, 4), ("C3", None, 5), ("D5", None, 6),
                                            ("E6", (17, 22, 38, 40, 14, 31), 23)])
def test_a_changed_mirrored_coefficient_fails_the_catalogue(name, q, first):
    """The rows above ell/2 are derived from the lower half at q*; at the E6
    point q_5 != q_1, so a build that read q in place of q* fails unchanged."""
    lt = LieType.parse(name)
    ell = predicted_order(lt, 1)
    rng = random.Random(f"mirror-{name}-1")
    while True:
        qvals = q or tuple(rng.randint(-50, 50) for _ in range(lt.rank))
        try:
            seq = generate(lt, RawQ(qvals), (1, 2 * ell + 12)).node(1)
        except SingularSpecialization:
            continue
        break
    rec = find_min_recurrence(seq)
    assert rec.order == ell
    assert _catalogue_status(lt, rec, qvals) == "pass"
    upper = sorted(i.k for i in identity_catalogue(lt, 1) if 2 * i.k > ell)
    assert upper == list(range(first, ell + 1))
    for k in upper:
        coeffs = list(rec.coeffs)
        coeffs[k] += 1
        mutated = rec._replace(coeffs=tuple(coeffs))
        assert _catalogue_status(lt, mutated, qvals) == "fail", k


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


COMMANDS = ("gen", "detect", "verify", "tables", "interpolate", "dims", "weights")


def parse_outcome(parser, argv, capsys):
    """(the Namespace, or the exit code, then stdout and stderr) of one parse."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_a_parser_built_for_one_subcommand_parses_as_the_full_parser(command, capsys):
    for argv in ([command, "--help"], [command, "--type"], [command, "--bogus"]):
        want = parse_outcome(build_parser(), argv, capsys)
        assert want[0] == (0 if argv[1] == "--help" else 3) and want[1] + want[2]
        assert parse_outcome(build_parser(command), argv, capsys) == want, argv
    pinned = [text.removeprefix("doubling: ").format(bad="bad.json").split()
              for text in PINS]
    for argv in [argv for argv in pinned if argv[0] == command]:
        want = build_parser().parse_args(argv)
        assert build_parser(command).parse_args(argv) == want
        assert build_parser("--help").parse_args(argv) == want  # no subcommand: all options


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


@pytest.mark.parametrize("argv", [
    ["detect", "--type", "A2", "--guard", "100000"],
    ["detect", "--type", "A2", "--depth", "100000"],
    ["verify", "--type", "A2", "--depth", "100000"],
    ["detect", "--type", "A2", "--depth", "9000", "--modular", "3"],
    ["interpolate", "--type", "A2", "--k", "1", "--runs", "11", "--guard", "100000"],
    ["gen", "--type", "A2", "--depth", "100000000"],
    ["gen", "--type", "G2", "--node", "2", "--depth", "8193"],
    ["dims", "--type", "A2", "--depth", "8193"],
    # too deep and without the branching its character point needs: the ceiling comes first
    ["verify", "--type", "F4", "--node", "2", "--mode", "character-point", "--depth", "9000"],
])
def test_depth_past_the_doubling_ceiling_is_a_resource_cap(argv, capsys, monkeypatch):
    import qrec.cli as cli_mod

    def no_table(*args, **kwargs):
        raise AssertionError("a table was generated")

    monkeypatch.setattr(cli_mod, "levels", lambda lt, qs, *args: [no_table for _ in qs])
    monkeypatch.setattr(cli_mod, "generate", no_table)
    assert main(argv) == 4
    assert "depth ceiling 8192" in capsys.readouterr().err


def test_deepest_accepted_depth_is_the_doubling_ceiling(capsys, monkeypatch):
    import qrec.cli as cli_mod
    from qrec.linrec import NoStableRecurrence
    depths = []

    def record(lt, qs, node, field):
        def table(n):
            depths.append(n - 1)
            raise NoStableRecurrence("stop after the depth check")
        return [table for _ in qs]

    monkeypatch.setattr(cli_mod, "levels", record)
    assert main(["detect", "--type", "A2", "--q", "1,2", "--depth", "8192"]) == 2
    assert main(["detect", "--type", "A2", "--q", "1,2", "--depth", "8193"]) == 4
    assert main(["detect", "--type", "A2", "--q", "1,2", "--depth", "8192",
                 "--modular", "3"]) == 2
    assert depths == [8192, 8192]


def test_detect_and_interpolate_report_detection_time(capsys):
    code, payload = run_json(capsys, "detect", "--type", "A2", "--seed", "1")
    assert code == 0 and payload["timings"]["detect_s"] >= 0
    code, payload = run_json(capsys, "interpolate", "--type", "A2", "--k", "1",
                             "--runs", "12", "--degree", "1", "--seed", "2")
    assert code == 0 and payload["timings"]["detect_s"] >= 0
    assert payload["timings"]["solve_s"] >= 0


def test_gen_and_verify_report_their_timings_outside_the_digest(capsys):
    from test_cli_digests import PINS
    for text, key in (("gen --type G2 --seed 3 --depth 8", "generate_s"),
                      ("verify --type G2 --node 1 --seed 11", "detect_s")):
        code, payload = run_json(capsys, *text.split())
        assert payload["timings"][key] >= 0
        assert (code, payload["digest"]) == PINS[text]
    assert payload["timings"]["checks_s"] >= 0


@pytest.mark.parametrize("argv, option", [
    ("detect --type A2 --q 1,2 --mode raw-random --seed 1", "--q"),
    ("detect --type A2 --y 1,2 --q 3,4", "--y"),
    ("gen --type A2 --mode dimension --depth 5 --y 1,2", "--y"),
    ("verify --type B3 --mode character-point --q 1,2,3", "--q"),
])
def test_an_option_the_mode_does_not_read_is_a_usage_error(argv, option, capsys,
                                                           monkeypatch):
    import qrec.cli as cli_mod

    def no_draw(*args):
        raise AssertionError("a specialization was drawn")

    monkeypatch.setattr(cli_mod, "_specializations", no_draw)
    assert main(argv.split()) == 3
    assert f"configuration error: {option} is read in" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["detect", "--type", "A2", "--guard=-50"], "--guard -50"),
    (["detect", "--type", "A2", "--guard", "3", "--depth", "40"], "--guard 3"),
    (["interpolate", "--type", "A2", "--k", "1", "--degree=-1"], "--degree -1"),
])
def test_guard_and_degree_are_checked_before_any_generation(argv, option, capsys,
                                                            monkeypatch):
    import qrec.cli as cli_mod

    def no_table(*args, **kwargs):
        raise AssertionError("a table was generated")

    monkeypatch.setattr(cli_mod, "generate", no_table)
    monkeypatch.setattr(cli_mod, "levels", no_table)
    assert main(argv) == 3
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "detect --type A2", "verify --type A2", "interpolate --type A2 --k 1", "gen --type A2",
    "dims --type A2"])
@pytest.mark.parametrize("option, depth", [(["--depth", "0"], "0"), (["--depth=-3"], "-3")])
def test_a_depth_below_1_is_a_usage_error_before_any_generation(command, option, depth,
                                                               capsys, monkeypatch):
    import qrec.cli as cli_mod

    def no_table(*args, **kwargs):
        raise AssertionError("a table was generated")

    monkeypatch.setattr(cli_mod, "generate", no_table)
    monkeypatch.setattr(cli_mod, "levels", no_table)
    assert main([*command.split(), *option]) == 3
    assert f"--depth {depth} is below 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "detect --type F4 --node 2 --modular 8 --seed 1",
    "detect --type G2 --node 2 --seed 5",
])
def test_the_depth_a_stream_reports_reproduces_its_recurrence(argv, capsys, monkeypatch):
    import qrec.cli as cli_mod
    monkeypatch.setattr(cli_mod, "predicted_order", lambda lt, a: None)
    code, streamed = run_json(capsys, *argv.split())
    assert code == 0
    code, window = run_json(capsys, *argv.split(), "--depth", str(streamed["depth"]))
    assert code == 0
    assert window["depth"] == streamed["depth"]
    assert window["recurrence"] == streamed["recurrence"]
    if "F4" in argv:  # 2L + g = 326 terms for L = 145
        assert streamed["recurrence"]["order"] == 145 and streamed["depth"] <= 325


@pytest.mark.parametrize("argv, field", [
    ("detect --type G2 --node 2 --seed 5", "rational"),
    ("verify --type G2 --node 2 --seed 5", "rational"),
    ("detect --type F4 --node 2 --modular 3 --seed 1", "mod"),
])
def test_a_stream_past_the_ceiling_is_a_resource_cap(argv, field, capsys, monkeypatch):
    import qrec.cli as cli_mod
    read = []

    def counted(lt, qs, node, field_used):
        # one ceiling, whichever field the stream is read in
        assert field_used.name.startswith(field)
        [table] = cli_mod_levels(lt, qs, node, field_used)

        def terms(n):  # one list, grown in place
            read[:] = table(n)
            return read
        return [terms]

    cli_mod_levels = cli_mod.levels
    monkeypatch.setattr(cli_mod, "predicted_order", lambda lt, a: None)
    monkeypatch.setattr(cli_mod, "levels", counted)
    monkeypatch.setattr(cli_mod, "DEPTH_CEILING", 40)
    assert main(argv.split()) == 4
    assert "depth ceiling 40" in capsys.readouterr().err
    # levels 0..32, the first request; the next asks past level 40 and is
    # refused before any level past the ceiling is generated
    assert len(read) == 33


@pytest.mark.parametrize("argv", [
    "detect --type B2 --mode character-point --seed 22",
    "verify --type B2 --mode character-point --seed 1",
    "gen --type B2 --mode character-point --depth 20 --seed 7",
])
def test_each_attempt_computes_its_level1_values_once(argv, capsys, monkeypatch):
    import qrec.cli as cli_mod
    import qrec.qsystem as qsystem
    specs = []
    original = qsystem.initial_values

    def counted(lt, spec):
        specs.append(spec)
        return original(lt, spec)

    monkeypatch.setattr(qsystem, "initial_values", counted)
    monkeypatch.setattr(cli_mod, "initial_values", counted)
    code, payload = run_json(capsys, *argv.split())
    # one singular draw, then the draw reported: one call for each
    assert code == 0 and payload["retries"] == 1
    assert len(specs) == 2 and specs[0] != specs[1]


@pytest.mark.parametrize("name, node", [("A3", 2), ("B3", 3), ("C3", 2), ("D4", 4)])
def test_a_classical_character_point_detect_builds_no_weight_system(name, node, capsys,
                                                                    monkeypatch):
    import qrec.qsystem as qsystem

    def never(*args):
        raise AssertionError("built a weight system")

    monkeypatch.setattr(qsystem, "weight_system", never)
    code, payload = run_json(capsys, "detect", "--type", name, "--node", str(node),
                             "--mode", "character-point", "--seed", "2")
    assert code == 0
    assert payload["recurrence"]["order"] == predicted_order(LieType.parse(name), node)


def test_a_character_point_verify_expands_no_elementary_symmetric(capsys):
    for argv in ("verify --type B3 --node 1 --mode character-point --seed 7",
                 "verify --type A3 --node 2 --mode character-point --seed 2"):
        code, payload = run_json(capsys, *argv.split())
        checks = {c["name"]: c["status"] for c in payload["checks"]}
        assert code == 0 and checks["coefficient_formula"] == "pass", argv


@pytest.mark.parametrize("argv", [
    "detect --type B500 --node 2",
    "verify --type B500 --node 2",
    "interpolate --type B500 --node 2 --k 1 --degree 0 --runs 6",
    "gen --type C500 --node 2",
    "detect --type D500 --node 2",
    "detect --type B495 --node 2",
])
def test_a_deep_classical_order_is_a_resource_cap(argv, capsys):
    # the orders come from the L and M triangles, whose entries at rank 500
    # must not recurse past the interpreter's limit
    assert main(argv.split()) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"resource cap: depth \d+ exceeds the depth ceiling 8192\n", err)


@pytest.mark.parametrize("argv, message", [
    ("detect", "--type is required"),
    ("detect --type A2 --q 1,x", "cannot parse number list '1,x'"),
    ("detect --type A2 --mode raw-explicit", "raw-explicit mode needs --q"),
    ("gen --type A2 --mode dimension", "dimension mode needs an explicit --depth"),
    ("gen --type E6 --node 3", "--depth auto needs a tabulated order"),
    ("interpolate --type A2", "--k is required for interpolate"),
    ("interpolate --type E6 --node 3 --k 1", "interpolation needs a tabulated order"),
    ("weights --type A2", "--highest is required"),
    ("verify --type B3 --mode character-point --seed 7 --branching {node9}",
     "branching node 9 out of range for B3"),
    ("detect --type A2 --y 2,3,5", "torus point needs 2 entries"),
])
def test_each_usage_error_exits_3_with_its_message(argv, message, capsys, tmp_path):
    node9 = tmp_path / "node9.json"
    node9.write_text(json.dumps({"type": "B3", "branching": {"9": [[1, 0, 0]]}}))
    assert main(argv.format(node9=node9).split()) == 3
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name, q", [("A3", "3,-4,5"), ("C3", "3,-4,5"), ("D4", "3,-4,5,7")])
def test_the_catalogued_node_1_numerators_hold_and_a_doubled_sequence_fails(name, q, capsys):
    code, payload = run_json(capsys, "verify", "--type", name, "--q", q)
    assert code == 0
    assert {c["name"]: c["status"] for c in payload["checks"]}["numerator"] == "pass"
    lt, qvals = LieType.parse(name), [Fraction(v) for v in q.split(",")]
    seq = generate(lt, RawQ(qvals), (1, 40)).node(1)
    rec = find_min_recurrence(seq)
    assert check_numerator(lt, 1, seq, rec, qvals, None) == (True, None)
    ok, witness = check_numerator(lt, 1, [2 * s for s in seq], rec, qvals, None)
    assert not ok and re.fullmatch(r"numerator \[.*\] != catalogued \[.*\]", witness)


@pytest.mark.parametrize("argv", [
    "detect --type A20000",
    "verify --type A20000",
    "interpolate --type A20000 --k 1 --degree 0 --runs 6",
    "gen --type A20000",
])
def test_an_auto_depth_past_the_ceiling_is_refused_before_any_cartan_matrix(argv, capsys,
                                                                           monkeypatch):
    import qrec.cartan as cartan

    def never(r):
        raise AssertionError(f"built a {r}x{r} Cartan matrix")

    monkeypatch.setattr(cartan, "_chain_matrix", never)
    assert main(argv.split()) == 4
    assert "depth 45006 exceeds the depth ceiling 8192" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("dims --type A20000", "depth at least 20003 exceeds the depth ceiling 8192"),
    ("dims --type A20000 --depth 9000", "depth 9000 exceeds the depth ceiling 8192"),
])
def test_dims_past_the_ceiling_is_refused_before_any_root(argv, message, capsys, monkeypatch):
    import qrec.cartan as cartan
    import qrec.cli as cli_mod

    def never(*args):
        raise AssertionError("built the root system")

    monkeypatch.setattr(cartan, "positive_roots", never)
    monkeypatch.setattr(cartan, "_chain_matrix", never)
    monkeypatch.setattr(cli_mod, "cartan_data", never)
    assert main(argv.split()) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "weights --type A1000 --highest 1" + ",0" * 999,
    "dims --type A1000",
    "dims --type A1000 --depth 5",
    "detect --type A1000 --mode character-point",
    "verify --type A1000 --mode character-point --y " + ",".join(["2"] * 1000),
], ids=["weights", "dims", "dims-depth", "detect", "verify"])
def test_a_root_system_past_the_cap_is_refused_before_any_root(argv, capsys, monkeypatch):
    import qrec.cartan as cartan
    import qrec.weights as weights

    def never(*args):
        raise AssertionError("built the root system")

    monkeypatch.setattr(cartan, "positive_roots", never)
    monkeypatch.setattr(weights, "positive_roots", never)
    monkeypatch.setattr(cartan, "_chain_matrix", never)
    assert main(argv.split()) == 4
    assert ("resource cap: A1000 has 500500 positive roots of 1000 entries each, "
            "above the cap of 1000000 entries") in capsys.readouterr().err


def test_a_singular_explicit_q_is_not_redrawn(capsys):
    assert main("detect --type A2 --q 1,0".split()) == 2
    assert "detection failed: Q^(2) vanished at level 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "verify"])
def test_singular_draws_are_redrawn_up_to_the_retry_limit(command, capsys, monkeypatch):
    import qrec.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_random_q", lambda lt, rng: (0, 0))
    detected, real = [], cli_mod._detect

    def detect(lt, node, specs, *rest):
        detected.extend(spec.values for spec in specs)
        return real(lt, node, specs, *rest)

    monkeypatch.setattr(cli_mod, "_detect", detect)
    assert main([command, "--type", "A2"]) == 2
    assert "detection failed" in capsys.readouterr().err
    assert len(detected) == 1 + cli_mod.MAX_SINGULAR_RETRIES == 6


@pytest.mark.parametrize("argv, untabulated", [
    # every detection at depth 40 is unstable
    ("interpolate --type E6 --node 3 --k 1 --depth 40 --degree 0 --runs 6", False),
    # every draw detects order 3, below k
    ("interpolate --type A2 --k 4 --degree 0 --runs 6 --depth 20", True),
])
def test_interpolation_out_of_draws_says_how_many_detections_succeeded(argv, untabulated,
                                                                       capsys, monkeypatch):
    import qrec.cli as cli_mod
    if untabulated:
        monkeypatch.setattr(cli_mod, "predicted_order", lambda lt, a: None)
    assert main(argv.split()) == 2
    k = argv.split()[argv.split().index("--k") + 1]
    assert (f"detection failed: 0 of --runs 6 detections of order >= {k} succeeded, "
            "out of 26 distinct draws") in capsys.readouterr().err


# E6 in this repo's numbering (chain 1-5, node 6 on node 3): the level-1
# decompositions of nodes 2, 3, 4 and 6, of dimensions 378, 3732, 378 and 79
E6_BRANCHING = {"2": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]],
                "3": [[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
                      [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]],
                "4": [[0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0]],
                "6": [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]]}


@pytest.mark.parametrize("seed", ["1", "2"])
def test_e6_node_1_character_numerator_end_to_end(seed, capsys, tmp_path):
    from qrec.weights import dimension
    e6 = LieType.parse("E6")
    assert [sum(dimension(e6, tuple(w)) for w in E6_BRANCHING[a]) for a in "2346"] == [
        378, 3732, 378, 79]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"type": "E6", "branching": E6_BRANCHING}))
    short = {**E6_BRANCHING, "3": E6_BRANCHING["3"][:3] + E6_BRANCHING["3"][4:]}
    bad.write_text(json.dumps({"type": "E6", "branching": short}))
    argv = ["verify", "--type", "E6", "--node", "1", "--mode", "character-point",
            "--seed", seed, "--branching"]
    code, payload = run_json(capsys, *argv, str(good))
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert code == 0 and statuses.pop("coefficient_formula") == "skipped"
    assert statuses["numerator"] == "pass" and set(statuses.values()) == {"pass"}
    code, payload = run_json(capsys, *argv, str(bad))
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert code == 2 and failed == ["factorization"]


def test_a_parser_for_one_subcommand_builds_that_subparser_only():
    def built(parser):
        sub, = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
        return list(sub.choices)
    assert built(build_parser("detect")) == ["detect"]
    assert built(build_parser()) == built(build_parser("frobnicate")) == list(COMMANDS)


# every interpolate argv of the tests: the pinned ones, the benchmark's smoke
# job, and the argv that the tests above run, some of them with the draws or
# the order table patched
INTERPOLATE_ARGV = [text for text in PINS if text.startswith("interpolate")] + [
    "interpolate --type E6 --node 1 --k 2 --runs 40 --modular 3 --seed 5",
    "interpolate --type E6 --node 1 --k 1 --runs 12 --degree 1 --modular 3 --seed 1",
    "interpolate --type A2 --k 3 --runs 12 --degree 1 --seed 2",
    "interpolate --type A2 --k 4 --runs 12 --degree 1",
    "interpolate --type A2 --k -1 --runs 12 --degree 1",
    "interpolate --type A1 --k 1 --degree 97 --runs 103 --seed 1",
    "interpolate --type E6 --node 1 --k 1 --degree 3 --runs 40 --modular 3",
    "interpolate --type E6 --node 1 --k 1 --degree 50",
    "interpolate --type A2 --k 1 --runs=-1",
    "interpolate --type A2 --k 1 --runs 11 --guard 100000",
    "interpolate --type A2 --k 1 --degree=-1",
    "interpolate --type A2 --k 1 --depth 0",
    "interpolate --type A2 --k 1 --depth=-3",
    "interpolate --type A2 --k 1 --runs 12 --degree 1 --seed 2",
    "interpolate --type B500 --node 2 --k 1 --degree 0 --runs 6",
    "interpolate --type A2",
    "interpolate --type E6 --node 3 --k 1",
    "interpolate --type A20000 --k 1 --degree 0 --runs 6",
    "interpolate --type E6 --node 3 --k 1 --depth 40 --degree 0 --runs 6",
    "untabulated: interpolate --type A2 --k 4 --degree 0 --runs 6 --depth 20",
    "repeated: interpolate --type A2 --k 1 --runs 8 --degree 1",
    "repeated: interpolate --type A2 --k 1 --runs 8 --degree 1 --modular 3",
    "dependent: interpolate --type A2 --k 1 --runs 8 --degree 1",
    # singular draws in the middle of a round, over Q and over Z/m
    "singular: interpolate --type A2 --k 1 --runs 8 --degree 1",
    "singular: interpolate --type A2 --k 1 --runs 8 --degree 1 --modular 3",
    # windows too short for any guard: the first draw raises InsufficientData
    "interpolate --type A2 --k 1 --runs 8 --degree 1 --depth 5",
    "interpolate --type A2 --k 1 --runs 8 --degree 1 --depth 5 --modular 3",
]


@pytest.mark.parametrize("text", INTERPOLATE_ARGV)
def test_interpolation_by_rounds_reports_what_one_detection_per_draw_does(text, capsys,
                                                                          monkeypatch):
    import qrec.cli as cli_mod
    from helpers_oracles import per_draw_interpolate

    patch, _, argv = text.rpartition(": ")
    if patch == "untabulated":
        monkeypatch.setattr(cli_mod, "predicted_order", lambda lt, a: None)

    def outcome(runner):
        # the same draws for both runners
        repeated = iter([(2, 3), (2, 3), (5, 7), (2, 3), (-4, 9), (5, 7), (1, -6), (8, 8),
                         (-3, 2), (6, -1), (-9, -5), (4, 11), (7, 3), (-2, -8)])
        singular = iter([(2, 3), (0, 0), (5, 7), (-4, 9), (0, 5), (1, -6), (8, 8), (0, 0),
                         (-3, 2), (6, -1), (3, 0), (-9, -5), (4, 11), (7, 3), (-2, -8)])
        line = random.Random(5)
        draws = {"repeated": lambda lt, rng: next(repeated),
                 "singular": lambda lt, rng: next(singular),
                 "dependent": lambda lt, rng: (lambda x: (x, x + 1))(line.randint(-50, 49))}
        if patch in draws:
            monkeypatch.setattr(cli_mod, "_random_q", draws[patch])
        monkeypatch.setattr(cli_mod, "run_interpolate", runner)
        code = main(argv.split())
        out, err = capsys.readouterr()
        payload = json.loads(out) if out else None
        if payload is not None:
            del payload["timings"]
        return code, payload, err

    rounds = outcome(cli_mod.run_interpolate)
    assert rounds == outcome(per_draw_interpolate)


@pytest.mark.parametrize("argv, message", [
    ("dims --type A60 --depth 1", "node 1 needs at least 62 levels"),
    ("dims --type A125 --depth 1", "node 1 needs at least 127 levels"),
    # node 2 of G2 strides by 3, and node 1 has the levels it needs
    ("dims --type G2 --depth 25", "node 2 needs at least 36 levels"),
])
def test_dims_refuses_a_shallow_depth_before_any_table(argv, message, capsys, monkeypatch):
    import qrec.qsystem as qsystem

    def never(*args):
        raise AssertionError("a Weyl dimension was computed")

    monkeypatch.setattr(qsystem, "dimension", never)
    assert main(argv.split()) == 4
    assert capsys.readouterr().err == f"resource cap: {message}\n"


@pytest.mark.parametrize("modular", [False, True], ids=["exact", "modular"])
@pytest.mark.parametrize("depth", [None, 30], ids=["streams", "windows"])
def test_a_round_of_draws_detects_what_rounds_of_one_draw_do(modular, depth):
    import qrec.cli as cli_mod
    from qrec.fields import seeded_primes
    from qrec.qsystem import RawQ, SingularSpecialization
    lt, primes = LieType.parse("A3"), seeded_primes(3, 1) if modular else None
    # (0, 0, 0) divides by Q^(1)_1 = 0
    specs = [RawQ(q) for q in ((3, -7, 12), (0, 0, 0), (-41, 5, 9), (4, -1, 6))]

    def plain(draw):
        q, rec, seq, read = draw
        return q, (type(rec), str(rec)) if isinstance(rec, Exception) else rec, seq, read

    alone = [plain(cli_mod._detect(lt, 2, [spec], depth, None, primes)[0]) for spec in specs]
    assert [plain(draw) for draw in cli_mod._detect(lt, 2, specs, depth, None, primes)] == alone
    assert [rec[0] for _, rec, _, _ in alone if not isinstance(rec, RecurrencePoly)] == [
        SingularSpecialization]
    assert all((seq is None) == modular for _, rec, seq, _ in alone
               if isinstance(rec, RecurrencePoly))
