import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bgpsteer.cli import main
from bgpsteer.engine import OscillationError
from bgpsteer.scenario import ScenarioError, parse_scenario
from bgpsteer.topology import Prefix, TopologyError

SCN = Path("scenarios")


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_simulate_dualprovider_baseline(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(SCN / "dualprovider_baseline.scn"), "--out", str(out)])
    assert code == 0
    csv = (out / "ingress.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "src_asn,dst_prefix,link"
    rows = dict(line.rsplit(",", 1) for line in csv[1:])
    assert rows["65101,10.1.0.0/16"] == "l1"
    assert rows["65101,10.2.0.0/16"] == "l1"
    assert rows["65102,10.1.0.0/16"] == "l2"
    assert rows["65102,10.2.0.0/16"] == "l2"
    assert (out / "state.txt").read_text(encoding="utf-8").startswith("rounds ")


def test_simulate_missing_file(tmp_path, capsys):
    # A file-level error has no line or column to report
    missing = tmp_path / "nope.scn"
    code = main(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "o")])
    assert code == 1
    assert single_error_line(capsys.readouterr().err) == (
        f"error: cannot read scenario: [Errno 2] No such file or directory: '{missing}'"
    )


def test_simulate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("as 1 stub\nlink l1 1 9 p2p\n", encoding="utf-8")
    code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown ASN" in capsys.readouterr().err


def test_simulate_oscillation_exit_2(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(SCN / "oscillate.scn"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "AS 100" in err and "AS 200" in err


def test_the_module_entry_point_exits_with_mains_code(tmp_path):
    """`python -m bgpsteer.cli` carries main's return value out of the
    process: 0 with the same reports main writes, 1 with one error line for a
    missing scenario, 2 for an oscillation."""
    env = {**os.environ, "PYTHONPATH": "src"}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bgpsteer.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    golden = str(SCN / "dualprovider_baseline.scn")
    done = module("simulate", "--scenario", golden, "--out", str(tmp_path / "sub"))
    assert done.returncode == 0, done.stderr
    assert main(["simulate", "--scenario", golden, "--out", str(tmp_path / "lib")]) == 0
    for name in ("state.txt", "ingress.csv"):
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    done = module("simulate", "--scenario", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o"))
    assert done.returncode == 1
    single_error_line(done.stderr)

    done = module("simulate", "--scenario", str(SCN / "oscillate.scn"), "--out", str(tmp_path / "o"))
    assert done.returncode == 2, done.stderr


def test_simulate_trace(tmp_path, capsys):
    code = main([
        "simulate", "--scenario", str(SCN / "med_basic.scn"), "--out", str(tmp_path / "o"), "--trace",
    ])
    assert code == 0
    assert "--- round 1 ---" in capsys.readouterr().err


def test_simulate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(out)]) == 0
    assert (out1 / "state.txt").read_bytes() == (out2 / "state.txt").read_bytes()
    assert (out1 / "ingress.csv").read_bytes() == (out2 / "ingress.csv").read_bytes()


def test_plan_dualprovider_sourceasn_objectives(tmp_path, capsys):
    out = tmp_path / "plan"
    code = main(["plan", "--scenario", str(SCN / "dualprovider_sourceasn_objectives.scn"), "--out", str(out)])
    assert code == 0
    report = (out / "plan.txt").read_text(encoding="utf-8")
    assert "status found" in report
    assert "action attach-community 10.2.0.0/16 l1 100:12" in report
    assert "action attach-community 10.2.0.0/16 l2 200:22" in report
    assert report.count("satisfied=yes") == 4
    assert "side-effect" not in report
    assert (out / "predicted_ingress.csv").exists()


def test_plan_ignores_the_scenarios_advertise_records(tmp_path, capsys):
    # Two advertise records move flows in `simulate`, but `plan` starts from
    # the plain announcement table, so its reports stay byte for byte.
    plain = SCN / "dualprovider_sourceasn_objectives.scn"
    advertised = tmp_path / "advertised.scn"
    advertised.write_text(
        plain.read_text(encoding="utf-8") + "advertise 65001 10.1.0.0/16 l2\nadvertise 65001 10.2.0.0/16 l2\n",
        encoding="utf-8",
    )
    for path, name in ((plain, "plain"), (advertised, "advertised")):
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "sim" / name)]) == 0
        assert main(["plan", "--scenario", str(path), "--out", str(tmp_path / name)]) == 0
    assert main(["diff", str(tmp_path / "sim" / "plain"), str(tmp_path / "sim" / "advertised")]) == 5
    for report in ("plan.txt", "predicted_ingress.csv"):
        assert (tmp_path / "plain" / report).read_bytes() == (tmp_path / "advertised" / report).read_bytes()


def test_plan_infeasible_exit_3(tmp_path, capsys):
    code = main(["plan", "--scenario", str(SCN / "singleprovider_split_objectives.scn"), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "same-provider" in capsys.readouterr().out
    assert (tmp_path / "o" / "plan.txt").read_text(encoding="utf-8").startswith("status infeasible\n")


def test_plan_pivot_witness_printed(tmp_path, capsys):
    code = main(["plan", "--scenario", str(SCN / "tier1_pivot.scn"), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "witness 600" in capsys.readouterr().out


def test_plan_source_prefix_exit_1(tmp_path, capsys):
    code = main(["plan", "--scenario", str(SCN / "srcprefix_objective.scn"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "granularity" in capsys.readouterr().err


def test_plan_without_objectives_exit_1(tmp_path, capsys):
    code = main(["plan", "--scenario", str(SCN / "dualprovider_baseline.scn"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no objectives" in capsys.readouterr().err


def test_plan_objectives_for_two_destinations_exit_1(tmp_path, capsys):
    text = (SCN / "dualprovider_baseline.scn").read_text(encoding="utf-8")
    scn = tmp_path / "two.scn"
    scn.write_text(
        text + "originate 65102 10.3.0.0/16\n"
        "objective 65001 65101 10.1.0.0/16 l1\nobjective 65102 65101 10.3.0.0/16 l7\n",
        encoding="utf-8",
    )
    assert main(["plan", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_error_line(captured.err) == "error: objectives target more than one destination AS"
    assert not (tmp_path / "o").exists()


def test_plan_exhausted_exit_4(tmp_path, capsys):
    code = main([
        "plan", "--scenario", str(SCN / "dualprovider_sourceasn_objectives.scn"),
        "--out", str(tmp_path / "o"), "--budget-actions", "1",
    ])
    assert code == 4
    assert "exhausted" in capsys.readouterr().out
    assert (tmp_path / "o" / "plan.txt").read_text(encoding="utf-8").startswith("status exhausted ")


BASELINE_MET_PLAN = (
    "status found\n"
    "objective 65001 65101 10.1.0.0/16 l1 satisfied=yes\n"
    "objective 65001 65102 10.1.0.0/16 l2 satisfied=yes\n"
    "rounds 4\n"
)
BASELINE_MET_PREDICTED = (
    "src_asn,dst_prefix,link\n"
    "100,10.1.0.0/16,l1\n100,10.2.0.0/16,l1\n200,10.1.0.0/16,l2\n200,10.2.0.0/16,l2\n"
    "300,10.1.0.0/16,l1\n300,10.2.0.0/16,l1\n400,10.1.0.0/16,l2\n400,10.2.0.0/16,l2\n"
    "65101,10.1.0.0/16,l1\n65101,10.2.0.0/16,l1\n65102,10.1.0.0/16,l2\n65102,10.2.0.0/16,l2\n"
)


def test_plan_whose_baseline_meets_every_objective(tmp_path, capsys):
    # The empty plan: no action, no side effect, the baseline's rounds and
    # ingress map, byte for byte as when the baseline was simulated once
    # per planner call and twice more by evaluate_plan.
    text = (SCN / "dualprovider_baseline.scn").read_text(encoding="utf-8")
    scn = tmp_path / "met.scn"
    scn.write_text(
        text + "objective 65001 65101 10.1.0.0/16 l1\nobjective 65001 65102 10.1.0.0/16 l2\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert main(["plan", "--scenario", str(scn), "--out", str(out)]) == 0
    assert capsys.readouterr().out == BASELINE_MET_PLAN
    assert (out / "plan.txt").read_bytes() == BASELINE_MET_PLAN.encode()
    assert (out / "predicted_ingress.csv").read_bytes() == BASELINE_MET_PREDICTED.encode()


ONE_ATOM = (
    "as 65001 stub\nas 100 transit\nas 65101 stub\n"
    "link l1 65001 100 c2p\nlink l2 65101 100 c2p\n"
    "originate 65001 10.1.0.0/16\n"
    "objective 65001 65101 10.1.0.0/16 l1\n"
)
# 65101 reaches 65001 only through 100, so no action moves it to l2: two
# atoms (withhold on l1, withhold on l2), four consistent action sets.
TWO_ATOMS_UNMET = (
    "as 65001 stub\nas 100 transit\nas 200 transit\nas 65101 stub\n"
    "link l1 65001 100 c2p\nlink l2 65001 200 c2p\nlink l3 65101 100 c2p\n"
    "originate 65001 10.1.0.0/16\n"
    "objective 65001 65101 10.1.0.0/16 l2\n"
)


@pytest.mark.parametrize(
    "text, code", [(ONE_ATOM, 0), (TWO_ATOMS_UNMET, 4)], ids=["plan", "exhausted"]
)
def test_plan_huge_budget_costs_what_the_atoms_allow(tmp_path, capsys, text, code):
    # The search is bounded by the atom count, not by the budget: a budget
    # of a billion reports what a budget of 3 reports, at once.
    scn = tmp_path / "s.scn"
    scn.write_text(text, encoding="utf-8")
    reports = []
    for budget in ("3", "1000000000"):
        out = tmp_path / budget
        started = time.perf_counter()
        assert main(["plan", "--scenario", str(scn), "--out", str(out), "--budget-actions", budget]) == code
        assert time.perf_counter() - started < 5.0
        reports.append((out / "plan.txt").read_text(encoding="utf-8"))
    small, huge = reports
    if code == 0:
        assert small == huge
    else:
        assert small == "status exhausted tried=4 max-actions=3\n"
        assert huge == "status exhausted tried=4 max-actions=1000000000\n"
    capsys.readouterr()


def test_plan_decides_an_objective_no_announcement_reaches(tmp_path, capsys):
    # 65103 is a customer of 400 alone, and no announcement over l1 reaches
    # 400.  The planner answers as a search over every action set of at most
    # 40 actions would, without that search.
    text = (SCN / "dualprovider_destprefix_objectives.scn").read_text(encoding="utf-8")
    unmet = text.replace("objective 65001 * 10.2.0.0/16 l2", "objective 65001 65103 10.2.0.0/16 l1")
    assert unmet != text
    scn = tmp_path / "unmet.scn"
    scn.write_text(unmet, encoding="utf-8")
    started = time.perf_counter()
    code = main(["plan", "--scenario", str(scn), "--out", str(tmp_path / "o"), "--budget-actions", "40"])
    assert time.perf_counter() - started <= 2.0
    assert code == 4
    assert capsys.readouterr().out == "status exhausted tried=4362470401 max-actions=40\n"
    assert (tmp_path / "o" / "plan.txt").read_text(encoding="utf-8") == "status exhausted tried=4362470401 max-actions=40\n"


def test_diff_identical_dirs_exit_0(tmp_path, capsys):
    out = tmp_path / "a"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(out)])
    capsys.readouterr()
    assert main(["diff", str(out), str(out)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_diff_deep_baseline_vs_planned_exit_5(tmp_path, capsys):
    base, planned = tmp_path / "base", tmp_path / "planned"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(base)])
    main(["simulate", "--scenario", str(SCN / "deep_planned.scn"), "--out", str(planned)])
    code = main(["diff", str(base), str(planned)])
    assert code == 5
    out = capsys.readouterr().out
    assert "65102,10.2.0.0/16,l1,l2" in out
    assert "65103,10.2.0.0/16,l1,l2" in out


def test_diff_mismatched_scenarios_exit_1(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(a)])
    main(["simulate", "--scenario", str(SCN / "med_basic.scn"), "--out", str(b)])
    assert main(["diff", str(a), str(b)]) == 1


def test_diff_missing_dir_exit_1(tmp_path, capsys):
    assert main(["diff", str(tmp_path / "x"), str(tmp_path / "y")]) == 1


def test_plan_oscillating_baseline_exit_2(tmp_path, capsys):
    text = (
        "as 65001 stub\nas 100 transit\nas 200 transit\n"
        "link l1 65001 100 c2p\nlink l2 65001 200 c2p\nlink l3 100 200 p2p\n"
        "originate 65001 10.1.0.0/16\n"
        "lp-override 100 200 300\nlp-override 200 100 300\n"
        "objective 65001 100 10.1.0.0/16 l1\n"
    )
    scn = tmp_path / "osc.scn"
    scn.write_text(text, encoding="utf-8")
    assert main(["plan", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert "no fixed point" in capsys.readouterr().err


def plan_with_override(tmp_path, override):
    text = (SCN / "dualprovider_sourceasn_objectives.scn").read_text(encoding="utf-8") + override + "\n"
    scn = tmp_path / "lp.scn"
    scn.write_text(text, encoding="utf-8")
    return main(["plan", "--scenario", str(scn), "--out", str(tmp_path / "o")])


def test_plan_reports_lp_constraint_violation(tmp_path, capsys):
    # An LP override may outrank the path lengths a plan acts on; this one
    # leaves a plan that meets every objective, warned of on line 2.
    assert plan_with_override(tmp_path, "lp-override 300 100 60") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["status found", "warning LP-constraint violated - outcome not guaranteed"]
    assert (tmp_path / "o" / "plan.txt").read_text(encoding="utf-8") == out


def test_plan_lp_override_can_defeat_every_bounded_plan(tmp_path, capsys):
    assert plan_with_override(tmp_path, "lp-override 65101 400 300") == 4
    assert capsys.readouterr().out == "status exhausted tried=6799 max-actions=3\n"


def single_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_diff_malformed_row_exit_1(tmp_path, capsys):
    good, bad = tmp_path / "good", tmp_path / "bad"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(good)])
    bad.mkdir()
    (bad / "ingress.csv").write_text((good / "ingress.csv").read_text(encoding="utf-8") + "65101,10.1.0.0/16\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["diff", str(good), str(bad)]) == 1
    assert "malformed row" in single_error_line(capsys.readouterr().err)


def test_diff_row_with_non_ascii_asn_exit_1(tmp_path, capsys):
    # Arabic-Indic digits would read as AS 65101 and dodge the duplicate check
    good, bad = tmp_path / "good", tmp_path / "bad"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(good)])
    bad.mkdir()
    (bad / "ingress.csv").write_text((good / "ingress.csv").read_text(encoding="utf-8") + "٦٥١٠١,10.1.0.0/16,l2\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["diff", str(bad), str(bad)]) == 1
    assert "malformed row" in single_error_line(capsys.readouterr().err)


def test_diff_non_utf8_csv_exit_1(tmp_path, capsys):
    good, bad = tmp_path / "good", tmp_path / "bad"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(good)])
    bad.mkdir()
    (bad / "ingress.csv").write_bytes(b"src_asn,dst_prefix,link\n65101,10.1.0.0/16,l\xff\n")
    capsys.readouterr()
    assert main(["diff", str(good), str(bad)]) == 1
    assert single_error_line(capsys.readouterr().err) == (
        f"error: cannot read {bad / 'ingress.csv'}: 'utf-8' codec can't decode byte 0xff in position 43: "
        "invalid start byte"
    )


def test_diff_csv_without_header_exit_1(tmp_path, capsys):
    for name, text in (("empty", ""), ("headless", "65101,10.1.0.0/16,l1\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ingress.csv").write_text(text, encoding="utf-8")
        assert main(["diff", str(tmp_path / name), str(tmp_path / name)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert single_error_line(captured.err) == f"error: {tmp_path / name / 'ingress.csv'} is not an ingress CSV"


def test_simulate_non_utf8_scenario_exit_1(tmp_path, capsys):
    scn = tmp_path / "latin1.scn"
    golden = (SCN / "dualprovider_baseline.scn").read_bytes()
    scn.write_bytes(golden + b"# caf\xe9\n")
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    assert single_error_line(capsys.readouterr().err) == (
        f"error: cannot read scenario: 'utf-8' codec can't decode byte 0xe9 in position {len(golden) + 5}: "
        "invalid continuation byte"
    )


def test_plan_negative_budget_exit_1(tmp_path, capsys):
    code = main([
        "plan", "--scenario", str(SCN / "dualprovider_sourceasn_objectives.scn"),
        "--out", str(tmp_path / "o"), "--budget-actions", "-1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in single_error_line(captured.err)
    assert not (tmp_path / "o").exists()


def test_simulate_max_rounds_zero_exit_1(tmp_path, capsys):
    code = main([
        "simulate", "--scenario", str(SCN / "dualprovider_baseline.scn"),
        "--out", str(tmp_path / "o"), "--max-rounds", "0",
    ])
    assert code == 1
    assert "max_rounds" in single_error_line(capsys.readouterr().err)


def test_simulate_without_fixed_point_leaves_no_report_directory(tmp_path, capsys):
    code = main([
        "simulate", "--scenario", str(SCN / "oscillate.scn"),
        "--out", str(tmp_path / "o"), "--max-rounds", "1",
    ])
    assert code == 2
    assert "no fixed point" in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_diff_duplicated_row_exit_1(tmp_path, capsys):
    good, bad = tmp_path / "good", tmp_path / "bad"
    main(["simulate", "--scenario", str(SCN / "deep_baseline.scn"), "--out", str(good)])
    lines = (good / "ingress.csv").read_text(encoding="utf-8").splitlines()
    src, prefix, _link = lines[1].split(",")
    bad.mkdir()
    (bad / "ingress.csv").write_text("\n".join(lines + [f"{src},{prefix},elsewhere"]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["diff", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = single_error_line(captured.err)
    assert f"line {len(lines) + 1}," in err
    assert str(bad / "ingress.csv") in err and "duplicate row" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("as 6500² stub\n", "expected an AS number"),
        (
            (SCN / "dualprovider_baseline.scn").read_text(encoding="utf-8") + "lp-override 100 300 ²\n",
            "LP value must be",
        ),
        ("as 1 stub\nas 2 transit\nlink l1 1 2 c2p\noriginate 1 ١٠.1.0.0/16\n", "bad IPv4 address"),
        (
            (SCN / "dualprovider_baseline.scn").read_text(encoding="utf-8") + "policy 100 lp ١٠٠:77 50\n",
            "malformed community",
        ),
    ],
    ids=["asn", "lp-override", "prefix", "community"],
)
def test_simulate_non_ascii_digit_exit_1(tmp_path, capsys, text, message):
    # str.isdigit() accepts '²', which int() rejects, and Arabic-Indic digits,
    # which int() reads: numbers are ASCII digits only
    scn = tmp_path / "digits.scn"
    scn.write_text(text, encoding="utf-8")
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    assert message in single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", str(SCN / "med_basic.scn")],
        ["plan", "--scenario", str(SCN / "deep_objectives.scn")],
    ],
    ids=["simulate", "plan"],
)
def test_out_naming_a_file_exit_1(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    assert main(argv + ["--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write reports" in single_error_line(captured.err)
    assert taken.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("65001,not-a-prefix,", "malformed row"),
        ("65001,not-a-prefix,l1", "prefix missing /length"),
        ("65001,10.1.0.1/16,l1", "host bits set"),
        ("65001,10.1.0.0/33,l1", "prefix length out of range"),
        ("65001,10.1.0.0/16,", "malformed row"),
    ],
    ids=["seed-repro", "no-length", "host-bits", "length", "empty-link"],
)
def test_diff_row_with_bad_prefix_or_empty_link_exit_1(tmp_path, capsys, row, message):
    # the same bad row in both CSVs: the files agree, but neither is valid
    csv = f"src_asn,dst_prefix,link\n65002,10.2.0.0/16,l2\n{row}\n"
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ingress.csv").write_text(csv, encoding="utf-8")
    assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = single_error_line(captured.err)
    assert str(tmp_path / "a" / "ingress.csv") in err and "line 3," in err and message in err


def test_diff_moves_in_asn_then_prefix_order(tmp_path, capsys):
    # 10.10.0.0/16 sorts after 10.2.0.0/16 by address, before it as text;
    # AS 10 sorts after AS 9 by number, before it as text
    keys = ["9,10.10.0.0/16", "10,10.2.0.0/16", "9,10.2.0.0/16", "9,10.0.0.0/8", "10,10.10.0.0/16"]
    for name, link in (("a", "l1"), ("b", "l2")):
        (tmp_path / name).mkdir()
        rows = "".join(f"{key},{link}\n" for key in keys)
        (tmp_path / name / "ingress.csv").write_text("src_asn,dst_prefix,link\n" + rows, encoding="utf-8")
    assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 5
    assert capsys.readouterr().out.splitlines() == [
        "9,10.0.0.0/8,l1,l2",
        "9,10.2.0.0/16,l1,l2",
        "9,10.10.0.0/16,l1,l2",
        "10,10.2.0.0/16,l1,l2",
        "10,10.10.0.0/16,l1,l2",
    ]


@pytest.mark.parametrize(
    "flag, value",
    [("--budget-actions", "١"), ("--budget-actions", "²"), ("--budget-actions", "1.5"), ("--max-rounds", "x")],
    ids=["arabic-indic", "superscript", "float", "letters"],
)
def test_flag_numbers_are_ascii_digits_exit_1(tmp_path, capsys, flag, value):
    # flags read numbers by the scenario files' rule: int() alone reads '١' as 1
    command = "plan" if flag == "--budget-actions" else "simulate"
    code = main([
        command, "--scenario", str(SCN / "dualprovider_sourceasn_objectives.scn"),
        "--out", str(tmp_path / "o"), flag, value,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in single_error_line(captured.err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [[], ["simulate"], ["plan", "--scenario"], ["diff", "a"], ["frobnicate"], ["simulate", "--bogus"]],
    ids=["nothing", "no-scenario", "no-value", "one-dir", "unknown-command", "unknown-flag"],
)
def test_bad_argv_is_an_input_error_exit_1(tmp_path, capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    single_error_line(captured.err)


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["-h"], "usage: bgpsteer "),
        (["simulate", "--help"], "usage: bgpsteer simulate "),
        (["plan", "-h"], "usage: bgpsteer plan "),
        (["diff", "--help"], "usage: bgpsteer diff "),
    ],
    ids=["top", "simulate", "plan", "diff"],
)
def test_help_prints_usage_to_stdout_exit_0(tmp_path, capsys, argv, usage):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage)
    assert captured.err == ""


@pytest.mark.parametrize(
    "exc, code",
    [
        (ScenarioError("bad record", 3, 1), 1),
        (TopologyError("invalid topology: dangling link"), 1),
        (ValueError("bad value"), 1),
        (OscillationError(((65001, Prefix.parse("10.1.0.0/16")),), 7), 2),
        (KeyError("a bug"), None),
    ],
    ids=["scenario", "topology", "value", "oscillation", "bug"],
)
def test_main_alone_maps_exceptions_to_exit_codes(tmp_path, capsys, monkeypatch, exc, code):
    def propagate(*args, **kwargs):
        raise exc

    monkeypatch.setattr("bgpsteer.cli.propagate_to_convergence", propagate)
    argv = ["simulate", "--scenario", str(SCN / "dualprovider_baseline.scn"), "--out", str(tmp_path / "o")]
    if code is None:  # not an outcome of the contract: a bug shows as a traceback
        with pytest.raises(KeyError):
            main(argv)
    else:
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert single_error_line(captured.err) == f"error: {exc}"
    assert not (tmp_path / "o").exists()


def test_simulate_ingress_csv_covers_every_origin(tmp_path, capsys):
    # one row per (source AS, prefix) for every originating AS, in one order
    scn = tmp_path / "two_origins.scn"
    scn.write_text(
        "as 3 transit\nas 20 stub\nas 100 stub\n"
        "link l1 100 3 c2p\nlink l2 20 3 c2p\n"
        "originate 100 10.10.0.0/16\noriginate 20 10.2.0.0/16\noriginate 20 10.0.0.0/8\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "ingress.csv").read_text(encoding="utf-8").splitlines() == [
        "src_asn,dst_prefix,link",
        "3,10.0.0.0/8,l2",
        "3,10.2.0.0/16,l2",
        "3,10.10.0.0/16,l1",
        "20,10.10.0.0/16,l1",
        "100,10.0.0.0/8,l2",
        "100,10.2.0.0/16,l2",
    ]


PROVIDER_CYCLE = (
    "as 1 transit\nas 2 transit\nas 3 transit\nas 4 stub\n"
    "link l1 1 2 c2p\nlink l2 2 3 c2p\nlink l3 3 1 c2p\nlink l4 4 1 c2p\n"
    "originate 4 10.4.0.0/16\n"
)
CYCLE_WARNING = "warning: customer->provider cycle: 1 -> 2 -> 3 -> 1 (convergence not guaranteed)\n"


def test_simulate_and_plan_print_the_topology_warnings(tmp_path, capsys):
    scn = tmp_path / "cycle.scn"
    scn.write_text(PROVIDER_CYCLE, encoding="utf-8")
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "sim")]) == 0
    captured = capsys.readouterr()
    assert captured.err == CYCLE_WARNING and captured.out.startswith("converged in ")
    plain = tmp_path / "plain.scn"
    plain.write_text(PROVIDER_CYCLE.replace("link l3 3 1 c2p\n", "link l3 3 1 c2p down\n"), encoding="utf-8")
    assert main(["simulate", "--scenario", str(plain), "--out", str(tmp_path / "plain")]) == 0
    assert capsys.readouterr().err == ""
    # No stub but the destination sends traffic, so the objective is an
    # input error, reported after the warning.
    scn.write_text(PROVIDER_CYCLE + "objective 4 * 10.4.0.0/16 l4\n", encoding="utf-8")
    assert main(["plan", "--scenario", str(scn), "--out", str(tmp_path / "plan")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == CYCLE_WARNING + (
        "error: objective {*, *, 10.4.0.0/16, 4} -> l4: no stub AS other than AS 4 sources its traffic\n"
    )


def test_no_golden_scenario_has_a_topology_warning():
    for path in sorted(SCN.glob("*.scn")):
        assert parse_scenario(path.read_text(encoding="utf-8")).topology.validation.warnings == (), path.name
