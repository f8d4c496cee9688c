"""Seeded fuzzing of the CLI's exit-code contract.

The golden scenarios and a `simulate` ingress CSV are mutated with a fixed
seed: truncated lines, missing or duplicated fields, bytes that are not
UTF-8, out-of-range ASNs and prefix lengths.  Every case runs through the
in-process `cli.main` (`simulate`, `plan --budget-actions 1`, `diff`) and
must end with an exit code in 0-5, no exception and no `SystemExit`, and one
`error:` line on stderr exactly when the code is 1 or 2 (2 only for "no fixed
point").  The command lines of golden runs are mutated too: a flag dropped,
a number made into letters, non-ASCII digits, a negative number or a float,
an unknown flag or subcommand.  Each malformed command line is an input
error, exit 1.  350 cases in all; this module is not one of the timed
criterion-9 suites.
"""

import itertools
import random
from pathlib import Path
from typing import Iterator

import pytest

from bgpsteer.cli import INGRESS_FILE, main

SCENARIOS = sorted(Path("scenarios").glob("*.scn"))
WITH_OBJECTIVES = [p for p in SCENARIOS if "\nobjective " in p.read_text()]
SCENARIO_CASES = 100  # each runs simulate and plan
CSV_CASES = 100
ARGV_CASES = 50
BAD_ASNS = [b"0", b"-1", b"4294967296", b"99999999999999999999", b"65536.1"]
BAD_PREFIXES = [b"10.1.0.0/33", b"10.1.0.0/-1", b"10.1.0.0/999", b"10.256.0.0/16", b"10.1.0.0"]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\xe2\x82", b"\x80abc", b"\xed\xa0\x80"]


def mutate_line(rng: random.Random, line: bytes, sep: bytes) -> bytes:
    fields = line.split(sep)
    kind = rng.randrange(7)
    if kind == 0:  # truncated, half the time to nothing
        return line[: rng.randrange(len(line) + 1)] if rng.random() < 0.5 else b""
    if kind == 1 and len(fields) > 1:  # a field missing
        del fields[rng.randrange(len(fields))]
    elif kind == 2:  # a field duplicated
        i = rng.randrange(len(fields))
        fields.insert(i, fields[i])
    elif kind == 3:  # bytes that are not UTF-8
        i = rng.randrange(len(line) + 1)
        return line[:i] + rng.choice(BAD_BYTES) + line[i:]
    elif kind == 4:  # an out-of-range ASN where a number stood
        numeric = [i for i, f in enumerate(fields) if f.strip().isdigit()]
        fields[rng.choice(numeric) if numeric else 0] = rng.choice(BAD_ASNS)
    elif kind == 5:  # an out-of-range prefix length or address
        prefixes = [i for i, f in enumerate(fields) if b"/" in f]
        fields[rng.choice(prefixes) if prefixes else -1] = rng.choice(BAD_PREFIXES)
    else:  # the whole line repeated
        return line + b"\n" + line
    return sep.join(fields)


def mutate(rng: random.Random, data: bytes, sep: bytes) -> bytes:
    lines = data.split(b"\n")
    records = [i for i, line in enumerate(lines) if line and not line.startswith(b"#")]
    for _ in range(rng.randint(1, 2)):
        i = rng.choice(records)
        lines[i] = mutate_line(rng, lines[i], sep)
    if rng.random() < 0.1:  # the file cut short
        return b"\n".join(lines)[: rng.randrange(len(data) + 1)]
    return b"\n".join(lines)


def scenario_cases(paths: list[Path]) -> list[tuple[str, bytes]]:
    rng = random.Random(5150)
    cases = []
    for n in range(SCENARIO_CASES):
        path = rng.choice(paths)
        cases.append((f"case {n} from {path.name}", mutate(rng, path.read_bytes(), b" ")))
    return cases


def run_cli(argv: list[str], capsys, what: str) -> int:
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # a traceback or an argparse exit breaks the contract
        pytest.fail(f"{what}: {' '.join(argv)} raised {exc!r}")
    err = capsys.readouterr().err
    assert code in range(6), (what, code, err)
    assert "Traceback" not in err, (what, err)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code in (1, 2)), (what, code, err)
    assert code != 2 or "no fixed point" in errors[0], (what, err)
    return code


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_fuzzed_scenarios_keep_the_exit_code_contract(command, tmp_path, capsys):
    extra, paths = (["--budget-actions", "1"], WITH_OBJECTIVES) if command == "plan" else ([], SCENARIOS)
    codes = []
    for n, (what, data) in enumerate(scenario_cases(paths)):
        scn = tmp_path / f"{n}.scn"
        scn.write_bytes(data)
        codes.append(run_cli([command, "--scenario", str(scn), "--out", str(tmp_path / f"{n}.out")] + extra, capsys, what))
    assert 1 in codes and len(set(codes)) > 1  # some mutations get past the parser


def test_fuzzed_ingress_csvs_keep_the_exit_code_contract(tmp_path, capsys):
    base = tmp_path / "base"
    assert main(["simulate", "--scenario", "scenarios/dualprovider_sourceasn_objectives.scn", "--out", str(base)]) == 0
    capsys.readouterr()
    csv = (base / INGRESS_FILE).read_bytes()
    rng = random.Random(6160)
    codes = []
    for n in range(CSV_CASES):
        fuzzed = tmp_path / f"csv{n}"
        fuzzed.mkdir()
        (fuzzed / INGRESS_FILE).write_bytes(mutate(rng, csv, b","))
        pair = [str(base), str(fuzzed)] if rng.random() < 0.5 else [str(fuzzed), str(base)]
        codes.append(run_cli(["diff"] + pair, capsys, f"csv case {n}"))
    assert 1 in codes



NUMBER_FLAGS = {"simulate": "--max-rounds", "plan": "--budget-actions"}
BAD_NUMBERS = ["abc", "١", "３", "-1", "1.5"]  # letters, non-ASCII digits, negative, float
UNKNOWN_FLAGS = ["--bogus", "--rounds", "-z", "--budget-action-count"]
UNKNOWN_COMMANDS = ["simulat", "run", "PLAN", "", "--scenario"]


def mutate_argv(rng: random.Random, argv: list[str], bad_numbers: Iterator[str]) -> tuple[list[str], bool]:
    """A mutated copy of `argv`, and whether it is malformed.  A bad number is
    the next of `bad_numbers`, so every kind of them is tried; `diff`, which
    has no number flag, gets an unknown flag instead."""
    argv = list(argv)
    command = argv[0]
    kind = rng.choice(["drop", "number", "unknown-flag", "unknown-command"])
    if kind == "drop" and command == "diff":  # one of the two run directories
        del argv[rng.choice([1, 2])]
    elif kind == "drop":  # --out stays: without it, reports land next to the golden scenario
        flag = rng.choice(["--scenario", NUMBER_FLAGS[command]])
        i = argv.index(flag)
        del argv[i : i + 2]
        return argv, flag == "--scenario"
    elif kind == "number" and command in NUMBER_FLAGS:
        argv[argv.index(NUMBER_FLAGS[command]) + 1] = next(bad_numbers)
    elif kind == "unknown-command":
        argv[0] = rng.choice(UNKNOWN_COMMANDS)
    else:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(UNKNOWN_FLAGS))
    return argv, True


def test_mutated_command_lines_keep_the_exit_code_contract(tmp_path, capsys):
    runs = [tmp_path / "base", tmp_path / "planned"]
    for run, name in zip(runs, ("deep_baseline.scn", "deep_planned.scn")):
        assert main(["simulate", "--scenario", f"scenarios/{name}", "--out", str(run)]) == 0
    capsys.readouterr()
    rng = random.Random(7170)
    bad_numbers = itertools.cycle(BAD_NUMBERS)
    malformed = 0
    for n in range(ARGV_CASES):
        out = str(tmp_path / f"argv{n}")
        command = rng.choice(["simulate", "plan", "diff"])
        if command == "simulate":
            argv = [command, "--scenario", str(rng.choice(SCENARIOS)), "--out", out, "--max-rounds", "50"]
        elif command == "plan":
            argv = [command, "--scenario", str(rng.choice(WITH_OBJECTIVES)), "--out", out, "--budget-actions", "1"]
        else:
            argv = [command, *map(str, runs)]
        mutated, bad = mutate_argv(rng, argv, bad_numbers)
        code = run_cli(mutated, capsys, f"argv case {n}")
        if bad:
            assert code == 1, (n, mutated)
            malformed += 1
    assert malformed > ARGV_CASES // 2
