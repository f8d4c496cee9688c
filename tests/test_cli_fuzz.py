"""Seeded fuzzing of the CLI's exit-code contract.

The golden scenarios and a `simulate` ingress CSV are mutated with a fixed
seed: truncated lines, missing or duplicated fields, bytes that are not
UTF-8, out-of-range ASNs and prefix lengths.  Every case runs through the
in-process `cli.main` (`simulate`, `plan --budget-actions 1`, `diff`) and
must end with an exit code in 0-5, no exception and at most one `error:`
line on stderr.  300 cases in all; this module is not one of the timed
criterion-9 suites.
"""

import random
from pathlib import Path

import pytest

from bgpsteer.cli import INGRESS_FILE, main

SCENARIOS = sorted(Path("scenarios").glob("*.scn"))
WITH_OBJECTIVES = [p for p in SCENARIOS if "\nobjective " in p.read_text()]
SCENARIO_CASES = 100  # each runs simulate and plan
CSV_CASES = 100
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
    except Exception as exc:  # a traceback breaks the contract under test
        pytest.fail(f"{what}: {' '.join(argv)} raised {exc!r}")
    err = capsys.readouterr().err
    assert code in range(6), (what, code, err)
    assert "Traceback" not in err, (what, err)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (what, err)
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
