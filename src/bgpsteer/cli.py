"""Command-line front end: simulate, plan and diff scenario runs.

Exit codes:
  0  success (converged / plan found / no diff / help printed)
  1  input error (bad or missing flag, unreadable file, parse error, bad
     objectives)
  2  no fixed point (oscillation)
  3  objectives structurally infeasible (witnesses printed)
  4  bounded search exhausted without a plan
  5  diff found moved flows

Each command returns 0, 3, 4 or 5, or raises; `main` alone turns an
`OscillationError` into exit 2 and a `ValueError` (which `ScenarioError`,
`PlanningError` and `TopologyError` are) into exit 1, each with one `error:`
line on stderr.  Any other exception is a bug and propagates.  `simulate`
and `plan` print each warning of the scenario's topology (say, a
customer->provider cycle) as one `warning:` line on stderr; a warning
changes no exit code and no report.

`plan` reads the scenario's topology and objectives alone: it ignores the
`advertise` records, so the planner starts from the plain announcement
table and measures side effects against that table's baseline, not against
what `simulate` reports for the same file.

All reports are sorted and timestamp-free, so repeated runs on identical
inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .engine import ConvergedState, OscillationError, propagate_to_convergence
from .flows import ingress_csv, ingress_map, moved_entries
from .planner import (
    Budget,
    Exhausted,
    Infeasible,
    Plan,
    PlanningError,
    evaluate_plan,
    plan_inbound_te,
)
from .scenario import Scenario, ScenarioError, parse_scenario
from .topology import Prefix, is_number

STATE_FILE = "state.txt"
INGRESS_FILE = "ingress.csv"
PLAN_FILE = "plan.txt"
PREDICTED_FILE = "predicted_ingress.csv"


def _load(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read scenario: {exc}") from exc
    scenario = parse_scenario(text)
    for finding in scenario.topology.validation.warnings:
        print(f"warning: {finding.message}", file=sys.stderr)
    return scenario


def _write_reports(args, reports: dict[str, str]) -> Path:
    """Create the report directory and write `reports` (file name -> text)
    into it.  Call it only once the reports are ready, so a failed run leaves
    no directory behind.  ValueError when the directory or a report cannot be
    written (say, `--out` names a file)."""
    out = Path(args.out) if args.out else Path(str(args.scenario) + ".out")
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in reports.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write reports to {out}: {exc}") from exc
    return out


def cmd_simulate(args) -> int:
    scenario = _load(args.scenario)
    trace = None
    if args.trace:
        def trace(state: ConvergedState) -> None:
            sys.stderr.write(f"--- round {state.rounds_used} ---\n{state.dump()}")
    t = scenario.topology
    state = propagate_to_convergence(t, scenario.te_config, max_rounds=args.max_rounds, trace=trace)
    entries = {}
    for dest, prefixes in t.originations.items():
        if prefixes:
            entries.update(ingress_map(state, t, dest).entries)
    out = _write_reports(args, {STATE_FILE: state.dump(), INGRESS_FILE: ingress_csv(entries)})
    print(f"converged in {state.rounds_used} rounds; reports in {out}")
    return 0


def _plan_report(scenario: Scenario, plan: Plan, report) -> str:
    lines = ["status found"]
    if plan.lp_constraint_violated:
        lines.append("warning LP-constraint violated - outcome not guaranteed")
    for action in plan.actions:
        lines.append(f"action {action}")
    for o, ok in zip(scenario.objectives, report.satisfied):
        src = "*" if o.flow.src_asn is None else str(o.flow.src_asn)
        lines.append(
            f"objective {o.flow.dst_asn} {src} {o.flow.dst_prefix} {o.required_link} "
            f"satisfied={'yes' if ok else 'no'}"
        )
    for src, prefix, old, new in plan.side_effects:
        lines.append(f"side-effect {src} {prefix} {old} {new}")
    lines.append(f"rounds {report.rounds_used}")
    return "\n".join(lines) + "\n"


def cmd_plan(args) -> int:
    scenario = _load(args.scenario)
    if not scenario.objectives:
        raise PlanningError("scenario contains no objectives")
    dests = {o.flow.dst_asn for o in scenario.objectives}
    if len(dests) != 1:
        raise PlanningError("objectives target more than one destination AS")
    dest = dests.pop()
    budget = Budget(max_actions=args.budget_actions)
    result = plan_inbound_te(scenario.topology, dest, scenario.objectives, budget)
    if isinstance(result, Infeasible):
        text = "\n".join(["status infeasible", *map(str, result.witnesses)]) + "\n"
        reports, code = {PLAN_FILE: text}, 3
    elif isinstance(result, Exhausted):
        text = f"status exhausted tried={result.candidates_tried} max-actions={result.max_actions}\n"
        reports, code = {PLAN_FILE: text}, 4
    else:
        report = evaluate_plan(scenario.topology, dest, result, scenario.objectives)
        text = _plan_report(scenario, result, report)
        reports, code = {PLAN_FILE: text, PREDICTED_FILE: result.predicted_map.to_csv()}, 0
    _write_reports(args, reports)
    print(text, end="")
    return code


def _read_csv(path: Path) -> dict[tuple[int, Prefix], str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != "src_asn,dst_prefix,link":
        raise ValueError(f"{path} is not an ingress CSV")
    entries: dict[tuple[int, Prefix], str] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3 or not is_number(fields[0]) or not fields[2]:
            raise ScenarioError(f"{path}: malformed row {line!r}", number, 1)
        src, prefix_text, link = fields
        try:
            prefix = Prefix.parse(prefix_text)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}", number, len(src) + 2) from exc
        key = (int(src), prefix)
        if key in entries:
            raise ScenarioError(f"{path}: duplicate row for {src},{prefix_text}", number, 1)
        entries[key] = link
    return entries


def cmd_diff(args) -> int:
    base = _read_csv(Path(args.baseline) / INGRESS_FILE)
    new = _read_csv(Path(args.comparison) / INGRESS_FILE)
    moves = moved_entries(base, new)
    for src, prefix, old, new_link in moves:
        print(f"{src},{prefix},{old},{new_link}")
    return 5 if moves else 0


def _count(text: str) -> int:
    """A flag's number, read by the scenario files' rule (`is_number`)."""
    if not is_number(text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A bad, missing or unknown argument is an input error like any other:
    raised for `main` to report, not argparse's usage text and exit 2 (which
    here means oscillation)."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bgpsteer",
        description="AS-level BGP simulation and community-driven inbound traffic engineering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario to its converged state")
    sim.add_argument("--scenario", required=True, help="scenario file path")
    sim.add_argument("--out", help="report directory (default: <scenario>.out)")
    sim.add_argument("--max-rounds", type=_count, default=None, help="override the round bound")
    sim.add_argument("--trace", action="store_true", help="dump per-round RIBs to stderr")
    sim.set_defaults(func=cmd_simulate)

    plan = sub.add_parser("plan", help="search community/advertisement actions for the objectives")
    plan.add_argument("--scenario", required=True, help="scenario file with objective records")
    plan.add_argument("--out", help="report directory (default: <scenario>.out)")
    plan.add_argument("--budget-actions", type=_count, default=3, help="max actions per plan")
    plan.set_defaults(func=cmd_plan)

    diff = sub.add_parser("diff", help="compare the ingress CSVs of two run directories")
    diff.add_argument("baseline", help="baseline run directory")
    diff.add_argument("comparison", help="comparison run directory")
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            # Only the help action exits (`_Parser.error` raises): the help
            # is on stdout and nothing is left to run.
            return 0
        return args.func(args)
    except (OscillationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OscillationError) else 1


if __name__ == "__main__":
    sys.exit(main())
