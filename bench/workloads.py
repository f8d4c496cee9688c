"""The benchmark's three workloads.

Each workload's `setup(bg, seed, reference)` builds its inputs from the seed
and returns a list of operations.  An operation's `run()` is the timed call
into the package's public API; `digest(output)` condenses what it produced
(untimed) for comparison with the reference digest recorded for its key.

- golden-cli: every scenario of the golden corpus through in-process
  `bgpsteer.cli.main(["simulate", ...])`, plus `plan` at the default budget
  for every scenario with objectives.  The seed only shuffles the order.
- sim-layered: one seeded layered graph per size class through the simulate
  pipeline, serialize -> parse -> validate -> propagate -> dump ->
  ingress_map for every origin.
- plan-random: 1000 seeded five-AS planning instances, each planned at
  budget 2 with plan_inbound_te; every Plan is re-checked with evaluate_plan.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
OUT = Path(__file__).resolve().parent / "out"
CLI_FILES = ("state.txt", "ingress.csv", "plan.txt", "predicted_ingress.csv")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    ok: Callable[[object], bool] = lambda _output: True  # invariant beyond the digest
    prepare: Callable[[], None] = lambda: None  # untimed, before each run


# ---------------------------------------------------------------------------


def golden_cli(bg, seed: int, reference: dict) -> list[Op]:
    ops = []
    for path in sorted(SCENARIOS.glob("*.scn")):
        has_objectives = any(
            line.split("#", 1)[0].split()[:1] == ["objective"]
            for line in path.read_text(encoding="utf-8").splitlines()
        )
        for command in ("simulate", "plan") if has_objectives else ("simulate",):
            ops.append(_cli_op(bg, path, command))
    random.Random(f"golden-cli-run/{seed}").shuffle(ops)
    return ops


def _cli_op(bg, path: Path, command: str) -> Op:
    out = OUT / "golden-cli" / f"{path.stem}.{command}"
    argv = [command, "--scenario", str(path), "--out", str(out)]

    def prepare() -> None:
        out.mkdir(parents=True, exist_ok=True)
        for name in CLI_FILES:
            (out / name).unlink(missing_ok=True)
        gc.collect()  # each call starts as in a fresh process, with no garbage left by the last

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return bg.cli.main(argv)

    def digest(code: int) -> str:
        parts = [f"exit {code}"]
        for name in CLI_FILES:
            f = out / name
            parts.append(f"{name}\n" + (f.read_text(encoding="utf-8") if f.exists() else "<absent>"))
        return sha("\n".join(parts))

    return Op(f"{path.stem}:{command}", run, digest, prepare=prepare)


# ---------------------------------------------------------------------------


def sim_layered(bg, seed: int, reference: dict) -> list[Op]:
    return [
        _simulate_op(bg, size, variant, inputs.layered_graph(bg, size, variant))
        for size, variant in inputs.layered_choice(seed, reference["sim-layered"]["pools"])
    ]


def _simulate_op(bg, size: int, variant: int, scenario) -> Op:
    def run():
        parsed = bg.scenario.parse_scenario(bg.scenario.serialize_scenario(scenario))
        t = parsed.topology
        report = bg.topology.validate_topology(t)
        state = bg.engine.propagate_to_convergence(t, parsed.te_config)
        dump = state.dump()
        rows = "".join(bg.flows.ingress_map(state, t, dest).to_csv() for dest in sorted(t.originations))
        return report.ok(), dump, rows

    return Op(
        f"{size}/{variant}",
        run,
        digest=lambda output: sha(output[1] + output[2]),
        ok=lambda output: output[0],
    )


# ---------------------------------------------------------------------------


def plan_random(bg, seed: int, reference: dict) -> list[Op]:
    strata = reference["plan-random"]["strata"]
    return [
        _plan_op(bg, index, *inputs.planning_instance(bg, index))
        for index in inputs.plan_choice(seed, strata)
    ]


def _plan_op(bg, index: int, t, dest: int, objectives) -> Op:
    budget = bg.Budget(max_actions=inputs.PLAN_BUDGET)

    def run():
        result = bg.planner.plan_inbound_te(t, dest, objectives, budget)
        report = None
        if isinstance(result, bg.Plan):
            report = bg.planner.evaluate_plan(t, dest, result, objectives)
        return result, report

    return Op(str(index), run, digest=lambda output: sha(plan_outcome(bg, *output)), ok=_plan_ok)


def plan_outcome(bg, result, report) -> str:
    """The outcome tuple of one planning instance, as text."""
    if isinstance(result, bg.Infeasible):
        return "infeasible\n" + "\n".join(str(w) for w in result.witnesses)
    if isinstance(result, bg.Exhausted):
        return f"exhausted {result.candidates_tried} {result.max_actions}"
    return "\n".join(
        [
            "plan " + "; ".join(str(a) for a in result.actions),
            f"side-effects {result.side_effects}",
            f"lp-constraint-violated {result.lp_constraint_violated}",
            result.predicted_map.to_csv(),
            f"evaluated {report.satisfied} {report.side_effects} {report.rounds_used}",
        ]
    )


def _plan_ok(output) -> bool:
    result, report = output
    return report is None or all(report.satisfied)


WORKLOADS = {
    "golden-cli": golden_cli,
    "sim-layered": sim_layered,
    "plan-random": plan_random,
}


def reference_digest(reference: dict, workload: str, key: str) -> str | None:
    if workload == "plan-random":
        return reference[workload]["digests"][int(key)]
    if workload == "sim-layered":
        return reference[workload]["digests"].get(key)
    return reference[workload].get(key)
