"""Record bench/reference.json: the digest of every operation's output in
every workload's input pool, the sim-layered pools and the cost strata of the
plan-random pool.

    python3 bench/record_reference.py

The digests fix what the program computes; record them again only for a
change that is meant to alter outputs.  plan-random strata group pool entries
of similar work (rounds simulated x ASes x prefixes, a deterministic count)
so that every seed's 1000 instances cost about the same.
"""

from __future__ import annotations

import json
import statistics
import sys

import inputs
import run
import tracing
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    bg = run.fresh_import()
    reference: dict = {"recorded_at": run.git_commit()}

    golden = {}
    for op in workloads.golden_cli(bg, 0, reference):
        op.prepare()
        golden[op.key] = op.digest(op.run())
    reference["golden-cli"] = dict(sorted(golden.items()))

    pools, layered = {}, {}
    for size in inputs.LAYERED_SIZES:
        rounds = {}
        for variant in range(inputs.LAYERED_CANDIDATES):
            scenario = inputs.layered_graph(bg, size, variant)
            rounds[variant] = bg.propagate_to_convergence(scenario.topology, scenario.te_config).rounds_used
        modal = statistics.mode(rounds.values())
        pools[str(size)] = [v for v in rounds if rounds[v] == modal][: inputs.LAYERED_POOL]
        for variant in pools[str(size)]:
            op = workloads._simulate_op(bg, size, variant, inputs.layered_graph(bg, size, variant))
            output = op.run()
            if not op.ok(output):
                raise SystemExit(f"sim-layered {op.key}: topology failed validation")
            layered[op.key] = op.digest(output)
        print(f"sim-layered {size}: {modal} rounds, pool {pools[str(size)]}", file=sys.stderr)
    reference["sim-layered"] = {"pools": pools, "digests": layered}

    digests, costs = [], []
    for index in range(inputs.PLAN_POOL):
        t, dest, objectives = inputs.planning_instance(bg, index)
        op = workloads._plan_op(bg, index, t, dest, objectives)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            output = op.run()
        finally:
            tracer.uninstall()
        if not op.ok(output):
            raise SystemExit(f"plan-random {index}: evaluate_plan rejects the plan")
        digests.append(op.digest(output))
        size = len(t.roles) * len(t.originated_by(dest))
        costs.append((tracer.counts.get("engine.rounds_total", 0) * size, index))
    order = [index for _cost, index in sorted(costs)]
    step = inputs.PLAN_STRATUM
    reference["plan-random"] = {
        "digests": digests,
        "strata": [sorted(order[i:i + step]) for i in range(0, len(order), step)],
    }

    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
