"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q

One seed must give identical inputs and identical output digests on two
calls, the digests must match bench/reference.json, every metric name must
be well formed and agree with BENCHMARK.json, and the calibrated clock must
leave the calibration handler's time out.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
NAME = re.compile(r"[A-Za-z0-9_.-]+")
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _digests(ops) -> list[tuple[str, str]]:
    out = []
    for op in ops:
        op.prepare()
        out.append((op.key, op.digest(op.run())))
    return out


def _check(workload: str, select) -> None:
    first, second = (
        select(workloads.WORKLOADS[workload](run.fresh_import(), SEED, REFERENCE)) for _ in range(2)
    )
    assert [op.key for op in first] == [op.key for op in second]
    digests = _digests(first)
    assert digests == _digests(second)
    for key, digest in digests:
        assert digest == workloads.reference_digest(REFERENCE, workload, key), key


def test_golden_cli_inputs_and_digests_repeat():
    _check("golden-cli", lambda ops: [op for op in ops if op.key.endswith(":simulate")])


def test_sim_layered_inputs_and_digests_repeat():
    bg = run.fresh_import()
    pools = REFERENCE["sim-layered"]["pools"]
    choice = inputs.layered_choice(SEED, pools)
    assert choice == inputs.layered_choice(SEED, pools)
    for size, variant in choice:
        texts = {bg.serialize_scenario(inputs.layered_graph(bg, size, variant)) for _ in range(2)}
        assert len(texts) == 1
    _check("sim-layered", lambda ops: ops[:1])


def test_plan_random_inputs_and_digests_repeat():
    bg = run.fresh_import()
    strata = REFERENCE["plan-random"]["strata"]
    chosen = inputs.plan_choice(SEED, strata)
    assert chosen == inputs.plan_choice(SEED, strata)
    assert len(chosen) == len(strata) == inputs.PLAN_POOL // inputs.PLAN_STRATUM

    def text(index: int) -> str:
        t, _dest, objectives = inputs.planning_instance(bg, index)
        return bg.serialize_scenario(bg.Scenario(t, bg.TeConfig(), tuple(objectives)))

    for index in chosen[:100]:
        assert text(index) == text(index)
    _check("plan-random", lambda ops: ops[:40])


def test_metric_names():
    end_to_end = [name for name, _unit in run.END_TO_END]
    per_layer = [name for name, _unit in tracing.PER_LAYER]
    assert end_to_end == [m["name"] for m in SPEC["end_to_end"]]
    assert per_layer == [m["name"] for m in SPEC["per_layer"]]
    assert list(tracing.Tracer().layer_metrics()) + ["trace.overhead_s"] == per_layer
    for name in end_to_end + per_layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert SPEC["command"][1:] == ["bench/run.py"] and SPEC["paths"] == ["bench"]


def test_calibrator_leaves_its_handler_out_of_the_clock():
    calibrator = run.Calibrator()
    calibrator.start()
    try:
        _result, timing = calibrator.timed(lambda: sum(i * i for i in range(2_000_000)))
    finally:
        calibrator.stop()
    wall = timing.end - timing.start
    assert len(calibrator.samples) >= 2
    assert 0 < timing.time < wall <= timing.time + calibrator.spent + 1e-6
    assert calibrator.normalized(timing) > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "golden-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_counts_repeat_and_digests_match_untraced():
    bg = run.fresh_import()
    ops = workloads.plan_random(bg, SEED, REFERENCE)[:60]
    ops += [op for op in workloads.golden_cli(bg, SEED, REFERENCE) if op.key.endswith(":simulate")]
    plain = _digests(ops)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert _digests(ops) == plain
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        counts.append({name: metrics[name] for name in tracing.EXACT if name in metrics})
    assert counts[0] == counts[1]
    assert counts[0]["planner.plan_calls"] == 60
    assert counts[0]["scenario.parse_calls"] == 20
    assert counts[0]["engine.oscillations"] == 1  # scenarios/oscillate.scn
