"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                            [--record LABEL]

For every end-to-end metric it prints the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With --record, the summary is appended, with the environment, to
bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def once(workload: str, seed: int, trace: int) -> dict:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}

    summary, all_correct = {}, True
    for workload in args.workloads.split(","):
        results = [once(workload, seed, args.trace) for seed in seeds(args.seeds)]
        all_correct &= all(r["correct"] for r in results)
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results])
            s, bound = metrics[name], bounds.get(name)
            flag = "" if bound is None else f"bound {bound:<5} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"{workload:12} {name:34} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {flag}")
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    if args.record:
        path = run.BENCH / "trajectory.json"
        trajectory = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        trajectory.append({"label": args.record, "trace": args.trace,
                           "environment": run.environment(), "workloads": summary})
        path.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
