"""bgpsteer benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {golden-cli,sim-layered,plan-random} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (the package is imported from `src/`).  The run
sets up its inputs several times, each time on a fresh import of the package,
then repeats passes over the inputs until the next pass would end after S
seconds.  Every operation's output is digested and compared with
`bench/reference.json`; a mismatch, a broken invariant (a plan that
evaluate_plan does not fully satisfy) or an exception counts as a failed
operation.

Reported times are speed-normalized.  On a shared machine the CPU speed
available to one process swings by up to 2x, within a second and over
minutes.  So every CALIBRATION_EVERY_S a SIGALRM handler (in the main
thread: the process stays single-threaded) times a fixed pure-Python
calibration unit, also in the middle of long operations.  Operations, set-ups
and spans are timed on a clock that leaves the handler's time out, and each
operation's and set-up's time is scaled by CALIBRATION_REFERENCE_S / (mean
time of the units run during it or within CALIBRATION_WINDOW_S of it), the
speed the process had then: times read as seconds on the reference machine
at its usual speed.  Span times are scaled by the speed over their pass.  The
units run with the garbage collector off, so that the heap the program
leaves behind does not bill its collections to the calibration.  The raw
times and the calibrations are kept in the result file.

`--trace 0` reports the end-to-end metrics, measured with tracing off:
  setup_s      median time of one set-up: package import + input generation
  wall_s       median time of one pass over the inputs
  op_p50_ms    median time of one operation (a CLI call, a simulated graph,
               a planning instance): the median over passes of each pass's
               median
  op_p99_ms    the median over passes of each pass's 99th percentile
               (nearest rank; the slowest operation when a pass has fewer
               than 100)
  peak_rss_mb  peak resident memory of the process
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (counts from the first, which the others must
repeat; times as medians over passes) plus trace.overhead_s, the median
traced pass time minus the median untraced one.  It also writes the spans of
the first traced pass to `bench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The environment (nproc,
Python, platform, git commit) goes to standard error and, with the full
result, to `bench/out/result-<workload>-<seed>-<trace>.json`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
CALIBRATION_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.1
# Mean calibration-unit time on the reference machine (2-core Xeon VM,
# Python 3.11.7) while these workloads run.
CALIBRATION_REFERENCE_S = 0.003

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def fresh_import():
    """Import the package as a new process would, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "bgpsteer" or n.startswith("bgpsteer.")]:
        del sys.modules[name]
    bg = importlib.import_module("bgpsteer")
    importlib.import_module("bgpsteer.cli")
    return bg


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def calibration_unit() -> int:
    """Fixed interpreter work shaped like route selection: tuples, dict
    lookups, comparisons and a sort."""
    rng = random.Random(0)
    table: dict = {}
    for i in range(750):
        key = (i % 97, i % 13)
        path = tuple(rng.randrange(64000) for _ in range(4))
        best = table.get(key)
        if best is None or (len(path), path) < (len(best), best):
            table[key] = path
    return len(sorted(table.items()))


@dataclass
class Timing:
    start: float  # perf_counter
    end: float
    time: float  # end - start without the calibration handler's time


class Calibrator:
    """Times a calibration unit from a SIGALRM handler, re-armed after each
    unit, so that samples are spread evenly over the program's time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, unit time)
        self.spent = 0.0  # time spent in the handler

    def _handler(self, _signum, _frame) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            calibration_unit()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((start, perf_counter() - start))
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S)
        self.spent += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> tuple[float, float]:
        """perf_counter, and perf_counter without the time spent in the
        handler.  Re-read when the handler ran in between."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now, now - spent

    def clock(self) -> float:
        return self.now()[1]

    def timed(self, fn):
        """fn's result, and its Timing."""
        start, program_start = self.now()
        result = fn()
        end, program_end = self.now()
        return result, Timing(start, end, program_end - program_start)

    def scale(self, start: float, end: float) -> float:
        """The speed factor over [start, end] (perf_counter times): from the
        units that started in it or within CALIBRATION_WINDOW_S of it."""
        lo = bisect.bisect_left(self.samples, start - CALIBRATION_WINDOW_S, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end + CALIBRATION_WINDOW_S, key=lambda s: s[0])
        window = self.samples[lo:hi] or self.samples
        return CALIBRATION_REFERENCE_S / statistics.fmean(unit for _start, unit in window)

    def normalized(self, t: Timing) -> float:
        return t.time * self.scale(t.start, t.end)


@dataclass
class Pass:
    timings: list[Timing]  # one per operation
    op_times: list[float] = field(default_factory=list)  # speed-normalized, by normalize()
    scale: float = 1.0  # speed factor over the pass, by normalize()

    def normalize(self, calibrator: Calibrator) -> None:
        self.op_times = [calibrator.normalized(t) for t in self.timings]
        self.scale = calibrator.scale(self.timings[0].start, self.timings[-1].end)

    @property
    def time(self) -> float:
        return sum(self.op_times)


class Run:
    def __init__(self, workload: str, ops: list, reference: dict, calibrator: Calibrator):
        self.workload = workload
        self.ops = ops
        self.reference = reference
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.digests: list[list[str]] = []  # per pass

    def one_pass(self) -> Pass:
        """Time every operation once and check each output."""
        timings, digests = [], []
        for op in self.ops:
            op.prepare()
            self.attempted += 1
            try:
                output, timing = self.calibrator.timed(op.run)
                timings.append(timing)
                digest = op.digest(output)
                good = op.ok(output) and digest == workloads.reference_digest(
                    self.reference, self.workload, op.key
                )
            except Exception:
                traceback.print_exc()
                digest, good = "error", False
            if not good:
                self.failed += 1
                print(f"FAILED {self.workload} {op.key}", file=sys.stderr)
            digests.append(digest)
        if self.digests and digests != self.digests[0]:
            self.failed += 1
            print(f"FAILED {self.workload}: pass digests differ", file=sys.stderr)
        self.digests.append(digests)
        return Pass(timings)


def measure(args, run: Run) -> dict[str, list]:
    """Repeat passes until the next one would end after args.seconds.  With
    tracing on, passes alternate untraced/traced, starting untraced."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    first_tracer = None
    start = perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            tracer = tracing.Tracer(run.calibrator.clock)
            tracer.install()
            try:
                p = run.one_pass()
            finally:
                tracer.uninstall()
            traced.append(p)
            layers.append(tracer.layer_metrics())
            if first_tracer is None:
                first_tracer = tracer
        else:
            plain.append(run.one_pass())
        passes = len(plain) + len(traced)
        elapsed = perf_counter() - start
        enough = len(traced) >= 1 if args.trace else passes >= 1
        if enough and elapsed * (passes + 1) / passes > args.seconds:
            break
    return {"plain": plain, "traced": traced, "layers": layers, "tracer": first_tracer}


def end_to_end(setup: float, m) -> dict[str, float]:
    plain = m["plain"]
    return {
        "setup_s": setup,
        "wall_s": statistics.median(p.time for p in plain),
        "op_p50_ms": 1000.0 * statistics.median(statistics.median(p.op_times) for p in plain),
        "op_p99_ms": 1000.0 * statistics.median(percentile(p.op_times, 99) for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, m) -> dict[str, float]:
    """Counts from the first traced pass, which every other traced pass must
    repeat exactly; times as medians over the traced passes."""
    layers, scales = m["layers"], [p.scale for p in m["traced"]]
    units = dict(tracing.PER_LAYER)
    values = {}
    for name in layers[0]:
        if name in tracing.EXACT:
            values[name] = layers[0][name]
            if any(l[name] != values[name] for l in layers):
                run.failed += 1
                print(f"FAILED: count {name} differs between traced passes", file=sys.stderr)
        elif units[name] in ("s", "ms"):
            values[name] = statistics.median(scale * l[name] for l, scale in zip(layers, scales))
        else:
            values[name] = statistics.median(l[name] for l in layers)
    values["trace.overhead_s"] = statistics.median(p.time for p in m["traced"]) - statistics.median(
        p.time for p in m["plain"]
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    package = ROOT / "src" / "bgpsteer" / "__init__.py"
    if not package.is_file() or not workloads.SCENARIOS.is_dir():
        print(f"error: run from a bgpsteer checkout; {package} or {workloads.SCENARIOS} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    setup = workloads.WORKLOADS[args.workload]

    calibrator = Calibrator()
    calibrator.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            ops, timing = calibrator.timed(lambda: setup(fresh_import(), args.seed, reference))
            setups.append(timing)
        run = Run(args.workload, ops, reference, calibrator)
        m = measure(args, run)
    finally:
        calibrator.stop()
    for p in m["plain"] + m["traced"]:
        p.normalize(calibrator)
    if args.trace:
        metrics = per_layer(run, m)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = end_to_end(statistics.median(calibrator.normalized(t) for t in setups), m)
        units = dict(END_TO_END)

    env = environment()
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    if m["tracer"] is not None:
        m["tracer"].write_spans(workloads.OUT / f"spans-{stem}.csv")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    raw = {
        "setups_s": [t.time for t in setups],
        "plain_passes_s": [sum(t.time for t in p.timings) for p in m["plain"]],
        "plain_scales": [p.scale for p in m["plain"]],
        "traced_passes_s": [sum(t.time for t in p.timings) for p in m["traced"]],
        "traced_scales": [p.scale for p in m["traced"]],
        "calibrations": [unit for _start, unit in calibrator.samples],
    }
    detail = dict(result, environment=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, raw=raw)
    (workloads.OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}), file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
