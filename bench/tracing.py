"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced public function wherever the package's
modules look it up (the defining module and every module that imported the
name), so calls between layers pass through a wrapper.  Wrappers record
spans (id, parent, name, start, end) in memory, or only count calls where a
span per call would swamp the work it measures.  `uninstall` puts the
original functions back.

A span's self time is its duration minus the time its child spans cover.
Spans are timed on the clock the caller passes (perf_counter by default).
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, span name).  Spans nest; their self times partition the
# traced time.
SPANS = (
    ("cli", "main", "cli.main"),
    ("scenario", "parse_scenario", "scenario.parse"),
    ("topology", "validate_topology", "topology.validate"),
    ("engine", "propagate_to_convergence", "engine.propagate"),
    ("flows", "ingress_map", "flows.ingress_map"),
    ("flows", "resolve_forwarding", "flows.resolve_forwarding"),
    ("planner", "plan_inbound_te", "planner.plan"),
    ("planner", "common_upstream_check", "planner.upstream_check"),
    ("planner", "evaluate_plan", "planner.evaluate"),
)
# (module, function, counter name): counted only; their time stays in the
# caller's self time.
COUNTERS = (
    ("policies", "ingress_transform", "policies.ingress_transform"),
    ("policies", "egress_apply", "policies.egress_apply"),
    ("planner", "te_config_from_actions", "planner.te_config"),
)

PER_LAYER = (
    ("scenario.parse_s", "s"),
    ("scenario.parse_calls", "count"),
    ("topology.validate_s", "s"),
    ("topology.validate_calls", "count"),
    ("engine.propagate_s", "s"),
    ("engine.propagate_calls", "count"),
    ("engine.propagate_ms_per_call", "ms"),
    ("engine.rounds_total", "count"),
    ("engine.oscillations", "count"),
    ("engine.dump_s", "s"),
    ("policies.ingress_transform_calls", "count"),
    ("policies.egress_apply_calls", "count"),
    ("flows.ingress_map_s", "s"),
    ("flows.ingress_map_calls", "count"),
    ("flows.resolve_forwarding_s", "s"),
    ("flows.resolve_forwarding_calls", "count"),
    ("planner.plan_self_s", "s"),
    ("planner.plan_calls", "count"),
    ("planner.simulations", "count"),
    ("planner.candidates_expanded", "count"),
    ("planner.candidates_inconsistent", "count"),
    ("planner.useful_ratio", "ratio"),
    ("planner.upstream_check_s", "s"),
    ("planner.evaluate_s", "s"),
    ("planner.outcomes.plan", "count"),
    ("planner.outcomes.infeasible", "count"),
    ("planner.outcomes.exhausted", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly for the same inputs.
EXACT = tuple(name for name, unit in PER_LAYER if unit == "count")


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, list] = {}  # name -> [calls, duration, self time]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _planner_context(self) -> str | None:
        for frame in reversed(self._stack):
            if frame[1] in ("planner.plan", "planner.evaluate"):
                return frame[1]
        return None

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _on_result(self, name: str, result) -> None:
        if name == "engine.propagate":
            self._count("engine.rounds_total", result.rounds_used)
        elif name == "planner.plan":
            self._count("planner.outcomes." + type(result).__name__.lower())

    def _on_error(self, name: str, exc: BaseException) -> None:
        if name == "engine.propagate" and type(exc).__name__ == "OscillationError":
            self._count("engine.rounds_total", exc.rounds)
            self._count("engine.oscillations")

    def _span(self, name: str, fn):
        stack, spans, totals, clock = self._stack, self.spans, self.totals, self.clock

        def traced(*args, **kwargs):
            if name == "engine.propagate" and self._planner_context() == "planner.plan":
                self._count("planner.simulations")
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._on_error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                spans.append((span_id, parent, name, frame[2], end))
                total = totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[3]
            self._on_result(name, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "planner.te_config":
                if self._planner_context() == "planner.plan":
                    self._count("planner.candidates_expanded")
                    if result is None:
                        self._count("planner.candidates_inconsistent")
            else:
                self._count(name)
            return result

        return counted

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "bgpsteer") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module, attr, name in targets:
                original = getattr(sys.modules[f"{package}.{module}"], attr)
                wrapper = make(name, original)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        state_cls = sys.modules[f"{package}.engine"].ConvergedState
        original = state_cls.dump
        self._patched.append((state_cls, "dump", original))
        state_cls.dump = self._span("engine.dump", original)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_s, for what was traced."""

        def calls(span: str) -> int:
            return self.totals.get(span, [0, 0.0, 0.0])[0]

        def duration(span: str) -> float:
            return self.totals.get(span, [0, 0.0, 0.0])[1]

        def self_time(span: str) -> float:
            return self.totals.get(span, [0, 0.0, 0.0])[2]

        c = self.counts.get
        propagations = calls("engine.propagate")
        simulations = c("planner.simulations", 0)
        return {
            "scenario.parse_s": duration("scenario.parse"),
            "scenario.parse_calls": calls("scenario.parse"),
            "topology.validate_s": duration("topology.validate"),
            "topology.validate_calls": calls("topology.validate"),
            "engine.propagate_s": self_time("engine.propagate"),
            "engine.propagate_calls": propagations,
            "engine.propagate_ms_per_call": (
                1000.0 * self_time("engine.propagate") / propagations if propagations else 0.0
            ),
            "engine.rounds_total": c("engine.rounds_total", 0),
            "engine.oscillations": c("engine.oscillations", 0),
            "engine.dump_s": duration("engine.dump"),
            "policies.ingress_transform_calls": c("policies.ingress_transform", 0),
            "policies.egress_apply_calls": c("policies.egress_apply", 0),
            "flows.ingress_map_s": duration("flows.ingress_map"),
            "flows.ingress_map_calls": calls("flows.ingress_map"),
            "flows.resolve_forwarding_s": duration("flows.resolve_forwarding"),
            "flows.resolve_forwarding_calls": calls("flows.resolve_forwarding"),
            "planner.plan_self_s": self_time("planner.plan"),
            "planner.plan_calls": calls("planner.plan"),
            "planner.simulations": simulations,
            "planner.candidates_expanded": c("planner.candidates_expanded", 0),
            "planner.candidates_inconsistent": c("planner.candidates_inconsistent", 0),
            "planner.useful_ratio": (
                c("planner.outcomes.plan", 0) / simulations if simulations else 0.0
            ),
            "planner.upstream_check_s": duration("planner.upstream_check"),
            "planner.evaluate_s": duration("planner.evaluate"),
            "planner.outcomes.plan": c("planner.outcomes.plan", 0),
            "planner.outcomes.infeasible": c("planner.outcomes.infeasible", 0),
            "planner.outcomes.exhausted": c("planner.outcomes.exhausted", 0),
            "cli.self_s": self_time("cli.main"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start,end\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                out.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
