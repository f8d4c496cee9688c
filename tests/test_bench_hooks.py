"""The bench traces the package by patching names it lists in
bench/tracing.py.  A rename in the package must fail here, not only in a
traced bench run."""

import importlib
import importlib.util


def load_tracing():
    # Tracer.install patches every module SPANS names, cli included.
    importlib.import_module("bgpsteer.cli")
    spec = importlib.util.spec_from_file_location("bench_tracing", "bench/tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_callable():
    tracing = load_tracing()
    hooks = tracing.SPANS + tracing.COUNTERS
    assert hooks
    for module, attr, _name in hooks:
        target = getattr(importlib.import_module(f"bgpsteer.{module}"), attr, None)
        assert callable(target), f"bgpsteer.{module}.{attr}"
    state_cls = importlib.import_module("bgpsteer.engine").ConvergedState
    assert callable(getattr(state_cls, "dump", None))


def test_topology_validation_looks_up_the_traced_function_at_call_time(monkeypatch):
    # A Topology.validation bound to validate_topology at import time would
    # hide every validation from a traced bench run.
    tracing = load_tracing()
    [(module, attr)] = [(m, a) for m, a, name in tracing.SPANS if name == "topology.validate"]
    topology = importlib.import_module(f"bgpsteer.{module}")
    original = getattr(topology, attr)
    seen = []

    def patched(t):
        seen.append(t)
        return original(t)

    monkeypatch.setattr(topology, attr, patched)
    t = topology.Topology({1: "stub"}, (), {}, {})
    assert t.validation.ok()
    assert len(seen) == 1 and seen[0] is t


def test_the_traced_policy_functions_are_the_ones_the_engine_calls():
    # An engine that bypassed the module globals the tracer patches would
    # read 0 calls in a traced bench run.
    tracing = load_tracing()
    engine = importlib.import_module("bgpsteer.engine")
    scenario = importlib.import_module("bgpsteer.scenario")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("dualprovider_prepend_p2.scn", "suppress_blackhole.scn"):
            with open(f"scenarios/{name}", encoding="utf-8") as f:
                s = scenario.parse_scenario(f.read())
            engine.propagate_to_convergence(s.topology, s.te_config)
    finally:
        tracer.uninstall()
    assert tracer.counts.get("policies.ingress_transform", 0) > 0
    assert tracer.counts.get("policies.egress_apply", 0) > 0


def test_a_traced_plan_counts_its_expansions_and_simulations():
    # A planner that bound te_config_from_actions or propagate_to_convergence
    # to another name would read too few expansions or simulations in a
    # traced bench run.  The propagation counts at the default budget are the
    # README's figures.  Every part judged here is consistent, so each run
    # has its expansion and nothing else expands: an Exhausted answer counts
    # its consistent sets without expanding any.
    tracing = load_tracing()
    planner = importlib.import_module("bgpsteer.planner")
    scenario = importlib.import_module("bgpsteer.scenario")
    for name, budget, propagations in (
        ("dualprovider_destprefix_objectives.scn", planner.Budget(), 48),
        ("dualprovider_sourceasn_objectives.scn", planner.Budget(), 101),
        ("dualprovider_sourceasn_objectives.scn", planner.Budget(max_actions=1), 19),
    ):
        with open(f"scenarios/{name}", encoding="utf-8") as f:
            s = scenario.parse_scenario(f.read())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = planner.plan_inbound_te(s.topology, s.objectives[0].flow.dst_asn, s.objectives, budget)
        finally:
            tracer.uninstall()
        assert isinstance(result, planner.Exhausted) == (budget.max_actions == 1), name
        metrics = tracer.layer_metrics()
        assert metrics["engine.propagate_calls"] == propagations, name
        assert metrics["planner.simulations"] == propagations, name
        assert metrics["planner.candidates_expanded"] == propagations, name
