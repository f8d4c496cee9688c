"""The bench traces the package by patching names it lists in
bench/tracing.py.  A rename in the package must fail here, not only in a
traced bench run."""

import importlib
import importlib.util


def load_tracing():
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
