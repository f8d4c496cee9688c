"""The golden corpus through in-process CLI `simulate` and `plan`, digested
exactly as the benchmark's golden-cli workload digests it (bench/workloads.py,
loaded from its file and not modified), must match the digests recorded in
bench/reference.json: the exit code and every report file, byte for byte."""

import importlib.util
import json
import sys

import bgpsteer
import bgpsteer.cli  # noqa: F401  (the workload calls bg.cli.main)


def load(monkeypatch, name, path):
    """The module at `path`, registered as `name` for this test only (its
    dataclasses and imports look it up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_golden_cli_reports_match_the_bench_reference(monkeypatch, tmp_path):
    # bench/workloads.py imports its sibling `inputs` as a top-level module.
    load(monkeypatch, "inputs", "bench/inputs.py")
    workloads = load(monkeypatch, "bench_workloads", "bench/workloads.py")
    workloads.OUT = tmp_path  # this private copy writes its reports here
    with open("bench/reference.json", encoding="utf-8") as f:
        reference = json.load(f)

    ops = workloads.golden_cli(bgpsteer, 1, reference)
    assert sorted(op.key for op in ops) == sorted(reference["golden-cli"])
    assert len(ops) == 27
    mismatched = []
    for op in ops:
        op.prepare()
        digest = op.digest(op.run())
        if digest != workloads.reference_digest(reference, "golden-cli", op.key):
            mismatched.append(op.key)
    assert not mismatched
