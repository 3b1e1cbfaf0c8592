"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import sys

import run
import workloads
from tracer import Tracer, layer_metrics

CLI = run.import_library()


def _bindings():
    """Every name bound in an orthocurrent namespace or class."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("orthocurrent"):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(mod_name, key, attr)] = member
    return out


def test_failure_counter_counts_flipped_entry_and_domain_error():
    assert run.failure_counter_selftest(CLI) == []


def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        first = workloads.round_instances(name, 7, 3)
        assert first == workloads.round_instances(name, 7, 3)
    assert (workloads.round_instances("certify-heavy", 7, 0)
            != workloads.round_instances("certify-heavy", 8, 0))


def test_tracer_sees_calls_across_modules_and_restores_bindings():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        session = run.Session(CLI, tracer=tracer)
        session.classify(workloads.round_instances("certify-small", 1, 0)[3])
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert session.failed == 0
    metrics = layer_metrics(tracer)
    assert metrics["structure.pipeline_builds"] == (1, "count")
    assert metrics["cli.parse_args_ms"][0] > 0

