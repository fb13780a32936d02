"""The benchmark's service wrappers still find every stage they time.

``benchmarks/perf/layers.py`` times the service by wrapping names where
the server looks them up (``ResultCache.lookup``/``insert``,
``run_result_to_dict``, ``validate_run``, ...).  A rename in ``src/``
silently moves a stage's time into its caller, so this test installs
those wrappers around an in-process service, submits one spec twice and
checks the stages were seen — counts only, no wall-clock timing.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.service.server import ServiceConfig, ServiceHarness

LAYERS_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "layers.py"

SPEC = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "hyb"},
    "machine_args": {"n_smp": 2, "n_gpus": 1},
    "seed": 9,
}


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("perf_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_service_stages_are_wrapped_and_recorded(layers):
    tracer = layers.Tracer()
    inst = layers.install(tracer, layers.SERVICE_GROUPS)
    try:
        assert inst.missing == []
        with ServiceHarness(ServiceConfig(workers=1)) as harness:
            tracer.active = True
            try:
                cold = harness.request({"op": "submit", "spec": SPEC})
                hit = harness.request({"op": "submit", "spec": SPEC})
            finally:
                tracer.active = False
    finally:
        inst.restore()
    assert cold["ok"] and not cold["cached"]
    assert hit["ok"] and hit["cached"]
    assert tracer.counts.get("svc.cache.hits") == 1
    assert tracer.counts.get("svc.cache.lookups") == 2
    stats = tracer.stats()
    for span in ("svc.cache.insert", "svc.serialize", "sanitizer.validate_run",
                 "svc.simulate", "svc.cache.lookup"):
        assert stats.get(span, [0])[0] >= 1, span
    assert stats["svc.cache.insert"][0] == 1
