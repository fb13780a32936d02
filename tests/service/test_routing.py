"""Service-routed Application.run must be indistinguishable from batch."""

from __future__ import annotations

import pytest

from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.service.client import HarnessClient
from repro.service.routing import active_router, route_via_service
from repro.service.server import ServiceConfig, ServiceHarness
from repro.sim.topology import minotauro_node


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness(ServiceConfig(workers=2)) as h:
        yield h


@pytest.mark.parametrize(
    ("make_app", "scheduler"),
    [
        (lambda: MatmulApp(n_tiles=3, variant="hyb"), "versioning"),
        (lambda: CholeskyApp(n_blocks=3, variant="hyb"), "versioning"),
        (lambda: MatmulApp(n_tiles=3, variant="gpu"), "affinity"),
    ],
)
def test_batch_and_service_traces_identical(harness, make_app, scheduler):
    """Same (graph, machine, scheduler, seed): the routed path must
    reproduce the batch path byte for byte."""
    batch = make_app().run(minotauro_node(2, 1, noise_cv=0.02, seed=9), scheduler)

    client = HarnessClient(harness, tenant="equality")
    with route_via_service(client) as router:
        routed = make_app().run(minotauro_node(2, 1, noise_cv=0.02, seed=9), scheduler)
    assert router.routed == 1 and router.fallbacks == 0

    assert routed.run.trace.to_json() == batch.run.trace.to_json()
    assert routed.makespan == batch.makespan
    assert routed.gflops == batch.gflops
    assert routed.run.version_counts == batch.run.version_counts
    # task uids are run-local, so even raw finish_order ids must agree
    assert routed.run.finish_order == batch.run.finish_order


def test_router_clears_after_context(harness):
    client = HarnessClient(harness)
    assert active_router() is None
    with route_via_service(client):
        assert active_router() is not None
    assert active_router() is None


def test_unroutable_runs_fall_back_locally(harness):
    client = HarnessClient(harness, tenant="fallback")
    machine = minotauro_node(2, 1, noise_cv=0.02, seed=9)
    machine.provenance = None  # as if hand-built outside the factories
    with route_via_service(client) as router:
        res = MatmulApp(n_tiles=2, variant="hyb").run(machine, "versioning")
    assert router.routed == 0 and router.fallbacks == 1
    assert res.run.tasks_completed == 8


def test_fault_plans_never_route(harness):
    from repro.resilience import FaultPlan

    client = HarnessClient(harness, tenant="faulty")
    with route_via_service(client) as router:
        MatmulApp(n_tiles=2, variant="hyb").run(
            minotauro_node(2, 1, noise_cv=0.02, seed=9),
            "versioning",
            fault_plan=FaultPlan(),
        )
    assert router.routed == 0 and router.fallbacks == 1


class _FailingClient:
    """Client stub whose submit always raises a scripted ServiceError."""

    def __init__(self, code: str) -> None:
        from repro.service.client import ServiceError

        self._exc = ServiceError(code, f"scripted {code}")

    def submit(self, spec, *, tenant=None):
        raise self._exc


def test_connection_failures_fall_back_to_local_run():
    # a dead service must degrade an experiment to batch mode, not kill it
    with route_via_service(_FailingClient("connection-refused")) as router:
        res = MatmulApp(n_tiles=2, variant="hyb").run(
            minotauro_node(2, 1, noise_cv=0.02, seed=9), "versioning"
        )
    assert res.run.tasks_completed == 8
    assert router.routed == 0
    assert router.fallbacks == 1
    assert router.connection_fallbacks == 1


def test_submission_errors_are_not_swallowed_by_fallback():
    # bad-spec means the submission itself is wrong; rerunning locally
    # would silently paper over a real bug, so the error must surface
    from repro.service.client import ServiceError

    with route_via_service(_FailingClient("bad-spec")):
        with pytest.raises(ServiceError) as err:
            MatmulApp(n_tiles=2, variant="hyb").run(
                minotauro_node(2, 1, noise_cv=0.02, seed=9), "versioning"
            )
    assert err.value.code == "bad-spec"


def test_routed_repeat_hits_cache(harness):
    client = HarnessClient(harness, tenant="repeat")
    machine_args = dict(noise_cv=0.02, seed=13)
    with route_via_service(client) as router:
        MatmulApp(n_tiles=2, variant="gpu").run(
            minotauro_node(2, 1, **machine_args), "versioning"
        )
        MatmulApp(n_tiles=2, variant="gpu").run(
            minotauro_node(2, 1, **machine_args), "versioning"
        )
    assert router.routed == 2
    assert router.cache_hits >= 1


def test_default_config_routes_to_the_no_config_cache_key():
    """A routed default RuntimeConfig() and no config are one experiment:
    only non-default fields go on the wire, so both keys read "{}"."""
    from repro.runtime.runtime import RuntimeConfig
    from repro.service.routing import ServiceRouter

    router = ServiceRouter(client=None)

    def spec(config):
        return router._spec_for(
            MatmulApp(n_tiles=2, variant="hyb"),
            minotauro_node(2, 1, noise_cv=0.02, seed=9),
            "versioning",
            scheduler_options=None,
            config=config,
            fault_plan=None,
            recovery=None,
        )

    default, absent = spec(RuntimeConfig()), spec(None)
    assert default is not None and absent is not None
    assert default.config_key() == absent.config_key() == "{}"
    ablated = spec(RuntimeConfig(prefetch_window=2))
    assert ablated is not None
    assert ablated.config_key() == '{"prefetch_window":2}'
