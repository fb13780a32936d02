"""The cyclic collector is paused for a run, and a run owes it nothing.

``with rt:`` pauses Python's cyclic garbage collector until the block
ends (``repro.runtime.gcpause``).  That is free only while a run makes
no cyclic garbage: anything cyclic it dropped would stay allocated
until the run ended.  The invariant tests pin that for a node run, a
cluster run with stealing and a run through every recovery path; a
change that adds a cycle during a run fails there.  The collector-state
tests pin the restore-what-you-found rule, including for overlapping
service runs on two threads.
"""

from __future__ import annotations

import gc
import sys
import threading
from unittest import mock

import pytest

from repro.apps.matmul import MatmulApp
from repro.resilience.faults import (
    FaultPlan,
    HangRule,
    MessageFaultRule,
    NodeCrashRule,
    WorkerFailure,
)
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.gcpause import CyclicGCPause
from repro.runtime.runtime import OmpSsRuntime
from repro.service.client import HarnessClient
from repro.service.server import ServiceConfig, ServiceHarness
from repro.sim.__main__ import _CollectorLog
from repro.sim.topology import cluster_machine, minotauro_node

from tests.conftest import make_machine, region
from tests.runtime.test_runtime import smp_task

CLUSTER_OPTIONS = {
    "partition": "affinity",
    "steal": True,
    "protocol": {"ack_timeout": 0.0005},
}

#: a hang, a worker death, message drops and a node crash that rejoins
CHAOS = FaultPlan(
    seed=11,
    hangs=(HangRule(at_starts=(5,)),),
    worker_failures=(WorkerFailure("n1smp1", 0.0002),),
    message_faults=(MessageFaultRule(drop=0.15),),
    node_crashes=(NodeCrashRule(node=2, at_time=0.0003, rejoin_after=0.0002),),
)


def _node_run() -> tuple[OmpSsRuntime, MatmulApp]:
    app = MatmulApp(n_tiles=4, tile_size=64, variant="hyb")
    machine = minotauro_node(2, 1, noise_cv=0.02, seed=3)
    app.register_cost_models(machine)
    return OmpSsRuntime(machine, "versioning"), app


def _cluster_run(fault_plan=None, recovery=None) -> tuple[OmpSsRuntime, MatmulApp]:
    app = MatmulApp(n_tiles=6, tile_size=64, variant="hyb")
    machine = cluster_machine(4, smp_per_node=2, gpus_per_node=1, noise_cv=0.02, seed=7)
    app.register_cost_models(machine)
    rt = OmpSsRuntime(machine, "cluster", scheduler_options=CLUSTER_OPTIONS,
                      fault_plan=fault_plan, recovery=recovery)
    return rt, app


def _chaos_run() -> tuple[OmpSsRuntime, MatmulApp]:
    return _cluster_run(CHAOS, RecoveryPolicy(speculate=True))


def _garbage_of_run(rt: OmpSsRuntime, app: MatmulApp):
    """Run ``app`` on ``rt`` with the collector off throughout; return
    the result and what the collection right after the block found."""
    gc.collect()
    gc.disable()
    try:
        with rt:
            app.master(rt)
        result = rt.result()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.enable()
    return result, found, garbage


def _describe(garbage: list) -> str:
    names = sorted({f"{type(o).__module__}.{type(o).__qualname__}" for o in garbage})
    return ", ".join(names[:20])


# ----------------------------------------------------------------------
# Invariant: a run makes no cyclic garbage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [_node_run, _cluster_run, _chaos_run],
                         ids=["node-versioning", "cluster4-steal", "cluster4-chaos"])
def test_run_leaves_no_cyclic_garbage(make):
    result, found, garbage = _garbage_of_run(*make())
    assert result.tasks_completed == result.graph.num_tasks
    assert found == 0, f"the run left {found} objects in cycles: {_describe(garbage)}"


def test_chaos_case_fires_every_recovery_path():
    # the invariant above covers these paths only if they fire
    result, _, _ = _garbage_of_run(*_chaos_run())
    stats = result.resilience
    assert stats.hangs and stats.worker_failures and stats.messages_dropped
    assert stats.node_crashes and stats.node_rejoins
    assert stats.straggler_detected and stats.speculations_launched


# ----------------------------------------------------------------------
# Collector state around a run
# ----------------------------------------------------------------------
@pytest.fixture
def collector_enabled():
    enabled = gc.isenabled()
    gc.enable()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _one_task_runtime():
    machine = make_machine(1, 0)
    f = smp_task({}, machine=machine)
    return OmpSsRuntime(machine, "dep"), f


def test_paused_inside_the_block_and_restored_after(collector_enabled):
    rt, f = _one_task_runtime()
    with rt:
        assert not gc.isenabled()  # paused for task creation too
        f(region("x"), region("y"))
    assert gc.isenabled()
    assert rt.result().tasks_completed == 1


def test_restored_when_the_body_raises(collector_enabled):
    rt, f = _one_task_runtime()
    with pytest.raises(ValueError, match="master failed"):
        with rt:
            f(region("x"), region("y"))
            raise ValueError("master failed")
    assert gc.isenabled()


def test_restored_after_a_deadlock(collector_enabled):
    rt, f = _one_task_runtime()
    with mock.patch.object(rt.scheduler, "task_ready", lambda t: None):
        with pytest.raises(RuntimeError, match="deadlock"):
            with rt:
                f(region("x"), region("y"))  # ready, but never dispatched
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled(collector_enabled):
    rt, f = _one_task_runtime()
    gc.disable()
    with rt:
        f(region("x"), region("y"))
    assert not gc.isenabled()


def test_nested_pauses_resume_once(collector_enabled):
    with CyclicGCPause():
        with CyclicGCPause():
            pass
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_service_runs_restore_the_collector(collector_enabled):
    both_inside = threading.Barrier(2, timeout=60)
    paused: list[bool] = []
    enter = OmpSsRuntime.__enter__

    def enter_and_wait(self):
        out = enter(self)
        paused.append(not gc.isenabled())
        both_inside.wait()  # each run's block overlaps the other's
        return out

    specs = [
        {"app": "matmul", "app_args": {"n_tiles": 2, "variant": "hyb"},
         "machine_args": {"n_smp": 2, "n_gpus": 1}, "seed": seed,
         "share_scheduler": False}
        for seed in (101, 102)
    ]
    outcomes: dict[int, object] = {}

    def submit(i: int) -> None:
        outcomes[i] = HarnessClient(h, tenant=f"gc{i}").submit(specs[i])

    with mock.patch.object(OmpSsRuntime, "__enter__", enter_and_wait):
        with ServiceHarness(ServiceConfig(workers=2)) as h:
            threads = [threading.Thread(target=submit, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
    assert not any(t.is_alive() for t in threads)
    assert len(outcomes) == 2
    assert all(not o.cached and o.result().tasks_completed == 8 for o in outcomes.values())
    assert paused == [True, True]
    # whichever run ends last, the collector is back on
    assert gc.isenabled()


def test_racing_runs_on_more_threads_than_cores_restore_the_collector(
    collector_enabled,
):
    # every thread that pauses the collector resumes it on exit, however
    # the check and the pause of two entries interleave
    failures: list[BaseException] = []

    def runs() -> None:
        try:
            for _ in range(25):
                rt, f = _one_task_runtime()
                with rt:
                    f(region("x"), region("y"))
        except BaseException as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runs) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert gc.isenabled()


# ----------------------------------------------------------------------
# python -m repro.sim --profile reports the collector
# ----------------------------------------------------------------------
def test_profile_collector_log_counts_collections():
    log = _CollectorLog()
    gc.callbacks.append(log)
    try:
        cycle: list = []
        cycle.append(cycle)
        del cycle
        gc.collect()
    finally:
        gc.callbacks.remove(log)
    assert log.collections[2] >= 1 and log.found >= 1 and log.seconds > 0
    assert log.summary().startswith("[gc: ")
