"""Edge cases across modules that the focused suites do not cover."""

import pytest

from repro.runtime.runtime import OmpSsRuntime
from repro.sim.engine import SimEngine
from repro.sim.topology import cluster_machine, minotauro_node

from tests.conftest import MB, make_machine, make_two_version_task, region, run_tasks


class TestEngineEdges:
    def test_event_scheduled_at_now_from_callback_runs_same_step(self):
        eng = SimEngine()
        order = []
        eng.schedule(1.0, lambda: (order.append("a"),
                                   eng.schedule(1.0, lambda: order.append("b"))))
        eng.run()
        assert order == ["a", "b"]
        assert eng.now == 1.0

    def test_cancel_after_fire_is_harmless(self):
        eng = SimEngine()
        ev = eng.schedule(1.0, lambda: None)
        eng.run()
        ev.cancel()  # no error
        assert eng.events_processed == 1

    def test_run_until_exact_event_time_includes_event(self):
        eng = SimEngine()
        fired = []
        eng.schedule(2.0, lambda: fired.append(True))
        eng.run(until=2.0)
        assert fired == [True]


class TestDirectoryEdges:
    def test_choose_source_deterministic_among_peers(self):
        from repro.runtime.dataregion import DataRegion

        from tests.conftest import mark_valid, new_directory

        d = new_directory()
        r = DataRegion("x", 10)
        d.note_write(r, "gpu1")
        mark_valid(d, r, "gpu0")
        # host invalid; min() of {gpu0, gpu1}
        assert d.choose_source(r, "gpu2") == "gpu0"


class TestEmptyAndTrivialRuns:
    def test_empty_run_has_zero_makespan(self):
        m = make_machine(1, 0)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            pass
        res = rt.result()
        assert res.makespan == 0.0
        assert res.tasks_completed == 0
        assert res.gflops(1e9) == 0.0

    def test_taskwait_with_nothing_pending_is_noop(self):
        m = make_machine(1, 0)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            rt.taskwait()
            rt.taskwait()
        assert rt.result().makespan == 0.0

    def test_single_worker_machine(self):
        m = make_machine(1, 0)
        work, reg = make_two_version_task()
        reg(m)
        res = run_tasks(m, "versioning",
                        [(work, region(("x", i)), region(("y", i)))
                         for i in range(5)])
        assert res.tasks_completed == 5


class TestClusterEdges:
    def test_cluster_with_no_gpus(self):
        m = cluster_machine(2, 3, 0, noise_cv=0.0)
        assert len(m.devices_of_kind("cuda")) == 0
        assert m.spaces() == ["host", "node1"]
        work, reg = make_two_version_task()
        reg(m)
        res = run_tasks(m, "versioning",
                        [(work, region(("x", i), MB), region(("y", i), MB))
                         for i in range(8)])
        assert res.tasks_completed == 8

    def test_remote_host_counts_as_device_in_tx(self):
        """A copy home->node1 is classified as Input Tx (the remote host
        is a 'device' from the home node's viewpoint)."""
        m = cluster_machine(2, 1, 0, noise_cv=0.0)
        from repro.runtime.directives import task
        from repro.sim.perfmodel import FixedCostModel

        reg = {}

        @task(inputs=["x"], outputs=["y"], device="smp", name="w", registry=reg)
        def w(x, y):
            pass

        m.register_kernel_for_kind("smp", "w", FixedCostModel(0.001))
        rt = OmpSsRuntime(m, "bf")
        x = region("x", 4 * MB)
        with rt:
            # bf spreads across both nodes' workers; the remote one pulls x
            w(x, region("y0", MB))
            w(x, region("y1", MB))
        tx = rt.result().transfer_stats
        assert tx.input_tx == 4 * MB  # one pull to node1


class TestWorkerEdges:
    def test_priority_enqueue_on_queue_with_only_running_task(self):
        from repro.runtime.worker import Worker
        from repro.sim.devices import SMPDevice
        from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
        from repro.sim.devices import DeviceKind

        d = TaskDefinition("t")
        d.add_version(TaskVersion("v", "t", (DeviceKind.SMP,), "v", is_main=True))
        w = Worker(SMPDevice("smp0"))
        w.current = TaskInstance(d, [])
        hi = TaskInstance(d, [], priority=5)
        w.enqueue(hi)  # empty queue: plain append, no crash
        assert w.peek() is hi


class TestProfileEdges:
    def test_assigned_floor_at_zero(self):
        from repro.core.profile import VersionProfile

        p = VersionProfile("v")
        p.record(0.1)  # record without prior assignment
        assert p.assigned == 0

    def test_render_shows_dash_for_unrun_version(self):
        from repro.core.profile import VersionProfileTable

        t = VersionProfileTable()
        t.group("task", 100).profile("never")
        assert "<never, -, 0>" in t.render()
