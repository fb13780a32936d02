"""End-to-end tests of the runtime core."""

import numpy as np
import pytest

from repro.runtime.dataregion import DataRegion
from repro.runtime.directives import task
from repro.runtime.runtime import OmpSsRuntime, RuntimeConfig
from repro.runtime.task import TaskState
from repro.schedulers.base import Scheduler
from repro.sim.perfmodel import FixedCostModel
from repro.sim.topology import cluster_machine, minotauro_node

from tests.conftest import MB, make_machine, make_two_version_task, region, run_tasks


def smp_task(registry, name="f", cost=0.01, machine=None):
    @task(inputs=["x"], outputs=["y"], device="smp", name=name, registry=registry)
    def f(x, y):
        pass

    if machine is not None:
        machine.register_kernel_for_kind("smp", name, FixedCostModel(cost))
    return f


class TestBasicExecution:
    def test_single_task_runs(self):
        m = make_machine(1, 0)
        f = smp_task({}, machine=m)
        res = run_tasks(m, "dep", [(f, region("x"), region("y"))])
        assert res.tasks_completed == 1
        assert res.makespan == pytest.approx(0.01)

    def test_independent_tasks_parallelise(self):
        m = make_machine(4, 0)
        f = smp_task({}, machine=m)
        calls = [(f, region(("x", i)), region(("y", i))) for i in range(4)]
        res = run_tasks(m, "dep", calls)
        assert res.makespan == pytest.approx(0.01)

    def test_dependent_tasks_serialise(self):
        m = make_machine(4, 0)
        f = smp_task({}, machine=m)
        y = region("y")
        # x -> y, then y -> z: RAW chain
        reg2 = {}

        @task(inputs=["a"], outputs=["b"], device="smp", name="g", registry=reg2)
        def g(a, b):
            pass

        m.register_kernel_for_kind("smp", "g", FixedCostModel(0.01))
        res = run_tasks(m, "dep", [(f, region("x"), y), (g, y, region("z"))])
        assert res.makespan == pytest.approx(0.02)

    def test_finish_order_respects_dependences(self):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(machine=m)
        x = region("x")
        rt = OmpSsRuntime(m, "versioning")
        with rt:
            for i in range(10):
                y = region(("y", i))
                work(x, y)
        res = rt.result()
        rt.graph.verify_schedule(res.finish_order)

    def test_trace_has_no_overlap(self):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(machine=m)
        calls = [(work, region(("x", i)), region(("y", i))) for i in range(20)]
        res = run_tasks(m, "versioning", calls)
        res.trace.check_no_overlap("task")

    def test_version_counts_total(self):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(machine=m)
        calls = [(work, region(("x", i)), region(("y", i))) for i in range(15)]
        res = run_tasks(m, "versioning", calls)
        counts = res.version_counts["work_smp"]
        assert sum(counts.values()) == 15

    def test_real_bodies_execute(self):
        m = make_machine(2, 1, noise=0.0)
        reg = {}

        @task(inputs=["a"], inouts=["b"], device="smp", name="axpy", registry=reg)
        def axpy(a, b):
            b += a

        m.register_kernel_for_kind("smp", "axpy", FixedCostModel(0.001))
        a = np.ones(8)
        b = np.zeros(8)
        run_tasks(m, "dep", [(axpy, a, b), (axpy, a, b)])
        assert np.allclose(b, 2.0)

    def test_execute_bodies_disabled(self):
        m = make_machine(1, 0)
        reg = {}

        @task(inputs=["a"], inouts=["b"], device="smp", name="axpy", registry=reg)
        def axpy(a, b):
            b += a

        m.register_kernel_for_kind("smp", "axpy", FixedCostModel(0.001))
        a, b = np.ones(8), np.zeros(8)
        cfg = RuntimeConfig(execute_bodies=False)
        run_tasks(m, "dep", [(axpy, a, b)], config=cfg)
        assert np.allclose(b, 0.0)


class TestTaskwait:
    def test_taskwait_blocks_until_done(self):
        m = make_machine(1, 0)
        f = smp_task({}, machine=m)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            f(region("x"), region("y"))
            rt.taskwait()
            assert rt.engine.now == pytest.approx(0.01)
            f(region("x2"), region("y2"))
        assert rt.result().makespan == pytest.approx(0.02)

    def test_taskwait_flushes_dirty_data(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(outputs=["y"], device="cuda", name="gen", registry=reg)
        def gen(y):
            pass

        m.register_kernel_for_kind("cuda", "gen", FixedCostModel(0.001))
        y = region("y", 6 * MB)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            gen(y)
            rt.taskwait()
            assert rt.directory.dirty_owner(y) is None
            assert rt.directory.is_valid(y, "host")
        res = rt.result()
        assert res.transfer_stats.output_tx == 6 * MB

    def test_taskwait_noflush_keeps_data_on_device(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(outputs=["y"], device="cuda", name="gen", registry=reg)
        def gen(y):
            pass

        m.register_kernel_for_kind("cuda", "gen", FixedCostModel(0.001))
        y = region("y", 6 * MB)
        rt = OmpSsRuntime(m, "dep", config=RuntimeConfig(flush_on_wait=True))
        with rt:
            gen(y)
            rt.taskwait(noflush=True)
            assert rt.directory.dirty_owner(y) == "gpu0"
        # the final implicit wait_all still flushes
        assert rt.directory.dirty_owner(y) is None

    def test_submit_after_close_rejected(self):
        m = make_machine(1, 0)
        f = smp_task({}, machine=m)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            f(region("x"), region("y"))
        with pytest.raises(RuntimeError, match="already finished"):
            with rt:
                pass
        from repro.runtime.task import TaskInstance

        with pytest.raises(RuntimeError, match="already finished"):
            rt.submit(TaskInstance(f.definition, []))


class TestTransfersAndCoherence:
    def test_gpu_read_triggers_input_tx(self):
        m = make_machine(0, 1, noise=0.0)
        reg = {}

        @task(inputs=["x"], outputs=["y"], device="cuda", name="k", registry=reg)
        def k(x, y):
            pass

        m.register_kernel_for_kind("cuda", "k", FixedCostModel(0.001))
        res = run_tasks(m, "dep", [(k, region("x", 4 * MB), region("y", MB))])
        assert res.transfer_stats.input_tx == 4 * MB
        # y flushed back at the end
        assert res.transfer_stats.output_tx == MB

    def test_cached_input_not_retransferred(self):
        m = make_machine(0, 1, noise=0.0)
        reg = {}

        @task(inputs=["x"], outputs=["y"], device="cuda", name="k", registry=reg)
        def k(x, y):
            pass

        m.register_kernel_for_kind("cuda", "k", FixedCostModel(0.001))
        x = region("x", 4 * MB)
        calls = [(k, x, region(("y", i), MB)) for i in range(5)]
        res = run_tasks(m, "dep", calls)
        assert res.transfer_stats.input_tx == 4 * MB  # x moved once

    def test_two_gpus_both_receive_copy(self):
        """Paper: 'If a piece of data is transferred to two different
        devices, both transfers are taken into account.'"""
        m = make_machine(0, 2, noise=0.0)
        reg = {}

        @task(inputs=["x"], outputs=["y"], device="cuda", name="k", registry=reg)
        def k(x, y):
            pass

        m.register_kernel_for_kind("cuda", "k", FixedCostModel(0.050))
        x = region("x", 4 * MB)
        calls = [(k, x, region(("y", i), MB)) for i in range(2)]
        res = run_tasks(m, "dep", calls)
        assert res.transfer_stats.input_tx == 8 * MB

    def test_smp_read_of_gpu_output_is_output_tx(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(outputs=["y"], device="cuda", name="gen", registry=reg)
        def gen(y):
            pass

        @task(inputs=["y"], outputs=["z"], device="smp", name="use", registry=reg)
        def use(y, z):
            pass

        m.register_kernel_for_kind("cuda", "gen", FixedCostModel(0.001))
        m.register_kernel_for_kind("smp", "use", FixedCostModel(0.001))
        y = region("y", 2 * MB)
        res = run_tasks(m, "dep", [(gen, y), (use, y, region("z", 0))])
        assert res.transfer_stats.output_tx >= 2 * MB

    def test_write_invalidates_remote_copies(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(inputs=["x"], outputs=["y"], device="cuda", name="k", registry=reg)
        def k(x, y):
            pass

        @task(inouts=["x"], device="smp", name="mut", registry=reg)
        def mut(x):
            pass

        m.register_kernel_for_kind("cuda", "k", FixedCostModel(0.001))
        m.register_kernel_for_kind("smp", "mut", FixedCostModel(0.001))
        x = region("x", MB)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            k(x, region("y", MB))   # x copied to gpu0
            mut(x)                  # host write must invalidate gpu0 copy
            rt.taskwait()
            assert rt.directory.valid_spaces(x) == {"host"}

    def test_directory_invariants_hold_after_run(self):
        m = make_machine(2, 2, noise=0.0)
        work, _ = make_two_version_task(machine=m)
        calls = [(work, region(("x", i), MB), region(("y", i), MB)) for i in range(30)]
        rt = OmpSsRuntime(m, "versioning")
        with rt:
            for fn, *args in calls:
                fn(*args)
        rt.directory.check_invariants()


class TestOverlapAndPrefetch:
    def _one_gpu_chain(self, config):
        m = make_machine(0, 1, noise=0.0)
        reg = {}

        @task(inputs=["x"], outputs=["y"], device="cuda", name="k", registry=reg)
        def k(x, y):
            pass

        m.register_kernel_for_kind("cuda", "k", FixedCostModel(0.010))
        calls = [(k, region(("x", i), 60 * MB), region(("y", i), MB)) for i in range(6)]
        return run_tasks(m, "dep", calls, config=config)

    def test_prefetch_overlaps_transfers(self):
        overlapped = self._one_gpu_chain(RuntimeConfig(prefetch=True))
        serial = self._one_gpu_chain(
            RuntimeConfig(overlap_transfers=False, prefetch=False)
        )
        assert overlapped.makespan < serial.makespan

    def test_no_overlap_serialises_transfer_then_compute(self):
        res = self._one_gpu_chain(RuntimeConfig(overlap_transfers=False, prefetch=False))
        xfer_in = 60 * MB / 6.0e9 + 15e-6
        flush = 6 * (MB / 6.0e9 + 15e-6)  # the six dirty y tiles go home
        assert res.makespan == pytest.approx(6 * (xfer_in + 0.010) + flush, rel=1e-6)

    def test_prefetch_window_bounds_pinning(self):
        """A queue far deeper than GPU memory must still execute."""
        m = make_machine(0, 1, noise=0.0)
        reg = {}

        @task(inputs=["x"], outputs=["y"], device="cuda", name="k", registry=reg)
        def k(x, y):
            pass

        m.register_kernel_for_kind("cuda", "k", FixedCostModel(0.001))
        # 20 tasks x 1 GB input > 6 GB device memory
        gb = 1024**3
        calls = [(k, region(("x", i), gb), region(("y", i), MB)) for i in range(20)]
        res = run_tasks(m, "dep", calls, config=RuntimeConfig(prefetch_window=2))
        assert res.tasks_completed == 20
        assert res.cache_stats.evictions > 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(prefetch_window=0)


class TestDispatchValidation:
    def test_version_of_other_task_rejected(self):
        m = make_machine(1, 0)
        reg = {}
        f = smp_task(reg, name="f", machine=m)
        g = smp_task(reg, name="g", machine=m)
        rt = OmpSsRuntime(m, "dep")
        from repro.runtime.task import TaskInstance

        t = TaskInstance(f.definition, [])
        t.state = TaskState.READY
        with pytest.raises(ValueError, match="does not belong"):
            rt.dispatch(t, rt.workers[0], g.definition.main_version)

    def test_wrong_device_rejected(self):
        m = make_machine(1, 1)
        reg = {}

        @task(device="cuda", name="k", registry=reg)
        def k():
            pass

        rt = OmpSsRuntime(m, "dep")
        from repro.runtime.task import TaskInstance

        t = TaskInstance(k.definition, [])
        t.state = TaskState.READY
        smp_worker = next(w for w in rt.workers if w.space == "host")
        with pytest.raises(ValueError, match="cannot run on worker"):
            rt.dispatch(t, smp_worker, k.definition.main_version)

    def test_unrunnable_main_version_raises(self):
        m = make_machine(1, 0)  # no GPUs
        reg = {}

        @task(device="cuda", name="k", registry=reg)
        def k():
            pass

        rt = OmpSsRuntime(m, "dep")
        with pytest.raises(RuntimeError, match="no worker"):
            with rt:
                k()


class TestDeterminism:
    def test_same_seed_identical_results(self):
        def one_run():
            m = minotauro_node(2, 2, noise_cv=0.05, seed=9)
            work, _ = make_two_version_task(machine=m)
            calls = [(work, region(("x", i), MB), region(("y", i), MB))
                     for i in range(40)]
            return run_tasks(m, "versioning", calls)

        a, b = one_run(), one_run()
        assert a.makespan == b.makespan
        assert a.version_counts == b.version_counts
        assert a.transfer_stats.as_dict() == b.transfer_stats.as_dict()
        assert a.trace == b.trace

    def test_different_seeds_differ(self):
        def one_run(seed):
            m = minotauro_node(2, 2, noise_cv=0.05, seed=seed)
            work, _ = make_two_version_task(machine=m)
            calls = [(work, region(("x", i), MB), region(("y", i), MB))
                     for i in range(40)]
            return run_tasks(m, "versioning", calls)

        assert one_run(1).makespan != one_run(2).makespan


class TestResultObject:
    def test_gflops(self):
        m = make_machine(1, 0)
        f = smp_task({}, machine=m)
        res = run_tasks(m, "dep", [(f, region("x"), region("y"))])
        assert res.gflops(1e9) == pytest.approx(1.0 / res.makespan / 1.0)

    def test_version_fractions_sum_to_one(self):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(machine=m)
        calls = [(work, region(("x", i)), region(("y", i))) for i in range(12)]
        res = run_tasks(m, "versioning", calls)
        fr = res.version_fractions("work_smp")
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_version_fractions_empty_for_unknown_task(self):
        m = make_machine(1, 0)
        f = smp_task({}, machine=m)
        res = run_tasks(m, "dep", [(f, region("x"), region("y"))])
        assert res.version_fractions("ghost") == {}

    def test_worker_stats_present(self):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(machine=m)
        res = run_tasks(m, "versioning",
                        [(work, region("x"), region("y"))])
        assert set(res.worker_stats) == {"w:smp0", "w:smp1", "w:gpu0"}


class _PinScheduler(Scheduler):
    """Dispatches every ready task to one named worker."""

    name = "pin"

    def __init__(self, worker_name):
        super().__init__()
        self.worker_name = worker_name

    def task_ready(self, t):
        worker = next(w for w in self.rt.workers if w.name == self.worker_name)
        self.rt.dispatch(t, worker, self.main_version(t.definition))


class TestStagingChainRule:
    """A copy chains off one already on the wire only from an allowed
    source: any other node host for a push, none for a read staged into
    a host space."""

    def _runtime(self, scheduler):
        m = cluster_machine(3, smp_per_node=1, gpus_per_node=0, noise_cv=0.0)
        f = smp_task({}, machine=m)
        rt = OmpSsRuntime(m, scheduler)
        rt.enable_node_topology(m.cluster_layout())
        x = region("x", 4 * MB)
        rt.directory.register(x)
        # x is valid only on node 0's host, with a copy on the wire to node 1
        lands, issued = rt.push_region(x, "node1")
        assert issued and rt.directory.entry(x).inflight == {"node1": lands}
        return rt, f, x, lands

    @staticmethod
    def _links_of(rt, label):
        return {
            r.worker: r for r in rt.trace if r.category == "transfer" and r.label == label
        }

    def test_push_chains_off_copy_in_flight_to_another_host(self):
        rt, _, x, lands = self._runtime("dep")
        ready, issued = rt.push_region(x, "node2")
        assert issued and ready > lands
        links = self._links_of(rt, "x")
        assert set(links) == {"link:host->node1", "link:node1->node2"}
        assert links["link:node1->node2"].start >= lands

    def test_smp_read_into_a_host_does_not_chain(self):
        rt, f, x, _ = self._runtime(_PinScheduler("w:n2smp0"))
        with rt:
            f(x, region("y"))
        links = self._links_of(rt, "x")
        assert set(links) == {"link:host->node1", "link:host->node2"}
        assert rt.result().tasks_completed == 1
