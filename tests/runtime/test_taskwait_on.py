"""Tests for the extended taskwait: on(...) and noflush (§III)."""

import pytest

from repro.runtime.directives import task
from repro.runtime.runtime import OmpSsRuntime
from repro.sim.perfmodel import FixedCostModel

from tests.conftest import MB, make_machine, region


def setup_two_producers():
    m = make_machine(2, 1, noise=0.0)
    reg = {}

    @task(outputs=["y"], device="smp", name="fast", registry=reg)
    def fast(y):
        pass

    @task(outputs=["y"], device="smp", name="slow", registry=reg)
    def slow(y):
        pass

    m.register_kernel_for_kind("smp", "fast", FixedCostModel(0.001))
    m.register_kernel_for_kind("smp", "slow", FixedCostModel(0.100))
    return m, fast, slow


class TestTaskwaitOn:
    def test_waits_only_for_named_data(self):
        m, fast, slow = setup_two_producers()
        a, b = region("a"), region("b")
        rt = OmpSsRuntime(m, "dep")
        with rt:
            slow(b)
            fast(a)
            rt.taskwait_on(a)
            # only the fast producer had to finish
            assert rt.engine.now == pytest.approx(0.001)
            assert rt.graph.pending_writer(a) is None
            assert rt.graph.pending_writer(b) is not None
        assert rt.result().makespan == pytest.approx(0.100)

    def test_returns_immediately_if_data_already_produced(self):
        m, fast, _ = setup_two_producers()
        a = region("a")
        rt = OmpSsRuntime(m, "dep")
        with rt:
            fast(a)
            rt.taskwait()
            t = rt.engine.now
            rt.taskwait_on(a)
            assert rt.engine.now == t

    def test_unwritten_region_needs_no_wait(self):
        m, fast, _ = setup_two_producers()
        rt = OmpSsRuntime(m, "dep")
        with rt:
            rt.taskwait_on(region("never-written"))
            assert rt.engine.now == 0.0

    def test_flushes_only_named_regions(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(outputs=["y"], device="cuda", name="gen", registry=reg)
        def gen(y):
            pass

        m.register_kernel_for_kind("cuda", "gen", FixedCostModel(0.001))
        a, b = region("a", MB), region("b", MB)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            gen(b)  # first in the single GPU's FIFO queue
            gen(a)
            rt.taskwait_on(a)  # waiting on a implies b already finished
            assert rt.directory.dirty_owner(a) is None       # flushed
            assert rt.directory.dirty_owner(b) == "gpu0"     # untouched
        assert rt.directory.dirty_owner(b) is None           # final flush

    def test_flush_lands_on_the_last_write_back_without_an_event(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(outputs=["y"], device="cuda", name="gen", registry=reg)
        def gen(y):
            pass

        m.register_kernel_for_kind("cuda", "gen", FixedCostModel(0.001))
        a, b = region("a", MB), region("b", 2 * MB)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            gen(a)
            gen(b)
            rt.taskwait_on(a, b, noflush=True)
            produced = rt.engine.now
            events = rt.engine.events_processed
            rt.taskwait_on(a, b)
            # gen has no inputs: every copy in the trace is a write-back
            last = max(r.end for r in rt.trace.by_category("transfer"))
            assert last > produced
            assert rt.engine.now == last
            assert rt.engine.events_processed == events
            assert rt.directory.dirty_owner(a) is None
            assert rt.directory.dirty_owner(b) is None

    def test_noflush_leaves_data_on_device(self):
        m = make_machine(1, 1, noise=0.0)
        reg = {}

        @task(outputs=["y"], device="cuda", name="gen", registry=reg)
        def gen(y):
            pass

        m.register_kernel_for_kind("cuda", "gen", FixedCostModel(0.001))
        a = region("a", MB)
        rt = OmpSsRuntime(m, "dep")
        with rt:
            gen(a)
            rt.taskwait_on(a, noflush=True)
            assert rt.graph.pending_writer(a) is None
            assert rt.directory.dirty_owner(a) == "gpu0"

    def test_chain_of_writers_waits_for_last(self):
        m, fast, slow = setup_two_producers()
        reg = {}

        @task(inouts=["y"], device="smp", name="step", registry=reg)
        def step(y):
            pass

        m.register_kernel_for_kind("smp", "step", FixedCostModel(0.010))
        a = region("a")
        rt = OmpSsRuntime(m, "dep")
        with rt:
            fast(a)
            step(a)
            step(a)
            rt.taskwait_on(a)
            assert rt.engine.now == pytest.approx(0.021)
