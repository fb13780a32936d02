"""Tests for dataflow dependence analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.dataregion import AccessKind, DataAccess, DataRegion
from repro.runtime.dependences import DepEdge, DependenceGraph, DepKind
from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
from repro.sim.devices import DeviceKind


def make_def(name="t"):
    d = TaskDefinition(name)
    d.add_version(
        TaskVersion(name + "_v", name, (DeviceKind.SMP,), name + "_v", is_main=True)
    )
    return d


DEF = make_def()


def inst(*accesses):
    return TaskInstance(DEF, list(accesses))


def rd(region):
    return DataAccess(region, AccessKind.INPUT)


def wr(region):
    return DataAccess(region, AccessKind.OUTPUT)


def rw(region):
    return DataAccess(region, AccessKind.INOUT)


class TestBasicDependences:
    def test_independent_tasks_all_ready(self):
        g = DependenceGraph()
        a, b = DataRegion("a", 1), DataRegion("b", 1)
        assert g.add_task(inst(wr(a)))
        assert g.add_task(inst(wr(b)))

    def test_raw(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t1 = inst(wr(x))
        t2 = inst(rd(x))
        assert g.add_task(t1)
        assert not g.add_task(t2)
        assert t2.predecessors == {t1.uid}
        assert g.edge_counts()[DepKind.RAW] == 1

    def test_waw(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t1, t2 = inst(wr(x)), inst(wr(x))
        g.add_task(t1)
        assert not g.add_task(t2)
        assert g.edge_counts()[DepKind.WAW] == 1

    def test_war(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t1 = inst(wr(x))
        t2 = inst(rd(x))
        t3 = inst(wr(x))
        g.add_task(t1)
        g.add_task(t2)
        assert not g.add_task(t3)
        # t3 depends on reader t2 (WAR) and writer t1 (WAW)
        assert t3.predecessors == {t1.uid, t2.uid}

    def test_readers_do_not_conflict(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        g.add_task(inst(wr(x)))
        r1, r2 = inst(rd(x)), inst(rd(x))
        g.add_task(r1)
        g.add_task(r2)
        assert r1.predecessors and r2.predecessors
        assert r1.uid not in r2.predecessors  # readers independent

    def test_inout_chains(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        tasks = [inst(rw(x)) for _ in range(4)]
        ready = [g.add_task(t) for t in tasks]
        assert ready == [True, False, False, False]
        for earlier, later in zip(tasks, tasks[1:]):
            assert earlier.uid in later.predecessors

    def test_inout_does_not_self_depend(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t = inst(rw(x))
        assert g.add_task(t)
        assert t.uid not in t.predecessors

    def test_read_before_any_write_is_free(self):
        g = DependenceGraph()
        assert g.add_task(inst(rd(DataRegion("x", 1))))

    def test_duplicate_submit_rejected(self):
        g = DependenceGraph()
        t = inst(wr(DataRegion("x", 1)))
        g.add_task(t)
        with pytest.raises(ValueError, match="twice"):
            g.add_task(t)


class TestDepEdgeValue:
    def test_equality_and_hash_by_fields(self):
        r = DataRegion("e", 8)
        a = DepEdge(1, 2, DepKind.RAW, r)
        b = DepEdge(1, 2, DepKind.RAW, DataRegion("e", 8))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((1, 2, DepKind.RAW, r))
        assert len({a, b}) == 1
        assert a != DepEdge(1, 2, DepKind.WAR, r)
        assert a != DepEdge(1, 3, DepKind.RAW, r)
        assert a != (1, 2, DepKind.RAW, r)

    def test_repr(self):
        e = DepEdge(1, 2, DepKind.WAW, DataRegion("e", 8))
        assert repr(e) == (
            "DepEdge(src=1, dst=2, kind=<DepKind.WAW: 'waw'>, "
            "region=DataRegion('e', 8B))"
        )

    def test_strongest_kind_kept_per_predecessor(self):
        # a task reading and writing two regions last written/read by
        # one predecessor keeps one edge of the strongest kind
        g = DependenceGraph()
        x, y = DataRegion("sx", 8), DataRegion("sy", 8)
        t1 = inst(rd(x), wr(y))
        t2 = inst(wr(x), rw(y))  # WAR on x, then RAW (and WAW) on y
        g.add_task(t1)
        g.add_task(t2)
        (edge,) = g.in_edges(t2.uid)
        assert edge.kind is DepKind.RAW and edge.region == y
        t3 = inst(wr(x))  # WAW on x only
        g.add_task(t3)
        assert [e.kind for e in g.in_edges(t3.uid)] == [DepKind.WAW]


class TestRetirement:
    def test_release_chain(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t1, t2, t3 = inst(rw(x)), inst(rw(x)), inst(rw(x))
        for t in (t1, t2, t3):
            g.add_task(t)
        assert g.task_finished(t1) == [t2]
        assert g.task_finished(t2) == [t3]
        assert g.task_finished(t3) == []
        assert g.unfinished == 0

    def test_diamond_releases_only_when_both_done(self):
        g = DependenceGraph()
        a, b = DataRegion("a", 1), DataRegion("b", 1)
        src = inst(wr(a), wr(b))
        left = inst(rd(a), wr(DataRegion("l", 1)))
        right = inst(rd(b), wr(DataRegion("r", 1)))
        sink = inst(rd(DataRegion("l", 1)), rd(DataRegion("r", 1)))
        for t in (src, left, right, sink):
            g.add_task(t)
        assert set(g.task_finished(src)) == {left, right}
        assert g.task_finished(left) == []
        assert g.task_finished(right) == [sink]

    def test_finish_unknown_task_rejected(self):
        g = DependenceGraph()
        t = inst(wr(DataRegion("x", 1)))
        with pytest.raises(ValueError):
            g.task_finished(t)

    def test_double_finish_rejected(self):
        g = DependenceGraph()
        t = inst(wr(DataRegion("x", 1)))
        g.add_task(t)
        g.task_finished(t)
        with pytest.raises(ValueError):
            g.task_finished(t)


class TestVerifySchedule:
    def test_valid_order_passes(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t1, t2 = inst(wr(x)), inst(rd(x))
        g.add_task(t1)
        g.add_task(t2)
        g.verify_schedule([t1.uid, t2.uid])

    def test_invalid_order_fails(self):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        t1, t2 = inst(wr(x)), inst(rd(x))
        g.add_task(t1)
        g.add_task(t2)
        with pytest.raises(AssertionError, match="dependence violated"):
            g.verify_schedule([t2.uid, t1.uid])


class TestAliasing:
    def test_overlapping_distinct_regions_rejected(self):
        g = DependenceGraph(alias_policy="reject")
        a = DataRegion("a", 10, base=100, length=10)
        b = DataRegion("b", 10, base=105, length=10)
        g.add_task(inst(wr(a)))
        with pytest.raises(ValueError, match="overlaps"):
            g.add_task(inst(wr(b)))

    def test_adjacent_regions_ok(self):
        g = DependenceGraph(alias_policy="reject")
        a = DataRegion("a", 10, base=100, length=10)
        b = DataRegion("b", 10, base=110, length=10)
        g.add_task(inst(wr(a)))
        g.add_task(inst(wr(b)))

    def test_same_region_reuse_ok(self):
        g = DependenceGraph(alias_policy="reject")
        a = DataRegion("a", 10, base=100, length=10)
        g.add_task(inst(wr(a)))
        g.add_task(inst(rd(a)))

    def test_disabled_by_default(self):
        g = DependenceGraph()
        a = DataRegion("a", 10, base=100, length=10)
        b = DataRegion("b", 10, base=105, length=10)
        g.add_task(inst(wr(a)))
        g.add_task(inst(wr(b)))  # no error


class TestProperties:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=5),
                          st.sampled_from(list(AccessKind))),
                min_size=1,
                max_size=3,
                unique_by=lambda x: x[0],
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_program_order_retirement_respects_all_edges(self, program):
        """Retiring tasks in program order must always be a valid schedule,
        and every task must eventually be released exactly once."""
        g = DependenceGraph()
        regions = {i: DataRegion(i, 1) for i in range(6)}
        tasks = []
        for spec in program:
            t = inst(*[DataAccess(regions[i], kind) for i, kind in spec])
            g.add_task(t)
            tasks.append(t)
        released = [t for t in tasks if not t.predecessors]
        finished: list[int] = []
        for t in tasks:  # program order is a topological order
            assert not t.predecessors, "task not released by its predecessors"
            newly = g.task_finished(t)
            finished.append(t.uid)
            released.extend(newly)
        g.verify_schedule(finished)
        assert sorted(x.uid for x in released) == sorted(t.uid for t in tasks)
        assert g.unfinished == 0

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_chain_edge_count(self, n):
        g = DependenceGraph()
        x = DataRegion("x", 1)
        for _ in range(n):
            g.add_task(inst(rw(x)))
        assert len(g.edges) == n - 1
