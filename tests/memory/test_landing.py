"""Copies that land without an event: the directory settles them on read.

Each scenario runs twice: once against a reference model in which every
copy lands through an event of its own that adds the destination to the
valid set, once with the landing recorded under a sequence number
reserved from the engine and settled by the next read.  Both must leave
the directory in the same state at every probe.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.memory.cache import CacheManager
from repro.memory.directory import Directory
from repro.memory.transfers import TransferEngine
from repro.runtime.dataregion import DataRegion
from repro.sim.engine import EventKind, SimEngine
from repro.sim.topology import MachineSpec, minotauro_node

MB = 1024**2


class Harness:
    """A directory on an engine whose copies land one way or the other."""

    def __init__(self, settle: bool) -> None:
        self.settle = settle
        self.eng = SimEngine()
        self.dir = Directory(self.eng)
        self.probes: list[tuple] = []

    def copy(self, region: DataRegion, dst: str, lands: float) -> None:
        d = self.dir
        if self.settle:
            d.note_in_flight(region, dst, lands, self.eng.reserve_seq(lands))
        else:
            self.eng.schedule(lands, lambda: land_by_event(d, region, dst))
            d.entry(region).inflight[dst] = lands

    def probe(self, region: DataRegion, tag: str = "") -> None:
        e = self.dir.entry(region)
        self.probes.append((tag, self.eng.now, sorted(e.valid), dict(e.inflight)))

    def at(self, time: float, fn) -> None:
        self.eng.schedule(time, fn)


def land_by_event(d: Directory, region: DataRegion, dst: str) -> None:
    """The reference model's landing event."""
    e = d.entry(region)
    e.valid.add(dst)
    e.inflight.pop(dst, None)


def both(scenario) -> list[tuple]:
    """Run ``scenario`` in both landing modes; returns the shared probes."""
    runs = []
    for settle in (False, True):
        h = Harness(settle)
        scenario(h)
        runs.append(h.probes)
    assert runs[0] == runs[1]
    return runs[1]


R = DataRegion("r", 100)


class TestTies:
    def test_event_scheduled_before_the_copy_runs_before_its_landing(self):
        def scenario(h):
            h.at(1.0, lambda: h.probe(R, "before"))  # lower seq than the copy
            h.copy(R, "gpu0", 1.0)
            h.at(1.0, lambda: h.probe(R, "after"))   # higher seq
            h.eng.run()

        probes = both(scenario)
        assert probes[0] == ("before", 1.0, ["host"], {"gpu0": 1.0})
        assert probes[1] == ("after", 1.0, ["gpu0", "host"], {})

    def test_copy_issued_inside_an_event_lands_after_later_ties(self):
        def scenario(h):
            def issue():
                h.copy(R, "gpu0", 2.0)
                h.probe(R, "issued")

            h.at(2.0, lambda: h.probe(R, "tie-first"))
            h.at(1.0, issue)
            h.eng.run()
            h.probe(R, "end")

        probes = both(scenario)
        assert [p[2] for p in probes] == [["host"], ["host"], ["gpu0", "host"]]


class TestClockJump:
    def test_copy_landing_exactly_at_until_is_settled(self):
        def scenario(h):
            h.copy(R, "gpu0", 2.0)
            h.eng.run(until=1.5)
            h.probe(R, "short")
            h.eng.run(until=2.0)
            h.probe(R, "exact")

        probes = both(scenario)
        assert probes[0][2] == ["host"]
        assert probes[1] == ("exact", 2.0, ["gpu0", "host"], {})

    def test_until_reached_by_an_event_settles_later_ties(self):
        def scenario(h):
            h.at(2.0, lambda: None)
            h.copy(R, "gpu0", 2.0)  # ties the event, higher seq
            h.eng.run(until=2.0)
            h.probe(R)

        assert both(scenario)[0][2] == ["gpu0", "host"]

    def test_drained_run_moves_clock_to_last_landing(self):
        def scenario(h):
            h.at(1.0, lambda: h.copy(R, "gpu0", 3.0))
            h.eng.run()
            h.probe(R)

        assert both(scenario) == [("", 3.0, ["gpu0", "host"], {})]


class TestMasterReads:
    def test_reads_between_two_run_while_drains(self):
        def scenario(h):
            done = []
            h.at(1.0, lambda: done.append("a"))
            h.copy(R, "gpu0", 1.0)
            h.at(1.0, lambda: done.append("b"))
            h.eng.run_while(lambda: not done)
            h.probe(R, "after a")
            h.eng.run_while(lambda: len(done) < 2)
            h.probe(R, "after b")

        probes = both(scenario)
        assert probes[0][2] == ["host"]
        assert probes[1][2] == ["gpu0", "host"]


class TestWrites:
    def test_note_write_drops_landed_copies_keeps_unlanded_ones(self):
        def scenario(h):
            h.copy(R, "gpu0", 1.0)
            h.copy(R, "gpu1", 3.0)
            h.at(2.0, lambda: h.dir.note_write(R, "smp0"))
            h.at(2.0, lambda: h.probe(R, "written"))
            h.eng.run()
            h.probe(R, "end")

        probes = both(scenario)
        assert probes[0] == ("written", 2.0, ["smp0"], {"gpu1": 3.0})
        # the unlanded copy still lands after the write (a stale copy,
        # kept as the event path has it)
        assert probes[1] == ("end", 3.0, ["gpu1", "smp0"], {})

    def test_landing_drops_a_newer_copy_record_toward_its_space(self):
        def scenario(h):
            def reissue():
                # runs before the first copy lands: a second copy is
                # issued and overwrites the in-flight record
                h.copy(R, "gpu0", 4.0)
                h.probe(R, "reissued")

            h.at(1.0, reissue)
            h.copy(R, "gpu0", 1.0)
            h.at(2.0, lambda: h.probe(R, "later"))
            h.eng.run()

        probes = both(scenario)
        assert probes[0] == ("reissued", 1.0, ["host"], {"gpu0": 4.0})
        assert probes[1] == ("later", 2.0, ["gpu0", "host"], {})


class TestEviction:
    @pytest.mark.parametrize("settle", [False, True])
    def test_evicting_a_landed_unsettled_copy_drops_it(self, settle):
        eng = SimEngine()
        machine = minotauro_node(
            spec=MachineSpec(n_smp=1, n_gpus=1, gpu_memory_bytes=8 * MB, noise_cv=0.0)
        )
        directory = Directory(eng)
        cache = CacheManager(machine, directory, TransferEngine(eng, machine))
        old, new = DataRegion("old", 6 * MB), DataRegion("new", 6 * MB)
        cache.ensure_resident("gpu0", old)
        if settle:
            directory.note_in_flight(old, "gpu0", 1.0, eng.reserve_seq(1.0))
        else:
            eng.schedule(1.0, lambda: land_by_event(directory, old, "gpu0"))
            directory.entry(old).inflight["gpu0"] = 1.0
        seen = []

        def evict():
            if settle:  # landed at 1.0, not yet settled by a read
                assert directory._entries[old.rid].landing
            cache.ensure_resident("gpu0", new)  # evicts ``old``
            seen.append(directory.valid_spaces(old))

        eng.schedule(2.0, evict)
        eng.run()
        assert seen == [{"host"}]
        assert directory.entry(old).inflight == {}
        assert directory.entry(old).landing == []
        assert cache.stats.evictions == 1


class TestNodeCrash:
    """A crash drops the copies in flight toward the dead spaces."""

    NODE = {"node1", "node1.gpu0"}

    def crash_during_copy(self, rejoin_at=None):
        """A copy toward node1 lands at 2.0; node1 crashes at 1.0 (and
        rejoins at ``rejoin_at``, the way the recovery manager does)."""
        eng = SimEngine()
        d = Directory(eng)
        te = TransferEngine(eng, minotauro_node(1, 1))
        d.note_in_flight(R, "node1", 2.0, eng.reserve_seq(2.0))

        def crash():
            te.set_spaces_down(self.NODE)
            d.invalidate_spaces(self.NODE)

        eng.schedule(1.0, crash)
        if rejoin_at is not None:
            eng.schedule(rejoin_at, lambda: te.set_spaces_up(self.NODE))
        eng.schedule(3.0, lambda: None)
        eng.run()
        return d, te

    def test_copy_landing_while_its_node_is_down_never_becomes_valid(self):
        d, te = self.crash_during_copy()
        assert "node1" in te.down_spaces
        assert d.valid_spaces(R) == {"host"}
        assert d.entry(R).inflight == {}
        assert d.entry(R).landing == []

    def test_copy_landing_after_its_node_rejoined_never_becomes_valid(self):
        """The rule: a copy in flight when its destination's node
        crashes is lost, even if the node rejoins before the copy would
        have landed.  The crash forgets it, and the node comes back with
        cold memory, so its liveness when the copy lands does not
        matter."""
        d, te = self.crash_during_copy(rejoin_at=1.5)
        assert not te.down_spaces
        assert d.valid_spaces(R) == {"host"}
        assert d.entry(R).inflight == {}

    def test_crash_settles_a_landed_copy_before_declaring_a_region_lost(self):
        eng = SimEngine()
        d = Directory(eng)
        lost = []
        # the only valid copy lives on node1; a copy toward node2 lands
        # at 1.0, and no read settles it before node1 crashes at 2.0
        d.note_write(R, "node1")
        d.note_in_flight(R, "node2", 1.0, eng.reserve_seq(1.0))
        eng.schedule(2.0, lambda: lost.extend(d.invalidate_spaces(self.NODE)))
        eng.run()
        assert lost == []
        assert d.valid_spaces(R) == {"node2"}
        assert d.dirty_owner(R) == "node2"
        d.check_invariants()


def _scheduled_kinds(case_id: str, monkeypatch) -> Counter:
    """Events the case schedules by kind; ``"in-issue"`` counts those
    scheduled from inside :meth:`TransferEngine.issue`, ``"reserved"``
    the landings recorded under a reserved seq."""
    from tests.sim.golden_cases import CASES_BY_ID, run_case

    kinds: Counter = Counter()
    orig_schedule, orig_reserve = SimEngine.schedule, SimEngine.reserve_seq
    orig_issue = TransferEngine.issue
    issuing = []

    def counting(self, time, callback, *, kind=EventKind.GENERIC, label=""):
        kinds[kind] += 1
        if issuing:
            kinds["in-issue"] += 1
        return orig_schedule(self, time, callback, kind=kind, label=label)

    def reserving(self, time):
        kinds["reserved"] += 1
        return orig_reserve(self, time)

    def issue(self, request, **kw):
        issuing.append(request)
        try:
            return orig_issue(self, request, **kw)
        finally:
            issuing.pop()

    monkeypatch.setattr(SimEngine, "schedule", counting)
    monkeypatch.setattr(SimEngine, "reserve_seq", reserving)
    monkeypatch.setattr(TransferEngine, "issue", issue)
    run_case(CASES_BY_ID[case_id])
    return kinds


class TestGoldenRuns:
    def test_fault_free_run_schedules_no_transfer_end(self, monkeypatch):
        kinds = _scheduled_kinds("matmul4-hyb-cluster-affinity", monkeypatch)
        assert kinds["in-issue"] == 0
        assert kinds["reserved"] > 0
        assert kinds[EventKind.TASK_END] > 0

    def test_fault_plan_run_schedules_no_transfer_end(self, monkeypatch):
        kinds = _scheduled_kinds("matmul3-hyb-versioning-node-flaky", monkeypatch)
        assert kinds["in-issue"] == 0
        assert kinds["reserved"] > 0

    def test_no_copy_is_issued_toward_a_down_space(self, monkeypatch):
        """Dropping a crashed node's copies in flight is exact on the
        golden fault cases because none of them issues a copy toward a
        space that is down."""
        from tests.sim.golden_cases import CASES, run_case

        orig_issue = TransferEngine.issue
        issued_while_down = []

        def issue(self, request, **kw):
            if self.down_spaces:
                assert request.dst not in self.down_spaces, request
                issued_while_down.append(request)
            return orig_issue(self, request, **kw)

        monkeypatch.setattr(TransferEngine, "issue", issue)
        for case in CASES:
            if case.faults is not None:
                run_case(case)
        # the check must bite: some copies are issued while a node is down
        assert issued_while_down
