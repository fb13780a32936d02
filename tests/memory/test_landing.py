"""Copies that land without an event: the directory settles them on read.

Each scenario runs twice: once with every copy landing through a
``TRANSFER_END`` event that calls :meth:`Directory.mark_valid` (the
fault-plan path), once with the landing recorded under a sequence
number reserved from the engine and settled by the next read.  Both
must leave the directory in the same state at every probe.
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
        self.dir = Directory(engine=self.eng)
        self.probes: list[tuple] = []

    def copy(self, region: DataRegion, dst: str, lands: float) -> None:
        d = self.dir
        if self.settle:
            d.note_in_flight(region, dst, lands, self.eng.reserve_seq(lands))
        else:
            self.eng.schedule(lands, lambda: d.mark_valid(region, dst),
                              kind=EventKind.TRANSFER_END)
            d.note_in_flight(region, dst, lands)

    def probe(self, region: DataRegion, tag: str = "") -> None:
        e = self.dir.entry(region)
        self.probes.append((tag, self.eng.now, sorted(e.valid), dict(e.inflight)))

    def at(self, time: float, fn) -> None:
        self.eng.schedule(time, fn)


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
        directory = Directory(engine=eng)
        cache = CacheManager(machine, directory, TransferEngine(eng, machine))
        old, new = DataRegion("old", 6 * MB), DataRegion("new", 6 * MB)
        cache.ensure_resident("gpu0", old)
        if settle:
            directory.note_in_flight(old, "gpu0", 1.0, eng.reserve_seq(1.0))
        else:
            eng.schedule(1.0, lambda: directory.mark_valid(old, "gpu0"))
            directory.note_in_flight(old, "gpu0", 1.0)
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


class TestNoEngine:
    def test_directory_without_engine_never_settles(self):
        d = Directory()
        d.note_in_flight(R, "gpu0", 0.0, seq=0)
        assert not d.is_valid(R, "gpu0")
        assert d.entry(R).inflight == {"gpu0": 0.0}
        assert d.entry(R).landing == [(0.0, 0, "gpu0")]


def _scheduled_kinds(case_id: str, monkeypatch) -> Counter:
    from tests.sim.golden_cases import CASES_BY_ID, run_case

    kinds: Counter = Counter()
    orig = SimEngine.schedule

    def counting(self, time, callback, *, kind=EventKind.GENERIC, label=""):
        kinds[kind] += 1
        return orig(self, time, callback, kind=kind, label=label)

    monkeypatch.setattr(SimEngine, "schedule", counting)
    run_case(CASES_BY_ID[case_id])
    return kinds


class TestGoldenRuns:
    def test_fault_free_run_schedules_no_transfer_end(self, monkeypatch):
        kinds = _scheduled_kinds("matmul4-hyb-cluster-affinity", monkeypatch)
        assert kinds[EventKind.TRANSFER_END] == 0
        assert kinds[EventKind.TASK_END] > 0

    def test_fault_plan_run_keeps_landing_events(self, monkeypatch):
        kinds = _scheduled_kinds("matmul3-hyb-versioning-node-flaky", monkeypatch)
        assert kinds[EventKind.TRANSFER_END] > 0
