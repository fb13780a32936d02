"""Tests for the transfer engine and Tx accounting."""

import pytest

from repro.memory.directory import TransferRequest
from repro.memory.transfers import TransferEngine, TransferStats, TxCategory
from repro.runtime.dataregion import DataRegion
from repro.sim.engine import SimEngine
from repro.sim.topology import minotauro_node

MB = 1024**2


def setup(n_gpus=2):
    eng = SimEngine()
    machine = minotauro_node(1, n_gpus, noise_cv=0.0)
    te = TransferEngine(eng, machine)
    return eng, machine, te


def req(key, nbytes, src, dst):
    return TransferRequest(DataRegion(key, nbytes), src, dst)


class TestClassification:
    def test_input(self):
        assert TxCategory.classify("host", "gpu0") is TxCategory.INPUT

    def test_output(self):
        assert TxCategory.classify("gpu0", "host") is TxCategory.OUTPUT

    def test_device(self):
        assert TxCategory.classify("gpu0", "gpu1") is TxCategory.DEVICE

    def test_host_to_host_rejected(self):
        with pytest.raises(ValueError):
            TxCategory.classify("host", "host")


class TestTransferStats:
    def test_accumulation(self):
        s = TransferStats()
        s.record("host", "gpu0", 10)
        s.record("host", "gpu1", 20)
        s.record("gpu0", "host", 5)
        s.record("gpu0", "gpu1", 7)
        assert s.input_tx == 30
        assert s.output_tx == 5
        assert s.device_tx == 7
        assert s.total_bytes == 42
        assert s.total_count == 4

    def test_as_dict(self):
        s = TransferStats()
        s.record("host", "gpu0", 10)
        assert s.as_dict() == {"input_tx": 10, "output_tx": 0, "device_tx": 0}


class TestTransferEngine:
    def test_completion_time_is_wire_time(self):
        eng, machine, te = setup()
        end = te.issue(req("x", 6 * 10**9, "host", "gpu0"))
        assert end == pytest.approx(1.0 + 15e-6)

    def test_link_serialises_fifo(self):
        eng, machine, te = setup()
        e1 = te.issue(req("a", 6 * 10**9, "host", "gpu0"))
        e2 = te.issue(req("b", 6 * 10**9, "host", "gpu0"))
        assert e2 == pytest.approx(e1 + 1.0 + 15e-6)

    def test_different_links_parallel(self):
        eng, machine, te = setup()
        e1 = te.issue(req("a", 6 * 10**9, "host", "gpu0"))
        e2 = te.issue(req("b", 6 * 10**9, "host", "gpu1"))
        assert e1 == pytest.approx(e2)

    def test_opposite_directions_parallel(self):
        eng, machine, te = setup()
        e1 = te.issue(req("a", 6 * 10**9, "host", "gpu0"))
        e2 = te.issue(req("b", 6 * 10**9, "gpu0", "host"))
        assert e1 == pytest.approx(e2)

    def test_earliest_respected(self):
        eng, machine, te = setup()
        end = te.issue(req("x", 6 * 10**9, "host", "gpu0"), earliest=5.0)
        assert end == pytest.approx(6.0 + 15e-6)

    def test_stats_recorded(self):
        eng, machine, te = setup()
        te.issue(req("x", 4 * MB, "host", "gpu0"))
        te.issue(req("y", MB, "gpu0", "gpu1"))
        assert te.stats.input_tx == 4 * MB
        assert te.stats.device_tx == MB

    def test_trace_records_transfers(self):
        from repro.sim.trace import Trace

        eng = SimEngine()
        machine = minotauro_node(1, 1, noise_cv=0.0)
        trace = Trace()
        te = TransferEngine(eng, machine, trace=trace)
        te.issue(req("x", MB, "host", "gpu0"))
        recs = trace.by_category("transfer")
        assert len(recs) == 1
        assert recs[0].worker == "link:host->gpu0"

    def test_missing_link_raises(self):
        eng, machine, te = setup(n_gpus=1)
        with pytest.raises(KeyError):
            te.issue(req("x", MB, "gpu0", "gpu7"))
