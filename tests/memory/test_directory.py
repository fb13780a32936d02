"""Tests for the coherence directory, including protocol-invariant
property tests over random operation sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.directory import TransferRequest
from repro.runtime.dataregion import DataRegion

from tests.conftest import mark_valid, new_directory

SPACES = ["host", "gpu0", "gpu1"]


def reg(key="x", nbytes=100):
    return DataRegion(key, nbytes)


class TestRegistration:
    def test_new_region_valid_at_home_only(self):
        d = new_directory()
        r = reg()
        d.register(r)
        assert d.valid_spaces(r) == {"host"}
        assert d.dirty_owner(r) is None

    def test_register_idempotent(self):
        d = new_directory()
        r = reg()
        d.register(r)
        mark_valid(d, r, "gpu0")
        d.register(r)  # must not reset state
        assert d.valid_spaces(r) == {"host", "gpu0"}

    def test_queries_auto_register(self):
        d = new_directory()
        assert d.is_valid(reg(), "host")


class TestReadProtocol:
    def test_read_at_valid_space_needs_nothing(self):
        d = new_directory()
        assert d.reads_needed(reg(), "host") is None

    def test_read_elsewhere_needs_transfer_from_home(self):
        d = new_directory()
        r = reg()
        req = d.reads_needed(r, "gpu0")
        assert req == TransferRequest(r, "host", "gpu0")

    def test_choose_source_prefers_home(self):
        d = new_directory()
        r = reg()
        mark_valid(d, r, "gpu0")
        assert d.choose_source(r, "gpu1") == "host"

    def test_choose_source_peer_when_home_invalid(self):
        d = new_directory()
        r = reg()
        d.note_write(r, "gpu0")
        assert d.choose_source(r, "gpu1") == "gpu0"

    def test_choose_source_rejects_already_valid(self):
        d = new_directory()
        with pytest.raises(ValueError, match="already valid"):
            d.choose_source(reg(), "host")

    def test_mark_valid_adds_replica(self):
        d = new_directory()
        r = reg()
        mark_valid(d, r, "gpu0")
        assert d.valid_spaces(r) == {"host", "gpu0"}


class TestWriteProtocol:
    def test_write_invalidates_others(self):
        d = new_directory()
        r = reg()
        mark_valid(d, r, "gpu0")
        mark_valid(d, r, "gpu1")
        d.note_write(r, "gpu0")
        assert d.valid_spaces(r) == {"gpu0"}
        assert d.dirty_owner(r) == "gpu0"

    def test_host_write_is_clean(self):
        d = new_directory()
        r = reg()
        mark_valid(d, r, "gpu0")
        d.note_write(r, "host")
        assert d.valid_spaces(r) == {"host"}
        assert d.dirty_owner(r) is None

    def test_writeback_cleans(self):
        d = new_directory()
        r = reg()
        d.note_write(r, "gpu0")
        req = d.writeback_request(r)
        assert req == TransferRequest(r, "gpu0", "host")
        d.note_writeback_done(r)
        assert d.dirty_owner(r) is None
        assert d.valid_spaces(r) == {"gpu0", "host"}

    def test_writeback_of_clean_region_is_none(self):
        d = new_directory()
        assert d.writeback_request(reg()) is None

    def test_writeback_done_on_clean_rejected(self):
        d = new_directory()
        with pytest.raises(ValueError):
            d.note_writeback_done(reg())


class TestEviction:
    def test_drop_replica_ok(self):
        d = new_directory()
        r = reg()
        mark_valid(d, r, "gpu0")
        d.drop_copy(r, "gpu0")
        assert d.valid_spaces(r) == {"host"}

    def test_drop_dirty_owner_rejected(self):
        d = new_directory()
        r = reg()
        d.note_write(r, "gpu0")
        with pytest.raises(ValueError, match="dirty"):
            d.drop_copy(r, "gpu0")

    def test_drop_last_copy_rejected(self):
        d = new_directory()
        r = reg()
        with pytest.raises(ValueError, match="only valid copy"):
            d.drop_copy(r, "host")

    def test_drop_nonresident_rejected(self):
        d = new_directory()
        with pytest.raises(ValueError, match="no copy"):
            d.drop_copy(reg(), "gpu0")


class TestFlush:
    def test_flush_requests_cover_all_dirty(self):
        d = new_directory()
        r1, r2, r3 = reg("a"), reg("b"), reg("c")
        d.note_write(r1, "gpu0")
        d.note_write(r2, "gpu1")
        d.register(r3)  # clean
        reqs = d.flush_requests()
        assert {q.region.key for q in reqs} == {"a", "b"}
        assert all(q.dst == "host" for q in reqs)

    def test_flush_requests_deterministic_order(self):
        d1, d2 = new_directory(), new_directory()
        for d in (d1, d2):
            for key in ("z", "a", "m"):
                d.note_write(reg(key), "gpu0")
        assert [q.region.key for q in d1.flush_requests()] == [
            q.region.key for q in d2.flush_requests()
        ]


class TestTransferRequest:
    def test_self_transfer_rejected(self):
        with pytest.raises(ValueError):
            TransferRequest(reg(), "host", "host")


class TestInvariantsUnderRandomOps:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "flush_one"]),
                st.integers(min_value=0, max_value=3),  # region id
                st.sampled_from(SPACES),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_protocol_invariants(self, ops):
        """Simulate the runtime's use of the directory: reads complete
        their transfer immediately; writes invalidate; random write-backs
        occur.  Invariants must hold after every step."""
        d = new_directory()
        regions = {i: reg(("r", i)) for i in range(4)}
        for op, i, space in ops:
            r = regions[i]
            if op == "read":
                req = d.reads_needed(r, space)
                if req is not None:
                    mark_valid(d, r, space)
                assert d.is_valid(r, space)
            elif op == "write":
                d.note_write(r, space)
                assert d.valid_spaces(r) == {space}
            elif op == "flush_one":
                req = d.writeback_request(r)
                if req is not None:
                    d.note_writeback_done(r)
                    assert d.is_valid(r, "host")
            d.check_invariants()


class TestCopyState:
    """The directory owns copies in flight and regions under recovery."""

    def test_mark_valid_clears_inflight_for_its_own_space_only(self):
        d = new_directory()
        eng = d._engine
        r = reg()
        d.note_in_flight(r, "gpu0", 1.0, eng.reserve_seq(1.0))
        d.note_in_flight(r, "gpu1", 2.0, eng.reserve_seq(2.0))
        eng.run(until=1.0)  # the copy toward gpu0 lands
        assert d.entry(r).inflight == {"gpu1": 2.0}
        assert d.is_valid(r, "gpu0")

    def test_invalidate_spaces_drops_inflight_and_returns_lost(self):
        d = new_directory()
        eng = d._engine
        kept, lost = reg("kept"), reg("lost")
        mark_valid(d, kept, "gpu0")
        d.note_in_flight(kept, "gpu1", 1.0, eng.reserve_seq(1.0))
        d.note_in_flight(kept, "host2", 1.0, eng.reserve_seq(1.0))
        d.note_write(lost, "gpu1")
        assert d.invalidate_spaces({"gpu1", "gpu0"}) == [lost]
        assert d.entry(kept).inflight == {"host2": 1.0}
        assert d.entry(kept).landing == [(1.0, 2, "host2")]
        assert d.valid_spaces(kept) == {"host"}
        assert d.valid_spaces(lost) == set()
        assert d.entry(lost).recover_at is not None
        assert d.entry(kept).recover_at is None

    def test_recovery_superseded_by_write_and_cleared_by_recovered(self):
        d = new_directory()
        r = reg()
        d.note_write(r, "gpu0")
        d.invalidate_spaces({"gpu0"})
        d.note_recomputing(r, 5.0)
        assert d.entry(r).recover_at == 5.0
        d.note_write(r, "gpu1")
        assert d.entry(r).recover_at is None
        d.invalidate_spaces({"gpu1"})
        d.note_recomputing(r, 7.0)
        d.note_recovered(r, "host")
        assert d.entry(r).recover_at is None
        assert d.valid_spaces(r) == {"host"}
        d.check_invariants()

    def test_check_invariants_tolerates_only_regions_under_recovery(self):
        d = new_directory()
        r = reg()
        d.note_write(r, "gpu0")
        d.invalidate_spaces({"gpu0"})
        d.check_invariants()  # valid nowhere, but under recovery
        d.entry(r).recover_at = None
        with pytest.raises(AssertionError, match="valid nowhere"):
            d.check_invariants()

    def test_valid_on_node(self):
        d = new_directory()
        d.set_topology(
            {"host": 0, "gpu0": 0, "node1": 1, "node1.gpu0": 1},
            {"host", "node1"},
        )
        r = reg()
        assert d.valid_on_node(r, 0)
        assert not d.valid_on_node(r, 1)
        d.note_write(r, "node1.gpu0")
        assert d.valid_on_node(r, 1)
        assert not d.valid_on_node(r, 0)
