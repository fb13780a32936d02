"""Tests for the per-space software cache (residency, pins, eviction)."""

import pytest

from repro.memory.cache import CacheManager
from repro.memory.directory import Directory
from repro.memory.transfers import TransferEngine
from repro.runtime.dataregion import DataRegion
from repro.sim.engine import SimEngine
from repro.sim.topology import MachineSpec, minotauro_node

from tests.conftest import mark_valid

MB = 1024**2


def setup(gpu_mem=10 * MB):
    eng = SimEngine()
    machine = minotauro_node(
        spec=MachineSpec(n_smp=1, n_gpus=2, gpu_memory_bytes=gpu_mem, noise_cv=0.0)
    )
    directory = Directory(eng)
    te = TransferEngine(eng, machine)
    cache = CacheManager(machine, directory, te)
    return eng, directory, te, cache


def reg(key, nbytes=4 * MB):
    return DataRegion(key, nbytes)


class TestResidency:
    def test_host_space_unbounded(self):
        _, _, _, cache = setup()
        assert cache.space("host").capacity is None

    def test_gpu_space_bounded_by_device_memory(self):
        _, _, _, cache = setup(gpu_mem=10 * MB)
        assert cache.space("gpu0").capacity == 10 * MB

    def test_ensure_resident_allocates(self):
        _, _, _, cache = setup()
        r = reg("x")
        cache.ensure_resident("gpu0", r)
        assert cache.is_resident("gpu0", r)
        assert cache.resident_bytes("gpu0") == 4 * MB

    def test_ensure_resident_idempotent(self):
        _, _, _, cache = setup()
        r = reg("x")
        cache.ensure_resident("gpu0", r)
        cache.ensure_resident("gpu0", r)
        assert cache.resident_bytes("gpu0") == 4 * MB

    def test_unknown_space_rejected(self):
        _, _, _, cache = setup()
        with pytest.raises(KeyError):
            cache.ensure_resident("gpu9", reg("x"))


class TestPinning:
    def test_pin_unpin_cycle(self):
        _, _, _, cache = setup()
        r = reg("x")
        cache.ensure_resident("gpu0", r)
        cache.pin("gpu0", r)
        cache.pin("gpu0", r)
        assert cache.is_pinned("gpu0", r)
        cache.unpin("gpu0", r)
        assert cache.is_pinned("gpu0", r)
        cache.unpin("gpu0", r)
        assert not cache.is_pinned("gpu0", r)

    def test_unpin_unpinned_rejected(self):
        _, _, _, cache = setup()
        with pytest.raises(ValueError):
            cache.unpin("gpu0", reg("x"))


class TestEviction:
    def test_lru_eviction_of_clean_replica(self):
        _, directory, _, cache = setup(gpu_mem=10 * MB)
        a, b, c = reg("a"), reg("b"), reg("c")
        for r in (a, b):
            cache.ensure_resident("gpu0", r)
            mark_valid(directory, r, "gpu0")
        cache.ensure_resident("gpu0", c)  # evicts LRU = a
        assert not cache.is_resident("gpu0", a)
        assert cache.is_resident("gpu0", b)
        assert cache.is_resident("gpu0", c)
        assert cache.stats.evictions == 1
        assert not directory.is_valid(a, "gpu0")

    def test_lru_order_refreshed_by_touch(self):
        _, directory, _, cache = setup(gpu_mem=10 * MB)
        a, b, c = reg("a"), reg("b"), reg("c")
        for r in (a, b):
            cache.ensure_resident("gpu0", r)
            mark_valid(directory, r, "gpu0")
        cache.ensure_resident("gpu0", a)  # touch a -> b becomes LRU
        cache.ensure_resident("gpu0", c)
        assert cache.is_resident("gpu0", a)
        assert not cache.is_resident("gpu0", b)

    def test_dirty_eviction_writes_back(self):
        _, directory, te, cache = setup(gpu_mem=10 * MB)
        a, b, c = reg("a"), reg("b"), reg("c")
        cache.ensure_resident("gpu0", a)
        directory.note_write(a, "gpu0")  # dirty on gpu0
        cache.ensure_resident("gpu0", b)
        mark_valid(directory, b, "gpu0")
        cache.ensure_resident("gpu0", c)  # must write a back, then evict
        assert cache.stats.writebacks == 1
        assert cache.stats.writeback_bytes == 4 * MB
        assert te.stats.output_tx == 4 * MB
        assert directory.dirty_owner(a) is None
        assert directory.is_valid(a, "host")
        assert not cache.is_resident("gpu0", a)

    def test_pinned_regions_never_evicted(self):
        _, directory, _, cache = setup(gpu_mem=10 * MB)
        a, b = reg("a"), reg("b")
        cache.ensure_resident("gpu0", a)
        mark_valid(directory, a, "gpu0")
        cache.pin("gpu0", a)
        cache.ensure_resident("gpu0", b)
        mark_valid(directory, b, "gpu0")
        c = reg("c")
        cache.ensure_resident("gpu0", c)  # must evict b, not pinned a
        assert cache.is_resident("gpu0", a)
        assert not cache.is_resident("gpu0", b)

    def test_all_pinned_overflow_raises(self):
        _, directory, _, cache = setup(gpu_mem=10 * MB)
        a, b = reg("a"), reg("b")
        for r in (a, b):
            cache.ensure_resident("gpu0", r)
            cache.pin("gpu0", r)
        with pytest.raises(MemoryError, match="pinned"):
            cache.ensure_resident("gpu0", reg("c"))

    def test_oversized_region_raises(self):
        _, _, _, cache = setup(gpu_mem=10 * MB)
        with pytest.raises(MemoryError):
            cache.ensure_resident("gpu0", reg("huge", 11 * MB))


class TestInvalidation:
    def test_invalidate_frees_stale_copy(self):
        _, directory, _, cache = setup()
        r = reg("x")
        cache.ensure_resident("gpu0", r)
        mark_valid(directory, r, "gpu0")
        directory.note_write(r, "gpu1")
        cache.invalidate_stale_everywhere(r, "gpu1")
        assert not cache.is_resident("gpu0", r)
        assert cache.resident_bytes("gpu0") == 0

    def test_invalidate_skips_pinned(self):
        _, directory, _, cache = setup()
        r = reg("x")
        cache.ensure_resident("gpu0", r)
        cache.pin("gpu0", r)
        directory.note_write(r, "gpu1")
        cache.invalidate_stale_everywhere(r, "gpu1")
        assert cache.is_resident("gpu0", r)

    def test_invalidate_skips_writer_space(self):
        _, directory, _, cache = setup()
        r = reg("x")
        cache.ensure_resident("gpu1", r)
        directory.note_write(r, "gpu1")
        cache.invalidate_stale_everywhere(r, "gpu1")
        assert cache.is_resident("gpu1", r)
