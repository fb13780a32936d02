"""Tests for task definitions, versions and instances."""

import pytest

from repro.runtime.dataregion import AccessKind, DataAccess, DataRegion
from repro.runtime.task import TaskDefinition, TaskInstance, TaskState, TaskVersion
from repro.sim.devices import DeviceKind


def ver(name, task_name, kinds=("smp",), is_main=False):
    return TaskVersion(
        name=name,
        task_name=task_name,
        device_kinds=tuple(DeviceKind.parse(k) for k in kinds),
        kernel=name,
        is_main=is_main,
    )


class TestTaskVersion:
    def test_runs_on(self):
        v = ver("v", "t", ("smp", "cuda"))
        assert v.runs_on("smp") and v.runs_on("cuda") and not v.runs_on("spe")

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            TaskVersion("v", "t", (), "v")


class TestTaskDefinition:
    def test_first_version_is_main(self):
        d = TaskDefinition("t")
        d.add_version(ver("main", "t", is_main=True))
        assert d.main_version.name == "main"

    def test_implementation_added_after_main(self):
        d = TaskDefinition("t")
        d.add_version(ver("main", "t", is_main=True))
        d.add_version(ver("alt", "t"))
        assert [v.name for v in d.versions] == ["main", "alt"]

    def test_implementation_before_main_rejected(self):
        d = TaskDefinition("t")
        with pytest.raises(ValueError, match="before the main version"):
            d.add_version(ver("alt", "t"))

    def test_two_mains_rejected(self):
        d = TaskDefinition("t")
        d.add_version(ver("m1", "t", is_main=True))
        with pytest.raises(ValueError, match="already has a main"):
            d.add_version(ver("m2", "t", is_main=True))

    def test_duplicate_version_name_rejected(self):
        d = TaskDefinition("t")
        d.add_version(ver("v", "t", is_main=True))
        with pytest.raises(ValueError, match="duplicate version"):
            d.add_version(ver("v", "t"))

    def test_wrong_task_name_rejected(self):
        d = TaskDefinition("t")
        with pytest.raises(ValueError, match="implements"):
            d.add_version(ver("v", "other", is_main=True))

    def test_versions_for_kind(self):
        d = TaskDefinition("t")
        d.add_version(ver("m", "t", ("cuda",), is_main=True))
        d.add_version(ver("s", "t", ("smp",)))
        d.add_version(ver("b", "t", ("smp", "cuda")))
        assert [v.name for v in d.versions_for_kind("smp")] == ["s", "b"]
        assert [v.name for v in d.versions_for_kind("cuda")] == ["m", "b"]

    def test_device_kinds_union(self):
        d = TaskDefinition("t")
        d.add_version(ver("m", "t", ("cuda",), is_main=True))
        d.add_version(ver("s", "t", ("smp",)))
        assert d.device_kinds() == {DeviceKind.CUDA, DeviceKind.SMP}

    def test_main_of_empty_raises(self):
        with pytest.raises(RuntimeError):
            TaskDefinition("t").main_version

    def test_version_lookup(self):
        d = TaskDefinition("t")
        d.add_version(ver("m", "t", is_main=True))
        assert d.version("m").name == "m"
        with pytest.raises(KeyError):
            d.version("missing")


class TestTaskInstance:
    def make(self, name="t"):
        d = TaskDefinition(name)
        d.add_version(ver("m", name, is_main=True))
        r1, r2 = DataRegion("a", 10), DataRegion("b", 20)
        t = TaskInstance(
            d,
            [DataAccess(r1, AccessKind.INPUT), DataAccess(r2, AccessKind.INOUT)],
        )
        return d, t

    def test_initial_state(self):
        _, t = self.make()
        assert t.state is TaskState.CREATED
        assert t.chosen_version is None

    def test_data_bytes_counts_unique(self):
        _, t = self.make()
        assert t.data_bytes == 30

    def test_reads_and_writes(self):
        _, t = self.make()
        assert [r.key for r in t.reads()] == ["a", "b"]
        assert [r.key for r in t.writes()] == ["b"]

    def test_regions_deduplicated(self):
        d = TaskDefinition("t")
        d.add_version(ver("m", "t", is_main=True))
        r = DataRegion("x", 5)
        t = TaskInstance(
            d, [DataAccess(r, AccessKind.INPUT), DataAccess(r, AccessKind.INOUT)]
        )
        assert len(t.regions()) == 1
        assert len(t.reads()) == 1

    def test_uids_monotonic(self):
        _, t1 = self.make()
        _, t2 = self.make()
        assert t2.uid > t1.uid

    def test_execute_body_without_version_raises(self):
        _, t = self.make()
        with pytest.raises(RuntimeError, match="no version chosen"):
            t.execute_body()

    def test_execute_body_runs_fn(self):
        d = TaskDefinition("t")
        called = []
        v = TaskVersion("m", "t", (DeviceKind.SMP,), "m",
                        fn=lambda *a: called.append(a), is_main=True)
        d.add_version(v)
        t = TaskInstance(d, [], args=(1, 2))
        t.chosen_version = v
        t.execute_body()
        assert called == [(1, 2)]

    def test_label_default(self):
        _, t = self.make("mytask")
        assert t.label.startswith("mytask#")
