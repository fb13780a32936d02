"""Task types, versions and instances.

A :class:`TaskDefinition` corresponds to a set of OmpSs task functions
tied together by the ``implements`` clause: one *main* implementation
plus any number of alternative versions.  As §IV-A of the paper states,
the main/alternative distinction is purely a front-end matter — "from
the runtime point of view, all task versions are treated equally".

A :class:`TaskInstance` is one invocation: the dependence accesses are
captured from the call's arguments, its data-set size computed (each
region counted once), and the instance flows through
``CREATED -> READY -> QUEUED -> RUNNING -> FINISHED``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.runtime.dataregion import DataAccess, DataRegion, unique_data_bytes
from repro.sim.devices import DeviceKind


class TaskState(Enum):
    CREATED = "created"     # submitted, waiting on dependences
    READY = "ready"         # dependences satisfied, waiting for the scheduler
    QUEUED = "queued"       # placed in a worker's queue
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True)
class TaskVersion:
    """One implementation of a task (one ``#pragma omp target device(...)``).

    Parameters
    ----------
    name:
        Unique version name (the annotated function's name, e.g.
        ``"matmul_tile_cublas"``).
    task_name:
        Name of the owning :class:`TaskDefinition` (the main version).
    device_kinds:
        Architectures able to run this version — the ``device(...)``
        clause admits more than one.
    kernel:
        Cost-model key on the device (defaults to ``name``).
    fn:
        Optional Python callable executed on the host arrays for real
        numerical output.  ``None`` means timing-only simulation.
    is_main:
        Whether this was the version without an ``implements`` clause.
    """

    name: str
    task_name: str
    device_kinds: tuple[DeviceKind, ...]
    kernel: str
    fn: Optional[Callable[..., Any]] = None
    is_main: bool = False
    copy_deps: bool = True
    #: literal clause parameter names captured at declaration time
    #: (``{"inputs": (...), "outputs": (...), "inouts": (...)}``) when
    #: every clause was a plain name list; ``None`` for callable clause
    #: specs.  Consumed by the sanitizer's static effect pre-flight.
    clauses: Optional[Mapping[str, tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if not self.device_kinds:
            raise ValueError(f"task version {self.name!r} targets no device")
        # normalize: the clause admits bare strings ("smp") as well as
        # DeviceKind members; frozen dataclass, so set via object.__setattr__
        kinds = tuple(DeviceKind.parse(k) for k in self.device_kinds)
        object.__setattr__(self, "device_kinds", kinds)
        # bitmask membership for runs_on (called once per version ×
        # worker × dispatch)
        mask = 0
        for k in kinds:
            mask |= k.mask
        object.__setattr__(self, "_kind_mask", mask)

    def runs_on(self, kind: "str | DeviceKind") -> bool:
        if type(kind) is DeviceKind:
            return bool(kind.mask & self._kind_mask)  # type: ignore[attr-defined]
        return bool(DeviceKind.parse(kind).mask & self._kind_mask)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        kinds = ",".join(k.value for k in self.device_kinds)
        return f"TaskVersion({self.name!r}, device=[{kinds}])"


class TaskDefinition:
    """A named task together with all its registered versions.

    The first version registered without ``implements`` is the main one;
    every other version must declare ``implements(<main>)`` — declaring
    an implementation of a non-main version is rejected, exactly as the
    paper's front end does (§IV-A).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._versions: list[TaskVersion] = []
        self._kind_union: Optional[frozenset[DeviceKind]] = None
        self._kind_mask: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def versions(self) -> tuple[TaskVersion, ...]:
        return tuple(self._versions)

    @property
    def main_version(self) -> TaskVersion:
        if not self._versions:
            raise RuntimeError(f"task {self.name!r} has no versions")
        return self._versions[0]

    def add_version(self, version: TaskVersion) -> None:
        if version.task_name != self.name:
            raise ValueError(
                f"version {version.name!r} implements {version.task_name!r}, "
                f"not {self.name!r}"
            )
        if any(v.name == version.name for v in self._versions):
            raise ValueError(f"duplicate version name {version.name!r} for task {self.name!r}")
        if version.is_main and self._versions:
            raise ValueError(f"task {self.name!r} already has a main version")
        if not version.is_main and not self._versions:
            raise ValueError(
                f"version {version.name!r}: implements({self.name!r}) declared before "
                "the main version was registered"
            )
        self._versions.append(version)
        self._kind_union = None
        self._kind_mask = None

    def version(self, name: str) -> TaskVersion:
        for v in self._versions:
            if v.name == name:
                return v
        raise KeyError(f"task {self.name!r} has no version {name!r}")

    def versions_for_kind(self, kind: "str | DeviceKind") -> list[TaskVersion]:
        kind = DeviceKind.parse(kind)
        return [v for v in self._versions if kind in v.device_kinds]

    def device_kinds(self) -> set[DeviceKind]:
        return set(self.device_kind_union)

    @property
    def device_kind_union(self) -> frozenset[DeviceKind]:
        """Kinds able to run *some* version (cached; capability checks
        reduce to one frozenset intersection per node)."""
        union = self._kind_union
        if union is None:
            out: set[DeviceKind] = set()
            for v in self._versions:
                out.update(v.device_kinds)
            union = self._kind_union = frozenset(out)
        return union

    @property
    def device_kind_mask(self) -> int:
        """Bit-OR of the versions' kind masks (cached; node-capability
        checks reduce to one integer AND)."""
        mask = self._kind_mask
        if mask is None:
            mask = 0
            for v in self._versions:
                mask |= v._kind_mask  # type: ignore[attr-defined]
            self._kind_mask = mask
        return mask

    def __repr__(self) -> str:
        return f"TaskDefinition({self.name!r}, {len(self._versions)} versions)"


class TaskInstance:
    """One invocation of a task.

    Instances are ordered by creation (``uid``), which the dependence
    analysis uses for program order and the schedulers use for
    deterministic tie-breaking.
    """

    _uid_counter = itertools.count()

    __slots__ = (
        "uid",
        "definition",
        "accesses",
        "params",
        "args",
        "kwargs",
        "state",
        "data_bytes",
        "priority",
        "predecessors",
        "successors",
        "chosen_version",
        "chosen_worker",
        "attempts",
        "failed_pairs",
        "speculative_of",
        "submit_time",
        "ready_time",
        "start_time",
        "end_time",
        "label",
        "_regions",
        "_reads",
    )

    def __init__(
        self,
        definition: TaskDefinition,
        accesses: Sequence[DataAccess],
        *,
        params: Optional[Mapping[str, float]] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        priority: int = 0,
        label: str = "",
    ) -> None:
        self.uid: int = next(TaskInstance._uid_counter)
        self.definition = definition
        self.accesses: tuple[DataAccess, ...] = tuple(accesses)
        self.params: dict[str, float] = dict(params or {})
        self.args = args
        self.kwargs = kwargs or {}
        self.state = TaskState.CREATED
        self.data_bytes = unique_data_bytes(list(self.accesses))
        self._regions: Optional[list[DataRegion]] = None
        self._reads: Optional[list[DataRegion]] = None
        #: OmpSs ``priority`` clause: higher values are scheduled first
        #: within ready pools and jump ahead of lower-priority queued
        #: tasks (they never preempt a running task).
        self.priority = int(priority)
        # dependence bookkeeping, owned by DependenceGraph
        self.predecessors: set[int] = set()
        self.successors: list["TaskInstance"] = []
        # scheduling outcome
        self.chosen_version: Optional[TaskVersion] = None
        self.chosen_worker: Optional[str] = None
        #: fault-recovery bookkeeping: failed executions so far, and the
        #: (version name, worker name) pairs they failed on — retries
        #: prefer a pair not in this set (graceful degradation via the
        #: paper's multi-version tables)
        self.attempts: int = 0
        self.failed_pairs: set[tuple[str, str]] = set()
        #: uid of the straggling original this instance is a speculative
        #: copy of (None for ordinary tasks).  Copies never enter the
        #: dependence graph; the first of the pair to finish retires the
        #: original, the other is cancelled.
        self.speculative_of: Optional[int] = None
        self.submit_time: float = 0.0
        self.ready_time: float = 0.0
        self.start_time: float = 0.0
        self.end_time: float = 0.0
        self.label = label or f"{definition.name}#{self.uid}"

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.definition.name

    def reads(self) -> list[DataRegion]:
        """Each distinct read region once, in access order (cached: the
        staging path asks for it on every preparation)."""
        cached = self._reads
        if cached is None:
            seen: set = set()
            cached = []
            for a in self.accesses:
                rid = a.region.rid
                if a.reads and rid not in seen:
                    seen.add(rid)
                    cached.append(a.region)
            self._reads = cached
        return cached

    def writes(self) -> list[DataRegion]:
        return [a.region for a in self.accesses if a.writes]

    def regions(self) -> list[DataRegion]:
        # cached: accesses are fixed at construction, and the prefetch
        # window asks for the deduped region list on every pin/unpin
        cached = self._regions
        if cached is None:
            seen: set = set()
            cached = []
            for a in self.accesses:
                rid = a.region.rid
                if rid not in seen:
                    seen.add(rid)
                    cached.append(a.region)
            self._regions = cached
        return cached

    def execute_body(self) -> None:
        """Run the chosen version's Python body on the host arrays.

        Only meaningful when the application supplied real kernels; the
        simulation's notion of time is independent of this call.
        """
        version = self.chosen_version
        if version is None:
            raise RuntimeError(f"{self.label}: no version chosen yet")
        if version.fn is not None:
            version.fn(*self.args, **self.kwargs)

    def __repr__(self) -> str:
        return f"TaskInstance({self.label!r}, state={self.state.value})"
