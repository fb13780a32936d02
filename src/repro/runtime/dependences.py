"""Dataflow dependence analysis (the StarSs dependence support).

As tasks are submitted in program order, each dependence clause is
matched against the running history of accesses per region:

* a **read** depends on the last writer of the region (RAW),
* a **write** depends on the last writer (WAW) *and* on every reader
  since that writer (WAR),

after which the region history is updated.  This is exactly the
last-writer/reader-list algorithm of the Nanos++ dependence module, and
it yields a DAG whose edges the runtime uses to release ready tasks.

The graph also performs an optional aliasing check: two *distinct*
regions whose address intervals overlap would make dependence tracking
unsound.  ``alias_policy`` selects what happens then: ``"off"`` ignores
it, ``"report"`` records a sanitizer diagnostic (``SAN-R003``) carrying
the task names and region intervals, ``"reject"`` raises immediately
(OmpSs leaves this undefined; failing loudly is kinder).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, Optional

from repro.runtime.dataregion import DataRegion
from repro.runtime.task import TaskInstance


class DepKind(Enum):
    RAW = "raw"  # read after write (true dependence)
    WAR = "war"  # write after read (anti dependence)
    WAW = "waw"  # write after write (output dependence)


class DepEdge:
    """A dependence edge: ``src`` must finish before ``dst`` may start.

    A value: compared and hashed by its fields, never mutated after
    construction.  Slotted rather than a frozen dataclass, whose
    ``__init__`` pays one ``object.__setattr__`` per field on every
    matched clause.
    """

    __slots__ = ("src", "dst", "kind", "region")

    def __init__(self, src: int, dst: int, kind: DepKind, region: DataRegion) -> None:
        self.src = src  # uid of the earlier task
        self.dst = dst  # uid of the later task
        self.kind = kind
        self.region = region

    def _fields(self) -> tuple[int, int, DepKind, DataRegion]:
        return (self.src, self.dst, self.kind, self.region)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, region={self.region!r})")


@dataclass(slots=True)
class _RegionHistory:
    last_writer: Optional[TaskInstance] = None
    readers_since_write: list[TaskInstance] = field(default_factory=list)


#: what the aliasing check does on an overlap (see the module docstring)
ALIAS_POLICIES = ("off", "report", "reject")


class DependenceGraph:
    """Builds and tracks the task DAG as tasks are submitted and retire."""

    def __init__(self, *, alias_policy: str = "off") -> None:
        # keyed by the interned region id (DataRegion.rid), not the
        # structured key — dependence matching is per-submission × per-
        # clause, and int lookups skip tuple hashing entirely
        self._history: dict[int, _RegionHistory] = {}
        self._tasks: dict[int, TaskInstance] = {}
        self._edges: list[DepEdge] = []
        self._in_edges: dict[int, list[DepEdge]] = {}
        self._out_edges: dict[int, list[DepEdge]] = {}
        self._unfinished: set[int] = set()
        if alias_policy not in ALIAS_POLICIES:
            raise ValueError(f"unknown alias_policy {alias_policy!r}")
        self.alias_policy = alias_policy
        # interval index for the aliasing check: sorted list of
        # (base, end, key) for regions that carry address info, plus the
        # label of the task that introduced each region (for reporting).
        self._intervals: list[tuple[int, int, Hashable]] = []
        self._interval_owner: dict[Hashable, str] = {}
        #: SAN-R003 findings collected under ``alias_policy="report"``
        self.alias_diagnostics: list = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def add_task(self, t: TaskInstance) -> bool:
        """Register a submitted task; returns ``True`` if it is ready.

        The task's ``predecessors`` set is filled with the uids of its
        not-yet-finished predecessors; each predecessor's ``successors``
        list gains the task.
        """
        if t.uid in self._tasks:
            raise ValueError(f"task {t.label!r} submitted twice")
        self._tasks[t.uid] = t
        self._unfinished.add(t.uid)

        preds: dict[int, DepEdge] = {}
        history = self._history
        check_alias = self.alias_policy != "off"
        for acc in t.accesses:
            region = acc.region
            if check_alias:
                self._check_alias(region, t)
            hist = history.get(region.rid)
            if hist is None:
                hist = history[region.rid] = _RegionHistory()

            last_writer = hist.last_writer
            if acc.reads and last_writer is not None:
                self._note_dep(preds, last_writer, t, DepKind.RAW, region)
            if acc.writes:
                if last_writer is not None:
                    self._note_dep(preds, last_writer, t, DepKind.WAW, region)
                for reader in hist.readers_since_write:
                    if reader.uid != t.uid:
                        self._note_dep(preds, reader, t, DepKind.WAR, region)

        # Update histories only after all clauses were matched, so a task
        # never depends on itself through an inout access.
        for acc in t.accesses:
            hist = history[acc.region.rid]
            if acc.writes:
                hist.last_writer = t
                hist.readers_since_write = []
            elif acc.reads:
                hist.readers_since_write.append(t)

        for edge in preds.values():
            self._edges.append(edge)
            self._out_edges.setdefault(edge.src, []).append(edge)
            self._in_edges.setdefault(edge.dst, []).append(edge)
            src = self._tasks[edge.src]
            if edge.src in self._unfinished:
                t.predecessors.add(edge.src)
                src.successors.append(t)

        return not t.predecessors

    def _note_dep(
        self,
        preds: dict[int, DepEdge],
        src: TaskInstance,
        dst: TaskInstance,
        kind: DepKind,
        region: DataRegion,
    ) -> None:
        # Keep one edge per predecessor; prefer the "strongest" kind for
        # reporting (RAW > WAW > WAR) but correctness only needs one.
        # ``kind`` outranks a different ``prev.kind`` exactly when it is
        # RAW or the other is WAR (identity tests: Enum.__hash__ is a
        # Python-level call, so no Enum-keyed rank table)
        prev = preds.get(src.uid)
        if prev is None or (
            kind is not prev.kind and (kind is DepKind.RAW or prev.kind is DepKind.WAR)
        ):
            preds[src.uid] = DepEdge(src.uid, dst.uid, kind, region)

    def _check_alias(self, region: DataRegion, t: TaskInstance) -> None:
        if region.base is None or region.length is None:
            return
        if region.key in self._interval_owner:
            return
        start, end = region.base, region.base + region.length
        i = bisect.bisect_left(self._intervals, (start, start, None))
        # neighbours on both sides may overlap
        for j in (i - 1, i):
            if 0 <= j < len(self._intervals):
                b0, b1, key = self._intervals[j]
                if key != region.key and b0 < end and start < b1:
                    self._alias_found(region, t, (b0, b1, key))
        bisect.insort(self._intervals, (start, end, region.key))
        self._interval_owner[region.key] = t.label

    def _alias_found(
        self, region: DataRegion, t: TaskInstance, other: tuple[int, int, Hashable]
    ) -> None:
        b0, b1, key = other
        start, end = region.base, region.base + region.length  # type: ignore[operator]
        owner = self._interval_owner.get(key, "<unknown task>")
        message = (
            f"region {region.label!r} [{start:#x},{end:#x}) of task {t.label!r} "
            f"partially overlaps distinct region [{b0:#x},{b1:#x}) first used "
            f"by task {owner!r}; dependence tracking over aliased regions is "
            "unsound"
        )
        if self.alias_policy == "reject":
            raise ValueError(message)
        from repro.sanitizer.diagnostics import Diagnostic

        self.alias_diagnostics.append(
            Diagnostic(
                code="SAN-R003",
                message=message,
                task=t.label,
                region=region.label,
                meta=((start, end), (b0, b1), owner),
            )
        )

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def task_finished(self, t: TaskInstance) -> list[TaskInstance]:
        """Retire a task; returns successors that became ready."""
        if t.uid not in self._unfinished:
            raise ValueError(f"task {t.label!r} finished twice or never submitted")
        self._unfinished.discard(t.uid)
        released: list[TaskInstance] = []
        for succ in t.successors:
            succ.predecessors.discard(t.uid)
            if not succ.predecessors:
                released.append(succ)
        return released

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def edges(self) -> tuple[DepEdge, ...]:
        return tuple(self._edges)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def unfinished(self) -> int:
        return len(self._unfinished)

    def task(self, uid: int) -> TaskInstance:
        return self._tasks[uid]

    def tasks(self) -> list[TaskInstance]:
        """All registered tasks in submission (uid) order."""
        return [self._tasks[uid] for uid in sorted(self._tasks)]

    def in_edges(self, uid: int) -> tuple[DepEdge, ...]:
        """All dependence edges into task ``uid`` (incl. finished preds).

        Unlike ``TaskInstance.predecessors`` — which only tracks
        *unfinished* predecessors — this is the full dependence record;
        the cluster partitioner uses it to find cross-shard edges at
        submit time.
        """
        return tuple(self._in_edges.get(uid, ()))

    def out_edges(self, uid: int) -> tuple[DepEdge, ...]:
        """All dependence edges out of task ``uid``."""
        return tuple(self._out_edges.get(uid, ()))

    def edge_counts(self) -> dict[DepKind, int]:
        out = {k: 0 for k in DepKind}
        for e in self._edges:
            out[e.kind] += 1
        return out

    def pending_writer(self, region: DataRegion) -> Optional[TaskInstance]:
        """The unfinished task that will produce ``region``, if any.

        Supports the ``taskwait on`` clause: the master blocks until the
        data is produced, i.e. until the region's last writer retires.
        """
        hist = self._history.get(region.rid)
        if hist is None or hist.last_writer is None:
            return None
        writer = hist.last_writer
        return writer if writer.uid in self._unfinished else None

    def verify_schedule(self, order: Iterable[int]) -> None:
        """Assert that a completed execution order respects every edge.

        ``order`` is the sequence of task uids in *finish* order; used by
        tests to prove serialisability of simulated runs.
        """
        pos = {uid: i for i, uid in enumerate(order)}
        for e in self._edges:
            if e.src in pos and e.dst in pos and pos[e.src] >= pos[e.dst]:
                raise AssertionError(
                    f"dependence violated: task {e.src} ({e.kind.value} on "
                    f"{e.region.label!r}) finished after its dependent {e.dst}"
                )
