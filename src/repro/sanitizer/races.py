"""Dependence-race detection: actual accesses vs. declared clauses.

Two complementary analyses:

1. **Access recording** (:class:`AccessRecorder`) — when the runtime is
   configured with ``record_accesses=True`` and executes real NumPy
   kernels, every task body runs against *tracked* views of its array
   arguments.  Reads are observed through ufunc participation and
   ``__getitem__``; writes through ``__setitem__``, ufunc ``out=``
   targets *and* a before/after content digest (which catches writes the
   view tracking cannot see).  The recorder then diffs what the body did
   against the task's declared ``inputs/outputs/inouts`` clauses:

   * an undeclared write is **SAN-R001** — the dependence graph never
     built the WAR/WAW edges protecting that region,
   * an undeclared read is **SAN-R002** — no RAW edge orders the read
     after the region's producer.

   Both are task-level data races in the OmpSs sense: the program's
   result depends on scheduling.

2. **Happens-before checking** (:func:`check_happens_before`) — over a
   *completed* run: for every pair of tasks touching overlapping regions
   with at least one write, there must be a dependence path between them
   in the task DAG.  A conflicting pair with no path is a CONFIRMED race
   (**SAN-R010**): the scheduler was free to run them in either order.
   The check runs over the declared accesses by default and over the
   union of declared + recorded accesses when a recorder is supplied, so
   an undeclared access found by (1) is re-confirmed against the DAG.
   Each region's accesses are first checked in one pass against a chain
   (a read against the last writer, a write against the last writer and
   every read since it); only a region where the chain breaks is
   scanned pair by pair for the report.

Recording is best-effort by design (a body may read through interfaces
NumPy cannot intercept); it produces no false positives: every reported
access really happened.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Hashable, Iterable, Optional

import numpy as np

from repro.runtime.dataregion import AccessKind, DataRegion, region_of
from repro.sanitizer.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.dependences import DependenceGraph
    from repro.runtime.task import TaskInstance

#: digest at most this many bytes per array (strided sample beyond it)
_DIGEST_LIMIT = 1 << 20


class _Watch:
    """Mutable read/write flags for one array argument of one call."""

    __slots__ = ("read", "written")

    def __init__(self) -> None:
        self.read = False
        self.written = False


class TrackedArray(np.ndarray):
    """ndarray view that reports reads/writes to a :class:`_Watch`.

    Views derived from a tracked array (slices, reshapes) stay tracked —
    they alias the same buffer; arrays that do not share memory drop the
    watch so writes to fresh results are not misattributed.
    """

    _watch: Optional[_Watch] = None

    def __array_finalize__(self, obj) -> None:
        watch = getattr(obj, "_watch", None)
        if watch is not None and obj is not None:
            try:
                if not np.may_share_memory(self, obj):
                    watch = None
            except TypeError:  # pragma: no cover - defensive
                watch = None
        self._watch = watch

    # -- element access -------------------------------------------------
    def __getitem__(self, item):
        if self._watch is not None:
            self._watch.read = True
        return super().__getitem__(item)

    def __setitem__(self, item, value) -> None:
        watch = self._watch
        if watch is not None:
            watch.written = True
        vwatch = getattr(value, "_watch", None)
        if vwatch is not None:
            vwatch.read = True
        # numpy routes basic-index assignment through __getitem__ on the
        # target; detach the watch so that does not count as a read
        self._watch = None
        try:
            super().__setitem__(item, value)
        finally:
            self._watch = watch

    # -- ufunc participation ---------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out", ())
        if not isinstance(out, tuple):
            out = (out,)
        for arr in inputs:
            watch = getattr(arr, "_watch", None)
            if watch is not None:
                watch.read = True
        for arr in out:
            watch = getattr(arr, "_watch", None)
            if watch is not None:
                watch.written = True
        # run the ufunc on the base ndarrays; results are plain arrays
        plain_inputs = tuple(
            i.view(np.ndarray) if isinstance(i, TrackedArray) else i for i in inputs
        )
        if out:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, TrackedArray) else o for o in out
            )
        return getattr(ufunc, method)(*plain_inputs, **kwargs)


def _digest(arr: np.ndarray) -> bytes:
    """Cheap deterministic content fingerprint of an array's buffer."""
    flat = np.ascontiguousarray(arr).view(np.uint8).reshape(-1)
    if flat.nbytes > _DIGEST_LIMIT:
        step = flat.nbytes // (_DIGEST_LIMIT // 2)
        flat = flat[:: max(1, step)].copy()
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape).encode())
    h.update(flat.tobytes())
    return h.digest()


class RaceFinding:
    """Internal accumulator entry before rendering to a Diagnostic."""

    __slots__ = ("task", "version", "region", "declared", "read", "written")

    def __init__(self, task: str, version: str, region: str,
                 declared: Optional[AccessKind], read: bool, written: bool) -> None:
        self.task = task
        self.version = version
        self.region = region
        self.declared = declared
        self.read = read
        self.written = written

    def missing_kind(self) -> str:
        """The clause kind the declaration is missing."""
        if self.read and self.written:
            return "inout"
        if self.written:
            return "inout" if self.declared is AccessKind.INPUT else "output"
        return "input"


class AccessRecorder:
    """Observes the real reads/writes of task bodies executed in a run."""

    def __init__(self) -> None:
        #: (task name, version name, region key, missing kind) dedup
        self._seen: set[tuple] = set()
        self.findings: list[RaceFinding] = []
        #: task uid -> (region, read, written) actually observed
        self.observed: dict[int, list[tuple[DataRegion, bool, bool]]] = {}

    # ------------------------------------------------------------------
    def run_task(self, t: "TaskInstance") -> None:
        """Execute ``t``'s chosen body with access tracking in place."""
        version = t.chosen_version
        if version is None:
            raise RuntimeError(f"{t.label}: no version chosen yet")
        if version.fn is None:
            return
        watches: dict[Hashable, tuple[DataRegion, np.ndarray, _Watch, bytes]] = {}

        def wrap(obj):
            if isinstance(obj, np.ndarray) and not isinstance(obj, TrackedArray):
                region = region_of(obj)
                entry = watches.get(region.key)
                if entry is None:
                    entry = (region, obj, _Watch(), _digest(obj))
                    watches[region.key] = entry
                view = obj.view(TrackedArray)
                view._watch = entry[2]
                return view
            if isinstance(obj, tuple):
                return tuple(wrap(o) for o in obj)
            if isinstance(obj, list):
                return [wrap(o) for o in obj]
            return obj

        args = tuple(wrap(a) for a in t.args)
        kwargs = {k: wrap(v) for k, v in t.kwargs.items()}
        version.fn(*args, **kwargs)
        self._collect(t, watches)

    # ------------------------------------------------------------------
    def _collect(self, t: "TaskInstance", watches: dict) -> None:
        declared: dict[Hashable, AccessKind] = {
            a.region.key: a.kind for a in t.accesses
        }
        observed = []
        for key, (region, base, watch, before) in watches.items():
            written = watch.written or _digest(base) != before
            read = watch.read
            if read or written:
                observed.append((region, read, written))
            kind = declared.get(key)
            ok_read = (not read) or (kind is not None and kind.reads)
            ok_write = (not written) or (kind is not None and kind.writes)
            if ok_read and ok_write:
                continue
            finding = RaceFinding(
                task=t.name,
                version=t.chosen_version.name,  # type: ignore[union-attr]
                region=region.label,
                declared=kind,
                read=read and not (kind is not None and kind.reads),
                written=written and not (kind is not None and kind.writes),
            )
            dedup = (finding.task, finding.version, region.key, finding.missing_kind())
            if dedup not in self._seen:
                self._seen.add(dedup)
                self.findings.append(finding)
        if observed:
            self.observed[t.uid] = observed

    # ------------------------------------------------------------------
    def diagnostics(self) -> list[Diagnostic]:
        out = []
        for f in self.findings:
            declared = "undeclared" if f.declared is None else f"declared {f.declared.value}"
            if f.written:
                code = "SAN-R001"
                did = "wrote" if not f.read else "read and wrote"
            else:
                code = "SAN-R002"
                did = "read"
            out.append(Diagnostic(
                code=code,
                message=(
                    f"task {f.task!r} (version {f.version!r}) {did} region "
                    f"{f.region!r} which is {declared}; missing "
                    f"{f.missing_kind()!r} clause — the dependence graph is "
                    "racy"
                ),
                task=f.task,
                region=f.region,
                meta=(f.missing_kind(),),
            ))
        return out


# ----------------------------------------------------------------------
# Happens-before analysis over a completed DAG
# ----------------------------------------------------------------------
def _task_accesses(
    t: "TaskInstance", observed: dict[int, list[tuple[DataRegion, bool, bool]]]
) -> Iterable[tuple[DataRegion, bool, bool]]:
    """``t``'s (region, reads, writes) per region — declared ∪ recorded."""
    merged: dict[int, tuple[DataRegion, bool, bool]] = {}  # by region id
    for a in t.accesses:
        region = a.region
        prev = merged.get(region.rid)
        merged[region.rid] = (
            (region, a.reads, a.writes) if prev is None
            else (region, a.reads or prev[1], a.writes or prev[2])
        )
    for region, read, written in observed.get(t.uid, ()):
        prev = merged.get(region.rid)
        merged[region.rid] = (
            (region, read, written) if prev is None
            else (region, read or prev[1], written or prev[2])
        )
    return merged.values()


def _chain_ordered(
    entries: list[tuple[int, DataRegion, bool, bool]],
    pos: dict[int, int],
    reach: list[int],
) -> bool:
    """Whether every conflicting pair of one region's accesses is ordered.

    ``entries`` are one region's accesses in uid order.  A read needs a
    dependence path from the last writer; a write needs one from the
    last writer and from every read since it.  Paths compose, so a pair
    further apart is ordered through the writers between them: when
    every link holds, the pairwise scan would report nothing.  A group
    of aliased keys needs no special case: the chain treats every pair
    as overlapping (a superset of the scan's conflicts), and a task
    holding two of the keys breaks it (no task is its own ancestor).
    """
    writer = -1  # position of the last writer
    readers: list[int] = []
    for uid, _region, _reads, writes in entries:
        ancestors = reach[pos[uid]]
        if writer >= 0 and not ancestors >> writer & 1:
            return False
        if writes:
            for r in readers:
                if not ancestors >> r & 1:
                    return False
            writer = pos[uid]
            readers = []
        else:
            readers.append(pos[uid])
    return True


def check_happens_before(
    graph: "DependenceGraph",
    *,
    recorder: Optional[AccessRecorder] = None,
    max_findings: int = 50,
) -> list[Diagnostic]:
    """Confirm that every conflicting access pair is DAG-ordered.

    Conflicts are computed over region *overlap* (same key, or
    intersecting address intervals), so aliasing bugs surface here too.
    """
    tasks = sorted(graph.tasks(), key=lambda t: t.uid)
    if not tasks:
        return []
    pos = {t.uid: i for i, t in enumerate(tasks)}

    # transitive reachability as bitmasks over task positions: tasks are
    # submitted in uid order, so every edge goes forward in `pos`
    preds: list[list[int]] = [[] for _ in tasks]
    for e in graph.edges:
        if e.src not in pos or e.dst not in pos:
            continue
        i, j = pos[e.src], pos[e.dst]
        if i > j:
            i, j = j, i
        preds[j].append(i)
    reach = [0] * len(tasks)
    for j, direct in enumerate(preds):
        acc = 0
        for i in direct:
            acc |= reach[i] | (1 << i)
        reach[j] = acc

    # bucket accessors per region key; then merge buckets whose regions'
    # address intervals overlap (aliased distinct keys)
    observed = recorder.observed if recorder is not None else {}
    buckets: dict[int, list[tuple[int, DataRegion, bool, bool]]] = {}  # by region id
    for t in tasks:
        for region, reads, writes in _task_accesses(t, observed):
            buckets.setdefault(region.rid, []).append((t.uid, region, reads, writes))

    groups: list[list[tuple[int, DataRegion, bool, bool]]] = []
    interval_keys: list[tuple[int, int, Hashable]] = []
    for entries in buckets.values():
        region = entries[0][1]
        if region.base is not None and region.length:
            interval_keys.append((region.base, region.base + region.length, region.key))
        groups.append(entries)
    # merge aliased buckets pairwise (rare; interval list is small)
    interval_keys.sort()
    merged_into: dict[Hashable, Hashable] = {}
    for (a0, a1, ka), (b0, b1, kb) in zip(interval_keys, interval_keys[1:], strict=False):
        if b0 < a1:  # overlapping neighbours
            merged_into[kb] = merged_into.get(ka, ka)
    if merged_into:
        by_key = {g[0][1].key: g for g in groups}
        for src, dst in merged_into.items():
            if src in by_key and dst in by_key and by_key[src] is not by_key[dst]:
                by_key[dst].extend(by_key[src])
                by_key[src] = by_key[dst]
        seen_ids: set[int] = set()
        deduped: list[list[tuple[int, DataRegion, bool, bool]]] = []
        for g in by_key.values():
            if id(g) not in seen_ids:
                seen_ids.add(id(g))
                deduped.append(g)
        groups = deduped

    out: list[Diagnostic] = []
    reported: set[tuple] = set()
    for entries in groups:
        entries.sort(key=lambda e: e[0])
        if _chain_ordered(entries, pos, reach):
            continue
        for i, (uid_a, reg_a, _, wr_a) in enumerate(entries):
            for uid_b, reg_b, rd_b, wr_b in entries[i + 1:]:
                if uid_a == uid_b or not (wr_a or wr_b):
                    continue
                if not reg_a.overlaps(reg_b):
                    continue
                if reach[pos[uid_b]] >> pos[uid_a] & 1:
                    continue
                ta, tb = graph.task(uid_a), graph.task(uid_b)
                dedup = (ta.name, tb.name, reg_a.key, reg_b.key)
                if dedup in reported:
                    continue
                reported.add(dedup)
                kinds = f"{'write' if wr_a else 'read'}/{'write' if wr_b else 'read'}"
                out.append(Diagnostic(
                    code="SAN-R010",
                    message=(
                        f"CONFIRMED race: tasks {ta.label!r} and {tb.label!r} "
                        f"access overlapping region(s) {reg_a.label!r}"
                        + (f"/{reg_b.label!r}" if reg_b.key != reg_a.key else "")
                        + f" ({kinds}) with no dependence path between them"
                    ),
                    task=ta.label,
                    region=reg_a.label,
                    meta=(tb.label, kinds),
                ))
                if len(out) >= max_findings:
                    return out
    return out


def declared_vs_actual(
    graph: "DependenceGraph", recorder: AccessRecorder
) -> list[Diagnostic]:
    """All dynamic-race diagnostics of one run (diff + happens-before)."""
    out = recorder.diagnostics()
    out.extend(check_happens_before(graph, recorder=recorder))
    return out


def summarize(diags: Iterable[Diagnostic]) -> dict[str, int]:
    """Count findings per code (handy for tests and reports)."""
    counts: dict[str, int] = {}
    for d in diags:
        counts[d.code] = counts.get(d.code, 0) + 1
    return counts


__all__ = [
    "AccessRecorder",
    "TrackedArray",
    "RaceFinding",
    "check_happens_before",
    "declared_vs_actual",
    "summarize",
]
