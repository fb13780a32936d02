"""Trace invariant checking (the SAN-T* family).

Two entry points:

* :func:`check_trace` — validates any :class:`~repro.sim.trace.Trace`
  in isolation: per-worker interval overlap (SAN-T001), optional
  task-before-dependence ordering given explicit dependence pairs
  (SAN-T002), quarantined/dead-worker execution (SAN-T004, windows
  derived from the trace's own ``quarantine``/``readmit``/
  ``worker-down`` records), straggler-detection follow-up (SAN-T007),
  unique task completion (SAN-T008), cross-shard notification
  ordering (SAN-T009: a successor must not start before the first
  delivery of each of its logical notifications — retransmissions are
  grouped by the ``(successor, wire seq)`` meta) and release-protocol
  integrity (SAN-T010: a cluster task is released exactly once, and
  never on the strength of a notification that was dropped and never
  redelivered).  Usable on hand-built traces in tests.

* :func:`check_run` — validates a full :class:`RunResult`: everything
  above with dependence pairs derived from the run's DAG, plus
  transfer-completes-before-consumer-starts (SAN-T003), the versioning
  scheduler's λ-count consistency (SAN-T005) and run accounting
  (SAN-T006).

All comparisons tolerate ``eps`` of floating-point noise; the simulated
clock is exact event times, so violations found here are real logic
errors, not rounding.

Every check reads one :class:`_TraceIndex`, built in a single pass over
the trace: records grouped by category, the task-record map, busy
records by worker, and the few control records (worker windows,
notifications) sorted once.  The findings and their order are those of
scanning the whole trace per check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.sanitizer.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import RunResult
    from repro.sim.trace import Trace, TraceRecord

_EPS = 1e-9

#: categories that occupy a worker exclusively (serial resource);
#: ``spec-abort`` is the partial execution of a cancelled speculative
#: copy (or the straggling original it beat) — real busy time
_BUSY_CATEGORIES = ("task", "fault", "aborted", "spec-abort")


#: categories that open or close a worker window (SAN-T004)
_WINDOW_CATEGORIES = ("quarantine", "readmit", "worker-down", "worker-up")
#: categories whose record represents a notification actually arriving
#: at the successor's node (wire delivery, duplicate copy, local
#: delivery after migration, or crash-recovery self-clear)
_NOTIFY_DELIVERED = ("notify", "notify-dup", "notify-local", "notify-recover")
_NOTIFY_ATTEMPTED = (*_NOTIFY_DELIVERED, "notify-drop")
_CONTROL_CATEGORIES = frozenset((*_WINDOW_CATEGORIES, *_NOTIFY_ATTEMPTED))


def _sort_key(r: "TraceRecord") -> tuple:
    return (r.start, r.end, r.worker)  # Trace.sorted()'s order


class _TraceIndex:
    """What the checks read of one trace, built in one pass.

    Filtering a stably sorted trace keeps the relative order of what is
    left, so sorting only the window and notification records gives
    each check the records ``trace.sorted()`` would, in the same order.
    """

    __slots__ = ("trace", "by_category", "tasks", "busy", "control", "_groups")

    def __init__(self, trace: "Trace") -> None:
        self.trace = trace
        by_category: dict[str, list["TraceRecord"]] = {}
        #: busy records of each worker, in append order
        busy: dict[str, list["TraceRecord"]] = {}
        #: window and notification records, in ``trace.sorted()`` order
        control: list["TraceRecord"] = []
        for r in trace:
            cat = r.category
            group = by_category.get(cat)
            if group is None:
                by_category[cat] = [r]
            else:
                group.append(r)
            if cat in _BUSY_CATEGORIES:
                recs = busy.get(r.worker)
                if recs is None:
                    busy[r.worker] = [r]
                else:
                    recs.append(r)
            elif cat in _CONTROL_CATEGORIES:
                control.append(r)
        control.sort(key=_sort_key)
        self.by_category = by_category
        self.busy = busy
        self.control = control
        #: run-local task sequence number -> its (last) completion record
        self.tasks: dict[int, "TraceRecord"] = {
            r.meta[0]: r for r in by_category.get("task", ()) if r.meta
        }
        self._groups: Optional[dict[tuple, list["TraceRecord"]]] = None

    def category(self, name: str) -> list["TraceRecord"]:
        return self.by_category.get(name, [])

    def notify_groups(self) -> dict[tuple, list["TraceRecord"]]:
        """Delivered notification records grouped by *logical* message.

        The reliable protocol may transmit one logical notification
        several times (retransmits, duplicates); all transmissions share
        the meta ``(successor seq, wire seq)`` and form one group.
        Legacy records with a bare ``(successor seq,)`` meta are each
        their own singleton group (pre-protocol behaviour).
        """
        if self._groups is None:
            groups: dict[tuple, list["TraceRecord"]] = {}
            if any(c in self.by_category for c in _NOTIFY_DELIVERED):
                singleton = 0
                for n in self.control:
                    if n.category not in _NOTIFY_DELIVERED or not n.meta:
                        continue
                    if len(n.meta) >= 2:
                        key = (n.meta[0], n.meta[1])
                    else:
                        singleton += 1
                        key = (n.meta[0], ("rec", singleton))
                    groups.setdefault(key, []).append(n)
            self._groups = groups
        return self._groups


# ----------------------------------------------------------------------
# SAN-T001 — per-worker interval overlap
# ----------------------------------------------------------------------
def _check_overlaps(index: _TraceIndex, eps: float) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    busy = index.busy
    for worker in sorted(busy):
        if worker.startswith("link:"):
            continue  # DMA channels pipeline; links are checked elsewhere
        recs = sorted(busy[worker], key=lambda r: (r.start, r.end))
        for a, b in zip(recs, recs[1:], strict=False):
            if b.start < a.end - eps:
                out.append(Diagnostic(
                    code="SAN-T001",
                    message=(
                        f"worker {worker!r} runs two activities at once: "
                        f"{a.category} {a.label!r} [{a.start:.6g},{a.end:.6g}] "
                        f"overlaps {b.category} {b.label!r} "
                        f"[{b.start:.6g},{b.end:.6g}]"
                    ),
                    worker=worker,
                    task=b.label,
                ))
    return out


# ----------------------------------------------------------------------
# SAN-T002 — task starts before a dependence predecessor finishes
# ----------------------------------------------------------------------
def _check_dependence_order(
    index: _TraceIndex, deps: Iterable[tuple[int, int]], eps: float
) -> list[Diagnostic]:
    record = index.tasks.get
    out: list[Diagnostic] = []
    for pred, succ in dict.fromkeys(deps):  # each pair once, first-seen order
        a, b = record(pred), record(succ)
        if a is None or b is None:
            continue  # one side never completed (aborted run)
        if b.start < a.end - eps:
            out.append(Diagnostic(
                code="SAN-T002",
                message=(
                    f"task #{succ} ({b.label!r} on {b.worker}) started at "
                    f"{b.start:.6g} before its dependence predecessor "
                    f"#{pred} ({a.label!r} on {a.worker}) finished at "
                    f"{a.end:.6g}"
                ),
                task=b.label,
                worker=b.worker,
                meta=(pred, succ),
            ))
    return out


# ----------------------------------------------------------------------
# SAN-T004 — dead/quarantined workers executing tasks
# ----------------------------------------------------------------------
def _check_worker_windows(index: _TraceIndex, eps: float) -> list[Diagnostic]:
    if not any(c in index.by_category for c in _WINDOW_CATEGORIES):
        return []
    # closed-off windows per worker: [start, end) during which no task
    # may *start*; inf = permanently down
    windows: dict[str, list[tuple[float, float, str]]] = {}
    open_quarantine: dict[str, float] = {}
    open_down: dict[str, float] = {}
    for r in index.control:
        if r.category == "quarantine":
            open_quarantine[r.worker] = r.start
        elif r.category == "readmit":
            q = open_quarantine.pop(r.worker, None)
            if q is not None:
                windows.setdefault(r.worker, []).append((q, r.start, "quarantined"))
        elif r.category == "worker-down":
            open_down[r.worker] = r.start
        elif r.category == "worker-up":
            # a node rejoin revives its workers: the down window closes,
            # and any quarantine is wiped with the rest of their state
            d = open_down.pop(r.worker, None)
            if d is not None:
                windows.setdefault(r.worker, []).append((d, r.start, "dead"))
            q = open_quarantine.pop(r.worker, None)
            if q is not None:
                windows.setdefault(r.worker, []).append((q, r.start, "quarantined"))
    for worker, q in open_quarantine.items():
        windows.setdefault(worker, []).append((q, float("inf"), "quarantined"))
    for worker, d in open_down.items():
        windows.setdefault(worker, []).append((d, float("inf"), "dead"))

    out: list[Diagnostic] = []
    for r in index.category("task"):
        for w0, w1, state in windows.get(r.worker, ()):
            if w0 - eps < r.start < w1 - eps:
                out.append(Diagnostic(
                    code="SAN-T004",
                    message=(
                        f"task {r.label!r} started at {r.start:.6g} on worker "
                        f"{r.worker!r} while it was {state} "
                        f"(window [{w0:.6g},{'∞' if w1 == float('inf') else f'{w1:.6g}'}))"
                    ),
                    worker=r.worker,
                    task=r.label,
                ))
    return out


# ----------------------------------------------------------------------
# SAN-T007 — straggler detections must be acted on
# ----------------------------------------------------------------------
def _check_straggler_followup(index: _TraceIndex) -> list[Diagnostic]:
    # "straggler" and the recovery it triggers ("speculate" launch or
    # "retry" after an abort) carry the same simulated timestamp, so the
    # ordering that matters is trace *insertion* order, which the runtime
    # guarantees (detection is recorded before the recovery action).
    if "straggler" not in index.by_category:
        return []
    out: list[Diagnostic] = []
    stragglers: list[tuple[int, "TraceRecord"]] = []
    last_followup: dict = {}  # task seq -> position of its last follow-up
    for i, r in enumerate(index.trace):
        if r.category == "straggler":
            if r.meta:
                stragglers.append((i, r))
        elif r.category in ("speculate", "retry") and r.meta:
            last_followup[r.meta[0]] = i
    for i, r in stragglers:
        seq = r.meta[0]
        if last_followup.get(seq, -1) < i:
            out.append(Diagnostic(
                code="SAN-T007",
                message=(
                    f"straggler detected for task #{seq} ({r.label!r} on "
                    f"{r.worker}) at {r.start:.6g} but no speculation "
                    f"launch or retry followed"
                ),
                worker=r.worker,
                task=r.label,
                meta=(seq,),
            ))
    return out


# ----------------------------------------------------------------------
# SAN-T008 — at most one completion per task
# ----------------------------------------------------------------------
def _check_unique_completion(index: _TraceIndex) -> list[Diagnostic]:
    # Speculative re-execution races an original against a copy: exactly
    # one side may retire the task ("task" record); the loser must be
    # withdrawn as "spec-abort".  Two completion records for one
    # run-local sequence number mean a cancelled loser also won.
    out: list[Diagnostic] = []
    seen: dict[int, "TraceRecord"] = {}
    for r in index.category("task"):
        if not r.meta:
            continue
        seq = r.meta[0]
        first = seen.get(seq)
        if first is None:
            seen[seq] = r
            continue
        out.append(Diagnostic(
            code="SAN-T008",
            message=(
                f"task #{seq} completed more than once: {first.label!r} on "
                f"{first.worker} at {first.end:.6g} and {r.label!r} on "
                f"{r.worker} at {r.end:.6g}"
            ),
            worker=r.worker,
            task=r.label,
            meta=(seq,),
        ))
    return out


# ----------------------------------------------------------------------
# SAN-T009 — cross-shard successor starts before its notification lands
# ----------------------------------------------------------------------
def _check_notify_order(index: _TraceIndex, eps: float) -> list[Diagnostic]:
    # The cluster protocol releases a cross-shard successor only after
    # every logical notification addressed to it is *delivered*.  With
    # retransmission, the releasing delivery is the FIRST arrival of
    # each logical message — a late duplicate legitimately lands after
    # the successor started, so the check groups transmissions by
    # logical message and compares against the earliest delivery.
    records = index.tasks
    out: list[Diagnostic] = []
    for key, recs in sorted(index.notify_groups().items(), key=lambda kv: repr(kv[0])):
        succ = records.get(key[0])
        if succ is None:
            continue
        first = min(recs, key=lambda n: n.end)
        if succ.start < first.end - eps:
            out.append(Diagnostic(
                code="SAN-T009",
                message=(
                    f"cross-shard successor #{key[0]} ({succ.label!r} on "
                    f"{succ.worker}) started at {succ.start:.6g} before its "
                    f"notification over {first.worker!r} was first delivered "
                    f"at {first.end:.6g}"
                ),
                task=succ.label,
                worker=succ.worker,
                meta=(key[0],),
            ))
    return out


# ----------------------------------------------------------------------
# SAN-T010 — a successor is released exactly once, and only by
# notifications that were actually delivered
# ----------------------------------------------------------------------
def _check_release_protocol(index: _TraceIndex, eps: float) -> list[Diagnostic]:
    # "release" point records (cluster runs) anchor the check: (a) each
    # successor is released at most once; (b) for every logical
    # notification addressed to a released successor, some transmission
    # was delivered no later than the release — a successor released on
    # the strength of a dropped-and-never-redelivered notification is
    # the protocol bug this invariant exists to catch.
    out: list[Diagnostic] = []
    releases: dict[int, "TraceRecord"] = {}
    for r in index.category("release"):
        if not r.meta:
            continue
        seq = r.meta[0]
        first = releases.get(seq)
        if first is not None:
            out.append(Diagnostic(
                code="SAN-T010",
                message=(
                    f"task #{seq} ({r.label!r}) was released more than "
                    f"once: at {first.start:.6g} on {first.worker!r} and "
                    f"again at {r.start:.6g} on {r.worker!r}"
                ),
                task=r.label,
                worker=r.worker,
                meta=(seq,),
            ))
            continue
        releases[seq] = r
    if not releases:
        return out

    delivered = index.notify_groups()
    attempted: dict[tuple, "TraceRecord"] = {}
    for n in index.control:
        if len(n.meta) < 2:
            continue
        if n.category in _NOTIFY_ATTEMPTED:
            attempted.setdefault((n.meta[0], n.meta[1]), n)
    for key in sorted(attempted, key=repr):
        seq, mseq = key
        rel = releases.get(seq)
        if rel is None:
            continue  # never released (stalled run) — not this check's job
        recs = delivered.get(key)
        if recs is None:
            n = attempted[key]
            out.append(Diagnostic(
                code="SAN-T010",
                message=(
                    f"task #{seq} ({rel.label!r}) was released at "
                    f"{rel.start:.6g} but its notification (wire seq "
                    f"{mseq} over {n.worker!r}) was dropped and never "
                    f"redelivered"
                ),
                task=rel.label,
                worker=rel.worker,
                meta=(seq, mseq),
            ))
            continue
        first_end = min(r.end for r in recs)
        if first_end > rel.start + eps:
            out.append(Diagnostic(
                code="SAN-T010",
                message=(
                    f"task #{seq} ({rel.label!r}) was released at "
                    f"{rel.start:.6g} before its notification (wire seq "
                    f"{mseq}) was first delivered at {first_end:.6g}"
                ),
                task=rel.label,
                worker=rel.worker,
                meta=(seq, mseq),
            ))
    return out


# ----------------------------------------------------------------------
def check_trace(
    trace: "Trace",
    *,
    deps: Optional[Iterable[tuple[int, int]]] = None,
    eps: float = _EPS,
) -> list[Diagnostic]:
    """Validate a trace in isolation.

    ``deps`` is an optional iterable of ``(pred_seq, succ_seq)`` pairs —
    run-local task sequence numbers (``meta[0]`` of task records) where
    the predecessor must finish before the successor starts.
    """
    return _check_indexed(_TraceIndex(trace), deps, eps)


def _check_indexed(
    index: _TraceIndex, deps: Optional[Iterable[tuple[int, int]]], eps: float
) -> list[Diagnostic]:
    out = _check_overlaps(index, eps)
    if deps is not None:
        out.extend(_check_dependence_order(index, deps, eps))
    out.extend(_check_worker_windows(index, eps))
    out.extend(_check_straggler_followup(index))
    out.extend(_check_unique_completion(index))
    out.extend(_check_notify_order(index, eps))
    out.extend(_check_release_protocol(index, eps))
    return out


# ----------------------------------------------------------------------
# SAN-T003 — input transfer completes after its consumer started
# ----------------------------------------------------------------------
def _check_transfer_order(
    result: "RunResult", index: _TraceIndex, eps: float
) -> list[Diagnostic]:
    from repro.runtime.task import TaskState

    graph = result.graph
    if graph is None:
        return []
    space_of = {w.name: w.space for w in result.workers}
    # transfers grouped by (destination space, region label)
    grouped: dict[tuple[str, str], list] = {}
    for r in index.category("transfer"):
        if not r.worker.startswith("link:") or "->" not in r.worker:
            continue
        dst = r.worker.split("->", 1)[1]
        grouped.setdefault((dst, r.label), []).append(r)

    out: list[Diagnostic] = []
    finished = TaskState.FINISHED
    for t in graph.tasks():
        if t.state is not finished or t.chosen_worker is None:
            continue
        space = space_of.get(t.chosen_worker)
        if space is None:
            continue
        for region in {a.region.rid: a.region for a in t.accesses if a.reads}.values():
            for rec in grouped.get((space, region.label), ()):
                # a copy already in flight at task start must have been
                # waited for; one issued later belongs to a later consumer
                if rec.start < t.start_time - eps and rec.end > t.start_time + eps:
                    out.append(Diagnostic(
                        code="SAN-T003",
                        message=(
                            f"input transfer of {region.label!r} into "
                            f"{space!r} completed at {rec.end:.6g}, after "
                            f"consumer {t.label!r} started at "
                            f"{t.start_time:.6g}"
                        ),
                        task=t.label,
                        region=region.label,
                        worker=t.chosen_worker,
                    ))
    return out


# ----------------------------------------------------------------------
# SAN-T005 — versioning λ-count consistency
# ----------------------------------------------------------------------
def _check_lambda_counts(result: "RunResult") -> list[Diagnostic]:
    sched = result.scheduler_state
    table = getattr(sched, "table", None)
    dispatches = getattr(sched, "group_dispatches", None)
    lam = getattr(sched, "lam", None)
    if table is None or dispatches is None or lam is None or result.graph is None:
        return []
    # a mid-run change of the runnable-version set (dead or quarantined
    # worker) legitimately lets a group graduate with an under-sampled
    # version; the invariant is only sharp on fault-free runs
    if any(not w.alive or w.quarantined_until is not None for w in result.workers):
        return []
    if getattr(result.resilience, "quarantines", 0):
        return []

    defs = {t.name: t.definition for t in result.graph.tasks()}
    kinds = {k for w in result.workers for k in (w.device.kind,)}
    # warm-started schedulers graduate on learning *credit* (live
    # executions plus policy-capped preloaded history), not raw counts;
    # use the scheduler's own accounting when it exposes it so preloaded
    # runs validate clean
    credit = getattr(sched, "learning_credit", None)
    out: list[Diagnostic] = []
    for (task_name, size_key), counters in sorted(
        dispatches.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
    ):
        if counters.get("reliable", 0) == 0:
            continue
        definition = defs.get(task_name)
        if definition is None:
            continue
        names = [
            v.name
            for v in definition.versions
            if any(k in kinds for k in v.device_kinds)
        ]
        group = None
        for g in table.version_set(task_name).groups():
            if g.size_key == size_key:
                group = g
                break
        if group is None:
            continue
        def _credit(name: str) -> int:
            if credit is not None:
                return credit(group, name)
            return group.executions(name)

        short = [n for n in names if _credit(n) < lam]
        if short:
            detail = ", ".join(
                f"{n}: {_credit(n)}"
                + (
                    f" (preloaded {group.profile(n).preloaded})"
                    if getattr(group.profile(n), "preloaded", 0)
                    else ""
                )
                for n in short
            )
            out.append(Diagnostic(
                code="SAN-T005",
                message=(
                    f"task {task_name!r} size group {size_key!r} received "
                    f"{counters['reliable']} reliable-phase dispatch(es) "
                    f"but version(s) have less than λ={lam} learning credit "
                    f"({detail})"
                ),
                task=task_name,
                meta=(size_key, tuple(short)),
            ))
    return out


# ----------------------------------------------------------------------
# SAN-T006 — run accounting
# ----------------------------------------------------------------------
def _check_accounting(result: "RunResult", index: _TraceIndex) -> list[Diagnostic]:
    n_records = len(index.category("task"))
    n_finish = len(result.finish_order)
    n_done = result.tasks_completed
    n_worker = int(sum(s.get("tasks_run", 0) for s in result.worker_stats.values()))
    counts = {
        "tasks_completed": n_done,
        "finish_order": n_finish,
        "task trace records": n_records,
        "worker tasks_run": n_worker,
    }
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in counts.items())
        return [Diagnostic(
            code="SAN-T006",
            message=f"run accounting mismatch: {detail}",
            meta=(n_done, n_finish, n_records, n_worker),
        )]
    return []


# ----------------------------------------------------------------------
def check_run(result: "RunResult", *, eps: float = _EPS) -> list[Diagnostic]:
    """All trace invariants of one finished run (SAN-T001..T008)."""
    deps: list[tuple[int, int]] = []
    if result.graph is not None and result.local_ids:
        ids = result.local_ids
        for e in result.graph.edges:
            if e.src in ids and e.dst in ids:
                deps.append((ids[e.src], ids[e.dst]))
    index = _TraceIndex(result.trace)
    out = _check_indexed(index, deps, eps)
    out.extend(_check_transfer_order(result, index, eps))
    out.extend(_check_lambda_counts(result))
    out.extend(_check_accounting(result, index))
    return out


def validate_run(result: "RunResult") -> list[Diagnostic]:
    """Every applicable sanitizer check over one run: trace invariants,
    aliasing findings and (when recorded) dynamic race analysis."""
    out = check_run(result)
    if result.graph is not None:
        out.extend(result.graph.alias_diagnostics)
        if result.recorder is not None:
            out.extend(result.recorder.diagnostics())
        from repro.sanitizer.races import check_happens_before

        out.extend(check_happens_before(result.graph, recorder=result.recorder))
    return out


__all__ = ["check_trace", "check_run", "validate_run"]
