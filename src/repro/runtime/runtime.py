"""The OmpSs runtime core.

Execution model (mirroring Nanos++ as described in §III/§IV-B):

* a master thread (the caller's Python code) creates tasks; each
  submission runs the dependence analysis and hands *ready* tasks to the
  scheduling policy,
* the policy dispatches each ready task — one chosen version, one chosen
  worker — into that worker's FIFO queue,
* a worker starts its head task once the task's input regions hold valid
  copies in the worker's memory space; input transfers are issued at
  dispatch time (prefetch) so they overlap with the execution of earlier
  tasks, unless overlap is disabled,
* on completion the runtime updates the coherence directory (writes
  invalidate remote copies), reports the measured duration back to the
  scheduler, releases dependent tasks, and the worker proceeds,
* ``taskwait`` blocks the master until every submitted task has retired,
  then flushes dirty data back to the host (unless ``noflush``).

Time is simulated: durations come from the machine's device cost models
and transfers from its links.  Task bodies may still execute real NumPy
kernels so applications produce verifiable numerical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Collection, Mapping, Optional, Union

from repro.memory.cache import CacheManager, CacheStats
from repro.memory.directory import Directory, TransferRequest
from repro.memory.transfers import TransferEngine, TransferStats
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import (
    RecoveryPolicy,
    ResilienceManager,
    ResilienceStats,
    default_recovery_policy,
)
from repro.runtime import context
from repro.runtime.dataregion import DataRegion
from repro.runtime.dependences import DependenceGraph
from repro.runtime.gcpause import CyclicGCPause
from repro.runtime.task import TaskInstance, TaskState, TaskVersion
from repro.runtime.worker import Worker
from repro.sim.engine import EventKind, SimEngine
from repro.sim.topology import HOST_SPACE, Machine
from repro.sim.trace import Trace

_EPS = 1e-12


@dataclass
class RuntimeConfig:
    """Runtime tunables (the paper's environment-variable switches).

    ``overlap_transfers`` + ``prefetch`` reproduce the configuration used
    throughout the paper's evaluation ("we configured OmpSs to overlap
    data transfers with task execution.  We also combined this feature
    with prefetching task data", §V-A2).  Disabling them is used by the
    overlap ablation bench.
    """

    overlap_transfers: bool = True
    prefetch: bool = True
    #: How many tasks deep into each worker queue input transfers are
    #: issued ahead of execution.  Bounds pinned device memory to
    #: ``window x task working set`` while still overlapping transfers
    #: with the execution of earlier tasks.
    prefetch_window: int = 4
    #: Task-creation throttle (the Nanos++ throttle policy): the master
    #: thread blocks in ``submit`` while this many tasks are in flight,
    #: bounding runtime memory and look-ahead.  ``None`` = unthrottled.
    max_in_flight_tasks: Optional[int] = None
    flush_on_wait: bool = True
    execute_bodies: bool = True
    check_aliasing: bool = False
    #: Aliasing policy for the dependence graph: ``None`` derives it
    #: from ``check_aliasing`` ("reject" vs "off"); "report" collects
    #: SAN-R003 sanitizer diagnostics instead of raising.
    alias_policy: Optional[str] = None
    #: Run task bodies under the sanitizer's access recorder: actual
    #: reads/writes are diffed against the declared clauses and exposed
    #: through ``RunResult.race_diagnostics()`` / ``validate()``.
    #: Implies nothing unless ``execute_bodies`` is on and kernels are
    #: real NumPy code.
    record_accesses: bool = False
    max_events: Optional[int] = None
    #: Global progress watchdog: if no task completes for this many
    #: simulated seconds (``progress_stall_limit`` consecutive times)
    #: while tasks are unfinished, the run fails with a diagnostic dump
    #: (:class:`repro.resilience.watchdog.ProgressStallError`) instead
    #: of stalling forever.  ``None`` disables it.
    progress_horizon: Optional[float] = None
    progress_stall_limit: int = 3

    def __post_init__(self) -> None:
        if self.prefetch and not self.overlap_transfers:
            # prefetch is meaningless without overlap; normalise silently
            self.prefetch = False
        if self.prefetch_window < 1:
            raise ValueError("prefetch_window must be >= 1")
        if self.max_in_flight_tasks is not None and self.max_in_flight_tasks < 1:
            raise ValueError("max_in_flight_tasks must be >= 1 or None")
        if self.progress_horizon is not None and self.progress_horizon <= 0:
            raise ValueError("progress_horizon must be positive or None")
        if self.progress_stall_limit < 1:
            raise ValueError("progress_stall_limit must be >= 1")

    @property
    def effective_window(self) -> int:
        """Queue depth at which tasks are prepared (1 = head only)."""
        return self.prefetch_window if self.prefetch else 1


@dataclass
class RunResult:
    """Everything a finished run exposes to analysis code."""

    scheduler: str
    machine: str
    makespan: float
    tasks_completed: int
    transfer_stats: TransferStats
    cache_stats: CacheStats
    version_counts: dict[str, dict[str, int]]
    worker_stats: dict[str, dict[str, float]]
    trace: Trace
    finish_order: list[int]
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: live run internals for the sanitizer (excluded from equality so
    #: determinism tests keep comparing results by observable outcome)
    graph: Optional[DependenceGraph] = field(
        default=None, repr=False, compare=False
    )
    workers: list[Worker] = field(
        default_factory=list, repr=False, compare=False
    )
    scheduler_state: Any = field(default=None, repr=False, compare=False)
    recorder: Any = field(default=None, repr=False, compare=False)
    local_ids: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def version_fractions(self, task_name: str) -> dict[str, float]:
        """Share of executions per version of one task (Figures 8/11/14/15)."""
        counts = self.version_counts.get(task_name, {})
        total = sum(counts.values())
        if total == 0:
            return {}
        return {v: n / total for v, n in counts.items()}

    def gflops(self, total_flops: float) -> float:
        """Aggregate rate given the application's total flop count."""
        if self.makespan <= 0:
            return 0.0
        return total_flops / self.makespan / 1e9

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        """Serialize the observable outcome to a versioned JSON string.

        Everything the dataclass compares by round-trips exactly; the
        live-run internals (graph, workers, scheduler state, recorder)
        are process-bound and excluded — see
        :mod:`repro.runtime.serialize`.
        """
        import json

        from repro.runtime.serialize import run_result_to_dict

        return json.dumps(run_result_to_dict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "RunResult":
        """Rebuild a result serialized with :meth:`to_json`."""
        import json

        from repro.runtime.serialize import run_result_from_dict

        return run_result_from_dict(json.loads(payload))

    # -- sanitizer entry points ----------------------------------------
    def validate(self, *, strict: bool = True, static: bool = False) -> list:
        """Run every applicable sanitizer check over this result.

        Covers the trace invariants (SAN-T*), the aliasing findings
        collected by the dependence graph (SAN-R003) and — when the run
        recorded accesses — the declared-vs-actual diff and
        happens-before analysis (SAN-R001/R002/R010).  With ``static``
        the static effect pre-flight also runs over the task definitions
        this run executed (SAN-S00x, best-effort: versions with callable
        clause specs or unrecoverable source are skipped).  With
        ``strict`` (the default) error-severity findings raise
        :class:`repro.sanitizer.SanitizerError`; otherwise the list of
        diagnostics is returned for inspection.
        """
        from repro.sanitizer import validate_run
        from repro.sanitizer.diagnostics import raise_if_errors

        diags = validate_run(self)
        if static:
            from repro.sanitizer.static import check_definitions

            definitions: dict = {}
            if self.graph is not None:
                for t in self.graph._tasks.values():
                    definitions.setdefault(t.definition.name, t.definition)
            else:
                from repro.runtime.directives import registered_tasks

                definitions = registered_tasks()
            diags.extend(check_definitions(definitions))
        if strict:
            raise_if_errors(diags)
        return diags

    def race_diagnostics(self) -> list:
        """Dynamic-race findings of this run (requires ``record_accesses``)."""
        from repro.sanitizer.races import check_happens_before

        out = list(self.recorder.diagnostics()) if self.recorder is not None else []
        if self.graph is not None:
            out.extend(self.graph.alias_diagnostics)
            out.extend(check_happens_before(self.graph, recorder=self.recorder))
        return out


class OmpSsRuntime:
    """One run of the OmpSs-like runtime on a simulated machine.

    Use as a context manager; the ``with`` body plays the role of the
    master thread::

        rt = OmpSsRuntime(machine, scheduler="versioning")
        with rt:
            for ...: some_task(...)
            rt.taskwait()
        result = rt.result()

    The cyclic garbage collector is paused from entry to exit (see
    :mod:`repro.runtime.gcpause`).
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: "Union[str, Any]" = "versioning",
        *,
        config: Optional[RuntimeConfig] = None,
        scheduler_options: Optional[Mapping[str, Any]] = None,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        from repro.schedulers.registry import create_scheduler  # avoid cycle

        self.machine = machine
        self.config = config or RuntimeConfig()
        self.engine = SimEngine()
        self.trace = Trace()
        self.directory = Directory(self.engine, HOST_SPACE)
        # recovery is installed only when the inputs need it: a fault
        # plan that injects something, or a policy that speculates; the
        # transfer engine consults it only for injected faults
        policy = recovery if recovery is not None else default_recovery_policy()
        faulty = fault_plan is not None and not fault_plan.empty
        self.resilience: Optional[ResilienceManager] = (
            ResilienceManager(fault_plan, policy) if faulty or policy.speculate else None
        )
        self.transfer_engine = TransferEngine(
            self.engine, machine, trace=self.trace, host=HOST_SPACE,
            resilience=self.resilience if faulty else None,
        )
        self.cache = CacheManager(machine, self.directory, self.transfer_engine)
        self.graph = DependenceGraph(
            check_aliasing=self.config.check_aliasing,
            alias_policy=self.config.alias_policy,
        )
        self.recorder = None
        if self.config.record_accesses:
            from repro.sanitizer.races import AccessRecorder

            self.recorder = AccessRecorder()
        self.workers: list[Worker] = [Worker(d) for d in machine.devices]
        self._workers_by_name = {w.name: w for w in self.workers}
        #: scheduler caches keyed on worker liveness (see liveness_changed)
        self.liveness_caches: list[dict] = []

        #: cluster node layout, set via :meth:`enable_node_topology` by
        #: node-aware schedulers (typically during their ``bind``); None
        #: for ordinary single-node runs
        self.node_topology = None
        # chain sources of the staging path (see _stage): any node host
        # for a push, its node's host for a read into a device space
        self._host_set: frozenset[str] = frozenset()
        self._host_of_device: dict[str, tuple[str, ...]] = {}
        if isinstance(scheduler, str):
            self.scheduler = create_scheduler(scheduler, **dict(scheduler_options or {}))
        else:
            if scheduler_options:
                raise ValueError("pass scheduler options to the scheduler instance directly")
            self.scheduler = scheduler
        self.scheduler.bind(self)
        if self.resilience is not None:
            self.resilience.bind(self)
        self.version_counts: dict[str, dict[str, int]] = {}
        self._finish_order: list[int] = []
        self._tasks_completed = 0
        self._tasks_submitted = 0
        # task uid -> time its input transfers complete (prepared tasks)
        self._xfer_ready: dict[int, float] = {}
        # task uids whose regions are currently pinned in a space
        self._pinned: set[int] = set()
        # global uid -> run-local sequence number (for trace determinism)
        self._local_ids: dict[int, int] = {}
        # run-local uid allocator: submitted instances (and speculative
        # shadows) are renumbered from this counter, so two identical
        # runs expose identical uids — finish_order and serialized
        # results stay byte-identical no matter how many runtimes the
        # process ran before
        self._uid_alloc = itertools.count(1)
        self.progress_watchdog = None
        if self.config.progress_horizon is not None:
            from repro.resilience.watchdog import ProgressWatchdog

            self.progress_watchdog = ProgressWatchdog(
                self,
                self.config.progress_horizon,
                stall_limit=self.config.progress_stall_limit,
            )
        self._closed = False
        self._gc_pause = CyclicGCPause()

    # ------------------------------------------------------------------
    # Master-thread interface
    # ------------------------------------------------------------------
    def __enter__(self) -> "OmpSsRuntime":
        if self._closed:
            raise RuntimeError("runtime already finished; create a new one")
        context.push_runtime(self)
        # the run frees nothing cyclic, so the collector would only
        # rescan its live objects (see repro.runtime.gcpause)
        self._gc_pause.__enter__()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            context.pop_runtime(self)
            if exc_type is None:
                self.wait_all()
        finally:
            self._gc_pause.__exit__()

    def submit(self, t: TaskInstance) -> None:
        """Submit one task instance (called by the ``@task`` wrapper).

        With ``max_in_flight_tasks`` set, the master blocks here (the
        simulation advances) until the in-flight count drops below the
        throttle — the Nanos++ task-creation throttle.
        """
        if self._closed:
            raise RuntimeError("runtime already finished; create a new one")
        limit = self.config.max_in_flight_tasks
        if limit is not None and self.graph.unfinished >= limit:
            graph = self.graph
            if not self.engine.run_while(lambda: graph.unfinished >= limit):
                raise RuntimeError(
                    "deadlock in throttled submit: in-flight tasks pending "
                    "but no events queued"
                )
        t.submit_time = self.engine.now
        self._tasks_submitted += 1
        # renumber to a run-local uid; the process-global uid the
        # instance was born with only guaranteed uniqueness up to here
        t.uid = next(self._uid_alloc)
        # run-local sequence number: traces use it instead of the uid so
        # two identical runs produce identical traces
        self._local_ids[t.uid] = self._tasks_submitted
        for region in t.regions():
            self.directory.register(region)
        ready = self.graph.add_task(t)
        # the scheduler sees the task (and its dependence edges) before
        # it can become ready — cluster sharding assigns the shard here
        self.scheduler.task_submitted(t)
        if ready:
            self._mark_ready(t)

    def taskwait(self, *, noflush: bool = False) -> None:
        """Block the master until all submitted tasks retire.

        ``noflush`` reproduces the extended ``taskwait noflush`` clause:
        synchronise tasks without copying device data back to the host.
        """
        graph = self.graph
        if not self.engine.run_while(
            lambda: graph.unfinished, guard=self.config.max_events
        ):
            raise RuntimeError(
                f"deadlock: {self.graph.unfinished} tasks pending but the event "
                "queue is empty (dependence cycle or dispatch bug)"
            )
        if self.config.flush_on_wait and not noflush:
            self._flush_to_host()

    def taskwait_on(self, *data: Any, noflush: bool = False) -> None:
        """``taskwait on(...)`` — block until the given data is produced.

        Unlike a plain :meth:`taskwait`, only the named regions gate the
        master, and only they are flushed back to the host; unrelated
        tasks keep running ("allows the encountering task to block until
        some data is produced", §III).
        """
        from repro.runtime.dataregion import region_of

        regions = [region_of(d) for d in data]
        graph = self.graph
        if not self.engine.run_while(
            lambda: any(graph.pending_writer(r) is not None for r in regions),
            guard=self.config.max_events,
        ):
            raise RuntimeError(
                "deadlock in taskwait_on: writers pending but no events queued"
            )
        if self.config.flush_on_wait and not noflush:
            last = self.engine.now
            for r in regions:
                req = self.directory.writeback_request(r)
                if req is not None:
                    last = max(last, self.transfer_engine.issue(req))
                    self.directory.note_writeback_done(r)
            if last > self.engine.now:
                self.engine.schedule(last, lambda: None, kind=EventKind.RUNTIME,
                                     label="flush-on")
                self.engine.run(until=last)

    def wait_all(self) -> "RunResult":
        """Final barrier: taskwait + flush, then freeze the run."""
        self.taskwait()
        self._closed = True
        return self.result()

    def result(self) -> RunResult:
        makespan = self.engine.now
        worker_stats = {
            w.name: {
                "tasks_run": float(w.tasks_run),
                "busy_time": w.busy_time,
                "utilisation": (w.busy_time / makespan) if makespan > 0 else 0.0,
            }
            for w in self.workers
        }
        return RunResult(
            scheduler=self.scheduler.name,
            machine=self.machine.name,
            makespan=makespan,
            tasks_completed=self._tasks_completed,
            transfer_stats=self.transfer_engine.stats,
            cache_stats=self.cache.stats,
            version_counts={k: dict(v) for k, v in self.version_counts.items()},
            worker_stats=worker_stats,
            trace=self.trace,
            finish_order=list(self._finish_order),
            resilience=(
                self.resilience.stats if self.resilience is not None
                else ResilienceStats()
            ),
            graph=self.graph,
            workers=list(self.workers),
            scheduler_state=self.scheduler,
            recorder=self.recorder,
            local_ids=dict(self._local_ids),
        )

    # ------------------------------------------------------------------
    # Scheduler-facing interface
    # ------------------------------------------------------------------
    def dispatch(self, t: TaskInstance, worker: Worker, version: TaskVersion) -> None:
        """Place a ready task, with its chosen version, in a worker queue."""
        if t.state is not TaskState.READY:
            raise RuntimeError(f"dispatch of non-ready task {t.label!r} ({t.state})")
        if not worker.alive:
            raise RuntimeError(
                f"dispatch of {t.label!r} to failed worker {worker.name!r}"
            )
        if version not in t.definition.versions:
            raise ValueError(
                f"version {version.name!r} does not belong to task {t.name!r}"
            )
        if not version.runs_on(worker.device.kind):
            raise ValueError(
                f"version {version.name!r} (devices "
                f"{[k.value for k in version.device_kinds]}) cannot run on worker "
                f"{worker.name!r} ({worker.device.kind.value})"
            )
        t.chosen_version = version
        t.chosen_worker = worker.name
        t.state = TaskState.QUEUED

        worker.enqueue(t)
        self._prepare_window(worker)
        self._try_start(worker)

    def liveness_changed(self) -> None:
        """A ``Worker.alive`` flag flipped (called before any requeue)."""
        for cache in self.liveness_caches:
            cache.clear()

    def enable_node_topology(self, layout) -> None:
        """Turn on cluster awareness (called by node-aware schedulers).

        The directory starts preferring same-node sources and spreading
        remote pulls across replica-holding hosts, and read transfers
        may chain off in-flight staging copies toward a node's host.
        """
        self.node_topology = layout
        self._host_set = host_spaces = frozenset(layout.host_of_node.values())
        self._host_of_device = {
            s: (h,)
            for s in layout.node_of_space
            if (h := layout.host_of_space(s)) is not None and h != s
        }
        self.directory.set_topology(layout.node_of_space, host_spaces)

    def push_region(self, region: DataRegion, space: str) -> tuple[float, bool]:
        """Proactively replicate ``region`` into ``space``.

        The cluster protocol layer pushes a predecessor's output toward
        the consuming shard's host overlapped with scheduling.  Returns
        ``(ready_time, issued)`` — ``issued`` is False when the space
        already holds (or is already receiving) a valid copy.
        """
        ready, issued = self._stage(region, space, self._host_set)
        if issued is None:
            # every copy died with a crashed node; retry the push once
            # the recomputation has restored the home copy
            self.engine.schedule(
                ready,
                lambda: self.push_region(region, space),
                kind=EventKind.RETRY,
                label=f"push {region.label} after recovery",
            )
        return ready, issued or False

    def missing_read_bytes(self, t: TaskInstance, space: str) -> int:
        """Bytes that would have to move for ``t``'s reads on ``space``.

        Used by the affinity policy and the locality-aware versioning
        variant; counts each needed region once, ignoring in-flight
        copies (the policy sees directory state, like Nanos++'s).
        """
        total = 0
        for region in t.reads():
            if not self.directory.is_valid(region, space):
                total += region.nbytes
        return total

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _mark_ready(self, t: TaskInstance) -> None:
        # The scheduler may dispatch immediately (dep/affinity) or hold
        # the task in its own ready pool (versioning's bounded-queue
        # dispatch); an undispatched task that never moves will surface
        # as a deadlock in taskwait().
        t.state = TaskState.READY
        t.ready_time = self.engine.now
        self.scheduler.task_ready(t)

    def _prepare_window(self, worker: Worker) -> None:
        """Prepare the first ``prefetch_window`` queued tasks of a worker.

        Preparation = allocate + pin the task's regions in the worker's
        space and issue the input transfers.  Deferring preparation for
        deep queue positions bounds the pinned working set (a 6 GB GPU
        cannot pin a 16 GB backlog) while still overlapping transfers
        with the execution of the tasks ahead — the paper's prefetch
        configuration (§V-A2).
        """
        window = self.config.effective_window
        if not self.config.overlap_transfers and worker.current is not None:
            # overlap disabled: transfers may only start once the worker
            # is idle and about to run the task (strict serialisation)
            return
        space = worker.space
        for idx, t in enumerate(worker.queue):
            if idx >= window:
                break
            if t.uid in self._xfer_ready:
                continue
            for region in t.regions():
                self.cache.ensure_resident(space, region)
                self.cache.pin(space, region)
            self._pinned.add(t.uid)
            self._xfer_ready[t.uid] = self._issue_read_transfers(t, space)

    def _issue_read_transfers(self, t: TaskInstance, space: str) -> float:
        """Stage every read region of ``t`` into ``space``.

        Returns the simulated time at which all inputs are valid there.
        """
        ready = self.engine.now
        sources = self._host_of_device.get(space, ())
        for region in t.reads():
            done, issued = self._stage(region, space, sources)
            if issued is None:
                # no copy exists anywhere until the crash recovery
                # lands; re-stage this task's inputs at that point
                self.engine.schedule(
                    done,
                    lambda tt=t, sp=space: self._reissue_after_recovery(tt, sp),
                    kind=EventKind.RETRY,
                    label=f"reissue {t.name} after recovery",
                )
            if done > ready:
                ready = done
        return ready

    def _reissue_after_recovery(self, t: TaskInstance, space: str) -> None:
        """Re-run a prepared task's input transfers after crash recovery."""
        if t.uid not in self._xfer_ready:
            return  # requeued, cancelled or already running elsewhere
        done = self._issue_read_transfers(t, space)
        if done > self._xfer_ready[t.uid]:
            self._xfer_ready[t.uid] = done
        w = self._worker_of(t)
        if w is not None:
            self._try_start(w)

    def _stage(
        self, region: DataRegion, space: str, sources: "Collection[str]"
    ) -> tuple[float, Optional[bool]]:
        """Start making ``region`` valid in ``space``: the one staging path.

        Returns ``(ready, issued)``: when ``space`` holds a valid copy,
        and whether this call issued a copy.  ``issued`` is None while
        the region is under crash recovery (no copy exists anywhere):
        ``ready`` is then when the recomputation lands, and the caller
        retries at that time.  Otherwise a copy already in flight toward
        ``space`` is reused; failing that, the copy chains off the
        earliest copy in flight toward one of ``sources``; failing that,
        the directory picks the source.  Chaining lets a push pipeline a
        broadcast across per-node NICs instead of serialising every
        replica on the origin's NIC, and a read's final intra-node hop
        reuse a staging copy instead of crossing the network again.
        """
        now = self.engine.now
        entry = self.directory.entry(region)
        if space in entry.valid:
            return now, False
        lands = entry.recover_at
        if lands is not None:
            return max(lands, now), None
        threshold = now + _EPS
        inflight = entry.inflight
        pending = inflight.get(space)
        if pending is not None and pending > threshold:
            return pending, False
        if sources and inflight:
            # min over (time, space) breaks ties by name; ``space``
            # itself fails the threshold (its copy, if any, has landed)
            best: Optional[tuple[float, str]] = None
            for src, staged in inflight.items():
                if staged > threshold and src in sources:
                    if best is None or (staged, src) < best:
                        best = (staged, src)
            if best is not None:
                return self._copy(TransferRequest(region, best[1], space), best[0]), True
        req = self.directory.reads_needed(region, space)
        assert req is not None  # ``space`` was checked invalid above
        return self._copy(req), True

    def _copy(self, req: TransferRequest, earliest: Optional[float] = None) -> float:
        """Issue one copy and record it in the directory as in flight.

        Returns the copy's completion time.  The landing is no event:
        the directory settles the copy once the engine passes the
        landing's reserved ``(time, seq)``, and drops it if the
        destination's node crashes first.
        """
        done = self.transfer_engine.issue(req, earliest=earliest)
        self.directory.note_in_flight(req.region, req.dst, done, self.engine.reserve_seq(done))
        return done

    def _worker_of(self, t: TaskInstance) -> Optional[Worker]:
        """The worker ``t`` was last dispatched to (None if never)."""
        return self._workers_by_name.get(t.chosen_worker) if t.chosen_worker else None

    def _unpin(self, t: TaskInstance, space: str) -> None:
        """Release the pins ``t``'s preparation took in ``space``."""
        if t.uid in self._pinned:
            self._pinned.discard(t.uid)
            for region in t.regions():
                self.cache.unpin(space, region)

    def _stop(self, t: TaskInstance, worker: Worker, category: str, *meta: Any) -> None:
        """End ``t``'s execution on ``worker`` before it completes.

        Frees the worker, cancels the pending end event (a no-op for the
        event now firing), charges the burned time as busy time and
        writes a ``category`` trace record over the execution.
        """
        now = self.engine.now
        worker.current = None
        if worker._end_event is not None:
            worker._end_event.cancel()
            worker._end_event = None
        worker.busy_time += now - t.start_time
        self.trace.add(
            t.start_time, now, worker.name, category, t.chosen_version.name,
            meta=(self._local_ids[t.uid], *meta),
        )

    def _try_start(self, worker: Worker) -> None:
        if not worker.alive or worker.current is not None:
            return
        t = worker.peek()
        if t is None:
            return
        ready = self._xfer_ready.get(t.uid)
        if ready is None:
            self._prepare_window(worker)
            ready = self._xfer_ready[t.uid]
        now = self.engine.now
        if ready > now + _EPS:
            # schedule (or pull forward) the wake for this worker; a
            # priority task jumping to the head may need an earlier wake
            # than one already scheduled for the previous head
            if worker._wake_at is None or ready < worker._wake_at - _EPS:
                worker._wake_at = ready
                self.engine.schedule(
                    ready,
                    lambda: self._wake(worker),
                    kind=EventKind.WORKER_WAKE,
                    label=f"wake {worker.name}",
                )
            return
        worker.pop()
        del self._xfer_ready[t.uid]
        worker.current = t
        t.state = TaskState.RUNNING
        t.start_time = now
        nominal = worker.device.duration(t.chosen_version.kernel, t.data_bytes, t.params)
        if self.resilience is None:
            worker._end_event = self.engine.schedule(
                now + nominal,
                lambda: self._finish(t, worker),
                kind=EventKind.TASK_END,
                label=t.label,
            )
        else:
            # the fault plan decides how this execution ends, and the
            # straggler watchdog arms its deadline
            self.resilience.on_task_start(t, worker, nominal)
        # the pop promoted a task into the prefetch window
        self._prepare_window(worker)
        self.scheduler.task_started(t, worker)

    def _wake(self, worker: Worker) -> None:
        worker._wake_at = None
        self._try_start(worker)

    def _finish(self, t: TaskInstance, worker: Worker) -> None:
        """Retire a completed execution: the one retire path.

        With recovery installed, a speculative copy that finishes first
        retires on behalf of its original ``record`` (see
        :meth:`ResilienceManager.on_task_end`), after the straggling
        original, if still running, was stopped on ``loser``.
        """
        now = self.engine.now
        measured = now - t.start_time
        resilience = self.resilience
        record: TaskInstance = t
        loser: Optional[Worker] = None
        if resilience is not None:
            record, loser = resilience.on_task_end(t, worker)
        worker.current = None
        worker._end_event = None
        worker.busy_time += measured
        worker.tasks_run += 1
        t.state = TaskState.FINISHED
        t.end_time = now
        if self.config.execute_bodies:
            if self.recorder is not None:
                self.recorder.run_task(t)
            else:
                t.execute_body()
        assert t.chosen_version is not None
        self.trace.add(
            t.start_time,
            now,
            worker.name,
            "task",
            t.chosen_version.name,
            meta=(self._local_ids[t.uid],),
        )

        space = worker.space
        directory = self.directory
        cache = self.cache
        for acc in t.accesses:
            if not acc.writes:
                continue
            region = acc.region
            directory.note_write(region, space)
            cache.invalidate_stale_everywhere(region, space)
        self._unpin(t, space)

        by_task = self.version_counts.get(t.name)
        if by_task is None:
            by_task = self.version_counts[t.name] = {}
        vname = t.chosen_version.name
        by_task[vname] = by_task.get(vname, 0) + 1
        self._finish_order.append(record.uid)
        self._tasks_completed += 1

        if resilience is not None:
            resilience.on_task_success(t, worker, loser)
        self.scheduler.task_finished(t, worker, measured)
        for succ in self.graph.task_finished(record):
            self._mark_ready(succ)
        self._try_start(worker)
        if loser is not None:
            self._try_start(loser)

    def _flush_to_host(self) -> None:
        """Copy every dirty region back to the host (taskwait semantics)."""
        last = self.engine.now
        for req in self.directory.flush_requests():
            end = self.transfer_engine.issue(req)
            self.directory.note_writeback_done(req.region)
            last = max(last, end)
        if last > self.engine.now:
            # advance the master's clock to the final write-back; bounded
            # so pending fault-plan events past that time never fire
            self.engine.run(until=last)
