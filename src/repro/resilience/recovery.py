"""Recovery: retry budgets, quarantine, stragglers, worker and node loss.

The :class:`ResilienceManager` owns every way an execution ends other
than normally.  The runtime installs one only when the run needs it (a
fault plan that injects something, or a speculating policy); it then
decides at each start how the execution ends and runs every recovery
action itself:

* **retry budget** — a faulted task re-enters the ready pool until it
  has failed ``max_task_retries`` times, then the run aborts with
  :class:`TaskRetryExceededError`,
* **alternate-pair preference** — the failed (version, worker) pair is
  recorded on the task instance; version-aware schedulers consult it and
  prefer a different pair, turning the paper's ``implements`` tables
  into a graceful-degradation mechanism,
* **quarantine** — ``quarantine_threshold`` *consecutive* transient
  faults on one worker (a success resets the streak) put it in
  quarantine: its queue is drained back to the scheduler and it accepts
  no work for ``quarantine_cooldown`` simulated seconds (scaled by
  ``quarantine_backoff`` per repeat offence).  Re-admission is
  probationary: one more fault re-quarantines immediately, one success
  fully rehabilitates.
* **profile integrity** — a faulted execution never reaches the
  versioning scheduler's profile tables (durations are recorded only in
  ``task_finished``), so surviving workers' estimates stay valid after
  failures.
* **straggler recovery** — with ``speculate`` enabled, every task start
  arms a profile-derived deadline (:class:`~repro.resilience.watchdog.
  TaskWatchdog`).  On expiry the manager launches a *speculative copy*
  of the task on the best alternate (version, worker) pair; the first
  execution to finish wins, the loser is cancelled and its results are
  discarded.  When no alternate pair exists (or the concurrent-
  speculation budget is spent) the straggling execution is aborted and
  retried through the normal transient-fault path.  A lost race counts
  as a strike in the loser worker's quarantine streak — a persistently
  slow worker eventually quarantines itself out of the candidate set.
* **worker and node loss** — a dead worker's tasks are re-dispatched;
  regions whose only copies died with a node are recomputed from their
  write lineage.

Everything is driven by simulated time and deterministic counters, so
recovery behaviour is exactly reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.resilience.faults import FaultPlan
from repro.resilience.watchdog import TaskWatchdog
from repro.runtime.task import TaskInstance, TaskState, TaskVersion
from repro.sim.engine import EventKind
from repro.sim.topology import HOST_SPACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.dataregion import DataRegion
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.worker import Worker

_EPS = 1e-12  # the runtime's time tolerance


class TaskRetryExceededError(RuntimeError):
    """A task instance exhausted its retry budget."""


class TransferRetryExceededError(RuntimeError):
    """A link transfer kept failing past the bounded retry budget."""


@dataclass
class RecoveryPolicy:
    """Tunables of the recovery machinery."""

    #: Times one task instance may *fail* before the run aborts.
    max_task_retries: int = 3
    #: Consecutive transient faults on one worker before quarantine.
    quarantine_threshold: int = 3
    #: Quarantine length in simulated seconds.
    quarantine_cooldown: float = 0.5
    #: Cooldown multiplier applied per repeated quarantine of a worker.
    quarantine_backoff: float = 2.0
    #: Times one transfer hop may fail before the run aborts.
    transfer_max_retries: int = 3
    #: Base backoff before transfer retry n: ``backoff * 2**(n-1)``.
    transfer_backoff: float = 1e-4
    # -- straggler watchdog / speculative re-execution -----------------
    #: Arm profile-derived deadlines on every task start and recover
    #: stragglers by speculative duplication (or cancel-and-retry).
    speculate: bool = False
    #: Sigma multiplier of the reliable deadline ``grace·mean + k·sigma``.
    deadline_k: float = 4.0
    #: Mean multiplier of the reliable deadline — headroom so that a
    #: zero-variance profile (deterministic cost models) still leaves a
    #: margin above the expected duration.
    deadline_grace: float = 1.5
    #: Absolute lower bound on any armed deadline (simulated seconds),
    #: guarding against degenerate near-zero profiles.
    deadline_floor: float = 1e-6
    #: Deadline multiplier while a profile is cold: with fewer than
    #: ``min_deadline_samples`` samples the deadline is this many times
    #: the best available estimate (learned mean, else the device cost
    #: model's nominal duration).
    cold_multiplier: float = 8.0
    #: Samples before ``mean + k·sigma`` is trusted over the cold path.
    min_deadline_samples: int = 2
    #: Speculative copies allowed in flight at once (across the run).
    max_concurrent_speculations: int = 2
    #: Speculative copies allowed per task instance (lifetime).
    max_speculations_per_task: int = 1

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        if self.quarantine_cooldown < 0:
            raise ValueError("quarantine_cooldown must be >= 0")
        if self.quarantine_backoff < 1.0:
            raise ValueError("quarantine_backoff must be >= 1")
        if self.transfer_max_retries < 0:
            raise ValueError("transfer_max_retries must be >= 0")
        if self.transfer_backoff < 0:
            raise ValueError("transfer_backoff must be >= 0")
        if self.deadline_k < 0:
            raise ValueError("deadline_k must be >= 0")
        if self.deadline_grace < 1.0:
            raise ValueError("deadline_grace must be >= 1")
        if self.deadline_floor < 0:
            raise ValueError("deadline_floor must be >= 0")
        if self.cold_multiplier < 1.0:
            raise ValueError("cold_multiplier must be >= 1")
        if self.min_deadline_samples < 2:
            raise ValueError("min_deadline_samples must be >= 2 (variance "
                             "needs two samples)")
        if self.max_concurrent_speculations < 1:
            raise ValueError("max_concurrent_speculations must be >= 1")
        if self.max_speculations_per_task < 1:
            raise ValueError("max_speculations_per_task must be >= 1")


#: Process-wide default policy override, set via :func:`recovery_defaults`
#: so entry points (the CLI's ``--speculate``/``--deadline-k`` flags) can
#: parameterise runtimes they do not construct themselves.
_default_policy: Optional[RecoveryPolicy] = None


def default_recovery_policy() -> RecoveryPolicy:
    """The policy a runtime gets when none is passed explicitly."""
    return _default_policy if _default_policy is not None else RecoveryPolicy()


@contextmanager
def recovery_defaults(policy: RecoveryPolicy) -> Iterator[RecoveryPolicy]:
    """Make ``policy`` the default for runtimes created in this scope."""
    global _default_policy
    prev = _default_policy
    _default_policy = policy
    try:
        yield policy
    finally:
        _default_policy = prev


@dataclass
class ResilienceStats:
    """Fault/recovery counters exposed on :class:`RunResult`."""

    task_faults: int = 0          # transient task failures injected
    retries: int = 0              # task re-dispatches caused by faults
    worker_failures: int = 0      # permanent worker deaths
    tasks_redispatched: int = 0   # queued/running tasks pulled off a dead
                                  # or quarantined worker
    quarantines: int = 0
    readmissions: int = 0
    transfer_faults: int = 0      # failed transfer attempts
    transfer_retries: int = 0     # transfer attempts re-issued
    hangs: int = 0                # injected never-completing executions
    straggler_detected: int = 0   # adaptive deadline expiries
    speculations_launched: int = 0
    speculations_won: int = 0     # speculative copy finished first
    speculations_wasted: int = 0  # copies cancelled or beaten by the original
    # -- unreliable interconnect / node crashes ------------------------
    messages_dropped: int = 0     # transmissions lost in flight
    messages_duplicated: int = 0  # transmissions delivered twice
    messages_delayed: int = 0     # transmissions held past wire arrival
    node_crashes: int = 0         # whole-node deaths
    node_rejoins: int = 0         # crashed nodes that came back
    regions_lost: int = 0         # regions whose only valid copies died
    recompute_tasks: int = 0      # lost-writer executions re-charged

    def as_dict(self) -> dict[str, int]:
        return {
            "task_faults": self.task_faults,
            "retries": self.retries,
            "worker_failures": self.worker_failures,
            "tasks_redispatched": self.tasks_redispatched,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "transfer_faults": self.transfer_faults,
            "transfer_retries": self.transfer_retries,
            "hangs": self.hangs,
            "straggler_detected": self.straggler_detected,
            "speculations_launched": self.speculations_launched,
            "speculations_won": self.speculations_won,
            "speculations_wasted": self.speculations_wasted,
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "node_crashes": self.node_crashes,
            "node_rejoins": self.node_rejoins,
            "regions_lost": self.regions_lost,
            "recompute_tasks": self.recompute_tasks,
        }

    @property
    def any_failures(self) -> bool:
        return any(self.as_dict().values())


class ResilienceManager:
    """Owns fault consultation and recovery for one runtime instance."""

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.plan = plan
        self.policy = policy if policy is not None else default_recovery_policy()
        self.stats = ResilienceStats()
        self.injector = plan.injector() if plan is not None and not plan.empty else None
        self.rt: Optional["OmpSsRuntime"] = None
        self.watchdog = TaskWatchdog(self)
        # worker name -> consecutive transient faults since last success
        self._transient: dict[str, int] = {}
        # worker name -> how many times it has been quarantined
        self._quarantine_count: dict[str, int] = {}
        # cumulative per-worker history, feeding the versioning
        # scheduler's fault-aware cost estimation (`fault_aware=True`)
        self._worker_faults: dict[str, int] = {}
        self._worker_completions: dict[str, int] = {}
        # primary uid -> speculative copies launched for it (lifetime)
        self._spec_count: dict[int, int] = {}
        # original uid -> its live speculative copy (a copy finds its
        # original through ``speculative_of``)
        self._spec_shadow: dict[int, TaskInstance] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "OmpSsRuntime") -> None:
        """Attach to a runtime; schedules the plan's worker and node faults."""
        self.rt = runtime
        self._transient = {w.name: 0 for w in runtime.workers}
        if self.plan is None:
            return
        for wf in self.plan.worker_failures:
            worker = self._resolve_worker(wf.worker)
            runtime.engine.schedule(
                wf.at_time,
                lambda w=worker: self._worker_down(w),
                kind=EventKind.WORKER_DOWN,
                label=f"fail {worker.name}",
            )
        if self.plan.node_crashes:
            layout = runtime.node_topology
            if layout is None or layout.n_nodes < 2:
                raise ValueError(
                    "fault plan schedules node crashes but the runtime has no "
                    "multi-node topology (use a cluster machine with the "
                    "sharded cluster scheduler)"
                )
            for nc in self.plan.node_crashes:
                if nc.node not in layout.host_of_node:
                    raise ValueError(
                        f"fault plan crashes unknown node {nc.node} "
                        f"(cluster has nodes {sorted(layout.host_of_node)})"
                    )
                runtime.engine.schedule(
                    nc.at_time,
                    lambda n=nc.node: self._node_down(n),
                    kind=EventKind.NODE_DOWN,
                    label=f"crash node {nc.node}",
                )
                if nc.rejoin_after is not None:
                    runtime.engine.schedule(
                        nc.at_time + nc.rejoin_after,
                        lambda n=nc.node: self._node_up(n),
                        kind=EventKind.NODE_UP,
                        label=f"rejoin node {nc.node}",
                    )

    def _resolve_worker(self, name: str) -> "Worker":
        for w in self.rt.workers:
            if name in (w.name, w.device.name):
                return w
        raise KeyError(f"fault plan names unknown worker/device {name!r}")

    # ------------------------------------------------------------------
    # Consultation (the transfer engine, which holds the manager only
    # when the plan injects faults, asks per hop and per message)
    # ------------------------------------------------------------------
    def transfer_fault(self, src: str, dst: str) -> bool:
        if self.injector.transfer_fault(src, dst):
            self.stats.transfer_faults += 1
            return True
        return False

    def message_fault(self, src: str, dst: str, label: str):
        """Fault (if any) suffered by one message transmission."""
        fault = self.injector.message_fault(src, dst, label)
        if fault is not None:
            if fault.drop:
                self.stats.messages_dropped += 1
            elif fault.duplicate:
                self.stats.messages_duplicated += 1
            elif fault.delay > 0.0:
                self.stats.messages_delayed += 1
        return fault

    def link_factors(self, src: str, dst: str, now: float) -> tuple[float, float]:
        """Composed (bandwidth, latency) degradation of a hop at ``now``."""
        return self.injector.link_factors(src, dst, now)

    def transfer_retry(self, attempt: int) -> float:
        """Account one transfer retry; returns its backoff delay."""
        self.stats.transfer_retries += 1
        return self.policy.transfer_backoff * (2.0 ** (attempt - 1))

    # ------------------------------------------------------------------
    # Task lifecycle (the runtime's start and finish hand over here)
    # ------------------------------------------------------------------
    def on_task_start(
        self, t: TaskInstance, worker: "Worker", nominal: float
    ) -> None:
        """An execution began: schedule how it ends and arm its deadline.

        The fault plan draws a hang first, then a fault.  A hung
        execution occupies the worker forever and schedules no end event:
        only the straggler (or progress) watchdog resolves it.  A
        faulting one ends part-way in a ``TASK_FAIL`` event; any other
        completes at its duration, stretched by an active slowdown.
        ``nominal`` (the cost model's estimate) feeds the deadline, which
        deliberately is not stretched, so a degraded worker's executions
        overshoot it and are recovered.  The deadline is armed after the
        end event so one landing on the exact completion time loses the
        (time, seq) tie-break to it.  A speculative copy gets the cold
        deadline, so a hung copy is withdrawn rather than copied again.
        """
        rt = self.rt
        engine = rt.engine
        now = engine.now
        injector = self.injector
        duration, hang, fail_fraction = nominal, False, None
        if injector is not None:
            name, device, kernel = worker.name, worker.device.name, t.chosen_version.kernel
            duration = nominal * injector.slowdown_factor(name, device, now)
            hang = injector.task_hang(name, device, kernel)
            if not hang:
                fail_fraction = injector.task_fault(name, device, kernel)
        if hang:
            self.stats.hangs += 1
            worker._end_event = None
        elif fail_fraction is not None:
            worker._end_event = engine.schedule(
                now + duration * fail_fraction,
                lambda: self._fail_running(t, worker),
                kind=EventKind.TASK_FAIL,
                label=t.label,
            )
        else:
            worker._end_event = engine.schedule(
                now + duration,
                lambda: rt._finish(t, worker),
                kind=EventKind.TASK_END,
                label=t.label,
            )
        if self.policy.speculate:
            self.watchdog.arm(t, worker, nominal)

    def on_task_end(
        self, t: TaskInstance, worker: "Worker"
    ) -> tuple[TaskInstance, Optional["Worker"]]:
        """An execution completed: disarm the race's deadlines, settle it.

        Returns ``(record, loser)``: the task the dependence graph
        retires and the worker whose straggling execution was stopped.
        An original that finishes first withdraws its speculative copy.
        A copy that finishes first wins: its original stays the
        dependence-graph record (finish order, write lineage, successor
        release) and takes over the copy's (version, worker) pair; the
        straggling original, if still running, is stopped as
        ``spec-abort`` — unless it already left its worker (faulted
        away, or the worker died) and was parked.
        """
        rt = self.rt
        primary = self._original_of(t)
        self.watchdog.disarm(t)
        if primary is None:
            shadow = self._spec_shadow.get(t.uid)
            if shadow is not None:
                # the straggling original beat its speculative copy after all
                self._cancel_speculation(shadow)
            return t, None
        del self._spec_shadow[primary.uid]
        self.watchdog.disarm(primary)
        loser = rt._worker_of(primary)
        if loser is not None and loser.current is primary:
            rt._stop(primary, loser, "spec-abort")
            rt._unpin(primary, loser.space)
            rt.scheduler.task_requeued(primary, loser)
        else:
            loser = None
        # the original retires under the winning pair so dependence-
        # order analyses and traces agree on where the task really ran
        primary.chosen_version = t.chosen_version
        primary.chosen_worker = worker.name
        primary.start_time = t.start_time
        primary.end_time = rt.engine.now
        primary.state = TaskState.FINISHED
        return primary, loser

    def on_task_success(
        self, t: TaskInstance, worker: "Worker", loser: Optional["Worker"]
    ) -> None:
        """A task completed cleanly: the worker's fault streak resets.

        When ``t`` is a speculative copy, it won its race; the abandoned
        execution on ``loser`` is a strike against that worker, feeding
        the same consecutive-fault streak that drives quarantine — a
        worker that keeps losing races to its peers is degraded, whether
        or not it ever faults outright.
        """
        self._transient[worker.name] = 0
        self._worker_completions[worker.name] = (
            self._worker_completions.get(worker.name, 0) + 1
        )
        if t.speculative_of is not None:
            self.stats.speculations_won += 1
            if loser is not None:
                self._strike(loser)

    # ------------------------------------------------------------------
    # Transient faults
    # ------------------------------------------------------------------
    def _fail_running(self, t: TaskInstance, worker: "Worker") -> None:
        """The running task faulted transiently (TASK_FAIL event).

        The partially-executed work still occupied the worker (busy
        time), but nothing else of the execution survives: the body was
        never run, no writes reached the directory, and no duration is
        reported to the scheduler — profile tables stay uncorrupted.
        Neither a speculative copy (the requeue withdraws it: the
        original is still in flight) nor a primary with a live copy (the
        copy carries the task) retries, so their budget is spared; the
        worker's streak is charged either way.
        """
        rt = self.rt
        self.watchdog.disarm(t)
        rt._stop(t, worker, "fault", t.attempts + 1)
        self._charge_fault(
            t, worker,
            will_retry=t.speculative_of is None and t.uid not in self._spec_shadow,
        )
        self._requeue(t, worker)
        rt._try_start(worker)

    def _charge_fault(
        self, t: TaskInstance, worker: "Worker", *, will_retry: bool = True
    ) -> None:
        """Account one transient fault of ``t`` on ``worker``.

        Burns one unit of the task's retry budget, records the failed
        (version, worker) pair for alternate-pair preference, and may
        quarantine the worker (draining its queue).  Raises
        :class:`TaskRetryExceededError` when the budget is exhausted.
        ``will_retry=False`` charges the worker streak but not the
        task's retry budget.
        """
        assert t.chosen_version is not None
        self.stats.task_faults += 1
        t.failed_pairs.add((t.chosen_version.name, worker.name))
        if will_retry:
            t.attempts += 1
            if t.attempts > self.policy.max_task_retries:
                raise TaskRetryExceededError(
                    f"task {t.label!r} faulted {t.attempts} times "
                    f"(retry budget {self.policy.max_task_retries})"
                )
            self.stats.retries += 1
        self._strike(worker)

    def _strike(self, worker: "Worker") -> None:
        """Count one strike against ``worker``: its fault streak and
        cumulative fault count grow, and a streak reaching the threshold
        quarantines it."""
        self._transient[worker.name] = self._transient.get(worker.name, 0) + 1
        self._worker_faults[worker.name] = self._worker_faults.get(worker.name, 0) + 1
        if (
            worker.alive
            and worker.quarantined_until is None
            and self._transient[worker.name] >= self.policy.quarantine_threshold
        ):
            self._quarantine(worker)

    def _requeue(self, t: TaskInstance, worker: "Worker") -> None:
        """Pull a dispatched-but-unfinished task back to the ready pool."""
        if self._original_of(t) is not None:
            # a speculative copy never re-enters the pool: losing its
            # worker (death, quarantine drain) just cancels the race
            self._cancel_speculation(t)
            return
        rt = self.rt
        rt._xfer_ready.pop(t.uid, None)
        rt._unpin(t, worker.space)
        rt.scheduler.task_requeued(t, worker)
        if t.uid in self._spec_shadow:
            # a primary with a live speculative copy is parked, not
            # retried: the copy carries the task to completion
            t.state = TaskState.READY
            return
        self._retry(t, worker)

    def _retry(self, t: TaskInstance, worker: "Worker") -> None:
        """Return a task that left ``worker`` to the ready pool."""
        rt = self.rt
        now = rt.engine.now
        rt.trace.add(
            now, now, worker.name, "retry", t.name,
            meta=(rt._local_ids[t.uid], t.attempts),
        )
        t.chosen_version = None
        t.chosen_worker = None
        rt._mark_ready(t)

    # ------------------------------------------------------------------
    # Straggler detection and speculative re-execution
    # ------------------------------------------------------------------
    def _original_of(self, t: TaskInstance) -> Optional[TaskInstance]:
        """The original of ``t`` if ``t`` is its live speculative copy."""
        orig = t.speculative_of
        if orig is None or self._spec_shadow.get(orig) is not t:
            return None
        return self.rt.graph.task(orig)

    def on_straggler(self, t: TaskInstance, worker: "Worker") -> None:
        """``t``'s deadline expired while still running on ``worker``.

        Prefers launching a speculative copy on the best alternate
        (version, worker) pair; with no pair (or no budget) the
        straggling execution is aborted and retried like a transient
        fault.  A copy that overran is withdrawn and its original, if
        still running, aborted.  Either way the ``straggler`` trace
        record is followed by a ``speculate`` or ``retry`` record
        (SAN-T007).
        """
        rt = self.rt
        assert rt is not None and t.chosen_version is not None
        now = rt.engine.now
        self.stats.straggler_detected += 1
        rt.trace.add(
            now, now, worker.name, "straggler", t.chosen_version.name,
            meta=(rt._local_ids[t.uid],),
        )
        primary = self._original_of(t)
        if primary is not None:
            self._cancel_speculation(t)
            loser = rt._worker_of(primary)
            if loser is not None and loser.current is primary:
                self._abort_straggler(primary, loser)
            return
        pair = self._choose_speculation_pair(t, worker)
        if (
            pair is not None
            and len(self._spec_shadow) < self.policy.max_concurrent_speculations
            and self._spec_count.get(t.uid, 0) < self.policy.max_speculations_per_task
        ):
            version, target = pair
            self._spec_count[t.uid] = self._spec_count.get(t.uid, 0) + 1
            self.stats.speculations_launched += 1
            rt.trace.add(
                now, now, target.name, "speculate", version.name,
                meta=(rt._local_ids[t.uid],),
            )
            self._launch_speculation(t, target, version)
            return
        self._abort_straggler(t, worker)

    def _choose_speculation_pair(
        self, t: TaskInstance, worker: "Worker"
    ) -> Optional[tuple]:
        """Best (version, worker) pair for a speculative copy of ``t``.

        Candidates are the workers the scheduler lets a copy run on
        (:meth:`~repro.schedulers.base.Scheduler.speculation_workers`;
        on a cluster, the straggler's own node).  The straggling worker
        itself is excluded (it is serial — a copy queued behind a hung
        execution would never start), as are dead and quarantined
        workers and every pair the task already faulted on.  Among the
        rest, minimise estimated-busy-time + version mean (the
        earliest-executor rule), falling back to queue load for
        schedulers without estimates.  Both terms come from the
        scheduler that places work on the candidate worker: on a
        cluster, the busy estimate and the profile table of its node.
        """
        rt = self.rt
        assert rt is not None and t.chosen_version is not None
        scheduler = rt.scheduler
        now = rt.engine.now
        # every candidate shares the straggler's node, so its table
        table = scheduler.profile_table(worker)
        group = table.group(t.name, t.data_bytes) if table is not None else None
        best: Optional[tuple] = None
        best_pair: Optional[tuple] = None
        for version in t.definition.versions:
            mean = group.mean_time(version.name) if group is not None else None
            for w in scheduler.speculation_workers(version, worker):
                if w is worker or not w.available(now):
                    continue
                if (version.name, w.name) in t.failed_pairs:
                    continue
                busy = scheduler.estimated_busy_time(w)
                if busy is None:
                    busy = float(w.load())
                key = (busy + (mean if mean is not None else 0.0), w.name, version.name)
                if best is None or key < best:
                    best = key
                    best_pair = (version, w)
        return best_pair

    def _launch_speculation(
        self, t: TaskInstance, worker: "Worker", version: TaskVersion
    ) -> None:
        """Duplicate a straggling running task on an alternate pair.

        The copy is a real :class:`TaskInstance` sharing the original's
        accesses/arguments (so transfers, pinning and coherence use the
        ordinary machinery) but it never enters the dependence graph:
        whichever execution finishes first retires the *original* in
        dependence order, and the loser is cancelled.  The copy gets a
        priority bump so it jumps ahead of queued work — a speculation
        stuck behind a backlog would defeat its purpose.
        """
        rt = self.rt
        shadow = TaskInstance(
            t.definition,
            t.accesses,
            params=t.params,
            args=t.args,
            kwargs=t.kwargs,
            priority=t.priority + 1,
            label=f"{t.label}~spec",
        )
        shadow.uid = next(rt._uid_alloc)  # run-local, like submitted tasks
        shadow.speculative_of = t.uid
        shadow.attempts = t.attempts
        shadow.failed_pairs = t.failed_pairs  # shared avoid-set, by design
        shadow.submit_time = t.submit_time
        shadow.state = TaskState.READY
        shadow.ready_time = rt.engine.now
        # trace records of the copy carry the original's run-local id
        rt._local_ids[shadow.uid] = rt._local_ids[t.uid]
        self._spec_shadow[t.uid] = shadow
        rt.scheduler.task_speculated(shadow, worker, version)
        rt.dispatch(shadow, worker, version)

    def _abort_straggler(self, t: TaskInstance, worker: "Worker") -> None:
        """Cancel a straggling execution and retry it elsewhere.

        The no-speculation recovery path (no alternate pair, or the
        speculation budget is spent): the burned time stays on the
        worker, and the retry budget and quarantine streak are charged
        exactly as for a transient fault.  The expired deadline was the
        execution's only armed one.
        """
        rt = self.rt
        rt._stop(t, worker, "aborted")
        self._charge_fault(t, worker)
        self._requeue(t, worker)
        rt._try_start(worker)

    def _cancel_speculation(self, shadow: TaskInstance) -> None:
        """Withdraw a speculative copy (queued or running) for good.

        Called when the original finishes first, when the copy faults,
        or when the copy's worker is lost.  A withdrawn copy never
        re-enters any pool; its partial execution time (if it started)
        stays on the worker as busy time under a ``spec-abort`` record,
        while a copy still waiting in a queue burned no worker time and
        leaves only a non-busy ``spec-drop`` point record.  A parked
        original (it faulted or lost its worker) returns to the pool.
        """
        rt = self.rt
        # only a live copy is withdrawn
        assert self._spec_shadow.get(shadow.speculative_of) is shadow
        del self._spec_shadow[shadow.speculative_of]
        self.watchdog.disarm(shadow)
        w = rt._worker_of(shadow)
        if w is not None:
            if w.current is shadow:
                rt._stop(shadow, w, "spec-abort")
            else:
                if shadow in w.queue:
                    w.queue.remove(shadow)
                now = rt.engine.now
                rt.trace.add(
                    now, now, w.name, "spec-drop", shadow.chosen_version.name,
                    meta=(rt._local_ids[shadow.uid],),
                )
            rt._xfer_ready.pop(shadow.uid, None)
            rt._unpin(shadow, w.space)
            rt.scheduler.task_requeued(shadow, w)
        shadow.state = TaskState.FINISHED  # retired, never re-dispatched
        self.stats.speculations_wasted += 1
        original = rt.graph.task(shadow.speculative_of)
        if original.state is TaskState.READY:
            self._retry(original, rt._worker_of(original))
        if w is not None:
            rt._try_start(w)

    # ------------------------------------------------------------------
    # Observed fault rates (fault-aware cost estimation)
    # ------------------------------------------------------------------
    def worker_fault_rate(self, worker_name: str) -> float:
        """Fraction of this worker's task starts that faulted transiently.

        Derived from the cumulative fault/completion counters; 0.0 with
        no history, so schedulers may consult it unconditionally.
        """
        faults = self._worker_faults.get(worker_name, 0)
        completions = self._worker_completions.get(worker_name, 0)
        attempts = faults + completions
        return faults / attempts if attempts else 0.0

    def fault_rates(self) -> dict[str, float]:
        """Observed fault rate per worker with any history."""
        names = set(self._worker_faults) | set(self._worker_completions)
        return {n: self.worker_fault_rate(n) for n in sorted(names)}

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, worker: "Worker") -> None:
        rt = self.rt
        now = rt.engine.now
        repeat = self._quarantine_count.get(worker.name, 0)
        cooldown = self.policy.quarantine_cooldown * (
            self.policy.quarantine_backoff ** repeat
        )
        self._quarantine_count[worker.name] = repeat + 1
        until = worker.quarantined_until = now + cooldown
        self.stats.quarantines += 1
        rt.trace.add(now, now, worker.name, "quarantine", f"cooldown={cooldown:.6g}")
        self.stats.tasks_redispatched += self._drain_worker(worker)
        rt.engine.schedule(
            until,
            lambda: self._readmit(worker, until),
            kind=EventKind.RUNTIME,
            label=f"readmit {worker.name}",
        )

    def _readmit(self, worker: "Worker", until: float) -> None:
        """End the quarantine that was to last ``until``.

        A quarantine that already ended — its worker died, or its node
        crashed and rejoined (possibly to be quarantined afresh) — is
        left alone: the event belongs to that quarantine only.
        """
        if worker.quarantined_until != until:
            return
        worker.quarantined_until = None
        # probation: one more fault re-quarantines immediately, while one
        # clean completion (on_task_success) fully rehabilitates
        self._transient[worker.name] = max(0, self.policy.quarantine_threshold - 1)
        self.stats.readmissions += 1
        rt = self.rt
        rt.trace.add(rt.engine.now, rt.engine.now, worker.name, "readmit",
                     worker.device.name)
        rt.scheduler.worker_up(worker)

    # ------------------------------------------------------------------
    # Worker death
    # ------------------------------------------------------------------
    def _drain_worker(self, worker: "Worker") -> int:
        """Hand every queued task of ``worker`` back to the scheduler.

        Used when a worker dies or is quarantined.  Returns the number
        of tasks re-dispatched.
        """
        drained = list(worker.queue)
        worker.queue.clear()
        for t in drained:
            self._requeue(t, worker)
        return len(drained)

    def _worker_down(self, worker: "Worker") -> None:
        """Permanent worker failure (WORKER_DOWN event).

        The worker leaves every scheduler's candidate set for good; its
        running task is aborted (without burning the task's retry
        budget — the fault is the worker's, not the task's) and, with
        all queued tasks, re-dispatched to the survivors.  Profile data
        recorded from its past executions is retained untouched.
        """
        if not worker.alive:
            return
        rt = self.rt
        now = rt.engine.now
        worker.alive = False
        rt.liveness_changed()
        worker.quarantined_until = None
        rt.trace.add(now, now, worker.name, "worker-down", worker.device.name)
        running = worker.current
        if running is not None:
            self.watchdog.disarm(running)
            rt._stop(running, worker, "aborted")
            self._requeue(running, worker)
            self.stats.tasks_redispatched += 1
        self.stats.tasks_redispatched += self._drain_worker(worker)
        self.stats.worker_failures += 1
        rt.scheduler.worker_down(worker)

    # ------------------------------------------------------------------
    # Whole-node crash / rejoin (cluster fault tolerance)
    # ------------------------------------------------------------------
    def _node_down(self, node: int) -> None:
        """A whole node dies (NODE_DOWN event): workers, NIC and shard.

        Order matters: the directory's lost regions are put under
        recovery (and their recomputations scheduled) *before* the
        node's workers are torn down, so the requeue-and-redispatch of
        their tasks finds every lost region's recovery time in the
        directory and waits instead of trying to source a copy that no
        longer exists.  The scheduler's ``node_down`` hook runs before
        the worker deaths so the shard map is repaired by the time
        requeued tasks re-enter ``task_ready``.
        """
        rt = self.rt
        layout = rt.node_topology
        now = rt.engine.now
        spaces = {s for s, n in layout.node_of_space.items() if n == node}
        host = layout.host_of_node[node]
        rt.trace.add(now, now, f"node:{host}", "node-down", f"node{node}")
        self.stats.node_crashes += 1
        rt.transfer_engine.set_spaces_down(spaces)
        lost = rt.directory.invalidate_spaces(spaces)
        self.stats.regions_lost += len(lost)
        # each lost region's write lineage, in finish order: one entry
        # per write access of every task that wrote it
        lineage: dict[int, list[TaskInstance]] = {r.rid: [] for r in lost}
        for uid in rt._finish_order:
            t = rt.graph.task(uid)
            for acc in t.accesses:
                writers = lineage.get(acc.region.rid) if acc.writes else None
                if writers is not None:
                    writers.append(t)
        for region in lost:
            self._schedule_recompute(region, node, lineage[region.rid])
        rt.scheduler.node_down(node)
        for w in rt.workers:
            if layout.node_of_space.get(w.space) == node:
                self._worker_down(w)
        for s in sorted(spaces):
            rt.cache.purge_space(s)

    def _node_up(self, node: int) -> None:
        """A crashed node rejoins (NODE_UP event): cold caches, cold
        profile state, a new epoch — its workers become schedulable
        again but none of its pre-crash state survives."""
        rt = self.rt
        layout = rt.node_topology
        now = rt.engine.now
        spaces = {s for s, n in layout.node_of_space.items() if n == node}
        host = layout.host_of_node[node]
        rt.transfer_engine.set_spaces_up(spaces)
        self.stats.node_rejoins += 1
        for w in rt.workers:
            if layout.node_of_space.get(w.space) == node and not w.alive:
                w.alive = True
                w.quarantined_until = None
                w.current = None
                w._end_event = None
                w._wake_at = None
                rt.trace.add(now, now, w.name, "worker-up", w.device.name)
        rt.liveness_changed()
        rt.scheduler.node_up(node)
        rt.trace.add(now, now, f"node:{host}", "node-up", f"node{node}")

    def _schedule_recompute(
        self, region: "DataRegion", dead_node: int, writers: list[TaskInstance]
    ) -> None:
        """Schedule the recomputation of a region lost to a node crash.

        The simulated cost is the region's write lineage ``writers``
        replayed on the best surviving worker — every task that ever
        wrote it, at its nominal duration (accumulating writers must all
        be redone).  The recomputed copy materialises in the home space
        at the eta recorded in the directory; readers staged meanwhile
        wait for it.
        """
        rt = self.rt
        node_of_space = rt.node_topology.node_of_space
        now = rt.engine.now
        total = 0.0
        for t in writers:
            best: Optional[float] = None
            for w in rt.workers:
                if not w.alive:
                    continue
                if node_of_space.get(w.space) == dead_node:
                    continue  # this worker is about to die with the node
                for v in t.definition.versions:
                    if v.runs_on(w.device.kind):
                        d = w.device.duration(v.kernel, t.data_bytes, t.params)
                        if best is None or d < best:
                            best = d
            total += best if best is not None else 0.0
        eta = now + total
        rt.directory.note_recomputing(region, eta)
        self.stats.recompute_tasks += max(1, len(writers))
        rt.trace.add(
            now, eta, "recovery", "recompute", region.label,
            meta=(len(writers),),
        )
        rt.engine.schedule(
            eta,
            lambda: self._recompute_done(region),
            kind=EventKind.RETRY,
            label=f"recompute {region.label}",
        )

    def _recompute_done(self, region: "DataRegion") -> None:
        rt = self.rt
        eta = rt.directory.entry(region).recover_at
        if eta is None or eta > rt.engine.now + _EPS:
            return  # superseded by a fresh write (or rescheduled)
        rt.directory.note_recovered(region, HOST_SPACE)
