"""Recovery policy: retry budgets, worker quarantine, failure accounting.

The :class:`ResilienceManager` is the runtime's single point of contact
with the fault model.  The runtime *consults* it (does this task start
fault?  does this transfer attempt fail?) and *notifies* it (a task
faulted, a task succeeded, a worker died); the manager owns every
recovery decision:

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

Everything is driven by simulated time and deterministic counters, so
recovery behaviour is exactly reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.resilience.faults import FaultPlan
from repro.resilience.watchdog import TaskWatchdog
from repro.sim.engine import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.task import TaskInstance
    from repro.runtime.worker import Worker


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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "OmpSsRuntime") -> None:
        """Attach to a runtime; schedules the plan's worker deaths."""
        self.rt = runtime
        self._transient = {w.name: 0 for w in runtime.workers}
        if self.plan is None:
            return
        for wf in self.plan.worker_failures:
            worker = self._resolve_worker(wf.worker)
            runtime.engine.schedule(
                wf.at_time,
                lambda w=worker: runtime._worker_down(w),
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
                    lambda n=nc.node: runtime._node_down(n),
                    kind=EventKind.NODE_DOWN,
                    label=f"crash node {nc.node}",
                )
                if nc.rejoin_after is not None:
                    runtime.engine.schedule(
                        nc.at_time + nc.rejoin_after,
                        lambda n=nc.node: runtime._node_up(n),
                        kind=EventKind.NODE_UP,
                        label=f"rejoin node {nc.node}",
                    )

    def _resolve_worker(self, name: str) -> "Worker":
        assert self.rt is not None
        for w in self.rt.workers:
            if name in (w.name, w.device.name):
                return w
        raise KeyError(f"fault plan names unknown worker/device {name!r}")

    # ------------------------------------------------------------------
    # Consultation (runtime asks before committing to an outcome)
    # ------------------------------------------------------------------
    def task_fault_at_start(
        self, t: "TaskInstance", worker: "Worker"
    ) -> Optional[float]:
        """Fraction of the duration after which this start faults, or None."""
        if self.injector is None:
            return None
        assert t.chosen_version is not None
        return self.injector.task_fault(
            worker.name, worker.device.name, t.chosen_version.kernel
        )

    def task_hang_at_start(self, t: "TaskInstance", worker: "Worker") -> bool:
        """Whether this execution hangs (never fires a completion event)."""
        if self.injector is None:
            return False
        assert t.chosen_version is not None
        if self.injector.task_hang(
            worker.name, worker.device.name, t.chosen_version.kernel
        ):
            self.stats.hangs += 1
            return True
        return False

    def slowdown_factor(self, worker: "Worker") -> float:
        """Duration multiplier of a task starting on ``worker`` now."""
        if self.injector is None:
            return 1.0
        assert self.rt is not None
        return self.injector.slowdown_factor(
            worker.name, worker.device.name, self.rt.engine.now
        )

    def transfer_fault(self, src: str, dst: str) -> bool:
        if self.injector is None:
            return False
        if self.injector.transfer_fault(src, dst):
            self.stats.transfer_faults += 1
            return True
        return False

    def message_fault(self, src: str, dst: str, label: str):
        """Fault (if any) suffered by one message transmission."""
        if self.injector is None:
            return None
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
        if self.injector is None:
            return 1.0, 1.0
        return self.injector.link_factors(src, dst, now)

    @property
    def max_transfer_retries(self) -> int:
        return self.policy.transfer_max_retries

    def transfer_retry(self, attempt: int) -> float:
        """Account one transfer retry; returns its backoff delay."""
        self.stats.transfer_retries += 1
        return self.policy.transfer_backoff * (2.0 ** (attempt - 1))

    # ------------------------------------------------------------------
    # Notification (runtime reports what happened)
    # ------------------------------------------------------------------
    def on_task_fault(
        self, t: "TaskInstance", worker: "Worker", *, will_retry: bool = True
    ) -> None:
        """A running task faulted transiently on ``worker``.

        Burns one unit of the task's retry budget, records the failed
        (version, worker) pair for alternate-pair preference, and may
        quarantine the worker.  Raises when the budget is exhausted.

        ``will_retry=False`` accounts a fault that causes no retry — a
        faulted speculative copy, or a faulted primary whose live copy
        carries the task — charging the worker streak but not the task's
        retry budget.
        """
        assert self.rt is not None and t.chosen_version is not None
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

    def on_task_success(self, worker: "Worker") -> None:
        """A task completed cleanly: the worker's fault streak resets."""
        self._transient[worker.name] = 0
        self._worker_completions[worker.name] = (
            self._worker_completions.get(worker.name, 0) + 1
        )

    # ------------------------------------------------------------------
    # Straggler detection and speculative re-execution
    # ------------------------------------------------------------------
    def on_task_start(
        self, t: "TaskInstance", worker: "Worker", nominal: float
    ) -> None:
        """An execution began; arm its adaptive deadline if enabled.

        Speculative copies are never watched themselves (no recursive
        speculation): the primary's progress is what matters, and a hung
        copy alongside a hung primary surfaces via the progress watchdog.
        """
        if not self.policy.speculate or t.speculative_of is not None:
            return
        self.watchdog.arm(t, worker, nominal)

    def on_task_stop(self, t: "TaskInstance") -> None:
        """An execution ended (any way); its deadline is disarmed."""
        self.watchdog.disarm(t)

    def on_straggler(self, t: "TaskInstance", worker: "Worker") -> None:
        """``t``'s deadline expired while still running on ``worker``.

        Prefers launching a speculative copy on the best alternate
        (version, worker) pair; with no pair (or no budget) the
        straggling execution is aborted and retried like a transient
        fault.  Either way the ``straggler`` trace record is followed by
        a ``speculate`` or ``retry`` record (SAN-T007).
        """
        rt = self.rt
        assert rt is not None and t.chosen_version is not None
        now = rt.engine.now
        self.stats.straggler_detected += 1
        rt.trace.add(
            now, now, worker.name, "straggler", t.chosen_version.name,
            meta=(rt._local_ids[t.uid],),
        )
        pair = self._choose_speculation_pair(t, worker)
        if (
            pair is not None
            and len(rt._spec_shadow) < self.policy.max_concurrent_speculations
            and self._spec_count.get(t.uid, 0) < self.policy.max_speculations_per_task
        ):
            version, target = pair
            self._spec_count[t.uid] = self._spec_count.get(t.uid, 0) + 1
            self.stats.speculations_launched += 1
            rt.trace.add(
                now, now, target.name, "speculate", version.name,
                meta=(rt._local_ids[t.uid],),
            )
            rt._launch_speculation(t, target, version)
            return
        rt._abort_straggler(t, worker)

    def _choose_speculation_pair(
        self, t: "TaskInstance", worker: "Worker"
    ) -> Optional[tuple]:
        """Best (version, worker) pair for a speculative copy of ``t``.

        The straggling worker itself is excluded (it is serial — a copy
        queued behind a hung execution would never start), as are dead
        and quarantined workers and every pair the task already faulted
        on.  Among the rest, minimise estimated-busy-time + version mean
        (the earliest-executor rule), falling back to queue load for
        schedulers without estimates.
        """
        rt = self.rt
        assert rt is not None and t.chosen_version is not None
        scheduler = rt.scheduler
        now = rt.engine.now
        table = getattr(scheduler, "table", None)
        group = table.group(t.name, t.data_bytes) if table is not None else None
        est_busy = getattr(scheduler, "estimated_busy_time", None)
        best: Optional[tuple] = None
        best_pair: Optional[tuple] = None
        for version in t.definition.versions:
            mean = group.mean_time(version.name) if group is not None else None
            for w in scheduler.capable_workers(version):
                if w is worker or not w.available(now):
                    continue
                if (version.name, w.name) in t.failed_pairs:
                    continue
                busy = est_busy(w) if est_busy is not None else float(w.load())
                key = (busy + (mean if mean is not None else 0.0), w.name, version.name)
                if best is None or key < best:
                    best = key
                    best_pair = (version, w)
        return best_pair

    def on_speculation_won(
        self, primary: "TaskInstance", loser: Optional["Worker"]
    ) -> None:
        """The speculative copy finished first; the original lost.

        The abandoned execution is a strike against its worker, feeding
        the same consecutive-fault streak that drives quarantine — a
        worker that keeps losing races to its peers is degraded, whether
        or not it ever faults outright.
        """
        self.stats.speculations_won += 1
        if loser is not None:
            self._strike(loser)

    def on_speculation_wasted(self, primary: "TaskInstance") -> None:
        """The speculative copy was withdrawn (original finished first,
        the copy faulted, or its worker was lost)."""
        self.stats.speculations_wasted += 1

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

    def on_worker_down(self, worker: "Worker", redispatched: int) -> None:
        self.stats.worker_failures += 1
        self.stats.tasks_redispatched += redispatched

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, worker: "Worker") -> None:
        rt = self.rt
        assert rt is not None
        now = rt.engine.now
        repeat = self._quarantine_count.get(worker.name, 0)
        cooldown = self.policy.quarantine_cooldown * (
            self.policy.quarantine_backoff ** repeat
        )
        self._quarantine_count[worker.name] = repeat + 1
        worker.quarantined_until = now + cooldown
        self.stats.quarantines += 1
        rt.trace.add(now, now, worker.name, "quarantine", f"cooldown={cooldown:.6g}")
        self.stats.tasks_redispatched += rt._drain_worker(worker)
        rt.engine.schedule(
            now + cooldown,
            lambda w=worker: self._readmit(w),
            kind=EventKind.RUNTIME,
            label=f"readmit {worker.name}",
        )

    def _readmit(self, worker: "Worker") -> None:
        worker.quarantined_until = None
        if not worker.alive:  # died while quarantined; stays out for good
            return
        # probation: one more fault re-quarantines immediately, while one
        # clean completion (on_task_success) fully rehabilitates
        self._transient[worker.name] = max(0, self.policy.quarantine_threshold - 1)
        self.stats.readmissions += 1
        rt = self.rt
        assert rt is not None
        rt.trace.add(rt.engine.now, rt.engine.now, worker.name, "readmit",
                     worker.device.name)
        rt.scheduler.worker_up(worker)
