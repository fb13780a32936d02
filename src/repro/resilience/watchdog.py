"""Straggler and livelock detection: adaptive deadlines + progress watchdog.

The versioning scheduler continuously learns per-version execution-time
profiles (§IV-B).  This module closes the loop from those profiles back
into execution *supervision*: if the scheduler knows how long a version
usually takes — and, since variance tracking, how much that varies — it
also knows when a running execution has taken implausibly long.

Two watchdogs:

* :class:`TaskWatchdog` — per-task adaptive deadlines.  When a task
  starts, a deadline event is armed at

      ``start + max(floor, grace·mean + k·sigma)``

  using the learned (mean, sigma) of the chosen version at the task's
  size group.  While a group is still learning (or has too few samples
  for a variance), the deadline falls back to a *cold-start multiplier*
  of the best available estimate — the learned mean if one exists, else
  the device cost model's nominal duration.  On expiry the watchdog
  emits a ``straggler`` trace record and hands the task to the
  :class:`~repro.resilience.recovery.ResilienceManager`'s recovery path
  (speculative re-execution, or cancel-and-retry when no alternate
  (version, worker) pair is available).

* :class:`ProgressWatchdog` — global livelock/deadlock detection.  A
  recurring event checks every ``horizon`` simulated seconds whether any
  task completed; after ``stall_limit`` consecutive horizons with
  unfinished tasks and no completions, the run fails with a
  :class:`ProgressStallError` carrying a diagnostic dump of every
  worker, instead of spinning (or hanging the host process) forever.

Both piggyback on the simulation's own event loop, so detection times
are deterministic and replayable like everything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Event, EventKind, RecurringEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.recovery import RecoveryPolicy, ResilienceManager
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.task import TaskInstance
    from repro.runtime.worker import Worker


class ProgressStallError(RuntimeError):
    """The run made no progress for too long while tasks were pending."""

    def __init__(self, message: str, dump: str) -> None:
        super().__init__(f"{message}\n{dump}")
        self.dump = dump


# ----------------------------------------------------------------------
# Per-task adaptive deadlines
# ----------------------------------------------------------------------
class TaskWatchdog:
    """Arms one deadline event per running task, from learned profiles.

    Owned by the :class:`ResilienceManager`, which arms a deadline at
    each start and disarms it when the execution ends; the watchdog
    owns the deadline arithmetic and the pending events.  ``armed_log``
    keeps ``(label, deadline, source)`` tuples for tests and
    diagnostics — ``source`` is ``"profile"`` when
    the deadline came from ``mean + k·sigma`` of a reliable profile and
    ``"cold"`` when the cold-start multiplier was used.
    """

    def __init__(self, manager: "ResilienceManager") -> None:
        self.manager = manager
        self._events: dict[int, Event] = {}
        #: (task label, armed deadline in seconds, "profile" | "cold")
        self.armed_log: list[tuple[str, float, str]] = []

    @property
    def policy(self) -> "RecoveryPolicy":
        return self.manager.policy

    @property
    def rt(self) -> Optional["OmpSsRuntime"]:
        return self.manager.rt

    # ------------------------------------------------------------------
    def deadline_for(
        self, t: "TaskInstance", worker: "Worker", nominal: float
    ) -> tuple[float, str]:
        """The deadline (seconds after start) for one execution of ``t``
        on ``worker``.

        Returns ``(deadline, source)``.  The profile comes from the
        table that times executions on ``worker`` (on a cluster, its
        node's).  ``nominal`` is the runtime's own duration estimate
        (device cost model), the fallback of last resort when no
        profile exists at all, and the only base of a speculative
        copy's deadline.
        """
        policy = self.policy
        mean: Optional[float] = None
        sigma: Optional[float] = None
        samples = 0
        table = self.rt.scheduler.profile_table(worker) if self.rt else None
        # a copy gets the cold deadline: a profile one would also abort
        # slow (not hung) copies and charge their originals' retries
        if table is not None and t.chosen_version is not None and t.speculative_of is None:
            profile = table.group(t.name, t.data_bytes).profile(t.chosen_version.name)
            mean = profile.mean_time
            sigma = profile.stddev
            samples = profile.executions
        if mean is None:
            return max(policy.deadline_floor, policy.cold_multiplier * nominal), "cold"
        if sigma is None or samples < policy.min_deadline_samples:
            return max(policy.deadline_floor, policy.cold_multiplier * mean), "cold"
        deadline = policy.deadline_grace * mean + policy.deadline_k * sigma
        return max(policy.deadline_floor, deadline), "profile"

    # ------------------------------------------------------------------
    def arm(self, t: "TaskInstance", worker: "Worker", nominal: float) -> None:
        """Schedule the deadline for an execution that just started."""
        rt = self.rt
        assert rt is not None
        deadline, source = self.deadline_for(t, worker, nominal)
        self.armed_log.append((t.label, deadline, source))
        self._events[t.uid] = rt.engine.schedule(
            rt.engine.now + deadline,
            lambda: self._expired(t, worker),
            kind=EventKind.WATCHDOG,
            label=f"deadline {t.label}",
        )

    def disarm(self, t: "TaskInstance") -> None:
        ev = self._events.pop(t.uid, None)
        if ev is not None:
            ev.cancel()

    # ------------------------------------------------------------------
    def _expired(self, t: "TaskInstance", worker: "Worker") -> None:
        self._events.pop(t.uid, None)
        # stale deadline: the execution already ended (or the worker was
        # repurposed) between arming and expiry
        if worker.current is not t:
            return
        self.manager.on_straggler(t, worker)


# ----------------------------------------------------------------------
# Global progress watchdog
# ----------------------------------------------------------------------
class ProgressWatchdog:
    """Fails the run loudly when nothing completes for too long.

    A hang with no other pending events already surfaces through the
    runtime's empty-queue deadlock detection; but any recurring service
    (checkpointing, this watchdog itself) keeps the queue non-empty, and
    a hang alongside an otherwise-busy machine stalls only *part* of the
    DAG.  The progress watchdog covers both: after ``stall_limit``
    consecutive horizons with unfinished tasks and zero completions, it
    raises :class:`ProgressStallError` with a per-worker diagnostic dump.
    """

    def __init__(
        self,
        runtime: "OmpSsRuntime",
        horizon: float,
        *,
        stall_limit: int = 3,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"progress horizon must be positive, got {horizon}")
        if stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1, got {stall_limit}")
        self.rt = runtime
        self.horizon = horizon
        self.stall_limit = stall_limit
        self.stalled_horizons = 0
        self._last_completed = runtime._tasks_completed
        self._event: RecurringEvent = runtime.engine.schedule_every(
            horizon,
            self._tick,
            kind=EventKind.WATCHDOG,
            label="progress-watchdog",
        )

    @property
    def active(self) -> bool:
        return self._event.active

    def cancel(self) -> None:
        self._event.cancel()

    # ------------------------------------------------------------------
    def _tick(self) -> object:
        rt = self.rt
        completed = rt._tasks_completed
        if completed != self._last_completed:
            self._last_completed = completed
            self.stalled_horizons = 0
            return None
        if not rt.graph.unfinished:
            return False  # run drained; retire the series
        self.stalled_horizons += 1
        if self.stalled_horizons < self.stall_limit:
            return None
        raise ProgressStallError(
            f"no task completed for {self.stalled_horizons} consecutive "
            f"progress horizons ({self.stalled_horizons * self.horizon:.6g}s "
            f"simulated) with {rt.graph.unfinished} task(s) unfinished",
            self.dump(),
        )

    # ------------------------------------------------------------------
    def dump(self) -> str:
        """Human-readable snapshot of where the run is stuck."""
        rt = self.rt
        lines = [
            f"progress watchdog dump at t={rt.engine.now:.6g}s:",
            f"  tasks: {rt._tasks_completed} completed, "
            f"{rt.graph.unfinished} unfinished, "
            f"{rt._tasks_submitted} submitted",
            f"  events: {rt.engine.pending} pending, "
            f"{rt.engine.events_processed} processed",
        ]
        pool = getattr(rt.scheduler, "pool_size", None)
        if pool is not None:
            lines.append(f"  scheduler pool: {pool()} ready task(s) undispatched")
        for w in rt.workers:
            state = "alive"
            if not w.alive:
                state = "dead"
            elif w.quarantined_until is not None:
                state = f"quarantined until {w.quarantined_until:.6g}"
            running = "-"
            if w.current is not None:
                running = (
                    f"{w.current.label} (version "
                    f"{w.current.chosen_version.name if w.current.chosen_version else '?'}, "
                    f"running since {w.current.start_time:.6g}s)"
                )
            lines.append(
                f"  {w.name}: {state}, running={running}, queued={len(w.queue)}"
            )
        return "\n".join(lines)


__all__ = ["ProgressStallError", "ProgressWatchdog", "TaskWatchdog"]
