"""Scheduler plug-in interface.

A scheduler receives ready tasks from the runtime and must dispatch each
one — choose a worker and a task version — by calling
:meth:`~repro.runtime.runtime.OmpSsRuntime.dispatch`.  After every task
execution the runtime reports the measured duration back through
:meth:`Scheduler.task_finished`; only the versioning scheduler uses that
feedback, but the hook is part of the generic interface.

``supports_versions`` mirrors the paper's footnote 1: the pre-existing
OmpSs schedulers ignore the ``implements`` clause and always run the
main implementation.  The runtime refuses to start a hybrid application
(one whose main implementation cannot run anywhere on the machine) under
such a scheduler — the same failure a real OmpSs run would hit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.profile import VersionProfileTable
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.worker import Worker


class Scheduler:
    """Base class for scheduling policies."""

    #: Plug-in name used by the registry / environment variable.
    name: str = "base"

    #: Whether the policy understands ``implements`` versions.
    supports_versions: bool = False

    def __init__(self) -> None:
        self.rt: Optional["OmpSsRuntime"] = None
        # device-kind bitmask -> capable workers; the worker set is fixed
        # for a run, so this is a pure cache (hot path of every dispatch).
        # Keyed by the version's kind mask, not the kind tuple: hashing a
        # tuple of enum members calls Enum.__hash__ per element, which is
        # a Python-level function and dominated dispatch profiles.
        self._capable_cache: dict[int, list["Worker"]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "OmpSsRuntime") -> None:
        """Attach to a runtime before the first task is submitted."""
        self.rt = runtime
        self._capable_cache.clear()

    @property
    def workers(self) -> list["Worker"]:
        assert self.rt is not None, "scheduler not bound to a runtime"
        return self.rt.workers

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def task_submitted(self, t: TaskInstance) -> None:
        """A task entered the dependence graph (not necessarily ready).

        Called once per task in submission order, after its dependence
        edges are recorded but before any :meth:`task_ready`.  The
        cluster scheduler assigns shards here; the default is a no-op.
        """

    def task_ready(self, t: TaskInstance) -> None:
        """A task's dependences are satisfied; dispatch it now."""
        raise NotImplementedError

    def steal_ready_task(
        self, accept: Callable[[TaskInstance], bool]
    ) -> Optional[TaskInstance]:
        """Give up one undispatched ready task for work stealing.

        ``accept`` filters tasks the thief can actually run.  Policies
        that hold ready tasks in a pool (versioning) override this to
        pop the youngest acceptable task; policies that dispatch
        immediately have nothing to steal and return ``None``.
        """
        return None

    def task_started(self, t: TaskInstance, worker: "Worker") -> None:
        """A dispatched task left the queue and began executing."""

    def task_finished(self, t: TaskInstance, worker: "Worker", measured: float) -> None:
        """Execution feedback (measured duration in seconds)."""

    # ------------------------------------------------------------------
    # Resilience hooks (fault recovery; defaults are safe no-ops)
    # ------------------------------------------------------------------
    def task_speculated(
        self, t: TaskInstance, worker: "Worker", version: TaskVersion
    ) -> None:
        """A speculative copy ``t`` of a straggling task is about to be
        dispatched to ``worker`` (straggler recovery).  The copy reports
        back through :meth:`task_finished` if it wins the race or
        :meth:`task_requeued` if it is withdrawn, so policies that keep
        per-dispatch bookkeeping should mirror their dispatch-side
        accounting here."""

    def task_requeued(self, t: TaskInstance, worker: "Worker") -> None:
        """A dispatched task was pulled back before finishing (fault
        recovery).  Called with ``t.chosen_version`` still set; the task
        re-enters via :meth:`task_ready` afterwards.  Policies that keep
        per-dispatch bookkeeping (busy estimates, assignment counts)
        must undo it here."""

    def worker_down(self, worker: "Worker") -> None:
        """``worker`` failed permanently.  :meth:`capable_workers`
        already excludes dead workers; override to drop extra state."""

    def worker_up(self, worker: "Worker") -> None:
        """A quarantined worker was re-admitted; pool-based policies
        should re-pump so waiting tasks can use it."""

    def profile_table(self, worker: "Worker") -> Optional["VersionProfileTable"]:
        """The learned profile table that times executions on
        ``worker`` (the straggler watchdog's deadline source), or None
        for a policy that learns none."""
        return getattr(self, "table", None)

    def speculation_workers(
        self, version: TaskVersion, straggler: "Worker"
    ) -> list["Worker"]:
        """Workers a speculative copy of a task straggling on
        ``straggler`` may run ``version`` on: every live capable worker
        unless a policy confines its work."""
        return self.capable_workers(version)

    def estimated_busy_time(self, worker: "Worker") -> Optional[float]:
        """Estimated seconds of work queued on ``worker`` (the busy term
        of the earliest-executor rule, read when placing a straggler's
        copy), or None for a policy that keeps no estimate."""
        return None

    # ------------------------------------------------------------------
    # Helpers shared by the non-versioning policies
    # ------------------------------------------------------------------
    def main_version(self, definition: TaskDefinition) -> TaskVersion:
        return definition.main_version

    def capable_workers(self, version: TaskVersion) -> list["Worker"]:
        """Live workers whose device can run ``version`` (deterministic
        order).  Permanently failed workers are excluded; quarantined
        ones are not (quarantine is temporary — use :meth:`dispatchable`
        at dispatch time)."""
        key: int = version._kind_mask  # type: ignore[attr-defined]
        cached = self._capable_cache.get(key)
        if cached is None:
            cached = [w for w in self.workers if w.device.kind.mask & key]
            self._capable_cache[key] = cached
        for w in cached:
            if not w.alive:
                return [x for x in cached if x.alive]
        return cached

    def dispatchable(self, worker: "Worker") -> bool:
        """Whether ``worker`` accepts dispatches right now (alive and
        not quarantined at the current simulated time)."""
        assert self.rt is not None, "scheduler not bound to a runtime"
        return worker.available(self.rt.engine.now)

    def require_capable_workers(self, version: TaskVersion) -> list["Worker"]:
        ws = self.capable_workers(version)
        if not ws:
            kinds = ",".join(k.value for k in version.device_kinds)
            raise RuntimeError(
                f"no worker on this machine can run version {version.name!r} "
                f"(device clause: {kinds}); scheduler {self.name!r} only runs main "
                "implementations" if not self.supports_versions else
                f"no worker can run version {version.name!r} (device clause: {kinds})"
            )
        return ws

    def least_loaded(self, workers: list["Worker"]) -> "Worker":
        """Fewest queued tasks; ties broken by worker name (deterministic)."""
        return min(workers, key=lambda w: (w.load(), w.name))
