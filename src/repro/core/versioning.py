"""The versioning scheduler — the paper's contribution (§IV-B).

Policy summary:

* **Learning phase** (per task, per data-set-size group): "picking task
  versions from ready tasks in a Round-Robin fashion and distributing
  them among OmpSs workers.  ...  We force the scheduler to run each
  task version at least λ times."  Each version is dispatched until λ
  runs are underway; the group then graduates as soon as all versions
  have λ *recorded* executions.

* **Reliable-information phase**: each ready task goes to its
  **earliest executor** — over all (version, worker) pairs, minimise
  *worker estimated busy time* + *version mean execution time*.  The
  fastest executor usually wins, but a busy fastest executor loses to an
  idle slower one, exactly the Figure 5 scenario.

* The scheduler never stops learning: every completed task updates its
  version's running mean, and an unseen data-set size sends that group
  back to the learning phase.

Dispatch discipline
-------------------
Ready tasks enter the scheduler's pool and are *pumped* into per-worker
queues only while a worker has queue room (``queue_depth``, default 2 =
one running + one prefetching).  This bounded look-ahead mirrors how the
Nanos++ workers pick work and is what produces two emergent behaviours
the paper reports: "the SMP worker threads keep picking the SMP version
while the GPUs are busy", and "for the final part of the computation ...
only the GPUs run the fastest implementation to avoid losing
performance" — once the pool drains, the earliest executor of the few
remaining tasks is always a GPU.

Tunables (all exposed to the ablation benches): λ (``lam``), the
estimator kind (arithmetic mean / EWMA), the size-grouping strategy
(exact / relative range / fixed bins), ``queue_depth`` and an optional
warm-start profile table loaded from a hints file or profile store.

Warm-start policies
-------------------
``warm_start`` governs how much λ-credit preloaded (hints/store)
executions carry:

* ``trust`` — preloaded executions count fully toward λ: a group whose
  every version was preloaded with ≥ λ executions skips the learning
  phase outright,
* ``probation`` — preloaded credit is capped at ``λ - probation_lam``,
  so each preloaded version must still be re-validated by at least
  ``probation_lam`` live executions before the group graduates (a
  shortened learning phase),
* ``cold`` — hints are ignored entirely; full learning from scratch.

Fault-aware cost estimation
---------------------------
With ``fault_aware`` enabled the earliest-executor computation inflates
a worker's (busy time + mean) by ``1 / (1 - fault_rate)`` using the
observed transient-fault rate from the resilience counters: a
flaky-but-fast device is discounted before it faults again, because the
expected number of attempts per completed task there is ``1/(1-rate)``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.core.grouping import SizeGrouping, make_grouping
from repro.core.profile import SizeGroupProfile, VersionProfileTable
from repro.runtime.task import TaskInstance, TaskVersion
from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker

#: Default λ: "we force the scheduler to run each task version at least
#: λ times during the initial learning phase" — configurable by the user
#: (footnote 4); three runs is the value our benches default to.
DEFAULT_LAMBDA = 3

#: Default per-worker queue bound (running + prefetching).
DEFAULT_QUEUE_DEPTH = 2

#: Valid warm-start policies for preloaded profile entries.
WARM_START_POLICIES = ("trust", "probation", "cold")


class VersioningScheduler(Scheduler):
    name = "versioning"
    supports_versions = True

    def __init__(
        self,
        *,
        lam: int = DEFAULT_LAMBDA,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        estimator: str = "mean",
        estimator_options: Optional[dict] = None,
        grouping: "str | SizeGrouping" = "exact",
        grouping_options: Optional[dict] = None,
        hints: Optional[dict] = None,
        warm_start: str = "trust",
        probation_lam: int = 1,
        fault_aware: bool = False,
        fault_rate_cap: float = 0.9,
        reliable_queue_bound: Optional[int] = None,
    ) -> None:
        super().__init__()
        if lam < 1:
            raise ValueError("lam (λ) must be at least 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if reliable_queue_bound is not None and reliable_queue_bound < 1:
            raise ValueError("reliable_queue_bound must be at least 1")
        if warm_start not in WARM_START_POLICIES:
            raise ValueError(
                f"warm_start must be one of {WARM_START_POLICIES}, got {warm_start!r}"
            )
        if not 1 <= probation_lam <= lam:
            raise ValueError("probation_lam must be in [1, lam]")
        if not 0.0 <= fault_rate_cap < 1.0:
            raise ValueError("fault_rate_cap must be in [0, 1)")
        self.lam = lam
        self.queue_depth = queue_depth
        # When set, the reliable phase also gates dispatch on queue room
        # (late binding): tasks linger in the pool instead of sinking
        # into deep worker queues, which keeps them *stealable* — the
        # cluster scheduler's per-node instances run in this mode.
        self.reliable_queue_bound = reliable_queue_bound
        self.warm_start = warm_start
        self.probation_lam = probation_lam
        self.fault_aware = fault_aware
        self.fault_rate_cap = fault_rate_cap
        if isinstance(grouping, str):
            grouping = make_grouping(grouping, **(grouping_options or {}))
        elif grouping_options:
            raise ValueError("grouping_options only apply when grouping is a name")
        self.table = VersionProfileTable(
            grouping=grouping,
            estimator_kind=estimator,
            estimator_options=estimator_options,
        )
        self.preloaded_entries = 0
        if hints and warm_start != "cold":
            self.preloaded_entries = self.table.preload(hints)
        # ready tasks not yet placed in any worker queue (FIFO)
        self._pool: Deque[TaskInstance] = deque()
        # count of pooled tasks with a non-zero priority clause, kept in
        # step with every _pool mutation: _pump consults it per scan
        # instead of re-walking the pool
        self._prio_in_pool = 0
        self._pumping = False
        # set when a requeue frees room with no pump to follow: a parked
        # original or a withdrawn speculative copy leaves its worker but
        # never re-enters task_ready, so the next start pumps instead
        self._stale = False
        # (task name, size-group key) of every group that has left the
        # learning phase.  learning_credit never decreases (estimator
        # counts only grow, preloads happen only at construction) and
        # the runnable-version set only shrinks, so a group that left
        # learning never re-enters it: _choose skips in_learning_phase
        self._left_learning: set[tuple] = set()
        # task definition -> _runnable_versions(t), a function of worker
        # liveness only: the runtime clears it at every alive flip
        self._runnable: dict = {}
        # (task name, size-group key) -> that group of self.table
        self._groups: dict[tuple, SizeGroupProfile] = {}
        # pooled task uid -> its (task name, size-group key) and group,
        # resolved once in task_ready for every pump scan; popped when
        # the task leaves the pool (placement or steal)
        self._pooled: dict[int, tuple[tuple, SizeGroupProfile]] = {}
        # worker name -> estimated busy time (sum of estimates of queued
        # + running tasks, §IV-B "OmpSs worker estimated busy time")
        self._busy_est: dict[str, float] = {}
        # task uid -> the estimate added at dispatch (to subtract at
        # finish) and the task's group (to record into at finish)
        self._est_by_uid: dict[int, tuple[float, SizeGroupProfile]] = {}
        # the earliest-executor scan adds _placement_penalty only for a
        # subclass that prices placements (it is 0.0 here)
        self._penalized = (
            type(self)._placement_penalty is not VersioningScheduler._placement_penalty
        )
        # diagnostics for tests/benches
        self.learning_dispatches = 0
        self.reliable_dispatches = 0
        # per-(task name, size-group key) dispatch counters, consumed by
        # the trace sanitizer's λ-consistency check (SAN-T005)
        self.group_dispatches: dict[tuple, dict[str, int]] = {}
        # (task name, size-group key) -> simulated time of the group's
        # first reliable-phase dispatch — the per-group end of learning;
        # time_to_reliable_phase() aggregates these for the warm-start
        # benches
        self.group_reliable_at: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def bind(self, runtime) -> None:  # type: ignore[override]
        super().bind(runtime)
        self._busy_est = {w.name: 0.0 for w in runtime.workers}
        # a pooled scheduler rebinds to a fresh runtime: a run cut short
        # (wall deadline) leaves its tasks pooled and estimated, and the
        # new run's live workers may run versions the last run had lost.
        # Only the learned profile table carries over, less the last
        # run's dispatches that will never retire.
        self._pool.clear()
        self._pooled.clear()
        self._prio_in_pool = 0
        self._est_by_uid.clear()
        self._stale = False
        for group in self._groups.values():
            for profile in group.versions():
                profile.assigned = 0
        self._left_learning.clear()
        self._runnable.clear()
        runtime.liveness_caches.append(self._runnable)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and the Figure 5 bench)
    # ------------------------------------------------------------------
    def estimated_busy_time(self, worker: "Worker") -> float:
        """§IV-B: sum of estimated execution times of the worker's queue."""
        return self._busy_est[worker.name]

    def pool_size(self) -> int:
        return len(self._pool)

    def learning_credit(self, group: SizeGroupProfile, version_name: str) -> int:
        """Executions of ``version_name`` that count toward λ under this
        scheduler's warm-start policy.

        ``trust`` counts preloaded executions fully; ``probation`` caps
        their credit at ``λ - probation_lam`` so at least
        ``probation_lam`` live runs are still required; live executions
        always count in full.  (Under ``cold`` nothing was preloaded, so
        all three collapse to the raw execution count.)
        """
        p = group.profile(version_name)
        if p.preloaded <= 0 or self.warm_start != "probation":
            return p.executions
        return p.live_executions + min(p.preloaded, max(0, self.lam - self.probation_lam))

    def in_learning_phase(self, group: SizeGroupProfile, version_names: list[str]) -> bool:
        """True while any candidate version lacks λ credited executions."""
        return any(self.learning_credit(group, n) < self.lam for n in version_names)

    def time_to_reliable_phase(self) -> Optional[float]:
        """Simulated time at which the last size group seen so far left
        the learning phase (its first reliable dispatch), or ``None``
        when no group has graduated yet."""
        if not self.group_reliable_at:
            return None
        return max(self.group_reliable_at.values())

    def worker_fault_rate(self, worker: "Worker") -> float:
        """Observed transient-fault rate of ``worker`` (0 when the run
        has no resilience manager or no history)."""
        resilience = getattr(self.rt, "resilience", None)
        if resilience is None:
            return 0.0
        return resilience.worker_fault_rate(worker.name)

    def _has_room(self, worker: "Worker", bound: Optional[int] = None) -> bool:
        return worker.load() < (self.queue_depth if bound is None else bound)

    def _runnable_versions(self, t: TaskInstance) -> list[TaskVersion]:
        """Versions of ``t`` that at least one present worker can run."""
        out = [v for v in t.definition.versions if self.capable_workers(v)]
        if not out:
            raise RuntimeError(
                f"no worker on this machine can run any version of task {t.name!r}"
            )
        return out

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def task_ready(self, t: TaskInstance) -> None:
        gkey = (t.name, self.table.grouping.key(t.data_bytes))
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = self.table.group(t.name, t.data_bytes)
        self._pooled[t.uid] = (gkey, group)
        self._pool.append(t)
        if t.priority:
            self._prio_in_pool += 1
        self._pump()

    def task_started(self, t: TaskInstance, worker: "Worker") -> None:
        if self._stale:
            self._pump()

    def steal_ready_task(self, accept) -> Optional[TaskInstance]:
        """Yield the youngest acceptable pool task to a work thief.

        Stealing from the tail (LIFO for thieves, FIFO for the owner) is
        the classic Cilk discipline: the owner keeps the tasks whose
        inputs it is already staging, the thief takes the coldest work.
        """
        for i in range(len(self._pool) - 1, -1, -1):
            t = self._pool[i]
            if accept(t):
                del self._pool[i]
                del self._pooled[t.uid]
                if t.priority:
                    self._prio_in_pool -= 1
                return t
        return None

    def task_finished(self, t: TaskInstance, worker: "Worker", measured: float) -> None:
        placed = self._est_by_uid.pop(t.uid, None)
        if placed is None:
            est, group = 0.0, self.table.group(t.name, t.data_bytes)
        else:
            est, group = placed
        self._busy_est[worker.name] = max(0.0, self._busy_est[worker.name] - est)
        assert t.chosen_version is not None
        group.record(t.chosen_version.name, measured)
        self._pump()

    # ------------------------------------------------------------------
    # Resilience hooks
    # ------------------------------------------------------------------
    def task_speculated(
        self, t: TaskInstance, worker: "Worker", version: TaskVersion
    ) -> None:
        """Mirror dispatch bookkeeping for a speculative copy: its
        estimate joins the target worker's busy account and a pending
        learning assignment is noted, both undone symmetrically by
        ``task_finished`` (win) or ``task_requeued`` (withdrawal)."""
        group = self.table.group(t.name, t.data_bytes)
        est = group.mean_time(version.name)
        est_value = est if est is not None else 0.0
        self._busy_est[worker.name] += est_value
        self._est_by_uid[t.uid] = (est_value, group)
        group.note_assigned(version.name)

    def task_requeued(self, t: TaskInstance, worker: "Worker") -> None:
        """Undo the dispatch bookkeeping of a task pulled back by fault
        recovery: its busy-time estimate leaves the worker's account and
        its pending learning assignment is released — no duration is
        recorded, so the profile tables stay valid."""
        placed = self._est_by_uid.pop(t.uid, None)
        if placed is not None:
            est, group = placed
            self._busy_est[worker.name] = max(0.0, self._busy_est[worker.name] - est)
        if t.chosen_version is not None:
            if placed is None:
                group = self.table.group(t.name, t.data_bytes)
            group.note_unassigned(t.chosen_version.name)
        self._stale = True

    def worker_down(self, worker: "Worker") -> None:
        # per-task estimates were already released via task_requeued when
        # the runtime drained the queue; zero the account to kill any
        # floating-point residue (the worker never hosts work again)
        self._busy_est[worker.name] = 0.0

    def worker_up(self, worker: "Worker") -> None:
        self._pump()

    # ------------------------------------------------------------------
    # Dispatch pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Place pool tasks into worker queues while there is room.

        Runs on every hook that can let a placement succeed: a task
        became ready (a requeued task re-enters here too), a task
        finished, a worker came back.  A start pumps only when the
        scheduler is ``_stale``: the started task moves from its
        worker's queue to ``current``, which leaves every load, busy
        estimate, pool and profile table as it was.  Reentrancy guard: a
        dispatch runs runtime code that may call back into the
        scheduler.
        """
        if self._pumping:
            return
        assert self.rt is not None
        self._pumping = True
        self._stale = False
        try:
            bound = self.reliable_queue_bound
            pooled = self._pooled
            left = self._left_learning
            runnable = self._runnable
            while self._pool:
                placed = False
                # groups found unplaceable in this scan: skip their other
                # tasks (same candidates, same full workers)
                blocked: set = set()
                # room gate: with bounded reliable queues and no available
                # worker below the bound, no reliable placement can land,
                # so groups that left learning are blocked unscored (asked
                # once per scan, when the first such group comes up)
                room = None
                # scan by the priority clause first (stable FIFO within
                # equal priorities); zero-priority pools keep plain order
                # (the counter tracks _pool mutations, so this is O(1))
                if self._prio_in_pool:
                    scan = sorted(
                        enumerate(self._pool), key=lambda it: (-it[1].priority, it[0])
                    )
                else:
                    scan = enumerate(self._pool)
                for i, t in scan:
                    gkey, group = pooled[t.uid]
                    if gkey in blocked:
                        continue
                    # before the gate: a task no live worker can run
                    # must raise, not wait in the pool forever
                    versions = runnable.get(t.definition)
                    if versions is None:
                        versions = runnable[t.definition] = self._runnable_versions(t)
                    if bound is not None and gkey in left:
                        if room is None:
                            room = self._any_room(bound)
                        if not room:
                            blocked.add(gkey)
                            continue
                    placement = self._choose(t, versions, group, gkey)
                    if placement is None:
                        blocked.add(gkey)
                        continue
                    version, worker, learning = placement
                    del self._pool[i]
                    del pooled[t.uid]
                    if t.priority:
                        self._prio_in_pool -= 1
                    est = group.mean_time(version.name)
                    est_value = est if est is not None else 0.0
                    self._busy_est[worker.name] += est_value
                    self._est_by_uid[t.uid] = (est_value, group)
                    group.note_assigned(version.name)
                    counters = self.group_dispatches.setdefault(
                        gkey, {"learning": 0, "reliable": 0}
                    )
                    if learning:
                        self.learning_dispatches += 1
                        counters["learning"] += 1
                    else:
                        self.reliable_dispatches += 1
                        counters["reliable"] += 1
                        if gkey not in self.group_reliable_at:
                            self.group_reliable_at[gkey] = self.rt.engine.now
                    self.rt.dispatch(t, worker, version)
                    placed = True
                    break
                if not placed:
                    break
        finally:
            self._pumping = False

    def _any_room(self, bound: int) -> bool:
        """Whether some available worker of this scheduler is below
        ``bound`` — the only workers a room-gated placement can use."""
        assert self.rt is not None
        now = self.rt.engine.now
        return any(w.available(now) and w.load() < bound for w in self.workers)

    def _choose(
        self,
        t: TaskInstance,
        versions: list[TaskVersion],
        group: SizeGroupProfile,
        gkey: tuple,
    ) -> Optional[tuple[TaskVersion, "Worker", bool]]:
        """Pick (version, worker, is_learning) for ``t``, or None if no
        capable worker currently has queue room.  ``versions`` are its
        runnable versions and ``group`` its size group, keyed ``gkey``."""
        # version-fallback retry: a (version, worker) pair the task has
        # already faulted on is avoided while an alternative exists —
        # the paper's multi-version tables double as the degradation path
        avoid = frozenset(t.failed_pairs)

        if gkey not in self._left_learning and self.in_learning_phase(
            group, [v.name for v in versions]
        ):
            # λ-capped round-robin into workers with queue room.
            choice = self._learning_choice(t, versions, group)
            if choice is not None:
                return (*choice, True)
            # Every version already has λ runs underway but none recorded
            # yet: keep feeding workers that have room so nobody idles
            # while the slow λ-runs retire (estimates are still unknown,
            # so room-gating is the only sane throttle here).
            choice = self._earliest_executor(
                t, versions, group, allow_unknown=True, require_room=True, avoid=avoid
            )
            if choice is None and avoid:
                choice = self._earliest_executor(
                    t, versions, group, allow_unknown=True, require_room=True
                )
            if choice is not None:
                return (*choice, True)
            return None
        self._left_learning.add(gkey)
        # Reliable phase: the paper pushes at ready time into unbounded
        # per-worker queues (Figure 5 shows deep task lists); the busy
        # estimate, not queue room, is what steers placement.  With
        # ``reliable_queue_bound`` set the push is room-gated instead
        # (late binding; tasks wait in the pool and stay stealable).
        bounded = self.reliable_queue_bound is not None
        choice = self._earliest_executor(
            t, versions, group, allow_unknown=False, require_room=bounded,
            room_bound=self.reliable_queue_bound, avoid=avoid
        )
        if choice is None and avoid:
            # every viable pair already faulted for this task: fall back
            # to the plain earliest executor rather than deadlocking
            choice = self._earliest_executor(
                t, versions, group, allow_unknown=False, require_room=bounded,
                room_bound=self.reliable_queue_bound
            )
        if choice is None:
            return None
        return (*choice, False)

    def _learning_choice(
        self, t: TaskInstance, versions: list[TaskVersion], group: SizeGroupProfile
    ) -> Optional[tuple[TaskVersion, "Worker"]]:
        """Round-robin λ executions per version, least-booked worker first.

        A version stops receiving learning dispatches once λ runs are
        *underway* (recorded + pending), so a burst of ready tasks does
        not flood a slow version's worker before any feedback arrives.
        """
        order = [v.name for v in versions]
        pending_needed = [
            v
            for v in versions
            if self.learning_credit(group, v.name) + group.profile(v.name).assigned
            < self.lam
        ]
        if not pending_needed:
            return None
        # The λ runs are mandatory: queue them even on a busy worker —
        # waiting for queue room would starve a version whose device is
        # saturated (exactly the GPU potrf case in Cholesky).
        # A version whose every dispatchable worker already faulted this
        # task (or that has no dispatchable worker at all) yields to the
        # alternatives — retries prefer a fresh (version, worker) pair.
        def exhausted(v: TaskVersion) -> bool:
            return all(
                (v.name, w.name) in t.failed_pairs
                for w in self.capable_workers(v)
                if self.dispatchable(w)
            )

        chosen = min(
            pending_needed,
            key=lambda v: (
                exhausted(v),
                self.learning_credit(group, v.name) + group.profile(v.name).assigned,
                order.index(v.name),
            ),
        )
        if t.failed_pairs and exhausted(chosen):
            # every learning-eligible pair already faulted this task: let
            # the overflow path place it on a fresh pair instead
            return None
        candidates = [w for w in self.capable_workers(chosen) if self.dispatchable(w)]
        if not candidates:
            return None
        worker = min(
            candidates,
            key=lambda w: (
                (chosen.name, w.name) in t.failed_pairs,
                self.estimated_busy_time(w),
                w.load(),
                w.name,
            ),
        )
        return chosen, worker

    def _earliest_executor(
        self,
        t: TaskInstance,
        versions: list[TaskVersion],
        group: SizeGroupProfile,
        *,
        allow_unknown: bool,
        require_room: bool,
        room_bound: Optional[int] = None,
        avoid: frozenset = frozenset(),
    ) -> Optional[tuple[TaskVersion, "Worker"]]:
        """Minimise (estimated busy time + version mean time) over
        (version, worker) pairs — the §IV-B earliest-executor rule.

        ``allow_unknown`` admits versions with no recorded mean yet
        (treated as the mean of the known versions, pessimistically the
        slowest known, so an unprofiled version never looks free).
        ``require_room`` restricts candidates to workers with queue room
        (used only while estimates are still unknown).  ``avoid`` is a
        set of (version name, worker name) pairs excluded from the
        search — the pairs a retried task has already faulted on.
        """
        known = [group.mean_time(v.name) for v in versions]
        known_means = [m for m in known if m is not None]
        fallback = max(known_means) if known_means else 0.0

        # hoisted invariants: no simulation event runs inside this scan,
        # so engine.now and the busy-estimate table are constant
        assert self.rt is not None
        now = self.rt.engine.now
        busy = self._busy_est
        fault_aware = self.fault_aware
        penalized = self._penalized
        best: Optional[tuple[float, str, str]] = None
        best_pair: Optional[tuple[TaskVersion, "Worker"]] = None
        for v, mean in zip(versions, known):
            if mean is None:
                if not allow_unknown:
                    continue
                mean = fallback
            vname = v.name
            for w in self.capable_workers(v):
                if not w.available(now):
                    continue
                if avoid and (vname, w.name) in avoid:
                    continue
                if require_room and not self._has_room(w, room_bound):
                    continue
                finish = busy[w.name] + mean
                if fault_aware:
                    # expected attempts per completed task on a worker
                    # with transient-fault rate p is 1/(1-p): inflate the
                    # whole busy+exec estimate so a flaky-but-fast device
                    # is discounted before it faults again
                    rate = self.worker_fault_rate(w)
                    if rate > 0.0:
                        finish /= 1.0 - min(rate, self.fault_rate_cap)
                if penalized:
                    finish += self._placement_penalty(t, v, w)
                key = (finish, w.name, vname)
                if best is None or key < best:
                    best = key
                    best_pair = (v, w)
        return best_pair

    def _placement_penalty(
        self, t: TaskInstance, version: TaskVersion, worker: "Worker"
    ) -> float:
        """Extra cost of placing ``t`` on this worker (0 here; the
        locality variant adds estimated transfer time)."""
        return 0.0
