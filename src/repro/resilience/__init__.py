"""Resilience: deterministic fault injection and recovery.

The paper's multi-version tasks (``implements``) give the runtime a
natural *graceful-degradation* mechanism: when a device faults, the task
can re-run as a different (version, worker) pair and the versioning
scheduler's learning tables steer the retry.  This package supplies

* :mod:`repro.resilience.faults` — a seeded, fully deterministic
  :class:`FaultPlan` describing transient task faults, permanent worker
  failures, link transfer errors, task hangs, worker slowdowns, and —
  for cluster runs — unreliable-interconnect rules
  (:class:`MessageFaultRule` drop/duplicate/delay of notification
  traffic, :class:`LinkDegradation` time-windowed bandwidth/latency
  multipliers, :class:`NodeCrashRule` whole-node crashes with optional
  rejoin), all with the same reproducibility discipline as
  :mod:`repro.sim.perturb`,
* :mod:`repro.resilience.recovery` — the :class:`RecoveryPolicy`
  (retry budgets, quarantine, speculation) and the
  :class:`ResilienceManager`, which the runtime installs only when the
  run needs recovery and which owns every abnormal end of an
  execution,
* :mod:`repro.resilience.watchdog` — profile-derived adaptive deadlines
  (:class:`TaskWatchdog`) feeding speculative re-execution of
  stragglers, and the global :class:`ProgressWatchdog` that fails a
  livelocked run with a diagnostic dump.
"""

from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    HangRule,
    LinkDegradation,
    MessageFault,
    MessageFaultRule,
    NodeCrashRule,
    TaskFaultRule,
    TransferFaultRule,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.resilience.recovery import (
    RecoveryPolicy,
    ResilienceManager,
    ResilienceStats,
    TaskRetryExceededError,
    TransferRetryExceededError,
    default_recovery_policy,
    recovery_defaults,
)
from repro.resilience.watchdog import (
    ProgressStallError,
    ProgressWatchdog,
    TaskWatchdog,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "HangRule",
    "LinkDegradation",
    "MessageFault",
    "MessageFaultRule",
    "NodeCrashRule",
    "TaskFaultRule",
    "TransferFaultRule",
    "WorkerFailure",
    "WorkerSlowdown",
    "RecoveryPolicy",
    "ResilienceManager",
    "ResilienceStats",
    "TaskRetryExceededError",
    "TransferRetryExceededError",
    "default_recovery_policy",
    "recovery_defaults",
    "ProgressStallError",
    "ProgressWatchdog",
    "TaskWatchdog",
]
