"""Workers: one per device, each with its own task queue.

"Each OmpSs worker thread is currently devoted to only one device (SMP,
GPU, ...) and there can be as many workers as machine resources.  With
the versioning scheduler, each worker has its own task queue." (§IV-B)

The queue is FIFO; the runtime starts the head task once its input
transfers have completed.  Workers track busy time and execution counts
for the per-device utilisation reporting.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.runtime.task import TaskInstance
from repro.sim.devices import Device

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event


class Worker:
    """A serial execution resource bound to one device."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self.name = f"w:{device.name}"
        self.queue: Deque[TaskInstance] = deque()
        self.current: Optional[TaskInstance] = None
        self.busy_time: float = 0.0
        self.tasks_run: int = 0
        #: False once the worker failed permanently (a dead worker never
        #: re-enters any scheduler's candidate set)
        self.alive: bool = True
        #: simulated time until which the worker is quarantined after
        #: repeated transient faults (None = not quarantined)
        self.quarantined_until: Optional[float] = None
        #: runtime bookkeeping: simulated time of the earliest pending
        #: wake event for this worker (None = no wake scheduled)
        self._wake_at: Optional[float] = None
        #: the pending TASK_END / TASK_FAIL event of the running task,
        #: cancelled if the worker dies mid-execution
        self._end_event: Optional["Event"] = None

    # ------------------------------------------------------------------
    @property
    def space(self) -> str:
        """The memory space this worker computes from."""
        return self.device.memory_space

    def available(self, now: float) -> bool:
        """Whether the worker may accept dispatches at simulated ``now``."""
        return self.alive and (
            self.quarantined_until is None or now >= self.quarantined_until
        )

    def load(self) -> int:
        """Queued tasks (plus the running one) — the simple load metric."""
        return len(self.queue) + (0 if self.current is None else 1)

    def enqueue(self, t: TaskInstance) -> None:
        """Append to the queue, honouring the ``priority`` clause.

        A task with non-zero priority is inserted before the first
        queued task of strictly lower priority (stable within equal
        priorities); priority-0 tasks take the plain FIFO fast path.
        """
        if t.priority == 0 or not self.queue:
            self.queue.append(t)
            return
        for i, queued in enumerate(self.queue):
            if queued.priority < t.priority:
                self.queue.insert(i, t)
                return
        self.queue.append(t)

    def peek(self) -> Optional[TaskInstance]:
        return self.queue[0] if self.queue else None

    def pop(self) -> TaskInstance:
        return self.queue.popleft()

    def __repr__(self) -> str:
        running = self.current.label if self.current else "-"
        return f"Worker({self.name}, running={running}, queued={len(self.queue)})"
