"""Deterministic discrete-event simulation engine.

The engine is a priority queue of timestamped events plus a simulated
clock.  Everything above it (workers, transfer engines, the scheduler's
notion of "busy time") is driven by callbacks fired in timestamp order.

Determinism
-----------
Two runs with the same inputs must produce *identical* traces, so ties in
timestamps are broken by a monotonically increasing sequence number — the
insertion order — never by object identity or hash order.  No wall-clock
time is ever consulted.

Performance architecture (DESIGN.md §17)
----------------------------------------
The event store is an :class:`EventHeap`: a binary heap over an index of
``(time, seq, slot)`` keys — compared at C speed, no Python ``__lt__``
round-trips — next to free-listed parallel slot arrays holding the event
payloads.  Cancelled events are skipped lazily at pop time and their
slots recycled.  :meth:`SimEngine.run` and :meth:`SimEngine.run_while`
drain events through one private loop, the only place that pops an
event, moves the cursor and samples the cooperative wall-clock deadline
(every :data:`WALL_DEADLINE_CHECK_EVERY`-th processed event), so every
way of driving the engine raises :class:`WallDeadlineExceededError` at
the same event ordinal.  The golden-trace suite
(``tests/sim/test_trace_golden.py``) pins the traces this core
produces byte for byte.

Occurrences without events
--------------------------
Some occurrences only change bookkeeping that is read later (a copy
landing in the coherence directory).  They take a place in the event
order without an event: :meth:`SimEngine.reserve_seq` hands out the next
sequence number, and the reader compares ``(time, seq)`` against the
engine's cursor — :attr:`SimEngine.now` and the seq of the event it last
ran — to learn whether the occurrence has happened, exactly as if it had
been an event.  A run that reaches ``until`` counts every sequence
number handed out so far as passed; a run that drains the queue also
moves the clock to the latest reserved occurrence, where the last event
would have left it.
"""

from __future__ import annotations

import math
import time as _time
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Optional


class WallDeadlineExceededError(RuntimeError):
    """The engine's cooperative wall-clock deadline passed mid-run.

    Raised from :meth:`SimEngine.run` and :meth:`SimEngine.run_while`
    when :attr:`SimEngine.wall_deadline` is set and the host clock
    (``time.perf_counter``) moves past it.  The check is cooperative —
    sampled every :data:`WALL_DEADLINE_CHECK_EVERY` events, so a run
    overshoots its deadline by at most one check window — and costs one
    attribute test per event when no deadline is armed.
    """

    def __init__(self, deadline: float, now: float, events: int) -> None:
        super().__init__(
            f"simulation exceeded its wall-clock deadline by {now - deadline:.3f}s "
            f"after {events} events"
        )
        self.deadline = deadline
        self.overshoot = now - deadline


#: How many events elapse between wall-clock samples when a deadline is armed.
WALL_DEADLINE_CHECK_EVERY = 256


class EventKind(Enum):
    """Classification of simulation events, used for tracing and debugging."""

    GENERIC = "generic"
    TASK_END = "task-end"
    TASK_FAIL = "task-fail"
    WORKER_WAKE = "worker-wake"
    WORKER_DOWN = "worker-down"
    RETRY = "retry"
    RUNTIME = "runtime"
    WATCHDOG = "watchdog"
    NOTIFY = "notify"
    NODE_DOWN = "node-down"
    NODE_UP = "node-up"
    RETRANSMIT = "retransmit"


class Event:
    """A scheduled callback.

    Events run in ``(time, seq)`` order where ``seq`` is the insertion
    order; this makes the event queue fully deterministic.  The heap
    never compares events directly: its index keys carry the ordering.
    """

    __slots__ = ("time", "seq", "kind", "callback", "label", "cancelled",
                 "_heap", "_handle")

    def __init__(
        self,
        time: float,
        seq: int,
        kind: EventKind,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        self._heap: Optional[EventHeap] = None
        self._handle: int = -1

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True
        heap = self._heap
        if heap is not None:
            heap.cancel_handle(self._handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {self.kind.value}{state})"


class EventHeap:
    """Array-backed event store: heap index + free-listed slot arrays.

    The ordering index is a binary heap of ``(time, seq, slot)`` tuples
    (tuple comparison runs in C and never reaches ``slot`` because
    ``(time, seq)`` is unique).  Event payloads live in a parallel slot
    array recycled through a free list, so a long run reuses a small,
    stable set of slots instead of growing the store monotonically.

    Cancellation is lazy: a cancelled event keeps its heap entry and is
    skipped (and its slot freed) when it reaches the top.  A slot freed
    by a pop may be reused immediately; stale handles held by already
    popped or cancelled events are ignored via a per-slot generation
    counter, so free-list reuse can never resurrect or re-cancel a
    later occupant (property-tested in ``tests/sim/test_event_heap.py``).
    """

    __slots__ = ("_index", "_events", "_gen", "_free", "_live")

    def __init__(self) -> None:
        self._index: list[tuple[float, int, int]] = []
        self._events: list[Optional[Event]] = []
        self._gen: list[int] = []
        self._free: list[int] = []
        #: live (non-cancelled, not-yet-popped) events
        self._live = 0

    def __len__(self) -> int:
        return len(self._index)

    @property
    def live(self) -> int:
        return self._live

    @property
    def slots(self) -> int:
        """Allocated slot count (high-water mark of concurrent events)."""
        return len(self._events)

    def push(self, event: Event) -> None:
        """Insert ``event``; its ``(time, seq)`` must be unique."""
        free = self._free
        if free:
            slot = free.pop()
            self._gen[slot] += 1
        else:
            slot = len(self._events)
            self._events.append(None)
            self._gen.append(0)
        self._events[slot] = event
        event._heap = self
        event._handle = (self._gen[slot] << 32) | slot
        heappush(self._index, (event.time, event.seq, slot))
        self._live += 1

    def cancel_handle(self, handle: int) -> None:
        """Drop the payload of a still-stored event (stale handles no-op)."""
        slot = handle & 0xFFFFFFFF
        if 0 <= slot < len(self._events) and (self._gen[slot] << 32) | slot == handle:
            ev = self._events[slot]
            if ev is not None and ev.cancelled:
                # invalidate the handle so a double-cancel cannot count
                # twice (generations only ever need to increase)
                self._gen[slot] += 1
                self._live -= 1

    def _release(self, slot: int) -> None:
        self._events[slot] = None
        self._gen[slot] += 1
        self._free.append(slot)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event (``None`` if empty).

        Cancelled events encountered on the way are discarded and their
        slots recycled.
        """
        index = self._index
        events = self._events
        while index:
            _, _, slot = heappop(index)
            ev = events[slot]
            self._release(slot)
            if ev is None or ev.cancelled:
                continue
            self._live -= 1
            ev._heap = None
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Earliest live event time without removing it (prunes cancelled)."""
        index = self._index
        events = self._events
        while index:
            entry = index[0]
            ev = events[entry[2]]
            if ev is None or ev.cancelled:
                heappop(index)
                self._release(entry[2])
                continue
            return entry[0]
        return None

    def clear(self) -> None:
        for ev in self._events:
            if ev is not None:
                ev._heap = None
        self._index.clear()
        self._events.clear()
        self._gen.clear()
        self._free.clear()
        self._live = 0


class SimEngine:
    """Discrete-event simulation core.

    Usage::

        eng = SimEngine()
        eng.schedule(1.5, lambda: print("fires at t=1.5"))
        eng.run()
        assert eng.now == 1.5

    The engine may be driven either to completion (:meth:`run`) or
    while a condition holds (:meth:`run_while`), and supports bounded
    runs (``until=``).
    """

    def __init__(self) -> None:
        self._heap = EventHeap()
        self._seq = 0
        self._now: float = 0.0
        #: seq of the event run last; with ``_now`` the cursor that
        #: reserved occurrences (:meth:`reserve_seq`) compare against
        self._last_seq = -1
        #: latest time of a reserved occurrence
        self._horizon: float = 0.0
        self._events_processed: int = 0
        self._running = False
        #: Absolute ``time.perf_counter`` deadline; ``None`` disables the
        #: cooperative check (see :class:`WallDeadlineExceededError`).
        self.wall_deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def passed(self, time: float, seq: int) -> bool:
        """Whether the occurrence ordered at ``(time, seq)`` has happened.

        The cursor is :attr:`now` and the seq of the event run last; a
        bounded :meth:`run` that reaches ``until``, and any drain of the
        queue, count every seq handed out so far as passed.
        """
        now = self._now
        return time < now or (time == now and seq <= self._last_seq)

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire at absolute simulated ``time``.

        ``time`` must not be in the past.  Returns the :class:`Event`,
        which the caller may later :meth:`Event.cancel`.
        """
        if math.isnan(time):
            raise ValueError("cannot schedule an event at NaN time")
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, kind, callback, label)
        self._heap.push(ev)
        return ev

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, callback, kind=kind, label=label)

    def reserve_seq(self, time: float) -> int:
        """Take a place in the event order for an occurrence at ``time``.

        The occurrence gets no event: whoever records it settles it when
        :meth:`passed` says the engine went past ``(time, seq)``, so ties
        with real events resolve exactly as the heap would order them.
        """
        if time < self._now:
            raise ValueError(
                f"cannot reserve t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time > self._horizon:
            self._horizon = time
        return seq

    def _drained(self) -> None:
        """The queue is empty: every reserved occurrence has happened."""
        if self._horizon > self._now:
            self._now = self._horizon
        self._last_seq = self._seq - 1

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], object],
        *,
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
        first: Optional[float] = None,
    ) -> "RecurringEvent":
        """Fire ``callback`` every ``interval`` simulated seconds.

        The first firing is ``first`` seconds from now (default
        ``interval``).  The callback may return ``False`` to stop the
        series; the returned :class:`RecurringEvent` handle also stops it
        via :meth:`RecurringEvent.cancel`.  Used by periodic services
        (profile-store checkpointing) that piggyback on the event loop.
        """
        if interval <= 0:
            raise ValueError(f"recurring interval must be positive, got {interval}")
        if first is not None and first < 0:
            raise ValueError(f"negative first delay: {first}")
        return RecurringEvent(self, interval, callback, kind=kind, label=label,
                              first=first)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _check_wall_deadline(self) -> None:
        now = _time.perf_counter()
        if now > self.wall_deadline:  # type: ignore[operator]
            raise WallDeadlineExceededError(
                self.wall_deadline, now, self._events_processed  # type: ignore[arg-type]
            )

    def _drain(
        self, cond: Optional[Callable[[], object]], until: Optional[float]
    ) -> bool:
        """Run events in order while ``cond()`` is truthy (``None``: always)
        and the next event fires no later than ``until`` (``None``: no
        bound).

        The one loop that pops events: it samples the wall-clock deadline
        before every :data:`WALL_DEADLINE_CHECK_EVERY`-th processed event.
        Returns ``True`` when ``cond()`` went falsy, ``False`` when the
        queue ran out or its next event lies past ``until``.
        """
        heap = self._heap
        while cond is None or cond():
            if until is not None:
                tnext = heap.peek_time()
                if tnext is None or tnext > until:
                    return False
            if (
                self.wall_deadline is not None
                and self._events_processed % WALL_DEADLINE_CHECK_EVERY == 0
            ):
                self._check_wall_deadline()
            ev = heap.pop()
            if ev is None:
                return False
            self._now = ev.time
            self._last_seq = ev.seq
            self._events_processed += 1
            ev.callback()
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Run events in order until the queue drains.

        If ``until`` is given, stop once the next event would fire
        strictly after ``until``.  A bounded run always lands the clock
        exactly on ``until`` (unless it is already past it), even when
        the queue is empty or drains early.  Without ``until``, a run
        that drains the queue leaves the clock at the latest reserved
        occurrence if that is later than the last event.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise RuntimeError("SimEngine.run() is not reentrant")
        self._running = True
        start = self._events_processed
        try:
            self._drain(None, until)
            if until is None:
                self._drained()
            elif until >= self._now:
                self._now = until
                self._last_seq = self._seq - 1
        finally:
            self._running = False
        return self._events_processed - start

    def run_while(self, cond: Callable[[], object]) -> bool:
        """Run events in order while ``cond()`` is truthy.

        The runtime's ``taskwait`` loops use this: ``cond`` is
        re-evaluated between events, so a callback that satisfies the
        wait stops the drain immediately.

        Returns ``True`` when ``cond()`` went falsy, ``False`` when the
        queue drained first (the caller's deadlock case).  ``cond`` is
        evaluated between events only, so it must not wait on a reserved
        occurrence (:meth:`reserve_seq`).
        """
        if self._drain(cond, None):
            return True
        self._drained()
        return False

    # ------------------------------------------------------------------
    # Introspection / reset
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self._heap.clear()
        self._seq = 0
        self._now = 0.0
        self._last_seq = -1
        self._horizon = 0.0
        self._events_processed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimEngine(now={self._now:.6f}, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )


class RecurringEvent:
    """A self-rescheduling event series on a :class:`SimEngine`.

    At most one underlying :class:`Event` is pending at a time; each
    firing schedules the next one ``interval`` later unless the callback
    returned ``False`` or :meth:`cancel` was called.  ``fired`` counts
    completed firings.
    """

    def __init__(
        self,
        engine: SimEngine,
        interval: float,
        callback: Callable[[], object],
        *,
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
        first: Optional[float] = None,
    ) -> None:
        self._engine = engine
        self.interval = interval
        self._callback = callback
        self._kind = kind
        self._label = label
        self.fired = 0
        self._active = True
        self._pending: Optional[Event] = None
        self._schedule_next(interval if first is None else first)

    @property
    def active(self) -> bool:
        return self._active

    def cancel(self) -> None:
        """Stop the series; the pending occurrence (if any) is cancelled."""
        self._active = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _schedule_next(self, delay: float) -> None:
        self._pending = self._engine.schedule_after(
            delay, self._fire, kind=self._kind, label=self._label
        )

    def _fire(self) -> None:
        self._pending = None
        if not self._active:
            return
        keep = self._callback()
        self.fired += 1
        if keep is False or not self._active:
            self._active = False
            return
        self._schedule_next(self.interval)
