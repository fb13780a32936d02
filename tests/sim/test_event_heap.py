"""Property tests for the array-backed event heap.

Three contracts, each checked against simple reference models:

* pop order equals a ``heapq`` reference over ``(time, seq)`` keys;
* FIFO stability: among equal timestamps, insertion order wins;
* free-list reuse can never resurrect (or re-cancel) a later slot
  occupant — stale handles are dead after the generation bump.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, EventHeap, EventKind


#: small float times with deliberate duplicates so ties are common
times = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16)


@given(st.lists(times, max_size=80))
@settings(max_examples=120, deadline=None)
def test_pop_order_equals_heapq_model(ts):
    h = EventHeap()
    model: list[tuple[float, int]] = []
    for seq, t in enumerate(ts):
        h.push(Event(t, seq, EventKind.GENERIC, None))
        heapq.heappush(model, (t, seq))
    out = []
    while True:
        ev = h.pop()
        if ev is None:
            break
        out.append((ev.time, ev.seq))
    assert out == [heapq.heappop(model) for _ in range(len(model))]
    assert len(h) == 0 and h.live == 0


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=60, deadline=None)
def test_fifo_stability_among_equal_timestamps(n):
    h = EventHeap()
    for seq in range(n):
        h.push(Event(1.0, seq, EventKind.GENERIC, None))
    popped = [h.pop().seq for _ in range(n)]
    assert popped == list(range(n))


#: op stream: (kind, payload) where kind 0=push(time), 1=cancel(index),
#: 2=pop — indexes are taken modulo the pushed-event count
ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), times,
              st.integers(min_value=0, max_value=10**6)),
    max_size=120,
)


@given(ops)
@settings(max_examples=120, deadline=None)
def test_interleaved_ops_match_reference_model(stream):
    """Pushes, lazy cancels and pops against a filtered-heapq model."""
    h = EventHeap()
    events = []
    cancelled: set[int] = set()
    model: list[tuple[float, int]] = []
    seq = 0
    for kind, t, idx in stream:
        if kind == 0 or not events:
            ev = Event(t, seq, EventKind.GENERIC, None)
            h.push(ev)
            events.append(ev)
            heapq.heappush(model, (t, seq))
            seq += 1
        elif kind == 1:
            ev = events[idx % len(events)]
            ev.cancel()
            cancelled.add(ev.seq)
        else:
            while model and model[0][1] in cancelled:
                heapq.heappop(model)
            want = heapq.heappop(model) if model else None
            got = h.pop()
            got_key = None if got is None else (got.time, got.seq)
            assert got_key == want
        live_model = sum(1 for _, s in model if s not in cancelled)
        assert h.live == live_model
    # drain: the tails must agree too
    while True:
        while model and model[0][1] in cancelled:
            heapq.heappop(model)
        want = heapq.heappop(model) if model else None
        got = h.pop()
        got_key = None if got is None else (got.time, got.seq)
        assert got_key == want
        if got is None:
            break
    assert h.live == 0


def test_free_list_reuse_never_resurrects_cancelled_events():
    h = EventHeap()
    doomed = [Event(float(i), i, EventKind.GENERIC, None) for i in range(8)]
    for ev in doomed:
        h.push(ev)
    for ev in doomed:
        ev.cancel()
    assert h.live == 0
    # popping prunes the cancelled payloads and recycles every slot
    assert h.pop() is None
    # the recycled slots must serve fresh events exactly once
    fresh = [Event(float(i), 100 + i, EventKind.GENERIC, None)
             for i in range(8)]
    for ev in fresh:
        h.push(ev)
    assert h.slots <= 8  # slots were reused, not regrown
    out = [h.pop().seq for _ in range(8)]
    assert out == [100 + i for i in range(8)]
    assert h.pop() is None


def test_stale_handle_cannot_touch_reused_slot():
    """A double-cancel on a dead event must not affect the slot's new
    occupant (the per-slot generation counter makes the handle stale)."""
    h = EventHeap()
    old = Event(1.0, 0, EventKind.GENERIC, None)
    h.push(old)
    old.cancel()
    assert h.live == 0
    assert h.pop() is None  # recycles old's slot
    new = Event(2.0, 1, EventKind.GENERIC, None)
    h.push(new)
    assert h.live == 1
    # stale: old's slot was recycled into `new`
    old.cancel()
    old.cancel()
    assert h.live == 1
    got = h.pop()
    assert got is not None and got.seq == 1 and not got.cancelled


def test_double_cancel_counts_once():
    h = EventHeap()
    a = Event(1.0, 0, EventKind.GENERIC, None)
    h.push(a)
    h.push(Event(2.0, 1, EventKind.GENERIC, None))
    a.cancel()
    a.cancel()
    a.cancel()
    assert h.live == 1
    assert h.pop().seq == 1
    assert h.pop() is None
    assert h.live == 0

