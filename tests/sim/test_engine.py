"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    WALL_DEADLINE_CHECK_EVERY,
    EventKind,
    SimEngine,
    WallDeadlineExceededError,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert SimEngine().now == 0.0

    def test_single_event_advances_clock(self):
        eng = SimEngine()
        fired = []
        eng.schedule(1.5, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [1.5]
        assert eng.now == 1.5

    def test_events_fire_in_time_order(self):
        eng = SimEngine()
        fired = []
        for t in (3.0, 1.0, 2.0):
            eng.schedule(t, lambda t=t: fired.append(t))
        eng.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_ties_break_by_insertion_order(self):
        eng = SimEngine()
        fired = []
        for i in range(10):
            eng.schedule(1.0, lambda i=i: fired.append(i))
        eng.run()
        assert fired == list(range(10))

    def test_schedule_after_uses_relative_delay(self):
        eng = SimEngine()
        out = []
        eng.schedule(1.0, lambda: eng.schedule_after(0.5, lambda: out.append(eng.now)))
        eng.run()
        assert out == [1.5]

    def test_schedule_in_past_rejected(self):
        eng = SimEngine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError, match="before current time"):
            eng.schedule(0.5, lambda: None)

    def test_schedule_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            SimEngine().schedule(float("nan"), lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="negative delay"):
            SimEngine().schedule_after(-1.0, lambda: None)

    def test_schedule_at_current_time_allowed(self):
        eng = SimEngine()
        fired = []
        eng.schedule(0.0, lambda: fired.append(True))
        eng.run()
        assert fired == [True]

    def test_events_scheduled_during_run_execute(self):
        eng = SimEngine()
        fired = []
        eng.schedule(1.0, lambda: eng.schedule(2.0, lambda: fired.append("inner")))
        eng.run()
        assert fired == ["inner"]
        assert eng.now == 2.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = SimEngine()
        fired = []
        ev = eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(2.0, lambda: fired.append("b"))
        ev.cancel()
        eng.run()
        assert fired == ["b"]

    def test_cancelled_event_does_not_advance_clock(self):
        eng = SimEngine()
        ev = eng.schedule(5.0, lambda: None)
        ev.cancel()
        eng.run()
        assert eng.now == 0.0

    def test_cancelled_not_counted_in_processed(self):
        eng = SimEngine()
        ev = eng.schedule(1.0, lambda: None)
        ev.cancel()
        eng.schedule(2.0, lambda: None)
        eng.run()
        assert eng.events_processed == 1


class TestRunControl:
    def test_run_while_returns_false_when_empty(self):
        assert SimEngine().run_while(lambda: True) is False

    def test_run_while_stops_once_cond_is_falsy(self):
        eng = SimEngine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        assert eng.run_while(lambda: not fired) is True
        assert fired == [1]
        assert eng.now == 1.0

    def test_run_until_stops_before_later_events(self):
        eng = SimEngine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(5.0, lambda: fired.append(5))
        eng.run(until=3.0)
        assert fired == [1]
        assert eng.now == 3.0
        eng.run()
        assert fired == [1, 5]

    def test_run_returns_executed_count(self):
        eng = SimEngine()
        for t in (1.0, 2.0, 3.0):
            eng.schedule(t, lambda: None)
        assert eng.run() == 3

    def test_run_until_advances_clock_on_empty_queue(self):
        # regression: an empty queue used to leave ``now`` behind
        eng = SimEngine()
        assert eng.run(until=5.0) == 0
        assert eng.now == 5.0

    def test_run_until_advances_clock_when_queue_drains_early(self):
        eng = SimEngine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0

    def test_run_until_never_rewinds_the_clock(self):
        eng = SimEngine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        assert eng.now == 5.0
        eng.run(until=3.0)
        assert eng.now == 5.0

    def test_run_not_reentrant(self):
        eng = SimEngine()
        err = []

        def inner():
            try:
                eng.run()
            except RuntimeError as e:
                err.append(str(e))

        eng.schedule(1.0, inner)
        eng.run()
        assert err and "not reentrant" in err[0]

    def test_reset(self):
        eng = SimEngine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        eng.reset()
        assert eng.now == 0.0
        assert eng.pending == 0
        assert eng.events_processed == 0


class TestEventObject:
    def test_event_ordering(self):
        eng = SimEngine()
        fired = []
        a = eng.schedule(1.0, lambda: fired.append("a"))
        b = eng.schedule(1.0, lambda: fired.append("b"))
        c = eng.schedule(0.5, lambda: fired.append("c"))
        assert [(e.time, e.seq) for e in (a, b, c)] == [(1.0, 0), (1.0, 1), (0.5, 2)]
        assert all(e.kind is EventKind.GENERIC for e in (a, b, c))
        eng.run()
        assert fired == ["c", "a", "b"]

    def test_pending_counts_queue(self):
        eng = SimEngine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending == 2


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_execution_order_is_sorted(self, times):
        eng = SimEngine()
        fired = []
        for t in times:
            eng.schedule(t, lambda t=t: fired.append(t))
        eng.run()
        assert fired == sorted(times)
        assert eng.now == max(times)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cancellation_subset(self, spec):
        eng = SimEngine()
        fired = []
        for t, keep in spec:
            ev = eng.schedule(t, lambda t=t: fired.append(t))
            if not keep:
                ev.cancel()
        eng.run()
        assert fired == sorted(t for t, keep in spec if keep)

class TestWallDeadline:
    """Cooperative wall-clock deadline (service per-submission budgets)."""

    def test_expired_deadline_raises_typed_error(self):
        import time

        eng = SimEngine()
        for i in range(WALL_DEADLINE_CHECK_EVERY + 1):
            eng.schedule(float(i), lambda: None)
        eng.wall_deadline = time.perf_counter() - 1.0
        with pytest.raises(WallDeadlineExceededError) as err:
            eng.run()
        assert err.value.overshoot > 0
        # the check is cooperative: sampled once per window, so at most
        # one full window of events ran before the raise
        assert eng.events_processed <= WALL_DEADLINE_CHECK_EVERY

    def test_generous_deadline_does_not_interfere(self):
        import time

        eng = SimEngine()
        fired = []
        for i in range(WALL_DEADLINE_CHECK_EVERY * 2):
            eng.schedule(float(i), lambda i=i: fired.append(i))
        eng.wall_deadline = time.perf_counter() + 300.0
        eng.run()
        assert len(fired) == WALL_DEADLINE_CHECK_EVERY * 2

    def test_no_deadline_means_no_clock_sampling(self):
        eng = SimEngine()
        assert eng.wall_deadline is None
        eng.schedule(1.0, lambda: None)
        assert eng.run() == 1


class _FakeClock:
    """Deterministic perf_counter stand-in: advances a fixed step per call.

    Because the engine samples the wall clock only at deadline-check
    ordinals, a fixed per-call step turns "which event ordinal trips the
    deadline" into a pure function of the sampling schedule — exactly
    the thing the mode equivalence must pin.
    """

    def __init__(self, step=1.0):
        self.step = step
        self.t = 0.0

    def perf_counter(self):
        self.t += self.step
        return self.t


class TestWallDeadlineModeEquivalence:
    """Every way of driving the engine drains through one loop, so the
    wall-clock deadline trips at the same processed-event ordinal."""

    N_EVENTS = WALL_DEADLINE_CHECK_EVERY * 3 + 10
    #: trips on the third sample: checks happen at processed-event
    #: ordinals 0, 256, 512, ... and the fake clock ticks once per check
    DEADLINE = 2.5

    def _engine(self, monkeypatch):
        from repro.sim import engine as engine_mod

        eng = SimEngine()
        monkeypatch.setattr(engine_mod, "_time", _FakeClock())
        eng.wall_deadline = self.DEADLINE
        for i in range(self.N_EVENTS):
            eng.schedule(float(i), lambda: None)
        return eng

    def test_all_modes_trip_at_same_event_ordinal(self, monkeypatch):
        ordinals = {}
        for name, drive in [
            ("run", lambda eng: eng.run()),
            ("run_while", lambda eng: eng.run_while(lambda: True)),
        ]:
            eng = self._engine(monkeypatch)
            with pytest.raises(WallDeadlineExceededError):
                drive(eng)
            ordinals[name] = eng.events_processed
        assert len(set(ordinals.values())) == 1, ordinals
        # the trip lands on a sampling ordinal, after at least one window
        tripped = ordinals["run"]
        assert tripped % WALL_DEADLINE_CHECK_EVERY == 0
        assert 0 < tripped < self.N_EVENTS

    def test_mixed_mode_agrees_with_pure_modes(self, monkeypatch):
        """Draining partway with run_while then with run must not shift the ordinal."""
        eng = self._engine(monkeypatch)
        eng.run_while(lambda: eng.events_processed < WALL_DEADLINE_CHECK_EVERY // 2)
        assert eng.events_processed == WALL_DEADLINE_CHECK_EVERY // 2
        with pytest.raises(WallDeadlineExceededError):
            eng.run()
        mixed = eng.events_processed

        ref = self._engine(monkeypatch)
        with pytest.raises(WallDeadlineExceededError):
            ref.run()
        assert mixed == ref.events_processed


class TestReservedOccurrences:
    """``reserve_seq`` places an occurrence in the event order without an event."""

    def test_tie_with_an_event_follows_seq_order(self):
        eng = SimEngine()
        seen = []
        eng.schedule(1.0, lambda: seen.append(eng.passed(1.0, early)))
        early = eng.reserve_seq(1.0)  # after the first event's seq
        eng.schedule(1.0, lambda: seen.append(eng.passed(1.0, early)))
        eng.run()
        assert seen == [False, True]
        assert eng.events_processed == 2

    def test_reserved_seq_is_shared_with_events(self):
        eng = SimEngine()
        a = eng.reserve_seq(0.5)
        ev = eng.schedule(0.5, lambda: None)
        assert ev.seq == a + 1

    def test_reserving_in_the_past_rejected(self):
        eng = SimEngine()
        eng.run(until=1.0)
        with pytest.raises(ValueError, match="before current time"):
            eng.reserve_seq(0.5)

    def test_run_until_counts_every_handed_out_seq_as_passed(self):
        eng = SimEngine()
        at_two = eng.reserve_seq(2.0)
        later = eng.reserve_seq(2.5)
        eng.run(until=1.0)
        assert not eng.passed(2.0, at_two)
        eng.run(until=2.0)
        assert eng.now == 2.0
        assert eng.passed(2.0, at_two)
        assert not eng.passed(2.5, later)

    def test_run_until_reached_by_an_event_passes_later_ties(self):
        eng = SimEngine()
        eng.schedule(2.0, lambda: None)
        tie = eng.reserve_seq(2.0)
        eng.run(until=2.0)
        assert eng.passed(2.0, tie)

    def test_run_until_in_the_past_moves_nothing(self):
        eng = SimEngine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        tie = eng.reserve_seq(1.0)
        eng.run(until=0.5)
        assert eng.now == 1.0
        assert not eng.passed(1.0, tie)

    def test_drained_run_moves_the_clock_to_the_last_occurrence(self):
        eng = SimEngine()
        eng.schedule(1.0, lambda: None)
        seq = eng.reserve_seq(3.0)
        assert eng.run() == 1
        assert eng.now == 3.0
        assert eng.passed(3.0, seq)

    def test_drained_run_while_passes_every_occurrence(self):
        eng = SimEngine()
        seq = eng.reserve_seq(2.0)
        assert eng.run_while(lambda: True) is False
        assert (eng.now, eng.passed(2.0, seq)) == (2.0, True)

    def test_reset_forgets_the_cursor(self):
        eng = SimEngine()
        eng.reserve_seq(2.0)
        eng.run()
        eng.reset()
        assert eng.now == 0.0
        assert not eng.passed(0.0, 0)
        eng.run()
        assert eng.now == 0.0
