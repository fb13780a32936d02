"""Tests for the bounded protocol model checker (SAN-P001..P004)."""

import random
import time

import pytest

from repro.cluster.protocol import NotificationRouter
from repro.sanitizer.static import (
    ablation_scenario,
    check_protocol,
    default_scenarios,
    explore,
    render_msc,
)
from repro.sanitizer.static.modelcheck import _Harness

from .fixtures.broken_routers import (
    DoubleReleaseRouter,
    NoDedupRouter,
    NoFenceRouter,
)

SCENARIOS = {s.name: s for s in default_scenarios()}


class TestShippedRouter:
    def test_small_suite_verifies_clean(self):
        diags = check_protocol(small=True)
        assert diags == [], [str(d) for d in diags]

    @pytest.mark.integration
    def test_full_scope_verifies_clean_within_budget(self):
        # acceptance scope: 3 nodes, 3 messages, <=1 crash, <60s
        t0 = time.monotonic()
        diags = check_protocol()
        elapsed = time.monotonic() - t0
        assert diags == [], [str(d) for d in diags]
        assert elapsed < 60.0, f"exhaustive exploration took {elapsed:.1f}s"

    def test_crash_recovery_scenario_clean(self):
        res = explore(SCENARIOS["sender-crash-recovery"])
        assert res.ok and not res.truncated
        assert res.states > 0


class TestExploration:
    @pytest.mark.parametrize("name, states", [
        ("one-edge-lossy", 133),
        ("two-preds-one-succ", 8792),
        ("sender-crash-recovery", 114),
    ])
    def test_state_counts(self, name, states):
        res = explore(SCENARIOS[name])
        assert res.ok
        assert res.states == states

    @pytest.mark.parametrize("name", [
        "two-preds-one-succ", "sender-crash-recovery", "three-node-crash",
    ])
    def test_clone_plus_action_equals_replay(self, name):
        # along seeded random paths, a clone plus one action must reach
        # the state a fresh replay of the whole path reaches, and must
        # leave the state it was cloned from untouched
        scenario = SCENARIOS[name]
        rng = random.Random(7)
        for _ in range(15):
            h = _Harness(scenario)
            path = []
            while not (h.violations or h.aborted) and h.enabled():
                action = rng.choice(h.enabled())
                before = h.fingerprint()
                child = h.clone()
                child.apply(action)
                path.append(action)
                fresh = _Harness(scenario)
                for a in path:
                    fresh.apply(a)
                assert h.fingerprint() == before
                assert child.fingerprint() == fresh.fingerprint()
                assert child.timeline == fresh.timeline
                assert child.rt.trace.records == fresh.rt.trace.records
                assert child.router.stats == fresh.router.stats
                h = child

    def test_router_with_unknown_state_is_refused(self):
        class StatefulRouter(NotificationRouter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.log = []

        with pytest.raises(TypeError, match="cannot clone.*'log'"):
            explore(SCENARIOS["one-edge-lossy"],
                    router_factory=StatefulRouter)


class TestBrokenRouters:
    def test_missing_dedup_is_double_count(self):
        res = explore(SCENARIOS["two-preds-one-succ"],
                      router_factory=NoDedupRouter)
        assert "SAN-P004" in {v.code for v in res.violations}

    def test_missing_epoch_fence_is_caught(self):
        res = explore(SCENARIOS["sender-crash-recovery"],
                      router_factory=NoFenceRouter)
        assert "SAN-P003" in {v.code for v in res.violations}

    def test_unguarded_recovery_is_double_release(self):
        res = explore(SCENARIOS["sender-crash-recovery"],
                      router_factory=DoubleReleaseRouter)
        assert "SAN-P001" in {v.code for v in res.violations}

    def test_violation_renders_a_counterexample(self):
        res = explore(SCENARIOS["sender-crash-recovery"],
                      router_factory=DoubleReleaseRouter)
        text = res.violations[0].render()
        assert "counterexample in scenario 'sender-crash-recovery'" in text
        assert "VIOLATION SAN-P" in text
        assert "node0" in text and "node1" in text


class TestAblation:
    def test_unreliable_config_deadlocks(self):
        res = explore(ablation_scenario())
        codes = {v.code for v in res.violations}
        assert "SAN-P002" in codes

    def test_deadlock_counterexample_shows_the_lost_message(self):
        res = explore(ablation_scenario())
        v = next(v for v in res.violations if v.code == "SAN-P002")
        text = v.render()
        assert "DROP" in text
        assert "never released" in text

    def test_check_protocol_reports_ablation_as_diagnostic(self):
        diags = check_protocol(scenarios=[ablation_scenario()])
        assert any(d.code == "SAN-P002" for d in diags)
        assert any(d.region == "scenario:unreliable-ablation" for d in diags)


class TestRendering:
    def test_msc_golden(self):
        timeline = [
            ("msg", 0, 1, "send uid=7"),
            ("note", 1, "apply (pending 1)"),
            ("global", "VIOLATION SAN-P001: example"),
        ]
        expected = (
            "             node0                         node1\n"
            "  1.                |-------- send uid=7 -------->|\n"
            "  2.                |                             |"
            " apply (pending 1)\n"
            "  3. == VIOLATION SAN-P001: example =="
        )
        assert render_msc(timeline, 2) == expected

    def test_msc_three_lifelines_and_reverse_arrow(self):
        out = render_msc([
            ("msg", 2, 0, "ack seq=1"),
            ("note", 2, "crash"),
        ], 3)
        lines = out.splitlines()
        assert "node2" in lines[0]
        arrow = lines[1]
        assert "<" in arrow and "ack seq=1" in arrow
        assert "crash" in lines[2]
