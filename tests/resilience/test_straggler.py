"""Straggler robustness: adaptive deadlines, speculative re-execution,
the progress watchdog, and their interaction with quarantine.

These are the acceptance tests of the robustness work: a seeded plan
with one hang and a 20x worker slowdown must complete within 2x of the
fault-free makespan with speculation on, while the same plan with
speculation off stalls (progress-watchdog abort) or degrades past 10x.
"""

import pytest

from repro import FaultPlan, OmpSsRuntime, RecoveryPolicy, TaskFaultRule
from repro.apps.matmul import MatmulApp
from repro.resilience.faults import HangRule, WorkerFailure, WorkerSlowdown
from repro.resilience.watchdog import ProgressStallError, ProgressWatchdog
from repro.runtime.runtime import RuntimeConfig
from repro.sim.topology import cluster_machine, minotauro_node
from repro.store import ProfileStore
from tests.conftest import make_machine, make_two_version_task, region


def run_tasks(machine, calls, *, plan=None, policy=None, config=None,
              scheduler_options=None):
    """Run ``calls`` through a versioning runtime; return (rt, result)."""
    rt = OmpSsRuntime(machine, "versioning", config=config,
                      scheduler_options=scheduler_options,
                      fault_plan=plan, recovery=policy)
    with rt:
        for fn, *args in calls:
            fn(*args)
    return rt, rt.result()


def make_calls(work, n):
    return [(work, region(("a", i)), region(("b", i))) for i in range(n)]


def records(trace, category):
    return [r for r in trace if r.category == category]


# ----------------------------------------------------------------------
# Adaptive deadlines
# ----------------------------------------------------------------------
class TestAdaptiveDeadlines:
    def test_deadlines_start_cold_then_become_profile_derived(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        rt, res = run_tasks(m, make_calls(work, 16),
                            policy=RecoveryPolicy(speculate=True))
        assert res.tasks_completed == 16
        log = rt.resilience.watchdog.armed_log
        assert len(log) == 16  # one deadline per primary execution
        sources = [src for _, _, src in log]
        # the first execution has no samples anywhere: cold multiplier
        assert sources[0] == "cold"
        # each of the two versions arms cold for exactly its first
        # min_deadline_samples (=2) executions, profile ever after --
        # regardless of how the starts of the slow and fast worker
        # interleave in the log
        assert sources.count("cold") == 4
        assert sources.count("profile") == 12

    def test_profile_deadline_is_grace_mean_plus_k_sigma(self, registry):
        m = make_machine(1, 0)  # one worker: one version, fixed mean
        work, _ = make_two_version_task(registry, smp_cost=0.010, machine=m)
        policy = RecoveryPolicy(speculate=True, deadline_grace=2.0,
                                deadline_k=3.0)
        rt, res = run_tasks(m, make_calls(work, 6), policy=policy)
        assert res.tasks_completed == 6
        profile_arms = [d for _, d, src in rt.resilience.watchdog.armed_log
                        if src == "profile"]
        assert profile_arms  # noiseless: sigma == 0, deadline = 2*mean
        for d in profile_arms:
            assert d == pytest.approx(2.0 * 0.010)

    def test_cold_deadline_uses_multiplier(self, registry):
        m = make_machine(1, 0)
        work, _ = make_two_version_task(registry, smp_cost=0.010, machine=m)
        policy = RecoveryPolicy(speculate=True, cold_multiplier=5.0)
        rt, _ = run_tasks(m, make_calls(work, 2), policy=policy)
        (label0, d0, src0) = rt.resilience.watchdog.armed_log[0]
        assert src0 == "cold"
        assert d0 == pytest.approx(5.0 * 0.010)

    def test_speculation_off_arms_no_deadlines(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        # default policy and no fault plan: no recovery is installed, so
        # nothing can arm a deadline
        rt, res = run_tasks(m, make_calls(work, 6))
        assert res.tasks_completed == 6
        assert rt.resilience is None
        # a fault plan installs recovery; without speculation it still
        # arms no deadline
        plan = FaultPlan(slowdowns=(WorkerSlowdown("gpu0", 0.0, 2.0),))
        rt, res = run_tasks(m, make_calls(work, 6), plan=plan)
        assert res.tasks_completed == 6
        assert rt.resilience is not None
        assert rt.resilience.watchdog.armed_log == []


class TestWarmStartedDeadlines:
    def test_persisted_variance_arms_first_deadlines_from_profile(
        self, registry, tmp_path
    ):
        """A warm-started run must trust ``mean + k*sigma`` from run one's
        persisted profiles without re-learning: no cold deadlines at all."""
        m1 = make_machine(1, 1, noise=0.05, seed=3)
        work, _ = make_two_version_task(registry, machine=m1)
        rt1, res1 = run_tasks(m1, make_calls(work, 24),
                              policy=RecoveryPolicy(speculate=True))
        assert res1.tasks_completed == 24

        store = ProfileStore(tmp_path / "profiles.json")
        store.absorb(rt1.scheduler.table)
        hints = store.hints()
        assert hints is not None
        # the persisted entries carry the learned variance
        assert any(
            v.get("variance") not in (None, 0.0)
            for groups in hints["tasks"].values()
            for g in groups
            for v in g["versions"].values()
        )

        registry2 = {}
        m2 = make_machine(1, 1, noise=0.05, seed=4)
        work2, _ = make_two_version_task(registry2, machine=m2)
        rt2, res2 = run_tasks(
            m2, make_calls(work2, 12),
            policy=RecoveryPolicy(speculate=True),
            scheduler_options={"hints": hints},
        )
        assert res2.tasks_completed == 12
        assert rt2.scheduler.preloaded_entries > 0
        sources = [src for _, _, src in rt2.resilience.watchdog.armed_log]
        assert sources and sources[0] == "profile"
        assert all(s == "profile" for s in sources)


# ----------------------------------------------------------------------
# Speculative re-execution
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_speculation_rescues_a_hang(self, registry):
        m = make_machine(2, 2)
        work, _ = make_two_version_task(registry, machine=m)
        plan = FaultPlan(seed=1, hangs=[HangRule(at_starts=(6,))])
        rt, res = run_tasks(m, make_calls(work, 30), plan=plan,
                            policy=RecoveryPolicy(speculate=True))
        assert res.tasks_completed == 30
        assert res.resilience.hangs == 1
        assert res.resilience.straggler_detected >= 1
        assert res.resilience.speculations_launched >= 1
        assert res.resilience.speculations_won >= 1
        # the hung original was withdrawn: a spec-abort closes its slice
        assert len(records(res.trace, "spec-abort")) >= 1
        assert records(res.trace, "straggler")
        assert records(res.trace, "speculate")
        res.validate()  # SAN-clean, including SAN-T007/T008

    def test_slow_original_that_still_finishes_wastes_the_copy(self, registry):
        # gpu0 runs everything in 1ms until a 2x slowdown at t=0.01; its
        # profile deadline (grace=1, k=0) then fires mid-execution, but
        # the copy lands on the 10x slower smp worker, so the original
        # still wins and the speculation is withdrawn as wasted
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        plan = FaultPlan(slowdowns=[WorkerSlowdown("gpu0", 0.01, 2.0)])
        policy = RecoveryPolicy(speculate=True, deadline_grace=1.0,
                                deadline_k=0.0)
        rt, res = run_tasks(m, make_calls(work, 20), plan=plan, policy=policy)
        assert res.tasks_completed == 20
        assert res.resilience.straggler_detected >= 1
        assert res.resilience.speculations_wasted >= 1
        res.validate()

    def test_speculation_budgets_are_respected(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        plan = FaultPlan(slowdowns=[WorkerSlowdown("gpu0", 0.01, 2.0)])
        policy = RecoveryPolicy(speculate=True, deadline_grace=1.0,
                                deadline_k=0.0, max_concurrent_speculations=1,
                                max_speculations_per_task=1)
        rt, res = run_tasks(m, make_calls(work, 20), plan=plan, policy=policy)
        assert res.tasks_completed == 20
        spec = records(res.trace, "speculate")
        # per-task budget: each task speculated at most once
        per_task = [r.meta[0] for r in spec]
        assert len(per_task) == len(set(per_task))
        res.validate()


class TestCopyWithdrawn:
    """A speculative copy withdrawn while nothing else carries its task:
    a hung copy of a hung original, or the copy of a parked original."""

    def run(self, starts=(3, 8), **faults):
        app = MatmulApp(4, 64, variant="hyb")
        machine = minotauro_node(2, 1, noise_cv=0.0, seed=0)
        app.register_cost_models(machine)
        plan = FaultPlan(seed=1, hangs=(HangRule(at_starts=starts),), **faults)
        policy = RecoveryPolicy(speculate=True, deadline_grace=1.0, deadline_k=0.0)
        rt = OmpSsRuntime(machine, "versioning", fault_plan=plan, recovery=policy)
        with rt:
            app.master(rt)
        res = rt.result()
        assert res.tasks_completed == 64
        res.validate()
        return res

    def test_hung_copy_and_hung_original_are_both_recovered(self):
        res = self.run()
        assert res.resilience.hangs == 2
        copy_expiry = records(res.trace, "straggler")[1]
        assert copy_expiry.worker == "w:smp0"
        assert [r.category for r in res.trace
                if r.meta and r.meta[0] == copy_expiry.meta[0]
                and r.end == copy_expiry.end] == ["straggler", "spec-abort", "aborted", "retry"]

    def test_hung_copy_of_a_parked_original_is_retried(self):
        # gpu0 dies under the hung original after the copy launched, so
        # the original is parked; the copy's expiry re-readies it
        res = self.run(worker_failures=(WorkerFailure("gpu0", 0.0005),))
        assert res.resilience.worker_failures == 1
        assert len(records(res.trace, "aborted")) == 1  # gpu0's death only

    def test_faulted_copy_of_a_parked_original_is_retried(self):
        res = self.run(starts=(3,), worker_failures=(WorkerFailure("gpu0", 0.00025),),
                       task_faults=(TaskFaultRule(worker="smp0", at_starts=(4,),
                                                  work_fraction=0.9),))
        # the copy faults on smp0 while the original is parked
        assert res.resilience.task_faults == 1
        assert res.resilience.speculations_wasted == 1


class TestClusterDeadlines:
    def test_deadlines_come_from_the_node_profile_table(self):
        # each node's inner scheduler learns its own table, and a task's
        # deadline comes from the table of the node it runs on.  With
        # grace 1 and k 0, a profile deadline fires on any execution
        # slower than its mean, so copies launch; the cold deadline (8x
        # nominal) would never fire under a 2x slowdown
        app = MatmulApp(n_tiles=6, tile_size=64, variant="hyb")
        m = cluster_machine(4, smp_per_node=2, gpus_per_node=1,
                            noise_cv=0.02, seed=7)
        app.register_cost_models(m)
        plan = FaultPlan(seed=3, slowdowns=(WorkerSlowdown("n0gpu0", 0.0001, 2.0),))
        policy = RecoveryPolicy(speculate=True, deadline_grace=1.0,
                                deadline_k=0.0)
        rt = OmpSsRuntime(m, "cluster",
                          scheduler_options={"protocol": {"ack_timeout": 0.0005}},
                          fault_plan=plan, recovery=policy)
        with rt:
            app.master(rt)
        res = rt.result()
        assert res.tasks_completed == 216
        sources = [src for _, _, src in rt.resilience.watchdog.armed_log]
        assert "profile" in sources and "cold" in sources
        assert res.resilience.speculations_launched >= 1
        res.validate()


class TestClusterSpeculationTarget:
    def test_copy_goes_to_the_brute_force_earliest_executor(self):
        # a straggler's copy stays on its node; among that node's
        # eligible (version, worker) pairs it goes to the argmin of the
        # worker's busy estimate plus the version's mean, both read from
        # the node's inner scheduler and profile table.  Copies once went
        # to the least-queued worker of the whole cluster in name order
        app = MatmulApp(n_tiles=6, tile_size=64, variant="hyb")
        m = cluster_machine(4, smp_per_node=2, gpus_per_node=1,
                            noise_cv=0.02, seed=7)
        app.register_cost_models(m)
        plan = FaultPlan(seed=3, slowdowns=(WorkerSlowdown("n0gpu0", 0.0001, 2.0),))
        policy = RecoveryPolicy(speculate=True, deadline_grace=1.0,
                                deadline_k=0.0)
        rt = OmpSsRuntime(m, "cluster",
                          scheduler_options={"protocol": {"ack_timeout": 0.0005}},
                          fault_plan=plan, recovery=policy)
        sched = rt.scheduler
        manager = rt.resilience
        choose = manager._choose_speculation_pair
        chosen = []

        def brute_force(t, straggler):
            now = rt.engine.now
            node = sched.node_of_worker[straggler.name]
            inner = sched.inner[node]
            best = None
            for version in t.definition.versions:
                for w in rt.workers:
                    if (w is straggler or sched.node_of_worker[w.name] != node
                            or not w.alive or not w.available(now)
                            or w.device.kind not in version.device_kinds
                            or (version.name, w.name) in t.failed_pairs):
                        continue
                    mean = inner.table.group(t.name, t.data_bytes).mean_time(version.name)
                    key = (inner.estimated_busy_time(w) + (mean or 0.0),
                           w.name, version.name)
                    best = min(best, key) if best is not None else key
            return best

        def checked(t, straggler):
            want = brute_force(t, straggler)
            pair = choose(t, straggler)
            got = None if pair is None else (pair[1].name, pair[0].name)
            assert got == (None if want is None else want[1:]), (t.label, got, want)
            chosen.append((straggler.name, got))
            return pair

        manager._choose_speculation_pair = checked
        with rt:
            app.master(rt)
        res = rt.result()
        assert res.tasks_completed == 216
        placed = [(s, got[0]) for s, got in chosen if got is not None]
        assert len(placed) >= 10
        # stragglers on several nodes, each copy on its straggler's node
        assert len({sched.node_of_worker[s] for s, _w in placed}) > 1
        res.validate()


class TestQuarantineInteraction:
    def test_no_alternate_pair_when_the_only_other_worker_is_quarantined(
        self, registry
    ):
        """gpu0 quarantines itself out for the whole run; a hang on the
        smp worker then has no speculation target (the straggler's own
        worker never counts), so recovery falls back to cancel-and-retry
        — which must still satisfy SAN-T007."""
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        plan = FaultPlan(
            task_faults=[TaskFaultRule(worker="gpu0", at_starts=(1, 2))],
            hangs=[HangRule(worker="smp0", at_starts=(2,))],
        )
        policy = RecoveryPolicy(speculate=True, quarantine_threshold=2,
                                quarantine_cooldown=10.0)
        rt, res = run_tasks(m, make_calls(work, 12), plan=plan, policy=policy)
        assert res.tasks_completed == 12
        assert res.resilience.quarantines == 1
        assert res.resilience.hangs == 1
        assert res.resilience.straggler_detected >= 1
        # no eligible pair existed: the straggler path retried instead
        assert res.resilience.speculations_launched == 0
        assert records(res.trace, "speculate") == []
        res.validate()

    def test_speculation_target_avoids_quarantined_workers(self, registry):
        """With gpu0 quarantined and gpu1 hung, the copy must land on the
        smp worker — never on a worker inside its quarantine window."""
        m = make_machine(1, 2)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        plan = FaultPlan(
            task_faults=[TaskFaultRule(worker="gpu0", at_starts=(1, 2))],
            hangs=[HangRule(worker="gpu1", at_starts=(2,))],
        )
        policy = RecoveryPolicy(speculate=True, quarantine_threshold=2,
                                quarantine_cooldown=10.0)
        rt, res = run_tasks(m, make_calls(work, 16), plan=plan, policy=policy)
        assert res.tasks_completed == 16
        assert res.resilience.quarantines == 1

        windows = {}  # worker -> (start, end) quarantine window
        for q in records(res.trace, "quarantine"):
            cooldown = float(q.label.split("=", 1)[1])
            windows[q.worker] = (q.start, q.start + cooldown)
        assert "w:gpu0" in windows
        spec = records(res.trace, "speculate")
        assert spec  # the gpu1 hang did trigger a speculation
        for r in spec:
            lo_hi = windows.get(r.worker)
            assert lo_hi is None or not (lo_hi[0] <= r.start < lo_hi[1]), (
                f"speculative copy targeted quarantined worker {r.worker}"
            )
        res.validate()

    def test_probationary_readmission_with_speculation_enabled(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        plan = FaultPlan(task_faults=[TaskFaultRule(worker="gpu0",
                                                    at_starts=(1, 2))])
        policy = RecoveryPolicy(speculate=True, quarantine_threshold=2,
                                quarantine_cooldown=0.02)
        rt, res = run_tasks(m, make_calls(work, 16), plan=plan, policy=policy)
        assert res.tasks_completed == 16
        assert res.resilience.quarantines == 1
        assert res.resilience.readmissions == 1
        # after readmission the worker earns work again
        (r,) = records(res.trace, "readmit")
        assert any(rec.category == "task" and rec.start >= r.start
                   for rec in res.trace.for_worker("w:gpu0"))
        res.validate()


# ----------------------------------------------------------------------
# The acceptance criterion (test-sized mirror of bench_straggler)
# ----------------------------------------------------------------------
class TestAcceptance:
    N = 40

    def _plan(self):
        return FaultPlan(
            seed=7,
            hangs=[HangRule(at_starts=(6,))],
            slowdowns=[WorkerSlowdown("gpu1", 0.01, 20.0)],
        )

    def _run(self, *, plan, speculate, progress_horizon=None):
        registry = {}
        m = make_machine(2, 2)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        config = RuntimeConfig(progress_horizon=progress_horizon)
        _, res = run_tasks(m, make_calls(work, self.N), plan=plan,
                           config=config,
                           policy=RecoveryPolicy(speculate=speculate))
        assert res.tasks_completed == self.N
        res.validate()
        return res

    def test_speculation_recovers_within_2x_while_off_stalls(self):
        base = self._run(plan=None, speculate=True)
        spec = self._run(plan=self._plan(), speculate=True)
        assert spec.resilience.straggler_detected >= 1
        assert spec.resilience.speculations_launched >= 1
        assert spec.resilience.hangs == 1
        assert spec.makespan <= 2.0 * base.makespan, (
            f"speculation recovered only to "
            f"{spec.makespan / base.makespan:.2f}x of fault-free"
        )
        # same plan, speculation off: the hang pins its worker forever and
        # the progress watchdog is the only way out
        with pytest.raises(ProgressStallError):
            self._run(plan=self._plan(), speculate=False,
                      progress_horizon=base.makespan)


# ----------------------------------------------------------------------
# Progress watchdog
# ----------------------------------------------------------------------
class TestProgressWatchdog:
    def test_fires_on_a_hang_with_diagnostic_dump(self, registry):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(registry, machine=m)
        plan = FaultPlan(hangs=[HangRule(at_starts=(1,))])
        config = RuntimeConfig(progress_horizon=0.005, progress_stall_limit=2)
        with pytest.raises(ProgressStallError, match="no task completed") as ei:
            run_tasks(m, make_calls(work, 8), plan=plan, config=config)
        assert "progress watchdog dump at t=" in ei.value.dump
        assert "unfinished" in str(ei.value)

    def test_clean_run_is_not_aborted(self, registry):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(registry, machine=m)
        # the horizon must exceed the longest task (0.010s smp cost):
        # "no completion for a whole horizon" must mean a real stall
        config = RuntimeConfig(progress_horizon=0.02)
        rt, res = run_tasks(m, make_calls(work, 12), config=config)
        assert res.tasks_completed == 12
        assert rt.progress_watchdog is not None

    def test_config_validation(self):
        with pytest.raises(ValueError, match="progress_horizon"):
            RuntimeConfig(progress_horizon=-1.0)
        with pytest.raises(ValueError, match="stall_limit"):
            RuntimeConfig(progress_stall_limit=0)

    def test_watchdog_ctor_validation(self, registry):
        m = make_machine(1, 0)
        work, _ = make_two_version_task(registry, machine=m)
        rt = OmpSsRuntime(m, "versioning")
        with pytest.raises(ValueError, match="horizon"):
            ProgressWatchdog(rt, 0.0)
        with pytest.raises(ValueError, match="stall_limit"):
            ProgressWatchdog(rt, 1.0, stall_limit=0)
