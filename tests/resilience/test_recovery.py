"""Integration tests for the recovery machinery: retries, alternate
(version, worker) pairs, permanent worker death, quarantine, and
transfer retries — all driven through the full runtime."""

import numpy as np
import pytest

from repro import (
    FaultPlan,
    OmpSsRuntime,
    RecoveryPolicy,
    TaskFaultRule,
    TaskRetryExceededError,
    TransferFaultRule,
    TransferRetryExceededError,
    WorkerFailure,
)
from repro.apps.matmul import MatmulApp
from repro.resilience import (
    LinkDegradation,
    NodeCrashRule,
    ResilienceStats,
    recovery_defaults,
)
from repro.runtime.directives import task
from repro.sim.engine import EventKind
from repro.sim.perfmodel import FixedCostModel
from repro.sim.topology import cluster_machine
from tests.conftest import make_machine, make_two_version_task, region


def run_with_plan(machine, scheduler, calls, *, plan=None, policy=None,
                  config=None, scheduler_options=None):
    rt = OmpSsRuntime(machine, scheduler, config=config,
                      scheduler_options=scheduler_options,
                      fault_plan=plan, recovery=policy)
    with rt:
        for fn, *args in calls:
            fn(*args)
    return rt.result()


def records(trace, category):
    return [r for r in trace if r.category == category]


class TestTransientFaults:
    def test_transient_fault_is_retried_and_run_completes(self, registry):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(registry, machine=m)
        calls = [(work, region(("a", i)), region(("b", i))) for i in range(10)]
        plan = FaultPlan(task_faults=[TaskFaultRule(worker="gpu0",
                                                    at_starts=(1,))])
        res = run_with_plan(m, "versioning", calls, plan=plan)
        assert res.tasks_completed == 10
        assert res.resilience.task_faults == 1
        assert res.resilience.retries == 1
        assert len(records(res.trace, "fault")) == 1
        assert len(records(res.trace, "retry")) == 1
        # the faulted slice still occupied the worker in the trace
        assert records(res.trace, "fault")[0].worker == "w:gpu0"

    def test_retry_prefers_alternate_version_worker_pair(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        calls = [(work, region(("a", i)), region(("b", i))) for i in range(6)]
        # the very first task start anywhere faults once
        plan = FaultPlan(task_faults=[TaskFaultRule(at_starts=(1,))])
        res = run_with_plan(m, "versioning", calls, plan=plan)
        assert res.tasks_completed == 6

        (fault,) = records(res.trace, "fault")
        failed_pair = (fault.worker, fault.label)  # (worker, version)
        local_id = fault.meta[0]
        done = [r for r in records(res.trace, "task")
                if r.meta and r.meta[0] == local_id]
        assert len(done) == 1
        # both a different worker AND a different version are available;
        # the retry must not reuse the failed pair
        assert (done[0].worker, done[0].label) != failed_pair

    def test_retry_budget_exhaustion_aborts_the_run(self, registry):
        m = make_machine(1, 0)
        work, _ = make_two_version_task(registry, machine=m)
        # only one (version, worker) pair exists, and it always faults
        plan = FaultPlan(task_faults=[TaskFaultRule(at_starts=(1, 2, 3))])
        policy = RecoveryPolicy(max_task_retries=2, quarantine_threshold=99)
        rt = OmpSsRuntime(m, "bf", fault_plan=plan, recovery=policy)
        with pytest.raises(TaskRetryExceededError, match="faulted 3 times"):
            with rt:
                work(region("a"), region("b"))

    def test_faulted_runs_never_reach_profile_tables(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        calls = [(work, region(("a", i)), region(("b", i))) for i in range(8)]
        plan = FaultPlan(task_faults=[TaskFaultRule(worker="gpu0",
                                                    at_starts=(1, 3))])
        rt = OmpSsRuntime(m, "versioning", fault_plan=plan)
        with rt:
            for fn, *args in calls:
                fn(*args)
        res = rt.result()
        assert res.tasks_completed == 8
        # recorded executions == completed tasks: no faulted duration leaked
        table = rt.scheduler.table
        total_recorded = sum(
            grp.total_executions()
            for vset in table.sets() for grp in vset.groups()
        )
        assert total_recorded == 8


class TestWorkerDeath:
    def _axpy(self, registry, machine):
        @task(inputs=["x"], outputs=["y"], device="smp", name="axpy_smp",
              registry=registry)
        def axpy(x, y):
            y[:] = 2.0 * x + 1.0

        @task(inputs=["x"], outputs=["y"], device="cuda",
              implements="axpy_smp", name="axpy_gpu", registry=registry)
        def axpy_gpu(x, y):
            y[:] = 2.0 * x + 1.0

        machine.register_kernel_for_kind("smp", "axpy_smp",
                                         FixedCostModel(0.004))
        machine.register_kernel_for_kind("cuda", "axpy_gpu",
                                         FixedCostModel(0.001))
        return axpy

    def test_dead_gpu_tasks_are_redispatched_and_results_correct(self, registry):
        m = make_machine(2, 2)
        axpy = self._axpy(registry, m)
        n = 40
        xs = [np.full(256, float(i)) for i in range(n)]
        ys = [np.zeros(256) for _ in range(n)]
        death = 0.0035
        plan = FaultPlan(worker_failures=[WorkerFailure("gpu1", death)])
        rt = OmpSsRuntime(m, "versioning", fault_plan=plan)
        with rt:
            for x, y in zip(xs, ys):
                axpy(x, y)
        res = rt.result()

        assert res.resilience.worker_failures == 1
        # gpu1 had work (running and/or queued) that moved elsewhere
        assert res.resilience.tasks_redispatched >= 1
        assert len(records(res.trace, "worker-down")) == 1
        # the run still completes every task, numerically correct
        assert res.tasks_completed == n
        for i in range(n):
            np.testing.assert_allclose(ys[i], 2.0 * xs[i] + 1.0)
        # nothing executes on the dead worker after its death time
        late = [r for r in res.trace.for_worker("w:gpu1")
                if r.category == "task" and r.start >= death]
        assert late == []
        # the surviving GPU keeps executing afterwards
        assert any(r.category == "task" and r.start > death
                   for r in res.trace.for_worker("w:gpu0"))

    def test_aborted_task_does_not_burn_retry_budget(self, registry):
        m = make_machine(1, 1)
        axpy = self._axpy(registry, m)
        xs = [np.full(64, float(i)) for i in range(4)]
        ys = [np.zeros(64) for _ in range(4)]
        plan = FaultPlan(worker_failures=[WorkerFailure("gpu0", 0.0005)])
        # a zero retry budget: any *fault* would abort the run, so
        # completing proves the abort path never touched the budget
        policy = RecoveryPolicy(max_task_retries=0)
        rt = OmpSsRuntime(m, "versioning", fault_plan=plan, recovery=policy)
        with rt:
            for x, y in zip(xs, ys):
                axpy(x, y)
        res = rt.result()
        assert res.tasks_completed == 4
        assert res.resilience.task_faults == 0
        assert len(records(res.trace, "aborted")) <= 1


class TestDeterminism:
    def _run(self, registry):
        m = make_machine(2, 2, noise=0.05, seed=3)
        work, _ = make_two_version_task(registry, machine=m)
        calls = [(work, region(("a", i)), region(("b", i)))
                 for i in range(30)]
        plan = FaultPlan(
            seed=11,
            task_faults=[TaskFaultRule(probability=0.15)],
            transfer_faults=[TransferFaultRule(dst="gpu0", at_attempts=(2,))],
            worker_failures=[WorkerFailure("gpu1", 0.02)],
        )
        return run_with_plan(m, "versioning", calls, plan=plan)

    def test_same_fault_plan_seed_gives_identical_traces(self):
        a = self._run({})
        b = self._run({})
        assert a.resilience.any_failures  # the plan actually did something
        assert a.trace == b.trace
        assert a.makespan == b.makespan
        assert a.resilience.as_dict() == b.resilience.as_dict()
        assert a.version_counts == b.version_counts


class TestQuarantine:
    def test_streak_quarantines_then_readmits(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, smp_cost=0.010,
                                        gpu_cost=0.001, machine=m)
        calls = [(work, region(("a", i)), region(("b", i)))
                 for i in range(16)]
        # two consecutive faults on gpu0 trip the threshold
        plan = FaultPlan(task_faults=[TaskFaultRule(worker="gpu0",
                                                    at_starts=(1, 2))])
        policy = RecoveryPolicy(max_task_retries=3, quarantine_threshold=2,
                                quarantine_cooldown=0.02)
        res = run_with_plan(m, "versioning", calls, plan=plan, policy=policy)

        assert res.tasks_completed == 16
        assert res.resilience.quarantines == 1
        assert res.resilience.readmissions == 1
        (q,) = records(res.trace, "quarantine")
        (r,) = records(res.trace, "readmit")
        assert q.worker == r.worker == "w:gpu0"
        window = (q.start, q.start + 0.02)
        # no task starts on the quarantined worker inside the window
        started_in_window = [
            rec for rec in res.trace.for_worker("w:gpu0")
            if rec.category in ("task", "fault")
            and window[0] <= rec.start < window[1]
        ]
        assert started_in_window == []
        # after readmission the worker earns work again
        assert any(rec.category == "task" and rec.start >= window[1]
                   for rec in res.trace.for_worker("w:gpu0"))

    def test_success_resets_the_fault_streak(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        calls = [(work, region(("a", i)), region(("b", i)))
                 for i in range(12)]
        # faults on gpu0 starts 1 and 3: a clean execution sits between
        # them, so the streak never reaches the threshold of 2
        plan = FaultPlan(task_faults=[TaskFaultRule(worker="gpu0",
                                                    at_starts=(1, 3))])
        policy = RecoveryPolicy(quarantine_threshold=2)
        res = run_with_plan(m, "versioning", calls, plan=plan, policy=policy)
        assert res.tasks_completed == 12
        assert res.resilience.task_faults == 2
        assert res.resilience.quarantines == 0


    def test_stale_readmission_skips_a_rejoined_worker(self):
        """A node crash ends its workers' quarantines: the readmission
        scheduled by a quarantine before the crash must not fire on the
        rebooted worker after the rejoin."""
        m = cluster_machine(4, smp_per_node=2, gpus_per_node=1,
                            noise_cv=0.02, seed=7)
        app = MatmulApp(n_tiles=6, tile_size=64, variant="hyb")
        app.register_cost_models(m)
        plan = FaultPlan(
            seed=1,
            task_faults=(TaskFaultRule(worker="n2gpu0", at_starts=(1, 2, 3)),),
            node_crashes=(NodeCrashRule(node=2, at_time=0.0004,
                                        rejoin_after=0.0001),),
        )
        rt = OmpSsRuntime(m, "cluster", scheduler_options={"partition": "block"},
                          fault_plan=plan,
                          recovery=RecoveryPolicy(quarantine_cooldown=0.001))
        with rt:
            app.master(rt)
        res = rt.result()
        assert res.tasks_completed == 6 ** 3
        (q,) = records(res.trace, "quarantine")
        (up,) = records(res.trace, "node-up")
        assert q.worker == "w:n2gpu0" and q.start < up.start
        assert records(res.trace, "readmit") == []
        assert res.resilience.quarantines == 1
        assert res.resilience.readmissions == 0


class TestInstallRule:
    """Recovery is installed only when a fault plan injects something or
    the policy speculates; a fault-free run schedules no recovery event."""

    RECOVERY_KINDS = {EventKind.TASK_FAIL, EventKind.WATCHDOG,
                      EventKind.RETRY, EventKind.WORKER_DOWN}

    def _run(self, *, n=8, **kwargs):
        """Run ``n`` independent tasks; returns (rt, result, event kinds)."""
        m = make_machine(2, 1)
        work, _ = make_two_version_task({}, machine=m)
        rt = OmpSsRuntime(m, "versioning", **kwargs)
        kinds = []
        schedule = rt.engine.schedule

        def spy(when, callback, **kw):
            kinds.append(kw.get("kind", EventKind.GENERIC))
            return schedule(when, callback, **kw)

        rt.engine.schedule = spy
        with rt:
            for i in range(n):
                work(region(("a", i)), region(("b", i)))
        return rt, rt.result(), kinds

    @pytest.mark.parametrize("plan", [None, FaultPlan()], ids=["none", "empty"])
    @pytest.mark.parametrize("policy", [None, RecoveryPolicy()],
                             ids=["implicit", "default"])
    def test_fault_free_run_installs_no_recovery(self, plan, policy):
        rt, res, kinds = self._run(fault_plan=plan, recovery=policy)
        assert rt.resilience is None
        assert rt.transfer_engine.resilience is None
        assert res.tasks_completed == 8
        assert res.resilience == ResilienceStats()
        assert kinds and not self.RECOVERY_KINDS.intersection(kinds)

    def test_no_plan_and_empty_plan_give_identical_results(self):
        _, none, _ = self._run(fault_plan=None)
        _, empty, _ = self._run(fault_plan=FaultPlan())
        assert none.to_json() == empty.to_json()

    def test_link_degradation_alone_installs_recovery(self):
        _, plain, _ = self._run()
        plan = FaultPlan(link_degradations=(
            LinkDegradation(at_time=0.0, bandwidth_factor=4.0),
        ))
        rt, slow, _ = self._run(fault_plan=plan)
        assert rt.resilience is not None
        assert rt.transfer_engine.resilience is rt.resilience

        def copy_time(res):
            return sum(r.end - r.start for r in records(res.trace, "transfer"))

        assert len(records(slow.trace, "transfer")) > 0
        assert copy_time(slow) > copy_time(plain)

    def test_speculation_from_recovery_defaults_installs_and_arms(self):
        with recovery_defaults(RecoveryPolicy(speculate=True)):
            rt, res, kinds = self._run()
        assert rt.resilience is not None and rt.resilience.policy.speculate
        # no fault plan: transfers never consult the manager
        assert rt.transfer_engine.resilience is None
        assert res.tasks_completed == 8
        assert len(rt.resilience.watchdog.armed_log) == 8
        assert kinds.count(EventKind.WATCHDOG) == 8


class TestTransferFaults:
    def test_transfer_fault_is_retried_with_backoff(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        calls = [(work, region(("a", i)), region(("b", i))) for i in range(4)]
        plan = FaultPlan(transfer_faults=[
            TransferFaultRule(src="host", dst="gpu0", at_attempts=(1,)),
        ])
        res = run_with_plan(m, "versioning", calls, plan=plan)
        assert res.tasks_completed == 4
        assert res.resilience.transfer_faults == 1
        assert res.resilience.transfer_retries == 1
        faulted = records(res.trace, "transfer-fault")
        assert len(faulted) == 1
        assert faulted[0].worker == "link:host->gpu0"

    def test_transfer_retry_budget_exhaustion_aborts(self, registry):
        m = make_machine(1, 1)
        work, _ = make_two_version_task(registry, machine=m)
        plan = FaultPlan(transfer_faults=[
            TransferFaultRule(dst="gpu0", at_attempts=(1, 2, 3)),
        ])
        policy = RecoveryPolicy(transfer_max_retries=2)
        rt = OmpSsRuntime(m, "versioning", fault_plan=plan, recovery=policy)
        with pytest.raises(TransferRetryExceededError):
            with rt:
                # several tasks so the learning phase sends one to the GPU
                # (its input transfer then faults past the retry budget)
                for i in range(6):
                    work(region(("a", i)), region(("b", i)))
