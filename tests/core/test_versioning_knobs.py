"""Tests for versioning-scheduler tunables and secondary behaviours."""

import pytest

from repro.core.versioning import VersioningScheduler
from repro.resilience.faults import FaultPlan, WorkerFailure
from repro.runtime.runtime import OmpSsRuntime
from repro.sim.topology import minotauro_node

from tests.conftest import MB, make_machine, make_two_version_task, region, run_tasks


def burst(work, n, size=MB):
    return [(work, region(("x", i), size), region(("y", i), size)) for i in range(n)]


class TestQueueDepth:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_any_depth_completes_all_tasks(self, depth):
        m = make_machine(2, 1)
        work, _ = make_two_version_task(machine=m)
        sched = VersioningScheduler(queue_depth=depth)
        res = run_tasks(m, sched, burst(work, 50))
        assert res.tasks_completed == 50

    def test_depth_bounds_queues_while_estimates_unknown(self):
        """Post-λ dispatches with unknown estimates are room-gated: with
        λ=1 the mandatory runs are one per version, everything else must
        respect the queue bound (or wait in the pool)."""
        m = make_machine(2, 1, noise=0.0)
        work, _ = make_two_version_task(machine=m, smp_cost=1.0, gpu_cost=1.0)
        sched = VersioningScheduler(queue_depth=2, lam=1)
        rt = OmpSsRuntime(m, sched)
        with rt:
            for i in range(12):
                work(region(("x", i)), region(("y", i)))
            # at t=0 nothing has finished; each worker holds at most the
            # room bound plus possibly one mandatory λ run
            for w in rt.workers:
                assert w.load() <= 2 + 1
            assert sched.pool_size() > 0  # the surplus waits in the pool
        rt.result()


class TestEstimatorSelection:
    def test_ewma_option_propagates(self):
        sched = VersioningScheduler(estimator="ewma", estimator_options={"alpha": 0.9})
        m = make_machine(1, 1)
        work, reg = make_two_version_task()
        reg(m)
        run_tasks(m, sched, burst(work, 10))
        group = sched.table.group("work_smp", 2 * MB)
        from repro.core.estimator import EWMA

        est = group.profile("work_gpu").estimator
        assert isinstance(est, EWMA)
        assert est.alpha == 0.9

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            VersioningScheduler(estimator="median")


class TestSchedulerOptionsViaRuntime:
    def test_options_passed_through_runtime_constructor(self):
        m = make_machine(1, 1)
        rt = OmpSsRuntime(m, "versioning", scheduler_options={"lam": 9})
        assert rt.scheduler.lam == 9

    def test_options_with_instance_rejected(self):
        m = make_machine(1, 1)
        with pytest.raises(ValueError):
            OmpSsRuntime(m, VersioningScheduler(), scheduler_options={"lam": 2})


class TestMultiplePhases:
    def test_profiles_survive_taskwait_phases(self):
        """One runtime, several taskwait-separated phases: learning done
        in phase 1 carries into phase 2 (no relearning)."""
        m = make_machine(2, 1)
        work, reg = make_two_version_task()
        reg(m)
        sched = VersioningScheduler(lam=3)
        rt = OmpSsRuntime(m, sched)
        with rt:
            for i in range(20):
                work(region(("p1", i)), region(("q1", i)))
            rt.taskwait()
            after_phase1 = sched.learning_dispatches
            for i in range(20):
                work(region(("p2", i)), region(("q2", i)))
        assert sched.learning_dispatches == after_phase1  # no new learning

    def test_two_apps_one_runtime_share_nothing(self):
        """The Table I scenario: distinct task sets profile separately."""
        from repro.apps.matmul import MatmulApp

        m = minotauro_node(2, 1, noise_cv=0.0)
        a = MatmulApp(n_tiles=2, tile_size=256, variant="hyb")
        b = MatmulApp(n_tiles=2, tile_size=512, variant="hyb")
        a.register_cost_models(m)
        b.register_cost_models(m)
        sched = VersioningScheduler()
        rt = OmpSsRuntime(m, sched)
        with rt:
            a.master(rt)
            rt.taskwait()
            b.master(rt)
        rt.result()
        vset = sched.table.version_set("matmul_tile_cublas")
        assert len(vset) == 2  # two size groups, independently learned


def warm_hints(work, reg, n=12):
    """A profile table in which ``work``'s 2 MB group has left learning."""
    m = make_machine(2, 1)
    reg(m)
    sched = VersioningScheduler()
    run_tasks(m, sched, burst(work, n))
    return sched.table.to_dict()


def record_dispatches(rt, sched):
    """Wrap ``rt.dispatch``: log (task name, worker, is_reliable, load
    after the dispatch) for every placement the scheduler makes."""
    log = []
    inner = rt.dispatch
    seen = {"reliable": 0}

    def dispatch(t, worker, version):
        reliable = sched.reliable_dispatches > seen["reliable"]
        seen["reliable"] = sched.reliable_dispatches
        inner(t, worker, version)
        log.append((t.name, worker.name, reliable, worker.load()))

    rt.dispatch = dispatch
    return log


class TestReliableQueueBound:
    """Late binding: with ``reliable_queue_bound`` set, reliable-phase
    placements wait in the pool until a worker is below the bound."""

    @pytest.mark.parametrize("bound", [1, 2, 4])
    def test_bounded_run_completes_and_respects_bound(self, bound):
        m = make_machine(2, 1, noise=0.02, seed=5)
        work, reg = make_two_version_task()
        reg(m)
        sched = VersioningScheduler(reliable_queue_bound=bound)
        rt = OmpSsRuntime(m, sched)
        log = record_dispatches(rt, sched)
        with rt:
            for fn, *args in burst(work, 60):
                fn(*args)
        res = rt.result()
        assert res.tasks_completed == 60
        reliable = [load for _, _, is_reliable, load in log if is_reliable]
        assert reliable, "the run never reached the reliable phase"
        assert max(reliable) <= bound
        assert sched.pool_size() == 0

    def test_full_workers_block_a_graduated_group_unscored(self):
        """A finish hook that leaves every worker at the bound places
        nothing of a group that has left learning, and scores none of
        its tasks: the room gate blocks the group before
        ``_earliest_executor`` runs."""
        reg_table: dict = {}
        work, reg = make_two_version_task(reg_table)
        other, reg_other = make_two_version_task(
            reg_table, name="other", smp_cost=0.004, gpu_cost=0.002
        )
        m = make_machine(2, 1)
        reg(m)
        reg_other(m)
        sched = VersioningScheduler(
            lam=2, reliable_queue_bound=1, hints=warm_hints(work, reg)
        )
        scored: list[str] = []
        score = sched._earliest_executor

        def counting(t, *args, **kw):
            scored.append(t.name)
            return score(t, *args, **kw)

        sched._earliest_executor = counting
        gated = []
        finished = sched.task_finished

        def on_finish(t, worker, measured):
            pooled = {p.name for p in sched._pool}
            full = not sched._any_room(1)
            before = len(scored)
            finished(t, worker, measured)
            if full and "work_smp" in pooled:
                gated.append(scored[before:].count("work_smp"))

        sched.task_finished = on_finish
        rt = OmpSsRuntime(m, sched)
        with rt:
            # "other" is still learning: its 2 x λ mandatory runs queue
            # past the bound, so a worker stays full after one finishes
            for i in range(4):
                other(region(("o", i)), region(("p", i)))
            for fn, *args in burst(work, 8):
                fn(*args)
        assert rt.result().tasks_completed == 12
        assert gated, "no finish hook ran with every worker full"
        assert gated == [0] * len(gated)

    def test_learning_runs_queue_on_full_workers(self):
        """λ-runs are mandatory: they queue past the reliable bound
        rather than wait in the pool for room."""
        m = make_machine(2, 1)
        work, reg = make_two_version_task()
        reg(m)
        sched = VersioningScheduler(lam=3, reliable_queue_bound=1)
        rt = OmpSsRuntime(m, sched)
        log = record_dispatches(rt, sched)
        with rt:
            for fn, *args in burst(work, 12):
                fn(*args)
            # nothing has finished at t=0: both versions' λ runs are
            # all placed, and the GPU queues its three past the bound
            assert sched.learning_dispatches >= 2 * 3
            assert sched.reliable_dispatches == 0
            assert max(load for *_, load in log) == 3
        assert rt.result().tasks_completed == 12


class TestLeftLearning:
    @pytest.mark.parametrize("warm_start", ["trust", "probation"])
    def test_graduated_group_never_relearns(self, warm_start):
        """``learning_credit`` never decreases, so a group that has left
        learning stays out of it: no later dispatch of the group is a
        learning one, and ``in_learning_phase`` stays false for it."""
        m = make_machine(2, 1, noise=0.02, seed=1)
        work, reg = make_two_version_task()
        reg(m)
        sched = VersioningScheduler(
            lam=3, warm_start=warm_start, hints=warm_hints(work, reg),
            reliable_queue_bound=2,
        )
        rt = OmpSsRuntime(m, sched)
        log = record_dispatches(rt, sched)
        finished = sched.task_finished
        relearned = []

        def on_finish(t, worker, measured):
            finished(t, worker, measured)
            group = sched.table.group(t.name, t.data_bytes)
            gkey = (t.name, sched.table.grouping.key(t.data_bytes))
            if gkey in sched._left_learning:
                relearned.append(
                    sched.in_learning_phase(group, ["work_smp", "work_gpu"])
                )

        sched.task_finished = on_finish
        with rt:
            for fn, *args in burst(work, 40):
                fn(*args)
        assert rt.result().tasks_completed == 40
        phases = [reliable for name, _, reliable, _ in log if name == "work_smp"]
        first = phases.index(True)
        assert all(phases[first:])
        assert relearned and not any(relearned)
        if warm_start == "probation":
            # probation re-validates each preloaded version live first
            assert sched.learning_dispatches > 0
        else:
            assert sched.learning_dispatches == 0

    def test_rebinding_relearns_versions_the_last_run_lost(self):
        """A pooled scheduler rebinds to a fresh runtime: a group that
        left learning while its GPU was dead learns the GPU version once
        a live GPU can run it again."""
        work, reg = make_two_version_task()
        sched = VersioningScheduler(lam=3)
        first = make_machine(1, 1)
        reg(first)
        plan = FaultPlan(worker_failures=(WorkerFailure("gpu0", 0.0),))
        rt = OmpSsRuntime(first, sched, fault_plan=plan)
        with rt:
            for fn, *args in burst(work, 10):
                fn(*args)
        assert "work_gpu" not in rt.result().version_counts["work_smp"]
        assert sched._left_learning

        second = make_machine(1, 1)
        reg(second)
        res = run_tasks(second, sched, burst(work, 10))
        assert res.version_counts["work_smp"]["work_gpu"] >= sched.lam

    def test_rebinding_after_a_cut_run_starts_clean(self):
        """A run cut by the wall deadline leaves tasks pooled and
        estimated; the next run on the same scheduler must not see them,
        while the learned profile table carries over."""
        import time

        from repro.apps.matmul import MatmulApp
        from repro.schedulers.registry import create_scheduler
        from repro.sim.engine import WallDeadlineExceededError

        sched = create_scheduler("versioning")
        app = MatmulApp(4, 64, variant="hyb")

        def runtime():
            machine = minotauro_node(2, 1, seed=0)
            app.register_cost_models(machine)
            return OmpSsRuntime(machine, sched)

        cut = runtime()
        cut.engine.wall_deadline = time.perf_counter() - 1.0
        with pytest.raises(WallDeadlineExceededError):
            with cut:
                app.master(cut)
        assert cut.engine.events_processed == 0
        assert sched.pool_size() > 0 and sched._est_by_uid

        rt = runtime()
        with rt:
            app.master(rt)
        res = rt.result()
        assert res.tasks_completed == 64
        assert res.validate() == []

        learned = sched.learning_dispatches
        rt = runtime()
        with rt:
            app.master(rt)
        assert rt.result().tasks_completed == 64
        assert sched.learning_dispatches == learned
