"""The paper's earliest-executor rule on one node, against a brute-force
oracle (§IV-B, Fig. 5).

Every reliable-phase placement of the versioning scheduler must be the
argmin of ``(estimated busy time of the worker + mean time of the
version in the task's size group, worker name, version name)`` over the
available (version, worker) pairs that can run the task and have a
recorded mean.  With ``reliable_queue_bound`` set, only workers below
the bound count, and a group the room gate blocks (no worker below the
bound at all, or none that can run the task) must be one the oracle
cannot place either.
"""

import pytest

from repro import OmpSsRuntime
from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.sim.topology import minotauro_node

APPS = {
    "matmul": lambda: MatmulApp(n_tiles=4, tile_size=256, variant="hyb"),
    "cholesky": lambda: CholeskyApp(n_blocks=6, block_size=256, variant="hyb"),
}


def brute_force(rt, sched, t, bound):
    """The oracle's (worker name, version name) for ``t``, or None."""
    now = rt.engine.now
    group = sched.table.group(t.name, t.data_bytes)
    best = None
    for version in t.definition.versions:
        mean = group.mean_time(version.name)
        if mean is None:
            continue
        for w in rt.workers:
            if (w.device.kind not in version.device_kinds
                    or not w.available(now)
                    or (bound is not None and w.load() >= bound)):
                continue
            key = (sched.estimated_busy_time(w) + mean, w.name, version.name)
            best = key if best is None else min(best, key)
    return None if best is None else best[1:]


@pytest.mark.parametrize("bound", [None, 1])
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_reliable_placement_is_the_brute_force_argmin(app_name, bound):
    app = APPS[app_name]()
    m = minotauro_node(4, 2, noise_cv=0.05, seed=11)
    app.register_cost_models(m)
    options = {} if bound is None else {"reliable_queue_bound": bound}
    rt = OmpSsRuntime(m, "versioning", scheduler_options=options)
    sched = rt.scheduler
    choose, any_room = sched._choose, sched._any_room
    placed, blocked = [], []

    def checked_choose(t, versions, group, gkey):
        reliable = gkey in sched._left_learning or not sched.in_learning_phase(
            group, [v.name for v in versions])
        want = brute_force(rt, sched, t, bound) if reliable else None
        choice = choose(t, versions, group, gkey)
        if reliable:
            got = None if choice is None else (choice[1].name, choice[0].name)
            assert got == want, (t.label, got, want)
            if choice is None:
                blocked.append(t.label)  # no capable worker below the bound
            else:
                assert choice[2] is False
                placed.append(got)
        return choice

    def checked_any_room(b):
        room = any_room(b)
        if not room:
            gated = [t for t in sched._pool
                     if (t.name, sched.table.grouping.key(t.data_bytes))
                     in sched._left_learning]
            assert gated
            for t in gated:
                assert brute_force(rt, sched, t, bound) is None, t.label
                blocked.append(t.label)
        return room

    sched._choose = checked_choose
    sched._any_room = checked_any_room
    with rt:
        app.master(rt)
    res = rt.result()
    assert res.tasks_completed == (sched.learning_dispatches
                                   + sched.reliable_dispatches)
    assert sched.learning_dispatches > 0
    assert len(placed) == sched.reliable_dispatches > 0
    # the oracle is not trivially one worker: placements spread out
    assert len({w for w, _v in placed}) > 1
    # only a bound can leave a reliable group without a worker
    assert bool(blocked) == (bound is not None)
    res.validate()
