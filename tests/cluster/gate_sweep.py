"""Differential sweep: the cluster path's gates against their open forms.

The sharded cluster scheduler runs its steal scan only when
``ShardedClusterScheduler._steal_due`` says a steal may have become
possible, and the versioning pump reuses each definition's runnable
versions until a worker's ``alive`` flag flips.  Both are claimed exact:
forcing the gate open (a scan after every release and finish) and the
cache cold (runnable versions recomputed at every lookup) must leave
every result and trace byte unchanged.  This module runs one case both
ways and compares digests; ``test_gates.py`` runs a tier-1 slice, and
the tier-2 sweep runs from the command line::

    PYTHONPATH=src python -m tests.cluster.gate_sweep           # tier 2
    PYTHONPATH=src python -m tests.cluster.gate_sweep --tiles 6 --nodes 4
"""

from __future__ import annotations

import argparse
import contextlib
from typing import Optional
from unittest import mock

from repro.apps.matmul import MatmulApp
from repro.cluster.sharded import ShardedClusterScheduler
from repro.core.versioning import VersioningScheduler
from repro.resilience.faults import (
    FaultPlan,
    HangRule,
    LinkDegradation,
    MessageFaultRule,
    NodeCrashRule,
    TaskFaultRule,
    TransferFaultRule,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.runtime import OmpSsRuntime
from repro.sim.topology import cluster_machine

from tests.sim.golden_cases import digest_result

#: The golden suite's fault presets, on cluster device names: "none",
#: "chaos-early" (transient faults, a hang, a slowed GPU and a worker
#: death; run with speculation), "netloss" (message drops and delays),
#: "crash-rejoin" (node 2 crashes mid-run and rejoins), "flaky" (a GPU
#: quarantined and readmitted, transfer retries, a degraded link),
#: "stragglers" (hangs under an aggressive deadline: speculative copies
#: win and stop their originals on other nodes), "slow-copy" (a GPU
#: slowed just past the cold deadline, so originals often finish first
#: and withdraw their copies) and "requeue-backlog" (faults that idle
#: workers while pools back up, and a GPU death)
PRESETS = (
    "none", "chaos-early", "netloss", "crash-rejoin", "flaky", "stragglers",
    "slow-copy", "requeue-backlog",
)


def fault_plan(name: str) -> Optional[FaultPlan]:
    if name == "none":
        return None
    if name == "chaos-early":
        return FaultPlan(
            seed=7,
            task_faults=(TaskFaultRule(at_starts=(3, 9), probability=0.02),),
            worker_failures=(WorkerFailure("n1smp1", 0.0002),),
            hangs=(HangRule(at_starts=(5,)),),
            slowdowns=(WorkerSlowdown("n1gpu0", 0.0005, 20.0),),
        )
    if name == "netloss":
        return FaultPlan(
            seed=11,
            message_faults=(MessageFaultRule(drop=0.15, delay=0.05, delay_time=0.0001),),
        )
    if name == "crash-rejoin":
        return FaultPlan(
            seed=11,
            node_crashes=(NodeCrashRule(node=2, at_time=0.0003, rejoin_after=0.0002),),
        )
    if name == "flaky":
        return FaultPlan(
            seed=5,
            task_faults=(TaskFaultRule(worker="n1gpu0", at_starts=(2, 3, 4)),),
            transfer_faults=(TransferFaultRule(at_attempts=(3, 8)),),
            link_degradations=(
                LinkDegradation(at_time=0.0, until=0.0004, bandwidth_factor=3.0),
            ),
        )
    if name == "stragglers":
        return FaultPlan(seed=3, hangs=(HangRule(at_starts=(4, 7, 30, 60)),))
    if name == "slow-copy":
        return FaultPlan(seed=3, slowdowns=(WorkerSlowdown("n1gpu0", 0.0001, 9.5),))
    if name == "requeue-backlog":
        # the golden preset of that name, moved earlier for 6-tile runs
        return FaultPlan(
            seed=7,
            task_faults=(TaskFaultRule(at_starts=(20, 60, 100)),),
            worker_failures=(WorkerFailure("n1gpu0", 0.0006),),
        )
    raise ValueError(f"unknown preset {name!r}")


def recovery_policy(name: str, speculate: bool) -> Optional[RecoveryPolicy]:
    if name == "flaky":
        return RecoveryPolicy(quarantine_cooldown=0.0002, speculate=speculate)
    if name == "stragglers":
        return RecoveryPolicy(speculate=True, deadline_grace=1.0, deadline_k=0.0)
    if speculate or name in ("chaos-early", "slow-copy"):
        return RecoveryPolicy(speculate=True)
    return None


class _NeverCached(dict):
    """A runnable-version cache that forgets every entry."""

    def __setitem__(self, key, value) -> None:
        pass


@contextlib.contextmanager
def gates_forced_open():
    """Scan for steals after every release and finish, and recompute
    runnable versions at every lookup."""
    bind = VersioningScheduler.bind

    def cold_bind(self, runtime) -> None:
        bind(self, runtime)
        self._runnable = _NeverCached()

    with mock.patch.object(
        ShardedClusterScheduler, "_steal_due", lambda self, node, released: True
    ), mock.patch.object(VersioningScheduler, "bind", cold_bind):
        yield


def run(
    preset: str,
    *,
    partition: str,
    nodes: int = 4,
    tiles: int = 6,
    queue_bound: int = 4,
    speculate: bool = False,
) -> tuple[dict, int]:
    """One cluster matmul run: its digest and its number of steal scans."""
    app = MatmulApp(n_tiles=tiles, tile_size=64, variant="hyb")
    machine = cluster_machine(nodes, smp_per_node=2, gpus_per_node=1, noise_cv=0.02, seed=7)
    app.register_cost_models(machine)
    rt = OmpSsRuntime(
        machine,
        "cluster",
        scheduler_options={
            "partition": partition,
            "steal": True,
            "inner_options": {"reliable_queue_bound": queue_bound},
            "protocol": {"ack_timeout": 0.0005},
        },
        fault_plan=fault_plan(preset),
        recovery=recovery_policy(preset, speculate),
    )
    scans = 0
    steal = ShardedClusterScheduler._maybe_steal

    def counted(self) -> None:
        nonlocal scans
        scans += 1
        steal(self)

    with mock.patch.object(ShardedClusterScheduler, "_maybe_steal", counted), rt:
        app.master(rt)
    return digest_result(rt.result(), rt.engine.events_processed), scans


def compare(preset: str, **kwargs) -> tuple[bool, int, int]:
    """Run ``preset`` gated and forced open: (digests equal, scans, open scans)."""
    gated, scans = run(preset, **kwargs)
    with gates_forced_open():
        opened, open_scans = run(preset, **kwargs)
    return gated == opened, scans, open_scans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiles", type=int, default=8)
    ap.add_argument("--nodes", type=int, nargs="+", default=[4, 8])
    args = ap.parse_args(argv)
    failed = 0
    total = total_open = 0
    for nodes in args.nodes:
        for partition in ("affinity", "block"):
            for bound in (1, 4):
                for preset in PRESETS:
                    for speculate in (False, True):
                        same, scans, open_scans = compare(
                            preset, partition=partition, nodes=nodes,
                            tiles=args.tiles, queue_bound=bound, speculate=speculate,
                        )
                        total += scans
                        total_open += open_scans
                        failed += not same
                        print(
                            f"{'ok  ' if same else 'DIFF'} cluster{nodes} {partition:8s} "
                            f"bound={bound} {preset:15s} speculate={int(speculate)} "
                            f"scans {scans}/{open_scans}"
                        )
    print(f"steal scans: {total} gated, {total_open} forced open; {failed} differing runs")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
