"""Case matrix + digest helpers for the golden-trace equivalence suite.

The golden suite pins the *observable outcome* of a fixed matrix of
simulated runs — app × scheduler × machine × seed, with and without
fault plans — as SHA-256 digests of the serialized :class:`RunResult`
and :class:`Trace`.  The committed fixture file was generated from the
pre-optimization tree, so the suite proves the flattened hot path
(batched event core, interned regions) did not change a single trace
byte versus the seed behavior.

Regenerate fixtures (only after an *intentional* semantic change) with::

    PYTHONPATH=src python -m pytest tests/sim/test_trace_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_traces.json"


@dataclass(frozen=True)
class GoldenCase:
    """One pinned run of the matrix."""

    id: str
    app: str                      # "matmul" | "cholesky" | "pbpi"
    app_args: Mapping[str, Any] = field(default_factory=dict)
    scheduler: str = "versioning"
    scheduler_options: Optional[Mapping[str, Any]] = None
    machine: str = "node"         # key into _machine()
    config: Optional[Mapping[str, Any]] = None
    faults: Optional[str] = None  # key into _fault_plan()
    #: RecoveryPolicy options; None runs the default policy
    recovery: Optional[Mapping[str, Any]] = None
    #: resilience / cluster counters (``fired_counters``) the fault plan
    #: must drive above zero, so a case cannot silently stop firing
    fires: tuple[str, ...] = ()


def _machine(name: str):
    from repro.sim.topology import cluster_machine, minotauro_node

    if name == "node":
        return minotauro_node(4, 2, noise_cv=0.02, seed=3)
    if name == "node-quiet":
        return minotauro_node(2, 1, noise_cv=0.0, seed=0)
    if name == "cluster4":
        return cluster_machine(
            4, smp_per_node=2, gpus_per_node=1, noise_cv=0.02, seed=7
        )
    raise ValueError(f"unknown golden machine {name!r}")


def _fault_plan(name: Optional[str]):
    if name is None:
        return None
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

    if name in ("chaos", "chaos-early"):
        # transient faults + a straggler pair (hang + slowdown): retry
        # and a speculative win fire.  The plain plan kills smp1 at
        # 0.02 s, after its run has ended (~0.0006 s), so no worker dies;
        # "chaos-early" kills it at 0.0002 s, mid-run
        return FaultPlan(
            seed=7,
            task_faults=(TaskFaultRule(at_starts=(3, 9), probability=0.02),),
            worker_failures=(
                WorkerFailure("smp1", 0.02 if name == "chaos" else 0.0002),
            ),
            hangs=(HangRule(at_starts=(5,)),),
            slowdowns=(WorkerSlowdown("gpu1", 0.0005, 20.0),),
        )
    if name == "netloss":
        # lossy interconnect + a node crash, both armed but neither
        # fired: the crash at 0.05 s falls after the run ends
        # (~0.0008 s), and the case it runs in has no cross-shard edges,
        # so no message is sent to drop
        return FaultPlan(
            seed=11,
            message_faults=(MessageFaultRule(drop=0.15, delay=0.05, delay_time=0.001),),
            node_crashes=(NodeCrashRule(node=2, at_time=0.05),),
        )
    if name == "netloss-rejoin":
        # lossy interconnect + a mid-run crash of node 2 that rejoins:
        # drops, retransmission, evacuation and lineage recompute fire
        return FaultPlan(
            seed=11,
            message_faults=(MessageFaultRule(drop=0.15, delay=0.05, delay_time=0.0001),),
            node_crashes=(NodeCrashRule(node=2, at_time=0.0003, rejoin_after=0.0002),),
        )
    if name == "crash-rejoin":
        # a mid-run crash of node 2 that rejoins, on a reliable network:
        # lost regions are recomputed and waiting readers re-issue their
        # transfers once the recomputation lands
        return FaultPlan(
            seed=11,
            node_crashes=(NodeCrashRule(node=2, at_time=0.0003, rejoin_after=0.0002),),
        )
    if name == "stragglers":
        # a slowed GPU + two hangs under an aggressive deadline: copies
        # are cancelled when the original wins, copies win, and one
        # straggler that cannot be speculated is aborted and retried
        # (the plan has no task faults, so that abort is its only retry)
        return FaultPlan(
            seed=3,
            slowdowns=(WorkerSlowdown("gpu0", 0.0001, 2.0),),
            hangs=(HangRule(at_starts=(4, 7)),),
        )
    if name == "flaky":
        # a GPU that fails three starts in a row is quarantined and later
        # readmitted, while failed copies are retried over a link that
        # runs at a third of its bandwidth for the first 0.4 ms
        return FaultPlan(
            seed=5,
            task_faults=(TaskFaultRule(worker="gpu0", at_starts=(2, 3, 4)),),
            transfer_faults=(TransferFaultRule(at_attempts=(3, 8)),),
            link_degradations=(
                LinkDegradation(at_time=0.0, until=0.0004, bandwidth_factor=3.0),
            ),
        )
    if name == "requeue-backlog":
        # cluster4 devices: three transient faults stop running tasks on
        # workers with nothing queued behind them while other nodes'
        # pools are backed up, and node 1's GPU dies mid-run
        return FaultPlan(
            seed=7,
            task_faults=(TaskFaultRule(at_starts=(100, 200, 300)),),
            worker_failures=(WorkerFailure("n1gpu0", 0.001),),
        )
    raise ValueError(f"unknown golden fault plan {name!r}")


def _app(case: GoldenCase):
    from repro.apps.cholesky import CholeskyApp
    from repro.apps.matmul import MatmulApp
    from repro.apps.pbpi import PBPIApp

    cls = {"matmul": MatmulApp, "cholesky": CholeskyApp, "pbpi": PBPIApp}[case.app]
    return cls(**dict(case.app_args))


#: The pinned matrix.  Every case must complete in well under a second;
#: together they cover all canonical schedulers, single-node and sharded
#: cluster machines, throttled/no-overlap configs, fault plans and
#: speculative re-execution.  The cases that name ``fires`` reach every
#: recovery path of the runtime: speculative wins and cancellations,
#: straggler aborts, worker death, message loss, node crash and rejoin,
#: lineage recompute and the transfer re-issue after it.
CASES: tuple[GoldenCase, ...] = (
    GoldenCase(
        id="matmul3-hyb-versioning-node",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
    ),
    GoldenCase(
        id="matmul3-hyb-versioning-node-chaos",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        faults="chaos",
        recovery={"speculate": True},
    ),
    GoldenCase(
        id="matmul3-hyb-versioning-noprefetch",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        config={"overlap_transfers": False, "prefetch": False},
    ),
    GoldenCase(
        id="matmul3-hyb-versioning-throttled",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        config={"max_in_flight_tasks": 6},
    ),
    GoldenCase(
        id="matmul4-hyb-cluster-affinity",
        app="matmul",
        app_args={"n_tiles": 4, "tile_size": 64, "variant": "hyb"},
        scheduler="cluster",
        scheduler_options={"partition": "affinity", "steal": True},
        machine="cluster4",
    ),
    GoldenCase(
        # eight tiles back the per-node ready pools up against the
        # bounded reliable-phase queues: placements fail for want of
        # room and idle nodes steal from the backed-up pools
        id="matmul8-hyb-cluster-affinity-steal",
        app="matmul",
        app_args={"n_tiles": 8, "tile_size": 64, "variant": "hyb"},
        scheduler="cluster",
        scheduler_options={"partition": "affinity", "steal": True},
        machine="cluster4",
        fires=("steals",),
    ),
    GoldenCase(
        id="matmul4-hyb-cluster-block-netloss",
        app="matmul",
        app_args={"n_tiles": 4, "tile_size": 64, "variant": "hyb"},
        scheduler="cluster",
        scheduler_options={
            "partition": "block",
            "steal": True,
            "protocol": {"ack_timeout": 0.0005},
        },
        machine="cluster4",
        faults="netloss",
    ),
    GoldenCase(
        id="cholesky4-hyb-versioning-node",
        app="cholesky",
        app_args={"n_blocks": 4, "block_size": 64, "variant": "hyb"},
    ),
    GoldenCase(
        id="cholesky4-gpu-affinity-node",
        app="cholesky",
        app_args={"n_blocks": 4, "block_size": 64, "variant": "gpu"},
        scheduler="affinity",
    ),
    GoldenCase(
        id="pbpi-dep-node",
        app="pbpi",
        app_args={"generations": 3, "n_blocks": 4, "variant": "hyb"},
        scheduler="dep",
    ),
    GoldenCase(
        id="pbpi-bf-quiet",
        app="pbpi",
        app_args={"generations": 2, "n_blocks": 3, "variant": "smp"},
        scheduler="bf",
        machine="node-quiet",
    ),
    GoldenCase(
        id="matmul3-hyb-versioning-locality",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        scheduler="versioning-locality",
    ),
    # -- recovery paths: each case fires the counters it names ---------
    GoldenCase(
        id="matmul3-hyb-versioning-node-stragglers",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        faults="stragglers",
        recovery={"speculate": True, "deadline_grace": 1.0, "deadline_k": 0.0},
        fires=(
            "hangs", "straggler_detected", "speculations_won",
            "speculations_wasted", "retries",
        ),
    ),
    GoldenCase(
        # bounded queues under stragglers: a withdrawn speculative copy
        # frees room without re-entering the pool, and only the next
        # start's pump sees that room
        id="matmul4-hyb-versioning-bounded-stragglers",
        app="matmul",
        app_args={"n_tiles": 4, "tile_size": 64, "variant": "hyb"},
        scheduler_options={"reliable_queue_bound": 2},
        faults="stragglers",
        recovery={"speculate": True, "deadline_grace": 1.0, "deadline_k": 0.0},
        fires=("hangs", "speculations_won", "speculations_wasted"),
    ),
    GoldenCase(
        id="matmul3-hyb-versioning-node-chaos-early",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        faults="chaos-early",
        recovery={"speculate": True},
        fires=("worker_failures", "tasks_redispatched", "task_faults",
               "speculations_won"),
    ),
    GoldenCase(
        # quarantine drains a worker's queue and readmits it later;
        # failed transfer attempts are retried with backoff
        id="matmul3-hyb-versioning-node-flaky",
        app="matmul",
        app_args={"n_tiles": 3, "tile_size": 64, "variant": "hyb"},
        faults="flaky",
        recovery={"quarantine_cooldown": 0.0002},
        fires=("quarantines", "readmissions", "tasks_redispatched",
               "transfer_faults", "transfer_retries"),
    ),
    GoldenCase(
        id="cholesky6-hyb-cluster-block-netloss-rejoin",
        app="cholesky",
        app_args={"n_blocks": 6, "block_size": 64, "variant": "hyb"},
        scheduler="cluster",
        scheduler_options={
            "partition": "block",
            "steal": True,
            "protocol": {"ack_timeout": 0.0005},
        },
        machine="cluster4",
        faults="netloss-rejoin",
        fires=(
            "messages_dropped", "retransmits", "node_crashes", "node_rejoins",
            "worker_failures", "evacuations", "regions_lost", "recompute_tasks",
        ),
    ),
    GoldenCase(
        id="matmul4-hyb-cluster-affinity-crash",
        app="matmul",
        app_args={"n_tiles": 4, "tile_size": 64, "variant": "hyb"},
        scheduler="cluster",
        scheduler_options={
            "partition": "affinity",
            "steal": True,
            "protocol": {"ack_timeout": 0.0005},
        },
        machine="cluster4",
        faults="crash-rejoin",
        fires=(
            "node_crashes", "node_rejoins", "evacuations", "regions_lost",
            "recompute_tasks",
        ),
    ),
    GoldenCase(
        # reliable queues bounded at one: a requeue idles its worker
        # while other pools are backed up, and idle nodes steal
        id="matmul8-hyb-cluster-affinity-requeue-steal",
        app="matmul",
        app_args={"n_tiles": 8, "tile_size": 64, "variant": "hyb"},
        scheduler="cluster",
        scheduler_options={
            "partition": "affinity",
            "steal": True,
            "inner_options": {"reliable_queue_bound": 1},
            "protocol": {"ack_timeout": 0.0005},
        },
        machine="cluster4",
        faults="requeue-backlog",
        fires=("steals", "tasks_redispatched"),
    ),
)

CASES_BY_ID = {c.id: c for c in CASES}


def run_case(case: GoldenCase, *, wall_deadline: Optional[float] = None):
    """Execute one case; returns ``(RunResult, events_processed)``."""
    from repro.resilience.recovery import RecoveryPolicy
    from repro.runtime.runtime import OmpSsRuntime, RuntimeConfig

    app = _app(case)
    machine = _machine(case.machine)
    app.register_cost_models(machine)
    config = RuntimeConfig(**dict(case.config)) if case.config else None
    recovery = RecoveryPolicy(**dict(case.recovery)) if case.recovery else None
    rt = OmpSsRuntime(
        machine,
        case.scheduler,
        config=config,
        scheduler_options=case.scheduler_options,
        fault_plan=_fault_plan(case.faults),
        recovery=recovery,
    )
    if wall_deadline is not None:
        import time as _time

        rt.engine.wall_deadline = _time.perf_counter() + wall_deadline
    with rt:
        app.master(rt)
    return rt.result(), rt.engine.events_processed


def fired_counters(result) -> dict[str, int]:
    """Resilience counters of a run, plus the cluster protocol's."""
    counters = dict(result.resilience.as_dict())
    stats = getattr(result.scheduler_state, "stats", None)
    if stats is not None:
        counters.update(
            (k, v) for k, v in stats.as_dict().items() if isinstance(v, int)
        )
    return counters


def digest_result(result, events: int) -> dict:
    """The pinned observable outcome of one run."""
    result_payload = result.to_json().encode()
    trace_payload = result.trace.to_json().encode()
    return {
        "result_sha256": hashlib.sha256(result_payload).hexdigest(),
        "trace_sha256": hashlib.sha256(trace_payload).hexdigest(),
        "tasks_completed": result.tasks_completed,
        "trace_records": len(result.trace),
        "events_processed": events,
        "makespan_repr": repr(result.makespan),
    }


def compute_all(cases=CASES) -> dict:
    return {c.id: digest_result(*run_case(c)) for c in cases}


def load_fixture() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_fixture(payload: dict) -> None:
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":  # pragma: no cover - fixture generation
    write_fixture(compute_all())
    print(f"wrote {len(CASES)} golden digests to {FIXTURE_PATH}")
