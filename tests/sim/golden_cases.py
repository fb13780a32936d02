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
    speculate: bool = False


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
        MessageFaultRule,
        NodeCrashRule,
        TaskFaultRule,
        WorkerFailure,
        WorkerSlowdown,
    )

    if name == "chaos":
        # transient faults + a permanent worker death + a straggler pair
        # (hang + slowdown) — exercises retry, quarantine bookkeeping and
        # speculative re-execution
        return FaultPlan(
            seed=7,
            task_faults=(TaskFaultRule(at_starts=(3, 9), probability=0.02),),
            worker_failures=(WorkerFailure("smp1", 0.02),),
            hangs=(HangRule(at_starts=(5,)),),
            slowdowns=(WorkerSlowdown("gpu1", 0.0005, 20.0),),
        )
    if name == "netloss":
        # lossy interconnect + a mid-run node crash: retransmission,
        # epoch fencing, evacuation and lineage recompute all fire
        return FaultPlan(
            seed=11,
            message_faults=(MessageFaultRule(drop=0.15, delay=0.05, delay_time=0.001),),
            node_crashes=(NodeCrashRule(node=2, at_time=0.05),),
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
#: speculative re-execution.
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
        speculate=True,
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
    recovery = RecoveryPolicy(speculate=True) if case.speculate else None
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
