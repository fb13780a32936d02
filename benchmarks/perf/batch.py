"""The three batch workloads, each run in a fresh child process.

    python benchmarks/perf/batch.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out-dir DIR [--setup-only]

Prints ``READY`` once imports are done and the first iteration's inputs
are built (the parent times process start to this line as set-up), then
one JSON line with the measurements and every correctness problem found.
An iteration builds fresh inputs and simulates them: the machines' noise
generators are stateful, so reusing a machine would change the results.

Sizes are module constants so tests can shrink them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.apps.pbpi import PBPIApp
from repro.resilience.faults import (
    FaultPlan,
    HangRule,
    MessageFaultRule,
    NodeCrashRule,
    TaskFaultRule,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.runtime import OmpSsRuntime, RunResult
from repro.sanitizer import SanitizerError
from repro.sim.topology import cluster_machine, minotauro_node

import layers
import speed

# -- sizes -------------------------------------------------------------
CLUSTER_NODES = 16
CLUSTER_TILES = 16          # 4096 tasks: per-task cost grows with graph size
CLUSTER_TILE_SIZE = 32
NODE_MATMUL_TILES = 12      # 1728 tasks
NODE_CHOLESKY_BLOCKS = 24   # 2600 tasks
NODE_BLOCK_SIZE = 64
PBPI_GENERATIONS = 40       # 1320 tasks
PBPI_BLOCKS = 16
FAULT_CLUSTER_NODES = 8
FAULT_CLUSTER_TILES = 14    # 2744 tasks
NOISE_CV = 0.02

MIN_TIMED = 3        #: timed iterations even when one outlasts --seconds
TRACED_ITERS = 3     #: traced iterations after the traced warm-up
TRACED_SHARE = 0.6   #: share of --seconds the traced pass may use
COVERAGE_TOL = 0.02  #: self times must sum to the iteration wall time


@dataclass(frozen=True)
class Run:
    """One simulation of an iteration: inputs are built fresh each time."""

    app: Callable[[], Any]
    machine: Callable[[], Any]
    scheduler: str = "versioning"
    options: dict = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    recovery: Optional[RecoveryPolicy] = None


def cluster_matmul(rng: random.Random) -> list[Run]:
    seed = rng.randrange(1 << 16)
    return [Run(
        app=lambda: MatmulApp(n_tiles=CLUSTER_TILES, tile_size=CLUSTER_TILE_SIZE, variant="hyb"),
        machine=lambda: cluster_machine(CLUSTER_NODES, smp_per_node=2, gpus_per_node=1,
                                        noise_cv=NOISE_CV, seed=seed),
        scheduler="cluster",
        options={"partition": "affinity", "steal": True},
    )]


def node_versioning(rng: random.Random) -> list[Run]:
    seeds = [rng.randrange(1 << 16) for _ in range(3)]
    apps: list[Callable[[], Any]] = [
        lambda: MatmulApp(n_tiles=NODE_MATMUL_TILES, tile_size=NODE_BLOCK_SIZE, variant="hyb"),
        lambda: CholeskyApp(n_blocks=NODE_CHOLESKY_BLOCKS, block_size=NODE_BLOCK_SIZE,
                            variant="hyb"),
        lambda: PBPIApp(generations=PBPI_GENERATIONS, n_blocks=PBPI_BLOCKS, variant="hyb"),
    ]
    return [
        Run(app=app, machine=lambda s=s: minotauro_node(4, 2, noise_cv=NOISE_CV, seed=s))
        for app, s in zip(apps, seeds)
    ]


def faults_recovery(rng: random.Random) -> list[Run]:
    # Task faults go to the cluster run, not beside the hang and the
    # slowdown: a prototype reported a deadlock with all three on this
    # node run (see README).
    node_seed, node_plan, cl_seed, cl_plan = (rng.randrange(1 << 16) for _ in range(4))
    return [
        Run(
            app=lambda: MatmulApp(n_tiles=NODE_MATMUL_TILES, tile_size=NODE_BLOCK_SIZE,
                                  variant="hyb"),
            machine=lambda: minotauro_node(4, 2, noise_cv=NOISE_CV, seed=node_seed),
            fault_plan=FaultPlan(
                seed=node_plan,
                worker_failures=(WorkerFailure("smp1", 0.02),),
                hangs=(HangRule(at_starts=(5,)),),
                slowdowns=(WorkerSlowdown("gpu1", 0.0005, 20.0),),
            ),
            recovery=RecoveryPolicy(speculate=True),
        ),
        Run(
            app=lambda: MatmulApp(n_tiles=FAULT_CLUSTER_TILES, tile_size=NODE_BLOCK_SIZE,
                                  variant="hyb"),
            machine=lambda: cluster_machine(FAULT_CLUSTER_NODES, smp_per_node=2,
                                            gpus_per_node=1, noise_cv=NOISE_CV, seed=cl_seed),
            scheduler="cluster",
            options={"partition": "block", "steal": True, "protocol": {"ack_timeout": 0.0005}},
            fault_plan=FaultPlan(
                seed=cl_plan,
                task_faults=(TaskFaultRule(probability=0.02),),
                message_faults=(MessageFaultRule(drop=0.15, delay=0.05, delay_time=0.001),),
                node_crashes=(NodeCrashRule(node=2, at_time=0.005),),
            ),
        ),
    ]


def _cluster_stats(r: RunResult) -> Any:
    return getattr(r.scheduler_state, "stats", None) if r.scheduler == "cluster" else None


def recovery_problems(results: list[RunResult]) -> list[str]:
    """faults-recovery must keep firing every recovery path it was built for."""
    node, cluster = results[0].resilience, results[1].resilience
    stats = _cluster_stats(results[1])
    counters = {
        "worker failures": node.worker_failures,
        "speculations won": node.speculations_won,
        "task retries": cluster.retries,
        "messages dropped": cluster.messages_dropped,
        "retransmits": stats.retransmits if stats is not None else 0,
        "node crashes": cluster.node_crashes,
        "recomputed tasks": cluster.recompute_tasks,
    }
    return [f"recovery path not exercised: {name} = 0" for name, n in counters.items() if n <= 0]


WORKLOADS: dict[str, Callable[[random.Random], list[Run]]] = {
    "cluster-matmul": cluster_matmul,
    "node-versioning": node_versioning,
    "faults-recovery": faults_recovery,
}
EXTRA_CHECKS: dict[str, Callable[[list[RunResult]], list[str]]] = {
    "faults-recovery": recovery_problems,
}


def prepare(runs: list[Run]) -> list[tuple[Run, Any, Any]]:
    return [(run, run.machine(), run.app()) for run in runs]


def execute(prepared: list[tuple[Run, Any, Any]]) -> list[RunResult]:
    out = []
    for run, machine, app in prepared:
        app.register_cost_models(machine)
        rt = OmpSsRuntime(machine, run.scheduler, scheduler_options=run.options,
                          fault_plan=run.fault_plan, recovery=run.recovery)
        with rt:
            app.master(rt)
        out.append(rt.result())
    return out


def digests(results: list[RunResult]) -> list[str]:
    return [hashlib.sha256(r.to_json().encode()).hexdigest() for r in results]


def completion_problems(results: list[RunResult], where: str) -> list[str]:
    return [
        f"{where}: run {i} completed {r.tasks_completed} of {r.graph.num_tasks} tasks"
        for i, r in enumerate(results)
        if r.graph is None or r.tasks_completed != r.graph.num_tasks or r.tasks_completed < 1
    ]


def validation_problems(results: list[RunResult], where: str) -> list[str]:
    out = []
    for i, r in enumerate(results):
        try:
            r.validate()
        except SanitizerError as exc:
            out.append(f"{where}: run {i} fails validation: {exc}")
    return out


def run_counts(results: list[RunResult], tasks: int) -> dict[str, float]:
    """Per-layer counts the run results carry (cluster protocol, recovery)."""
    retransmits = steals = 0
    for r in results:
        stats = _cluster_stats(r)
        if stats is not None:
            retransmits += stats.retransmits
            steals += stats.steals
    res = [r.resilience for r in results]
    per = layers.per
    return {
        "cluster.retransmits_per_task": per(retransmits, tasks),
        "cluster.steals_per_task": per(steals, tasks),
        "resil.retries_per_task": per(sum(s.retries for s in res), tasks),
        "resil.spec_won_frac": per(sum(s.speculations_won for s in res),
                                   sum(s.speculations_launched for s in res)),
        "resil.recompute_per_task": per(sum(s.recompute_tasks for s in res), tasks),
        "svc.cache.hit_frac": 0.0,
        "svc.pool.reuse_frac": 0.0,
    }


class Measurement:
    """Iterations of one workload and every problem their checks found.

    The first successful iteration's result digests are the reference;
    every later one, traced or not, must reproduce them.
    """

    def __init__(self, workload: str, runs: list[Run]) -> None:
        self.workload = workload
        self.runs = runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: Optional[list[str]] = None
        self.last: Optional[list[RunResult]] = None
        self.tasks = 0
        self.us_per_task: list[float] = []
        self.us_per_task_raw: list[float] = []
        self.iter_ms: list[float] = []

    def iteration(self, where: str, prepared: Optional[list] = None, *,
                  validate: bool = False,
                  around: Callable[[], Any] = contextlib.nullcontext
                  ) -> Optional[tuple[float, float]]:
        """Run one iteration and check it.

        Returns its (raw, reference-speed) wall time, or None if it raised.
        """
        self.attempted += 1
        # start like a fresh process would: no garbage of earlier iterations
        gc.collect()
        t0 = time.perf_counter()
        try:
            with speed.Sampler() as sampler, around():
                results = execute(prepared or prepare(self.runs))
        except Exception as exc:  # a deadlock or crash is one failed operation
            self.failed += 1
            self.problems.append(f"{where}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        scaled = sampler.scaled(wall)
        problems = completion_problems(results, where)
        check = EXTRA_CHECKS.get(self.workload)
        if check is not None:
            problems += check(results)
        if validate:
            problems += validation_problems(results, where)
        found = digests(results)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            problems.append(f"{where}: result digests differ from the first iteration's")
        self.fail(problems)
        self.tasks = sum(r.tasks_completed for r in results)
        self.last = results
        return wall, scaled

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def timed(self, deadline: float, minimum: int) -> None:
        """Timed iterations until ``deadline`` (at least ``minimum``)."""
        n = 0
        while n < minimum or time.perf_counter() < deadline:
            out = self.iteration(f"timed iteration {n}")
            n += 1
            if out is not None:
                wall, scaled = out
                self.iter_ms.append(scaled * 1e3)
                self.us_per_task.append(scaled / self.tasks * 1e6)
                self.us_per_task_raw.append(wall / self.tasks * 1e6)


def traced_pass(m: Measurement, prepared: list, seconds: float, out_dir: str) -> dict:
    """A traced warm-up and up to TRACED_ITERS traced iterations, then
    untraced ones in the time left (the overhead ratio's base)."""
    tracer = layers.Tracer()
    inst = layers.install(tracer)
    start = time.perf_counter()
    walls: list[float] = []
    raw_walls: list[float] = []
    coverage: list[float] = []
    try:
        warm = m.iteration("traced warm-up", prepared,
                           around=lambda: tracer.root("root.iteration", f"{m.workload}:warm-up"))
        if warm is None:
            return {}
        n = max(1, min(TRACED_ITERS, int(TRACED_SHARE * seconds / warm[0])))
        tracer.reset()
        for i in range(n):
            tracer.keep_all = i == n - 1  # full spans of the last iteration only
            before = tracer.self_total()
            out = m.iteration(f"traced iteration {i}",
                              around=lambda i=i: tracer.root("root.iteration", f"{m.workload}:{i}"))
            if out is None:
                return {}
            coverage.append(abs(tracer.self_total() - before - out[0]) / out[0])
            raw_walls.append(out[0])
            walls.append(out[1])
        last = m.last
        assert last is not None
        with tracer.root("root.validate", f"{m.workload}:{n - 1}"):
            m.fail(validation_problems(last, "last traced iteration"))
        tracer.keep_all = False
    finally:
        inst.restore()
    worst = max(coverage)
    if worst > COVERAGE_TOL:
        m.problems.append(f"self times cover the iteration wall time only within {worst:.1%}")
    tasks = n * m.tasks
    counts = run_counts(last, m.tasks)

    m.timed(start + seconds, 1)
    traced_us = statistics.median(walls) / m.tasks * 1e6
    untraced_us = statistics.median(m.us_per_task)

    stats = tracer.stats()
    scale = sum(walls) / sum(raw_walls)
    metrics = layers.layer_metrics(stats, tracer.counts, tasks, scale)
    metrics.update(counts)
    metrics["trace_overhead_frac"] = traced_us / untraced_us - 1.0
    os.makedirs(out_dir, exist_ok=True)
    chrome = os.path.join(out_dir, f"trace-{m.workload}.json")
    spans = tracer.spans()
    layers.write_chrome_trace(chrome, spans, spans[0][2] if spans else tracer.origin)
    return {
        "metrics": metrics,
        "spans": layers.span_table(stats, tasks, scale),
        "coverage_err_max": worst,
        "traced_iterations": n,
        "chrome_trace": chrome,
        "missing_wrappers": inst.missing,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: str,
            ready: Callable[[], None] = lambda: None) -> dict:
    runs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    prepared = prepare(runs)
    ready()
    m = Measurement(workload, runs)
    out: dict[str, Any] = {"workload": workload, "seed": seed}
    if trace:
        out["trace"] = traced_pass(m, prepared, seconds, out_dir)
    elif m.iteration("warm-up", prepared, validate=True) is not None:
        m.timed(time.perf_counter() + seconds, MIN_TIMED)
        if m.last is not None:
            m.fail(validation_problems(m.last, "last timed iteration"))
    out.update(
        attempted=m.attempted,
        failed=m.failed,
        problems=m.problems,
        digests=m.reference or [],
        tasks_per_iteration=m.tasks,
        us_per_task_samples=m.us_per_task,
        us_per_task_raw_samples=m.us_per_task_raw,
        iter_ms_samples=m.iter_ms,
    )
    return out


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    def ready() -> None:
        print("READY", flush=True)
        if args.setup_only:
            sys.exit(0)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.out_dir, ready)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
