"""Simulator tooling entry point: ``python -m repro.sim``.

``--profile [--workload NAME] [--top N]``
    cProfile one of ``WORKLOADS`` (default the 16-node sharded matmul,
    1000 tasks) and print the hottest frames by total time.  This is the
    supported way to find the next frame to flatten — see DESIGN.md §17.
    Next to the event and task counts it prints the cyclic collector's
    work during the profile (collections per generation, their time,
    objects found), which cProfile charges to whichever frame happened
    to allocate, and the calls per task (cProfile's total call count
    over the tasks run), which unlike the timings does not move with the
    host.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time


def _run_matmul16():
    """The acceptance workload: 16-node sharded matmul (affinity+steal)."""
    from repro.apps.matmul import MatmulApp
    from repro.runtime.runtime import OmpSsRuntime
    from repro.sim.topology import cluster_machine

    app = MatmulApp(n_tiles=10, tile_size=32, variant="hyb")
    machine = cluster_machine(16, smp_per_node=2, gpus_per_node=1,
                              noise_cv=0.02, seed=7)
    app.register_cost_models(machine)
    rt = OmpSsRuntime(machine, "cluster",
                      scheduler_options={"partition": "affinity", "steal": True})
    with rt:
        app.master(rt)
    return rt.engine.events_processed, rt.result().tasks_completed


def _run_matmul_node():
    """Single-node versioning matmul (the paper's bread-and-butter run)."""
    from repro.apps.matmul import MatmulApp
    from repro.runtime.runtime import OmpSsRuntime
    from repro.sim.topology import minotauro_node

    app = MatmulApp(n_tiles=8, tile_size=64, variant="hyb")
    machine = minotauro_node(4, 2, noise_cv=0.02, seed=3)
    app.register_cost_models(machine)
    rt = OmpSsRuntime(machine, "versioning")
    with rt:
        app.master(rt)
    return rt.engine.events_processed, rt.result().tasks_completed


def _run_cholesky_node():
    from repro.apps.cholesky import CholeskyApp
    from repro.runtime.runtime import OmpSsRuntime
    from repro.sim.topology import minotauro_node

    app = CholeskyApp(n_blocks=8, block_size=64, variant="hyb")
    machine = minotauro_node(4, 2, noise_cv=0.02, seed=3)
    app.register_cost_models(machine)
    rt = OmpSsRuntime(machine, "versioning")
    with rt:
        app.master(rt)
    return rt.engine.events_processed, rt.result().tasks_completed


def _run_heap_synthetic():
    """Raw event-store push+pop with a ~64-event resident window.

    Isolates the event core from scheduler callback cost.
    """
    from repro.sim.engine import Event, EventHeap, EventKind

    n = 100_000
    h = EventHeap()
    kind = EventKind.GENERIC
    for i in range(n):
        h.push(Event((i % 97) * 0.5 + i * 1e-9, i, kind, None))
        if i >= 64:
            h.pop()
    while h.pop() is not None:
        pass
    return n, 0


WORKLOADS = {
    "matmul16-sharded": _run_matmul16,
    "matmul8-node-versioning": _run_matmul_node,
    "cholesky8-node-versioning": _run_cholesky_node,
    "heap-synthetic": _run_heap_synthetic,
}


class _CollectorLog:
    """The cyclic collector's work, seen through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self.found = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._start
        self.collections[info["generation"]] += 1
        self.found += info["collected"] + info["uncollectable"]

    def summary(self) -> str:
        per_gen = "/".join(str(n) for n in self.collections)
        return (f"[gc: {per_gen} collections (gen 0/1/2), "
                f"{self.seconds * 1e3:.1f} ms, {self.found} objects found]")


def _cmd_profile(workload: str, top: int) -> int:
    import cProfile
    import pstats

    fn = WORKLOADS.get(workload)
    if fn is None:
        print(f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"[profiling {workload}]", file=sys.stderr)
    collector = _CollectorLog()
    gc.callbacks.append(collector)
    prof = cProfile.Profile()
    prof.enable()
    try:
        events, tasks = fn()
    finally:
        prof.disable()
        gc.callbacks.remove(collector)
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top)
    print(f"[{events} events, {tasks} tasks]", file=sys.stderr)
    if tasks:
        calls = stats.total_calls  # type: ignore[attr-defined]
        print(f"[calls per task: {calls / tasks:.1f}]", file=sys.stderr)
    print(collector.summary(), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.sim", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--profile", action="store_true",
                    help="cProfile a simulator workload")
    ap.add_argument("--workload", default="matmul16-sharded",
                    help=f"workload for --profile, one of {', '.join(WORKLOADS)}")
    ap.add_argument("--top", type=int, default=25,
                    help="frames to print for --profile (default 25)")
    args = ap.parse_args(argv)

    if args.profile:
        return _cmd_profile(args.workload, args.top)
    ap.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
