"""Simulator tooling entry point: ``python -m repro.sim``.

``--profile [--workload NAME] [--top N]``
    cProfile one of the throughput-bench workloads (default the 16-node
    sharded matmul acceptance workload) and print the hottest frames by
    total time.  This is the supported way to find the next frame to
    flatten — see DESIGN.md §17.  Next to the event and task counts it
    prints the cyclic collector's work during the profile (collections
    per generation, their time, objects found), which cProfile charges
    to whichever frame happened to allocate.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time


def _bench_workloads():
    """The workload registry from benchmarks/bench_sim_throughput.py.

    Imported lazily by path so the profile entry works from a source
    checkout without installing the benchmarks as a package.
    """
    import importlib.util
    from pathlib import Path

    for parent in Path(__file__).resolve().parents:
        candidate = parent / "benchmarks" / "bench_sim_throughput.py"
        if candidate.exists():
            spec = importlib.util.spec_from_file_location(
                "bench_sim_throughput", candidate
            )
            assert spec is not None and spec.loader is not None
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            return mod.WORKLOADS
    raise SystemExit(
        "benchmarks/bench_sim_throughput.py not found; --profile requires "
        "a source checkout"
    )


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

    workloads = _bench_workloads()
    fn = workloads.get(workload)
    if fn is None:
        print(f"unknown workload {workload!r}; one of {sorted(workloads)}",
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
    print(collector.summary(), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.sim", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--profile", action="store_true",
                    help="cProfile a throughput workload")
    ap.add_argument("--workload", default="matmul16-sharded",
                    help="workload for --profile (see bench_sim_throughput)")
    ap.add_argument("--top", type=int, default=25,
                    help="frames to print for --profile (default 25)")
    args = ap.parse_args(argv)

    if args.profile:
        return _cmd_profile(args.workload, args.top)
    ap.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
