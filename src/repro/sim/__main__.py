"""Simulator tooling entry point: ``python -m repro.sim``.

``--profile [--workload NAME] [--top N]``
    cProfile one of the throughput-bench workloads (default the 16-node
    sharded matmul acceptance workload) and print the hottest frames by
    total time.  This is the supported way to find the next frame to
    flatten — see DESIGN.md §17.
"""

from __future__ import annotations

import argparse
import sys


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
    prof = cProfile.Profile()
    prof.enable()
    events, tasks = fn()
    prof.disable()
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top)
    print(f"[{events} events, {tasks} tasks]", file=sys.stderr)
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
