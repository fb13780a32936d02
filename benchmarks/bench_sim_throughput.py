"""Simulator throughput benchmark + CI perf-smoke gate.

Measures simulated **events/sec** and **tasks/sec** for a fixed matrix
of app × machine × scheduler workloads plus a synthetic event-core
microbenchmark, and writes the numbers as JSON to
``benchmarks/results/sim_throughput.json``.

The committed baseline (``benchmarks/sim_throughput_baseline.json``)
makes throughput a CI-gated quantity: ``--check`` re-measures and fails
when any workload's events/sec drops more than ``--tolerance`` (default
30%) below baseline.  Because CI runners and dev boxes differ in raw
speed, both the baseline and every check run record a *calibration
score* — a fixed pure-Python loop timed on the same interpreter — and
the regression ratio compares calibrated rates::

    ratio = (events_per_sec / calib) / (baseline_events_per_sec / baseline_calib)

Usage::

    python benchmarks/bench_sim_throughput.py                   # measure + JSON
    python benchmarks/bench_sim_throughput.py --check           # CI perf smoke
    python benchmarks/bench_sim_throughput.py --update-baseline # re-pin baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).parent
BASELINE_PATH = HERE / "sim_throughput_baseline.json"
RESULTS_PATH = HERE / "results" / "sim_throughput.json"

REPEATS = 3  # best-of; simulations are deterministic, timing is not


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def calibration_score() -> float:
    """Interpreter-speed score (iterations/sec of a fixed pure loop).

    Used to normalize baselines recorded on a different machine; the
    loop mixes dict, float and attribute work roughly like the
    simulator's hot path.
    """

    class Box:
        __slots__ = ("v",)

        def __init__(self, v):
            self.v = v

    def spin(n: int) -> float:
        d: dict[int, float] = {}
        b = Box(0.0)
        acc = 0.0
        for i in range(n):
            d[i & 1023] = acc
            acc = acc + (i % 7) * 0.5
            b.v = acc
            acc = acc if acc < 1e9 else d.get(i & 1023, 0.0)
        return acc

    n = 200_000
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        spin(n)
        best = min(best, time.process_time() - t0)
    return n / best


def measure(workloads=None, repeats: int = REPEATS) -> dict:
    rows = {}
    for name, fn in WORKLOADS.items():
        if workloads and name not in workloads:
            continue
        best = None
        events = tasks = 0
        for _ in range(repeats):
            t0 = time.process_time()
            events, tasks = fn()
            dt = time.process_time() - t0
            if best is None or dt < best:
                best = dt
        assert best is not None and best > 0
        rows[name] = {
            "events": events,
            "tasks": tasks,
            "best_cpu_s": round(best, 6),
            "events_per_sec": round(events / best, 1),
            "tasks_per_sec": round(tasks / best, 1) if tasks else 0.0,
        }
    return rows


def payload(rows: dict) -> dict:
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "calibration_score": round(calibration_score(), 1),
        "workloads": rows,
    }


# ----------------------------------------------------------------------
# Baseline gate
# ----------------------------------------------------------------------
def check(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Return a list of failure strings (empty = pass)."""
    failures = []
    cur_calib = current["calibration_score"]
    base_calib = baseline["calibration_score"]
    for name, base_row in baseline["workloads"].items():
        cur_row = current["workloads"].get(name)
        if cur_row is None:
            failures.append(f"{name}: workload missing from current run")
            continue
        ratio = (cur_row["events_per_sec"] / cur_calib) / (
            base_row["events_per_sec"] / base_calib
        )
        verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSION"
        print(
            f"  {name:28s} {cur_row['events_per_sec']:>12,.0f} ev/s"
            f"  calibrated x{ratio:.2f} vs baseline  [{verdict}]"
        )
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: calibrated events/sec fell to {ratio:.2f}x of "
                f"baseline (tolerance {1.0 - tolerance:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail if events/sec regressed vs the committed baseline")
    ap.add_argument("--update-baseline", action="store_true",
                    help="re-measure and overwrite the committed baseline")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop vs baseline (default 0.30)")
    ap.add_argument("--workload", action="append", default=None,
                    help="restrict to the named workload(s)")
    args = ap.parse_args(argv)

    rows = measure(args.workload)
    out = payload(rows)

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"[calibration {out['calibration_score']:,.0f}]")
    for name, row in rows.items():
        line = f"  {name:28s} {row['events_per_sec']:>12,.0f} ev/s"
        if row["tasks_per_sec"]:
            line += f"  {row['tasks_per_sec']:>10,.0f} tasks/s"
        print(line)
    print(f"[written to {RESULTS_PATH.relative_to(HERE.parent)}]")

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"[baseline updated: {BASELINE_PATH.relative_to(HERE.parent)}]")
        return 0

    if args.check:
        if not BASELINE_PATH.exists():
            print("no committed baseline; run with --update-baseline first",
                  file=sys.stderr)
            return 2
        baseline = json.loads(BASELINE_PATH.read_text())
        print("perf smoke vs committed baseline:")
        failures = check(out, baseline, args.tolerance)
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print("perf smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
