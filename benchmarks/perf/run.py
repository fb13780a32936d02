"""One command for the repository's performance benchmark.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                                   [--out FILE] [--update-digests]

Runs each named workload (default: all four) in a fresh child process
for ``run_seconds`` of BENCHMARK.json (``--seconds`` is accepted only
with that value, so every recorded run has the same length), checks its
outputs, and prints every metric by name with its unit.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
BENCHMARK.json, or with ``--trace`` its per-layer metrics, which come
from a separate traced pass.  A failed check or a failed operation
makes the exit code 1; each problem found is printed on standard error.  ``--out`` appends one JSON line per workload
with everything measured; ``compare.py`` reads those files.

Every time is reported at the reference speed of ``speed.py``: this
process pins itself to one CPU, children inherit it, and a calibration
loop timed beside each interval scales it.  The service workload's
server runs on a second CPU when there is one (``SERVER_CPU``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED_DIGESTS = HERE / "expected_digests.json"
OUT_DIR = HERE / "out"

BATCH = ("cluster-matmul", "node-versioning", "faults-recovery")
SERVICE = "service-mixed"
DIGEST_SEEDS = (0, 1)
SETUP_PROBES = 4          #: extra set-up-only children; the measured child is the fifth
CHILD_TIMEOUT = 170.0     #: a child still running after this is killed
DIGEST_SECONDS = 1.0      #: run length of --update-digests (digests do not depend on it)

#: the CPU the service workload's servers run on, left free by pinning
#: this process; None shares this process's CPU
SERVER_CPU: Optional[int] = None

#: Service-only metrics, judged by compare.py: BENCHMARK.json lists the
#: metrics every workload has.
SERVICE_EXTRAS = {
    "svc_cold_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "svc_hit_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
    "svc_tail_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
    "svc_sat_subs_s": {"unit": "subs/s", "better": "higher", "bound": 0.10},
}


def fail_setup(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


class Child:
    """A workload child process: set-up time, last output line, peak RSS."""

    def __init__(self, args: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        env.pop("REPRO_SIM_BACKEND", None)  # the default (pure) event core
        loop0 = speed.loop_median()
        t0 = time.perf_counter()
        # its own process group: a timeout or an interrupt stops the
        # child together with any server it started
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True,
                                env=env, cwd=ROOT, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        self.setup_s = self.setup_raw_s = 0.0
        self.last = ""
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                if line.startswith("READY") and not self.setup_raw_s:
                    self.setup_raw_s = time.perf_counter() - t0
                    self.setup_s = speed.scaled(self.setup_raw_s,
                                                (loop0 + speed.loop_median()) / 2)
                elif line.strip():
                    self.last = line
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
            if proc.stdout is not None:
                proc.stdout.close()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024

    def result(self) -> dict:
        try:
            return json.loads(self.last)
        except json.JSONDecodeError:
            return {"problems": [f"child exited with {self.returncode} and no result"]}


def batch_child(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                setup_only: bool = False) -> Child:
    args = [str(HERE / "batch.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--out-dir", str(out_dir)]
    return Child(args + (["--setup-only"] if setup_only else []))


def service_child(seed: int, seconds: float, trace: bool, out_dir: Path) -> Child:
    cpu = [] if SERVER_CPU is None else ["--server-cpu", str(SERVER_CPU)]
    return Child([str(HERE / "svcload.py"), "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(int(trace)), "--out-dir", str(out_dir), *cpu])


def expected_digests() -> dict:
    with open(EXPECTED_DIGESTS) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    """Measure one workload; the row ``--out`` records."""
    if workload == SERVICE:
        child = service_child(seed, seconds, trace, out_dir)
        res = child.result()
        m = res.get("metrics", {})
        setups = res.get("setup_samples", [])
        e2e = {
            "us_per_task": m.get("us_per_task"),
            "peak_rss_mb": res.get("maxrss_kb", 0) / 1024,
        }
        extras = {k: v for k, v in m.items() if k != "us_per_task"}
        extras["setup_raw_s"] = statistics.median(res["setup_raw_samples"]) \
            if res.get("setup_raw_samples") else None
    else:
        probes = [batch_child(workload, seed, seconds, trace, out_dir, setup_only=True)
                  for _ in range(0 if trace else SETUP_PROBES)]
        child = batch_child(workload, seed, seconds, trace, out_dir)
        res = child.result()
        setups = [c.setup_s for c in (*probes, child)]
        us, ms = res.get("us_per_task_samples", []), res.get("iter_ms_samples", [])
        e2e = {
            "us_per_task": statistics.median(us) if us else None,
            "peak_rss_mb": child.maxrss_mb,
        }
        extras = {
            "us_per_task_raw": statistics.median(res["us_per_task_raw_samples"])
            if res.get("us_per_task_raw_samples") else None,
            "iteration_ms": statistics.median(ms) if ms else None,
            "iterations": len(us),
            "tasks_per_iteration": res.get("tasks_per_iteration"),
            "setup_raw_s": statistics.median(c.setup_raw_s for c in (*probes, child)),
        }
    e2e["setup_s"] = statistics.median(setups) if setups else None

    problems = list(res.get("problems", []))
    if child.returncode != 0:
        problems.append(f"workload child exited with {child.returncode}")
    # a child that reported nothing counts as one failed operation
    attempted = res.get("attempted", 1)
    failed = res.get("failed", 1)
    if workload in BATCH and seed in DIGEST_SEEDS:
        want = expected_digests().get(workload, {}).get(str(seed))
        if res.get("digests") != want:
            problems.append(f"result digests differ from expected_digests.json (seed {seed})")
    extras["fail_frac"] = failed / max(1, attempted)
    row: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace:
        traced = res.get("trace", {})
        if traced.get("chrome_trace"):
            traced["chrome_trace"] = os.path.relpath(traced["chrome_trace"], ROOT)
        row["metrics"] = traced.get("metrics", {})
        row["trace"] = {k: v for k, v in traced.items() if k != "metrics"}
    else:
        row["metrics"] = e2e
        row["extras"] = extras
    return row


def print_row(row: dict, spec: dict) -> None:
    print(f"== {row['workload']} (seed {row['seed']}, {'traced' if row['trace'] else 'untraced'})")
    section = "per_layer" if row["trace"] else "end_to_end"
    for m in spec[section]:
        value = row["metrics"].get(m["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {m['name']:40s} {shown:>14} {m['unit']}")
    if row["trace"]:
        spans = row["trace"].get("spans", {})
        top = sorted(spans.items(), key=lambda kv: -kv[1]["self_us_per_task"])[:12]
        print("  top spans by self time (us/task, calls/task):")
        for name, s in top:
            print(f"    {name:38s} {s['self_us_per_task']:10.2f} {s['calls_per_task']:8.2f}")
        for name, value in sorted(row["trace"].get("stages", {}).items()):
            print(f"    {name:38s} {value:10.4g}")
        if row["trace"].get("chrome_trace"):
            print(f"  chrome trace: {row['trace']['chrome_trace']}")
    else:
        for name, value in sorted(row["extras"].items()):
            unit = SERVICE_EXTRAS.get(name, {}).get("unit", "")
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {name:40s} {shown:>14} {unit}")
    attempted, failed = row["attempted"], row["failed"]
    print(f"  operations: {attempted} attempted, {failed} failed")
    # on standard error, where a log that keeps only that stream shows why
    for p in row["problems"]:
        print(f"run.py: {row['workload']} (seed {row['seed']}): {p}", file=sys.stderr)


def update_digests(out_dir: Path) -> int:
    table: dict[str, dict[str, list[str]]] = {}
    for workload in BATCH:
        for seed in DIGEST_SEEDS:
            res = batch_child(workload, seed, DIGEST_SECONDS, False, out_dir).result()
            if res.get("problems") or not res.get("digests"):
                print(f"{workload} seed {seed}: {res.get('problems')}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = res["digests"]
    EXPECTED_DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_DIGESTS}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        return fail_setup(f"no program to measure: {SRC / 'repro'} is missing")
    if not BENCHMARK.is_file():
        return fail_setup(f"{BENCHMARK} is missing")
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=seconds,
                    help="must be run_seconds of BENCHMARK.json (%(default)g)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", type=Path, help="append one JSON line per workload here")
    ap.add_argument("--out-dir", type=Path, default=OUT_DIR,
                    help="Chrome traces and scratch files (default: %(default)s)")
    ap.add_argument("--update-digests", action="store_true",
                    help=f"rewrite expected_digests.json for seeds {DIGEST_SEEDS}")
    args = ap.parse_args(argv)
    if args.seconds != seconds:
        ap.error(f"--seconds must be run_seconds of BENCHMARK.json ({seconds:g})")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.update_digests:
        return update_digests(args.out_dir)

    section = "per_layer" if args.trace else "end_to_end"
    rows = []
    for workload in [args.workload] if args.workload else names:
        row = run_workload(workload, args.seed, seconds, bool(args.trace), args.out_dir)
        for m in spec[section]:
            if row["metrics"].get(m["name"]) is None:
                row["problems"].append(f"metric {m['name']} was not measured")
        print_row(row, spec)
        rows.append(row)
        if args.out is not None:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {}
    for row in rows:
        prefix = "" if len(rows) == 1 else f"{row['workload']}:"
        for name, unit in units.items():
            value = row["metrics"].get(name)
            if value is not None:
                metrics[prefix + name] = {"value": value, "unit": unit}
    correct = all(not row["problems"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    # a terminated run still stops its children (Child's except path)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    SERVER_CPU = speed.pin_cpu()
    raise SystemExit(main())
