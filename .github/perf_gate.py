"""CI gate on the end-to-end cost of a task: ``python3 .github/perf_gate.py``.

Runs ``benchmarks/perf/run.py`` at seed 0 (a digest seed) on each workload of
``perf_reference.json``.  Fails when ``run.py`` fails or a calibrated
``us_per_task`` exceeds ``LIMIT`` times its reference (a median of ten runs).
Calibration carries the reference across hosts, not across Python versions.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 1.30  #: a 30% slowdown fails, as in the events/sec gate this replaced


def main() -> int:
    reference = json.loads((ROOT / ".github" / "perf_reference.json").read_text())
    if not reference["python"].startswith("%d.%d." % sys.version_info[:2]):
        print(f"perf gate: the reference is for Python {reference['python']}", file=sys.stderr)
        return 2
    ok, measured = True, {}
    with tempfile.NamedTemporaryFile("r") as rows:
        for workload in reference["us_per_task"]:
            cmd = [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
                   "--out", rows.name]
            ok = subprocess.run(cmd, cwd=ROOT).returncode == 0 and ok
        for line in rows:
            row = json.loads(line)
            measured[row["workload"]] = row["metrics"]["us_per_task"]
    for workload, ref in reference["us_per_task"].items():
        us = measured.get(workload) or float("inf")
        ratio = us / ref
        print(f"perf gate: {workload:16s} {us:7.2f} us/task = {ratio:.2f} x reference "
              f"{ref:.2f} (limit {LIMIT:.2f}) {'ok' if ratio <= LIMIT else 'FAIL'}")
        ok = ok and ratio <= LIMIT
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
