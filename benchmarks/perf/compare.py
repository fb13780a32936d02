"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/perf/compare.py PARENT.ndjson CHANGE.ndjson

Each file holds the rows ``run.py --out`` appends, untraced runs of the
same benchmark settings; rows of different run lengths are refused.  Run
i of a workload in one file is paired with run i of it in the other, so
record them alternating which side runs first.  One row per workload x
metric: each side's median and quartiles, the change's win fraction over
the pairs, and a verdict against the metric's bound (BENCHMARK.json,
plus the service-only metrics of run.py):

* ``unresolved`` — the parent's own spread (quartile distance over its
  median) is wider than the bound, unless every change run beats every
  parent run: then ``unchanged`` (no regression, and no gain either);
* ``regressed`` — the change's median is worse by more than the bound;
* ``improved`` — at least 10 pairs, the change wins 9 in 10 of them,
  and the medians differ by more than the parent's quartile distance;
* ``unchanged`` — otherwise.

Any increase in failed operations (``fail_frac``) is a regression.
Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

from run import BENCHMARK, SERVICE, SERVICE_EXTRAS

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                if not row.get("trace"):
                    rows.setdefault(row["workload"], []).append(row)
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], bound: float, higher: bool) -> dict:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    worse = (pm - cm) / pm if higher else (cm - pm) / pm
    spread = (p3 - p1) / pm
    if spread > bound:
        all_better = all(better(c, p) for c in change for p in parent)
        result = "unchanged" if all_better else "unresolved"
    elif worse > bound:
        result = "regressed"
    elif len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and better(cm, pm) and abs(cm - pm) > p3 - p1:
        result = "improved"
    else:
        result = "unchanged"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3), "delta": -worse,
        "wins": wins, "pairs": len(pairs), "spread": spread, "verdict": result,
    }


def metric_table() -> list[tuple[str, dict, Optional[str]]]:
    """(name, definition, only this workload) for every judged metric."""
    spec = json.loads(BENCHMARK.read_text())
    table: list[tuple[str, dict, Optional[str]]] = [(m["name"], m, None) for m in spec["end_to_end"]]
    table += [(name, m, SERVICE) for name, m in SERVICE_EXTRAS.items()]
    return table


def value(row: dict, name: str) -> Optional[float]:
    v = row["metrics"].get(name)
    return row.get("extras", {}).get(name) if v is None else v


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[dict]:
    lengths = {r["seconds"] for side in (parent, change) for rows in side.values() for r in rows}
    if len(lengths) > 1:
        raise ValueError(f"runs of different lengths: {sorted(lengths)} seconds")
    out = []
    for workload in sorted(set(parent) & set(change)):
        prow, crow = parent[workload], change[workload]
        for name, m, only in metric_table():
            if only is not None and only != workload:
                continue
            pv = [v for v in (value(r, name) for r in prow) if v is not None]
            cv = [v for v in (value(r, name) for r in crow) if v is not None]
            if not pv or not cv:
                continue
            res = verdict(pv, cv, m["bound"], m["better"] == "higher")
            out.append({"workload": workload, "metric": name, "unit": m["unit"],
                        "bound": m["bound"], **res})
        pf = sum(r["failed"] for r in prow) / max(1, sum(r["attempted"] for r in prow))
        cf = sum(r["failed"] for r in crow) / max(1, sum(r["attempted"] for r in crow))
        out.append({"workload": workload, "metric": "fail_frac", "unit": "ratio", "bound": 0.0,
                    "parent": (pf, pf, pf), "change": (cf, cf, cf), "delta": cf - pf,
                    "wins": 0, "pairs": 0, "spread": 0.0,
                    "verdict": "regressed" if cf > pf else "unchanged"})
    return out


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    try:
        rows = compare(load(args.parent), load(args.change))
    except ValueError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':16} {'metric':12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>7} {'wins':>6} {'spread':>6} "
          f"{'bound':>5}  verdict")
    for r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        print(f"{r['workload']:16} {r['metric']:12} "
              f"{pm:12.5g} [{p1:.5g}, {p3:.5g}]".ljust(60)
              + f"{cm:12.5g} [{c1:.5g}, {c3:.5g}]".rjust(30)
              + f" {r['delta']:+7.1%} {r['wins']:>2}/{r['pairs']:<3} {r['spread']:6.1%} "
              f"{r['bound']:5.0%}  {r['verdict']}")
    if any(r["pairs"] and r["pairs"] < MIN_PAIRS for r in rows):
        print(f"note: fewer than {MIN_PAIRS} pairs; no gain can be claimed")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
