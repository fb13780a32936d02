"""The validation oracle's corpus: runs and traces with known findings.

Every case builds a subject and returns what the sanitizer reports for
it, rendered as plain data (code, severity, message, task, region,
worker, file, line and the repr of meta, in report order).  The corpus:

* every golden case of :mod:`tests.sim.golden_cases`, validated whole;
* every hand-corrupted trace of ``tests/sanitizer/test_invariants.py``,
  through ``check_trace`` (with its dependence pairs) and through
  ``validate_run`` on a run wrapped around it;
* the run-level corruptions of that file (a rewound consumer start, a
  raised λ, an accounting mismatch) applied to golden runs, plus
  overlapping, duplicated and unanswered records spliced into them;
* the recorded-access and aliasing runs of ``test_races.py`` and
  ``test_alias.py``;
* seeded random dependence graphs over stable regions, with undeclared
  reads and writes injected through an access recorder and aliased
  address intervals, one of them past ``max_findings``.

``fixtures/validation_oracle.json`` pins the expected lists; it was
written by the pairwise validator that predates the shared trace index
and the per-region chain check.  Regenerate it only after an
intentional change to what the sanitizer reports::

    PYTHONPATH=src python -m tests.sanitizer.validation_corpus --write
"""

from __future__ import annotations

import argparse
import json
import random
import re
from pathlib import Path
from typing import Callable, Optional

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "validation_oracle.json"

#: a numpy buffer address, in hex (labels) or decimal (alias meta)
_ADDR = re.compile(r"0x[0-9a-f]+|\b\d{12,}\b")
#: the process-wide task uid in a default ``name#uid`` label
_UID = re.compile(r"(?<=\w)#(\d+)")


def render(diags) -> list[dict]:
    """Diagnostics as plain data, every field kept, in report order."""
    return [
        {
            "code": d.code,
            "severity": d.severity.value,
            "message": d.message,
            "task": d.task,
            "region": d.region,
            "worker": d.worker,
            "file": d.file,
            "line": d.line,
            "meta": repr(d.meta),
        }
        for d in diags
    ]


def _normalize(rendered: list[dict], uid_base: int, addresses: bool) -> list[dict]:
    """Make process-dependent numbers comparable across processes.

    A default task label carries the process-wide uid counter, so it is
    rewritten relative to the counter's value when the case started.
    Numpy-array regions are labelled by buffer address, which moves
    from process to process; with ``addresses`` each address becomes
    the ordinal of its first appearance, so which label is which is
    kept.
    """
    text = json.dumps(rendered, sort_keys=True)
    text = _UID.sub(lambda m: f"#+{int(m.group(1)) - uid_base}", text)
    if addresses:
        seen: dict[int, str] = {}
        text = _ADDR.sub(
            lambda m: seen.setdefault(int(m.group(0), 0), f"<addr{len(seen)}>"), text
        )
    return json.loads(text)


# ----------------------------------------------------------------------
# Subjects
# ----------------------------------------------------------------------
def _wrap_trace(trace):
    """A finished run around a bare trace, with consistent accounting."""
    from repro.memory.cache import CacheStats
    from repro.memory.transfers import TransferStats
    from repro.runtime.runtime import RunResult

    n = len(trace.by_category("task"))
    return RunResult(
        scheduler="hand",
        machine="hand",
        makespan=trace.makespan(),
        tasks_completed=n,
        transfer_stats=TransferStats(),
        cache_stats=CacheStats(),
        version_counts={},
        worker_stats={"hand": {"tasks_run": float(n)}},
        trace=trace,
        finish_order=list(range(n)),
    )


def _hand_traces() -> dict[str, tuple]:
    """name -> (trace, deps) for every hand-corrupted trace."""
    from repro.sim.trace import Trace

    def build(*records, deps=None):
        t = Trace()
        for rec in records:
            start, end, worker, category, label, *meta = rec
            t.add(start, end, worker, category, label, meta=meta[0] if meta else ())
        return t, deps

    return {
        "t001-overlap": build(
            (0.0, 2.0, "w:cpu0", "task", "t1", (1,)),
            (1.0, 3.0, "w:cpu0", "task", "t2", (2,)),
        ),
        "t002-before-dependence": build(
            (0.0, 2.0, "w:cpu0", "task", "producer", (1,)),
            (0.5, 1.5, "w:cpu1", "task", "consumer", (2,)),
            deps=[(1, 2)],
        ),
        "t001-t002-together": build(
            (0.0, 2.0, "w:cpu0", "task", "t1", (1,)),
            (1.0, 3.0, "w:cpu0", "task", "t2", (2,)),
            (0.5, 1.5, "w:cpu1", "task", "t3", (3,)),
            deps=[(1, 3)],
        ),
        "clean-hand": build(
            (0.0, 1.0, "w:cpu0", "task", "t1", (1,)),
            (1.0, 2.0, "w:cpu1", "task", "t2", (2,)),
            deps=[(1, 2)],
        ),
        "back-to-back": build(
            (0.0, 1.0, "w:cpu0", "task", "t1", (1,)),
            (1.0, 2.0, "w:cpu0", "task", "t2", (2,)),
        ),
        "t004-quarantined": build(
            (1.0, 1.0, "w:gpu0", "quarantine", "cooldown=2"),
            (2.0, 2.5, "w:gpu0", "task", "t1", (1,)),
            (3.0, 3.0, "w:gpu0", "readmit", ""),
        ),
        "start-at-readmit": build(
            (1.0, 1.0, "w:gpu0", "quarantine", "cooldown=2"),
            (3.0, 3.0, "w:gpu0", "readmit", ""),
            (3.0, 4.0, "w:gpu0", "task", "t1", (1,)),
        ),
        "t004-dead": build(
            (1.0, 1.0, "w:gpu0", "worker-down", "gpu0"),
            (5.0, 6.0, "w:gpu0", "task", "zombie", (1,)),
        ),
        "before-death": build(
            (0.0, 1.0, "w:gpu0", "task", "t1", (1,)),
            (2.0, 2.0, "w:gpu0", "worker-down", "gpu0"),
        ),
        "t004-windows-mixed": build(
            (0.5, 0.5, "w:gpu0", "worker-down", "gpu0"),
            (1.0, 1.0, "w:gpu0", "quarantine", "cooldown=2"),
            (1.5, 1.5, "w:gpu0", "worker-up", "gpu0"),
            (1.2, 1.4, "w:gpu0", "task", "inside", (1,)),
            (2.0, 2.0, "w:smp0", "quarantine", "cooldown=1"),
            (2.5, 2.9, "w:smp0", "task", "late", (2,)),
            (4.0, 4.0, "w:gpu1", "worker-down", "gpu1"),
            (6.0, 7.0, "w:gpu1", "task", "zombie", (3,)),
        ),
        "t007-unactioned": build(
            (0.0, 1.0, "w:gpu0", "task", "t1", (1,)),
            (2.0, 2.0, "w:gpu0", "straggler", "v1", (2,)),
        ),
        "straggler-speculated": build(
            (2.0, 2.0, "w:gpu0", "straggler", "v1", (2,)),
            (2.0, 2.0, "w:smp0", "speculate", "v0", (2,)),
            (2.0, 3.0, "w:smp0", "task", "t2", (2,)),
        ),
        "straggler-retried": build(
            (2.0, 2.0, "w:gpu0", "straggler", "v1", (2,)),
            (0.5, 2.0, "w:gpu0", "aborted", "v1", (2,)),
            (2.0, 2.0, "w:gpu0", "retry", "v1", (2,)),
            (2.0, 3.0, "w:smp0", "task", "t2", (2,)),
        ),
        "t007-other-task": build(
            (2.0, 2.0, "w:gpu0", "straggler", "v1", (2,)),
            (2.0, 2.0, "w:smp0", "speculate", "v0", (3,)),
        ),
        "t007-followup-before": build(
            (1.0, 1.0, "w:smp0", "retry", "v0", (4,)),
            (2.0, 2.0, "w:gpu0", "straggler", "v1", (4,)),
            (3.0, 3.0, "w:gpu0", "straggler", "v1", (5,)),
            (3.0, 3.0, "w:smp1", "speculate", "v0", (5,)),
        ),
        "t008-duplicate": build(
            (0.0, 1.0, "w:gpu0", "task", "t1", (1,)),
            (0.5, 1.5, "w:smp0", "task", "t1", (1,)),
        ),
        "shared-labels": build(
            (0.0, 1.0, "w:gpu0", "task", "t", (1,)),
            (0.5, 1.5, "w:smp0", "task", "t", (2,)),
        ),
        "t001-spec-abort": build(
            (0.0, 2.0, "w:gpu0", "spec-abort", "v1", (1,)),
            (1.0, 3.0, "w:gpu0", "task", "t2", (2,)),
        ),
        "spec-drop": build(
            (0.0, 2.0, "w:smp0", "task", "t1", (1,)),
            (1.0, 1.0, "w:smp0", "spec-drop", "v0", (2,)),
        ),
        "t001-busy-ties": build(
            (0.0, 2.0, "w:gpu0", "fault", "f1", (1,)),
            (0.0, 2.0, "w:gpu0", "task", "t1", (2,)),
            (0.0, 2.0, "w:gpu0", "aborted", "a1", (3,)),
            (1.0, 1.5, "w:gpu0", "task", "t2", (4,)),
            (0.0, 1.0, "link:host->gpu0", "transfer", "x"),
            (0.5, 1.5, "link:host->gpu0", "transfer", "y"),
        ),
        "t009-late": build(
            (0.0, 4.0, "w:smp0", "task", "producer", (1,)),
            (4.0, 5.0, "node:host->node1", "notify", "consumer", (2,)),
            (4.2, 6.0, "w:smp2", "task", "consumer", (2,)),
        ),
        "notify-in-time": build(
            (0.0, 4.0, "w:smp0", "task", "producer", (1,)),
            (4.0, 5.0, "node:host->node1", "notify", "consumer", (2,)),
            (5.0, 6.0, "w:smp2", "task", "consumer", (2,)),
        ),
        "t009-every-late": build(
            (4.0, 5.0, "node:host->node1", "notify", "c", (2,)),
            (4.0, 7.0, "node:host->node2", "notify", "c", (2,)),
            (6.0, 8.0, "w:smp2", "task", "c", (2,)),
        ),
        "notify-ghost": build(
            (4.0, 5.0, "node:host->node1", "notify", "ghost", (99,)),
        ),
        "t010-duplicate-release": build(
            (4.0, 4.0, "node:host", "release", "consumer", (2,)),
            (5.0, 5.0, "node:node1", "release", "consumer", (2,)),
        ),
        "t010-dropped": build(
            (3.0, 4.0, "link:host->node1", "notify-drop", "consumer", (2, 5)),
            (4.5, 4.5, "node:node1", "release", "consumer", (2,)),
        ),
        "t010-before-delivery": build(
            (3.0, 5.0, "node:host->node1", "notify", "consumer", (2, 5)),
            (4.0, 4.0, "node:node1", "release", "consumer", (2,)),
        ),
        "retransmitted-drop": build(
            (3.0, 4.0, "link:host->node1", "notify-drop", "consumer", (2, 5)),
            (4.5, 5.5, "node:host->node1", "notify", "consumer", (2, 5)),
            (5.5, 5.5, "node:node1", "release", "consumer", (2,)),
        ),
        "late-duplicate": build(
            (3.0, 4.0, "node:host->node1", "notify", "consumer", (2, 5)),
            (4.0, 4.0, "node:node1", "release", "consumer", (2,)),
            (4.0, 6.0, "node:host->node1", "notify-dup", "consumer", (2, 5)),
            (4.5, 7.0, "w:smp2", "task", "consumer", (2,)),
        ),
        "t009-t010-mixed": build(
            (1.0, 3.0, "node:host->node1", "notify", "b", (3, 1)),
            (1.0, 2.0, "node:host->node2", "notify-local", "b", (3, 2)),
            (0.5, 0.6, "link:host->node1", "notify-drop", "c", (4, 7)),
            (2.0, 2.5, "node:host->node1", "notify-recover", "d", (5,)),
            (2.0, 2.4, "node:host->node2", "notify", "d", (5,)),
            (2.6, 2.6, "node:node1", "release", "b", (3,)),
            (2.7, 2.7, "node:node1", "release", "c", (4,)),
            (2.1, 2.1, "node:node2", "release", "d", (5,)),
            (2.6, 3.5, "w:smp1", "task", "b", (3,)),
            (2.7, 3.0, "w:smp2", "task", "c", (4,)),
            (2.2, 2.3, "w:smp3", "task", "d", (5,)),
        ),
    }


def _golden_run(case_id: str):
    from tests.sim.golden_cases import CASES_BY_ID, run_case

    return run_case(CASES_BY_ID[case_id])[0]


def _rewound_consumers(every: int):
    """A hybrid node run with GPU consumers rewound into their input copies."""
    res = _golden_run("matmul3-hyb-versioning-node")
    space_of = {w.name: w.space for w in res.workers}
    transfers = res.trace.by_category("transfer")
    victims = 0
    for i, t in enumerate(sorted(res.graph.tasks(), key=lambda t: t.uid)):
        space = space_of.get(t.chosen_worker)
        if space is None or "gpu" not in (t.chosen_worker or "") or i % every:
            continue
        reads = {a.region.label for a in t.accesses if a.reads}
        for rec in transfers:
            if (
                rec.worker.split("->", 1)[-1] == space
                and rec.label in reads
                and rec.end <= t.start_time
                and rec.duration > 0
            ):
                t.start_time = (rec.start + rec.end) / 2.0
                victims += 1
                break
    assert victims, "no GPU consumer with a completed input transfer"
    return res


def _long_transfer_groups():
    """Consumers whose input saw many copies, a few still in flight.

    Every GPU consumer's inputs get a dozen earlier copies into its
    space, and every third one also a copy spanning its start; the
    copies are appended across consumers, so a group's append order is
    not its start order.
    """
    res = _golden_run("matmul3-hyb-versioning-node")
    space_of = {w.name: w.space for w in res.workers}
    consumers = [t for t in sorted(res.graph.tasks(), key=lambda t: t.uid)
                 if "gpu" in (t.chosen_worker or "")]
    for k in range(12):
        for i, t in enumerate(consumers):
            space = space_of[t.chosen_worker]
            for a in t.accesses:
                if not a.reads:
                    continue
                link = f"link:host->{space}"
                t0 = t.start_time
                early = t0 * (k + 1) / 16.0
                res.trace.add(early, early + t0 / 64.0, link, "transfer", a.region.label)
                if k == 11 - i % 5 and i % 3 == 0:
                    res.trace.add(t0 / 2.0, t0 * 1.5 + 1e-6, link, "transfer",
                                  a.region.label)
    return res


def _lambda_raised():
    res = _golden_run("matmul3-hyb-versioning-node")
    res.scheduler_state.lam = 10_000
    return res


def _accounting_off():
    res = _golden_run("pbpi-bf-quiet")
    res.tasks_completed += 1
    return res


def _spliced(case_id: str):
    """A golden trace with overlapping, duplicated and unanswered records."""
    res = _golden_run(case_id)
    tasks = res.trace.by_category("task")
    for r in tasks[::5]:
        # a second completion of the same task, overlapping the first
        res.trace.add(r.start + r.duration / 3, r.end + r.duration, r.worker,
                      "task", r.label, meta=r.meta)
    for r in tasks[1::7]:
        res.trace.add(r.end, r.end, r.worker, "straggler", r.label, meta=r.meta)
    for r in res.trace.by_category("release")[::4]:
        res.trace.add(r.start + 1e-3, r.start + 1e-3, r.worker, "release", r.label,
                      meta=r.meta)
    for r in tasks[2::9]:
        res.trace.add(r.start, r.start, r.worker, "worker-down", r.worker)
        res.trace.add(r.end, r.end, r.worker, "worker-up", r.worker)
    return res


# -- recorded-access runs (numpy regions: addresses are normalized) ------
def _recorded(build: Callable, *, alias: bool = False):
    import numpy as np

    from repro.runtime.runtime import OmpSsRuntime, RuntimeConfig
    from repro.sim.perfmodel import AffineBytesCostModel
    from repro.sim.topology import minotauro_node

    registry: dict = {}
    calls = build(registry, np)
    m = minotauro_node(2, 0, noise_cv=0.0, seed=3)
    for name in registry:
        m.register_kernel_for_kind("smp", name, AffineBytesCostModel(0.0, 1e9))
    config = (RuntimeConfig(alias_policy="report") if alias
              else RuntimeConfig(record_accesses=True))
    rt = OmpSsRuntime(m, "breadth-first", config=config)
    with rt:
        for fn, args in calls:
            fn(*args)
    return rt.result()


def _sneaky(registry, np):
    from repro.runtime.directives import task

    @task(inputs=["a", "b"], registry=registry)
    def sneaky(a, b):
        b += a

    a, b = np.ones(64), np.zeros(64)
    return [(sneaky, (a, b))] * 4


def _peeker(registry, np):
    from repro.runtime.directives import task

    @task(outputs=["b"], registry=registry)
    def peeker(a, b):
        b[:] = a * 2

    a, b = np.ones(64), np.zeros(64)
    return [(peeker, (a, b))]


def _shared_write(registry, np):
    from repro.runtime.directives import task

    @task(inouts=["x"], registry=registry)
    def t1(x, z):
        x += 1
        z += 1

    @task(inouts=["y"], registry=registry)
    def t2(y, z):
        y += 1
        z += 2

    @task(inputs=["z"], registry=registry)
    def t3(z):
        return float(z.sum())

    x, y, z = np.ones(32), np.ones(32), np.zeros(32)
    return [(t1, (x, z)), (t2, (y, z)), (t3, (z,)), (t1, (x, z))]


def _aliased_views(registry, np):
    from repro.runtime.directives import task

    @task(inouts=["x"], registry=registry)
    def bump(x):
        x += 1

    base = np.zeros(128)
    return [(bump, (base,)), (bump, (base[:64],)), (bump, (base[32:96],))]


# -- seeded random graphs over stable regions ----------------------------
def _random_graph(seed: int, *, n_tasks: int, n_regions: int, n_defs: int,
                  undeclared: float, aliased: int):
    """A dependence graph plus recorder with injected undeclared accesses.

    Regions ``r0..`` occupy disjoint address intervals except the last
    ``aliased`` ones, which straddle their neighbours.  Each task
    declares 1-3 accesses; with probability ``undeclared`` it also
    touches a region it did not declare (a write two times in three).
    """
    from repro.runtime.dataregion import AccessKind, DataAccess, DataRegion
    from repro.runtime.dependences import DependenceGraph
    from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
    from repro.sanitizer.races import AccessRecorder

    rng = random.Random(seed)
    regions = [
        DataRegion(("blk", seed, i), 64, base=0x1000 + 0x100 * i, length=0x100,
                   label=f"r{i}")
        for i in range(n_regions)
    ]
    for j in range(aliased):
        lo = regions[rng.randrange(n_regions)]
        regions.append(DataRegion(("alias", seed, j), 64, base=lo.base + 0x80,
                                  length=0x100, label=f"alias{j}"))
    defs = []
    for d in range(n_defs):
        definition = TaskDefinition(f"k{d}")
        definition.add_version(TaskVersion(f"k{d}_v", f"k{d}", ("smp",), "k",
                                           is_main=True))
        defs.append(definition)
    kinds = (AccessKind.INPUT, AccessKind.OUTPUT, AccessKind.INOUT)
    graph = DependenceGraph(alias_policy="report")
    recorder = AccessRecorder()
    for i in range(n_tasks):
        chosen = rng.sample(regions, rng.randint(1, 3))
        accesses = [DataAccess(r, rng.choice(kinds)) for r in chosen]
        t = TaskInstance(rng.choice(defs), accesses, label=f"t{i}")
        graph.add_task(t)
        if rng.random() < undeclared:
            extra = rng.choice(regions)
            write = rng.random() < 2 / 3
            recorder.observed[t.uid] = [(extra, not write, write)]
    return graph, recorder


def _reader_then_writer():
    """The only conflict is a read followed by an unordered write.

    ``w`` writes r; ``a`` and ``b`` both declare r as input, so each is
    ordered after ``w`` but not after the other, and ``b`` in fact
    writes r.  Only comparing ``b``'s write with the reads since the
    last writer finds the race.
    """
    from repro.runtime.dataregion import AccessKind, DataAccess, DataRegion
    from repro.runtime.dependences import DependenceGraph
    from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
    from repro.sanitizer.races import AccessRecorder

    r = DataRegion(("rw", 0), 64, label="r")
    graph = DependenceGraph()
    recorder = AccessRecorder()
    for name, kind in (("w", AccessKind.OUTPUT), ("a", AccessKind.INPUT),
                       ("b", AccessKind.INPUT)):
        d = TaskDefinition(name)
        d.add_version(TaskVersion(name + "_v", name, ("smp",), "k", is_main=True))
        t = TaskInstance(d, [DataAccess(r, kind)], label=name)
        graph.add_task(t)
    recorder.observed[t.uid] = [(r, True, True)]
    return graph, recorder


def _random_past_five() -> list[dict]:
    from repro.sanitizer.races import check_happens_before

    graph, recorder = _random_graph(6, n_tasks=80, n_regions=6, n_defs=12,
                                    undeclared=0.6, aliased=2)
    return render(check_happens_before(graph, recorder=recorder, max_findings=5))


def _graph_result(graph, recorder):
    from repro.sim.trace import Trace

    res = _wrap_trace(Trace())
    res.graph = graph
    res.recorder = recorder
    return res


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
def cases() -> dict[str, Callable[[], list[dict]]]:
    """Case id -> a thunk returning the rendered diagnostics."""
    from repro.runtime.task import TaskInstance
    from repro.sanitizer.invariants import check_trace, validate_run
    from tests.sim.golden_cases import CASES

    out: dict[str, Callable[[], list[dict]]] = {}

    def run_case(build: Callable, *, addresses: bool = False) -> Callable:
        def thunk() -> list[dict]:
            uid_base = next(TaskInstance._uid_counter)
            return _normalize(render(validate_run(build())), uid_base, addresses)
        return thunk

    for case in CASES:
        out[f"golden/{case.id}"] = run_case(lambda c=case.id: _golden_run(c))

    for name, (trace, deps) in _hand_traces().items():
        out[f"trace/{name}"] = (
            lambda t=trace, d=deps: render(check_trace(t, deps=d))
        )
        out[f"trace-run/{name}"] = run_case(lambda t=trace: _wrap_trace(t))

    out["run/t003-rewound-every-gpu-consumer"] = run_case(lambda: _rewound_consumers(1))
    out["run/t003-rewound-some-consumers"] = run_case(lambda: _rewound_consumers(4))
    out["run/t003-long-transfer-groups"] = run_case(_long_transfer_groups)
    out["run/t005-lambda-raised"] = run_case(_lambda_raised)
    out["run/t006-accounting"] = run_case(_accounting_off)
    for case_id in ("matmul3-hyb-versioning-node-chaos",
                    "matmul4-hyb-cluster-block-netloss",
                    "cholesky6-hyb-cluster-block-netloss-rejoin",
                    "matmul8-hyb-cluster-affinity-requeue-steal"):
        out[f"run/spliced-{case_id}"] = run_case(lambda c=case_id: _spliced(c))

    out["races/undeclared-inout-write"] = run_case(
        lambda: _recorded(_sneaky), addresses=True)
    out["races/undeclared-read"] = run_case(
        lambda: _recorded(_peeker), addresses=True)
    out["races/shared-write"] = run_case(
        lambda: _recorded(_shared_write), addresses=True)
    out["races/aliased-views"] = run_case(
        lambda: _recorded(_aliased_views, alias=True), addresses=True)

    out["graph/reader-then-writer"] = run_case(
        lambda: _graph_result(*_reader_then_writer()))
    shapes = [
        # (seed, tasks, regions, definitions, undeclared share, aliased regions)
        (1, 30, 8, 4, 0.2, 0),
        (2, 60, 12, 6, 0.15, 2),
        (3, 120, 20, 8, 0.1, 3),
        (4, 40, 4, 3, 0.3, 1),
        (5, 200, 30, 10, 0.05, 0),
        (6, 80, 6, 12, 0.6, 2),   # far past max_findings
    ]
    for seed, n_tasks, n_regions, n_defs, undeclared, aliased in shapes:
        build = (lambda s=seed, n=n_tasks, r=n_regions, d=n_defs, u=undeclared,
                 a=aliased: _graph_result(*_random_graph(
                     s, n_tasks=n, n_regions=r, n_defs=d, undeclared=u, aliased=a)))
        out[f"graph/random-{seed}"] = run_case(build)
    out["graph/random-6-max5"] = _random_past_five
    return out


def compute_all() -> dict[str, list[dict]]:
    return {name: thunk() for name, thunk in cases().items()}


def load_fixture() -> dict[str, list[dict]]:
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {FIXTURE_PATH.name} from this tree")
    args = ap.parse_args(argv)
    payload = compute_all()
    counts = {name: len(diags) for name, diags in payload.items()}
    print(json.dumps(counts, indent=1))
    if args.write:
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
