"""Span tracer and the module -> layer -> wrapped-call table.

The benchmark measures per-layer cost without touching ``src/``: it
wraps the public calls at each layer boundary from here, by patching the
name where its caller looks it up (a class attribute, or a module
attribute for functions imported at call time).  :func:`install` does
the patching and returns a handle whose ``restore()`` undoes it.

Spans are kept per thread (the service runs simulations on worker
threads).  Each span adds its duration to its parent's child time, so a
span's self time is its duration minus the union of its children — the
children of one thread are nested and never overlap.  Aggregates
(calls, total, self) are kept for every span; full span records only
while ``keep_all`` is set or for names in ``keep_names``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterator, Optional

_perf = time.perf_counter

#: Event kinds whose handlers get their own row; every other kind is
#: folded into ``runtime.ev.other``.
EVENT_KINDS = ("task-end", "transfer-end", "worker-wake", "notify",
               "retransmit", "retry")

class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "rid", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: list[list] = []
        #: span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: (id, name, t0, t1, parent id, request id, thread)
        self.spans: list[tuple] = []
        self.rid: Any = None
        self.tid = tid


class Tracer:
    """In-memory span recorder shared by every wrapper of one install."""

    def __init__(self, keep_names: frozenset = frozenset()) -> None:
        self.active = False
        self.keep_all = False
        self.keep_names = keep_names
        self.counts: dict[str, float] = {}
        #: service jobs seen by the admission wrapper (queue wait source)
        self.jobs: list = []
        self.origin = _perf()
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states) + 1)
                self._states.append(st)
            self._tls.st = st
        return st

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:  # the service's worker threads share counters
            self.counts[name] = self.counts.get(name, 0) + n

    # -- span bookkeeping ------------------------------------------------
    def _open(self, st: _ThreadState) -> list:
        stack = st.stack
        frame = [0.0, next(self._ids), stack[-1][1] if stack else 0]
        stack.append(frame)
        return frame

    def _record(self, st: _ThreadState, name: str, dur: float, self_t: float) -> None:
        rec = st.stats.get(name)
        if rec is None:
            rec = st.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += self_t

    def _close(self, st: _ThreadState, frame: list, name: str, t0: float, t1: float) -> None:
        stack = st.stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][0] += dur
        self._record(st, name, dur, dur - frame[0])
        if self.keep_all or name in self.keep_names:
            st.spans.append((frame[1], name, t0, t1, frame[2], st.rid, st.tid))

    @contextlib.contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[None]:
        """A span around benchmark code (the roots of the tree)."""
        st = self.state()
        prev_rid = st.rid
        if rid is not None:
            st.rid = rid
        frame = self._open(st)
        t0 = _perf()
        try:
            yield
        finally:
            self._close(st, frame, name, t0, _perf())
            st.rid = prev_rid

    @contextlib.contextmanager
    def root(self, name: str, rid: Any) -> Iterator[None]:
        """A root span; the wrappers record only inside one."""
        self.active = True
        try:
            with self.span(name, rid):
                yield
        finally:
            self.active = False

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span named ``name`` per call while active.

        ``after(result, args)`` runs once the span has closed, to update
        counters from what the call returned.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer.state()
            frame = tracer._open(st)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(st, frame, name, t0, _perf())
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async(self, name: str, fn: Callable, before: Callable) -> Callable:
        """A coroutine function's span, kept off the thread's stack.

        Coroutines interleave on the event loop, so their spans cannot
        nest; none of the wrapped coroutines call a wrapped function.
        ``before(args)`` returns the request id.
        """
        tracer = self

        async def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return await fn(*args, **kwargs)
            rid = before(args)
            t0 = _perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = _perf()
                st = tracer.state()
                tracer._record(st, name, t1 - t0, t1 - t0)
                if tracer.keep_all or name in tracer.keep_names:
                    st.spans.append((next(tracer._ids), name, t0, t1, 0, rid, st.tid))

        return traced

    # -- results ---------------------------------------------------------
    def stats(self) -> dict[str, list]:
        """Aggregates merged over every thread: name -> [calls, total, self]."""
        out: dict[str, list] = {}
        for st in self._states:
            for name, (calls, total, self_t) in st.stats.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_t
        return out

    def self_total(self) -> float:
        return sum(rec[2] for st in self._states for rec in st.stats.values())

    def spans(self) -> list[tuple]:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s[2])

    def reset(self) -> None:
        """Forget aggregates, counters, spans and jobs (not the install)."""
        for st in self._states:
            st.stats.clear()
            st.spans.clear()
        self.counts.clear()
        self.jobs.clear()


# ----------------------------------------------------------------------
# The wrapped-call table
# ----------------------------------------------------------------------
class Install:
    """Patched names of one :func:`install`; ``restore()`` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patched: list[tuple[Any, str, Any]] = []
        #: targets the tree no longer has (their time lands in the caller)
        self.missing: list[str] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Any]) -> None:
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self.patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self.patched):
            setattr(owner, attr, raw)
        self.patched.clear()


def _lookup(path: str) -> Any:
    """``"pkg.mod:Cls"`` -> the class; ``"pkg.mod"`` -> the module."""
    mod_name, _, attr = path.partition(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(mod, attr, None) if attr else mod


def _methods(inst: Install, path: str, spans: dict[str, str],
             after: Optional[dict[str, Callable]] = None) -> None:
    owner = _lookup(path)
    if owner is None:
        inst.missing.append(path)
        return
    t = inst.tracer
    hooks = after or {}
    for attr, span in spans.items():
        inst.patch(owner, attr, lambda fn, s=span, a=hooks.get(attr): t.wrap(s, fn, a))


def _function(inst: Install, modules: tuple[str, ...], attr: str, span: str) -> None:
    """Patch one function under every module name its callers import it by.

    Modules that re-export the same object share one wrapper, so no call
    is ever recorded twice.
    """
    made: dict[int, Callable] = {}
    for path in modules:
        mod = _lookup(path)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            inst.missing.append(f"{path}.{attr}")
            continue
        if id(fn) not in made:
            made[id(fn)] = inst.tracer.wrap(span, fn)
        inst.patched.append((mod, attr, fn))
        setattr(mod, attr, made[id(fn)])


def _install_sim(inst: Install) -> None:
    engine = _lookup("repro.sim.engine:SimEngine")
    kinds = _lookup("repro.sim.engine:EventKind")
    if engine is None or kinds is None:
        inst.missing.append("repro.sim.engine")
        return
    t = inst.tracer
    generic = kinds.GENERIC
    ev_name = {k: f"runtime.ev.{k.value if k.value in EVENT_KINDS else 'other'}"
               for k in kinds}

    def make_schedule(orig: Callable) -> Callable:
        # every event handler becomes a span named by its EventKind, so
        # the loop's self time is the loop minus the handlers it runs
        def schedule(self: Any, when: float, callback: Callable, *args: Any, **kw: Any) -> Any:
            if t.active:
                kind = kw.get("kind", args[0] if args else generic)
                callback = t.wrap(ev_name.get(kind, "runtime.ev.other"), callback)
            return orig(self, when, callback, *args, **kw)

        return t.wrap("sim.schedule", schedule)

    inst.patch(engine, "schedule", make_schedule)
    inst.patch(engine, "run", lambda fn: t.wrap("sim.loop", fn))
    inst.patch(engine, "run_while", lambda fn: t.wrap("sim.loop", fn))


def _install_runtime(inst: Install) -> None:
    t = inst.tracer

    def after_submit(_result: Any, args: tuple) -> None:
        rt, task = args[0], args[1]
        t.count("tasks")
        t.count("deps.edges", len(rt.graph.in_edges(task.uid)))

    def after_push(result: Any, _args: tuple) -> None:
        if result[1]:
            t.count("cluster.push_issued")

    _methods(inst, "repro.runtime.directives:TaskFunction", {"__call__": "runtime.create"})
    _methods(
        inst, "repro.runtime.runtime:OmpSsRuntime",
        {"submit": "runtime.submit", "dispatch": "runtime.dispatch",
         "push_region": "cluster.push"},
        {"submit": after_submit, "push_region": after_push},
    )


def _install_deps(inst: Install) -> None:
    _methods(inst, "repro.runtime.dependences:DependenceGraph",
             {"add_task": "deps.add_task", "task_finished": "deps.task_finished"})


SCHED_HOOKS = ("task_submitted", "task_ready", "task_started", "task_finished")


def _install_schedulers(inst: Install) -> None:
    """Hooks of every scheduler class; the sharded one is the cluster layer."""
    t = inst.tracer
    base = _lookup("repro.schedulers.base:Scheduler")
    registry = _lookup("repro.schedulers.registry")
    cluster_cls = _lookup("repro.cluster.sharded:ShardedClusterScheduler")
    if base is None or registry is None:
        inst.missing.append("repro.schedulers")
        return
    registry.available_schedulers()  # imports every built-in policy
    classes: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(c for c in cls.__subclasses__() if c not in classes)

    def after_learning(result: Any, _args: tuple) -> None:
        t.count("sched.learning_calls")
        if result:
            t.count("sched.learning_true")

    for cls in classes:
        layer = "cluster" if cluster_cls is not None and issubclass(cls, cluster_cls) else "sched"
        for hook in SCHED_HOOKS:
            if hook in cls.__dict__:
                inst.patch(cls, hook, lambda fn, s=f"{layer}.{hook}": t.wrap(s, fn))
        if "in_learning_phase" in cls.__dict__:
            inst.patch(cls, "in_learning_phase",
                       lambda fn: t.wrap("sched.in_learning_phase", fn, after_learning))


def _install_memory(inst: Install) -> None:
    t = inst.tracer

    def after_issue(_result: Any, args: tuple) -> None:
        t.count("mem.transfers")
        t.count("mem.bytes", args[1].region.nbytes)

    _methods(inst, "repro.memory.transfers:TransferEngine", {"issue": "mem.issue"},
             {"issue": after_issue})
    _methods(inst, "repro.memory.directory:Directory", {"reads_needed": "mem.reads_needed"})
    cache_cls = _lookup("repro.memory.cache:CacheManager")
    if cache_cls is None:
        inst.missing.append("repro.memory.cache:CacheManager")
        return

    def make_ensure(fn: Callable) -> Callable:
        def ensure_resident(self: Any, space: str, region: Any) -> Any:
            if t.active:
                t.count("mem.ensure_calls")
                if self.is_resident(space, region):
                    t.count("mem.ensure_hits")
            return fn(self, space, region)

        return t.wrap("mem.ensure_resident", ensure_resident)

    inst.patch(cache_cls, "ensure_resident", make_ensure)


def _install_cluster(inst: Install) -> None:
    _methods(inst, "repro.cluster.protocol:NotificationRouter", {"send": "cluster.send"})


def _install_trace(inst: Install) -> None:
    _methods(inst, "repro.sim.trace:Trace", {"add": "trace.add"})


def _install_resilience(inst: Install) -> None:
    path = "repro.resilience.recovery:ResilienceManager"
    owner = _lookup(path)
    _methods(inst, path, {n: f"resil.{n}" for n in vars(owner or object) if n.startswith("on_")})


def _install_sanitizer(inst: Install) -> None:
    _function(inst, ("repro.sanitizer", "repro.sanitizer.invariants"),
              "validate_run", "sanitizer.validate_run")


def _install_service(inst: Install) -> None:
    t = inst.tracer

    def after_lookup(result: Any, _args: tuple) -> None:
        t.count("svc.cache.lookups")
        if result is not None:
            t.count("svc.cache.hits")

    _methods(inst, "repro.service.spec:SubmissionSpec",
             {"from_dict": "svc.parse", "build_app": "svc.build",
              "build_machine": "svc.build"})
    _function(inst, ("repro.service.server",), "app_graph_fingerprint", "svc.fingerprint")
    _function(inst, ("repro.sim.calibrate",), "machine_fingerprint", "svc.fingerprint")
    _function(inst, ("repro.runtime.serialize",), "run_result_to_dict", "svc.serialize")
    _methods(inst, "repro.service.cache:ResultCache",
             {"lookup": "svc.cache.lookup", "insert": "svc.cache.insert"},
             {"lookup": after_lookup})
    _methods(inst, "repro.service.server:SchedulerService", {"_simulate": "svc.simulate"})

    session = _lookup("repro.service.session:Session")
    server = _lookup("repro.service.server:SchedulerService")
    if session is None or server is None:
        inst.missing.append("repro.service.session / repro.service.server")
        return

    def before_admit(args: tuple) -> Any:
        job = args[1]
        with t._lock:
            t.jobs.append(job)
        return job.id

    inst.patch(session, "admit", lambda fn: t.wrap_async("svc.admit", fn, before_admit))

    def make_job(fn: Callable) -> Callable:
        # the one private name wrapped: it brackets a job on its worker
        # thread, so every span of the job carries the job's id
        def execute(self: Any, job: Any) -> Any:
            if not t.active:
                return fn(self, job)
            with t.span("root.job", rid=job.id):
                return fn(self, job)

        return execute

    inst.patch(server, "_execute", make_job)


BATCH_GROUPS = (_install_sim, _install_runtime, _install_deps, _install_schedulers,
                _install_memory, _install_cluster, _install_trace,
                _install_resilience, _install_sanitizer)
SERVICE_GROUPS = (*BATCH_GROUPS, _install_service)


def install(tracer: Tracer, groups: tuple = BATCH_GROUPS) -> Install:
    inst = Install(tracer)
    for group in groups:
        group(inst)
    return inst


# ----------------------------------------------------------------------
# Folding spans into per-layer metrics
# ----------------------------------------------------------------------
#: Layers by span-name prefix.  The benchmark's own root spans
#: (``root.iteration``, ``root.validate``, ``root.job``) fold into
#: ``other``: their self time is the part of a request no wrapped layer
#: claims, such as app master code and glue.
LAYERS = ("sim", "runtime", "deps", "sched", "mem", "cluster", "trace",
          "resil", "sanitizer", "svc", "other")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


def per(n: float, d: float) -> float:
    return n / d if d else 0.0


def span_table(stats: dict[str, list], tasks: int, scale: float = 1.0) -> dict[str, dict]:
    """Span name -> calls, self and total time per task (the detail table).

    ``scale`` converts wall seconds to the reference speed (speed.py).
    """
    return {
        name: {
            "layer": layer_of(name),
            "calls_per_task": per(calls, tasks),
            "self_us_per_task": per(self_t, tasks) * 1e6 * scale,
            "total_us_per_task": per(total, tasks) * 1e6 * scale,
        }
        for name, (calls, total, self_t) in sorted(stats.items())
    }


def layer_metrics(stats: dict[str, list], counts: dict[str, float], tasks: int,
                  scale: float = 1.0) -> dict[str, float]:
    """The tracer-derived per-layer metrics (names as in BENCHMARK.json).

    ``scale`` converts wall seconds to the reference speed (speed.py).
    """
    self_by = dict.fromkeys(LAYERS, 0.0)
    calls_by = dict.fromkeys(LAYERS, 0)
    for name, (calls, _total, self_t) in stats.items():
        self_by[layer_of(name)] += self_t
        calls_by[layer_of(name)] += calls

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_us(*names: str) -> float:
        return per(sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names), tasks) * 1e6 * scale

    def layer_us(layer: str) -> float:
        return per(self_by[layer], tasks) * 1e6 * scale

    ev_names = [n for n in stats if n.startswith("runtime.ev.")]
    c = counts.get
    return {
        "sim.self_us_per_task": layer_us("sim"),
        "runtime.ev.self_us_per_task": self_us(*ev_names),
        "runtime.ev.task-end.self_us_per_task": self_us("runtime.ev.task-end"),
        "runtime.create.self_us_per_task": self_us("runtime.create"),
        "runtime.submit.self_us_per_task": self_us("runtime.submit"),
        "runtime.dispatch.self_us_per_task": self_us("runtime.dispatch"),
        "deps.self_us_per_task": layer_us("deps"),
        "sched.self_us_per_task": layer_us("sched"),
        "mem.self_us_per_task": layer_us("mem"),
        "trace.self_us_per_task": layer_us("trace"),
        "resil.self_us_per_task": layer_us("resil"),
        "sanitizer.self_us_per_task": layer_us("sanitizer"),
        "other.self_us_per_task": layer_us("other"),
        "sim.events_per_task": per(sum(calls(n) for n in ev_names), tasks),
        "deps.edges_per_task": per(c("deps.edges", 0), tasks),
        "sched.calls_per_task": per(calls_by["sched"], tasks),
        "sched.learning_frac": per(c("sched.learning_true", 0), c("sched.learning_calls", 0)),
        "mem.calls_per_task": per(calls_by["mem"], tasks),
        "mem.transfers_per_task": per(c("mem.transfers", 0), tasks),
        "mem.bytes_per_task": per(c("mem.bytes", 0), tasks),
        "mem.resident_hit_frac": per(c("mem.ensure_hits", 0), c("mem.ensure_calls", 0)),
        "trace.records_per_task": per(calls("trace.add"), tasks),
        "cluster.calls_per_task": per(calls_by["cluster"], tasks),
        "cluster.push_issued_frac": per(c("cluster.push_issued", 0), calls("cluster.push")),
        "cluster.notify_per_task": per(calls("cluster.send"), tasks),
    }


def write_chrome_trace(path: Any, spans: list[tuple], origin: float) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto)."""
    events = [
        {
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": round((t0 - origin) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": {"id": sid, "parent": parent, "rid": str(rid)},
        }
        for sid, name, t0, t1, parent, rid, tid in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                  separators=(",", ":"))
