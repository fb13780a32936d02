"""The scheduler service: a persistent async front-end over the simulator.

One process hosts the simulator for many tenants.  Requests are
newline-delimited JSON; the same :meth:`SchedulerService.handle_request`
coroutine also serves as an in-process transport for tests and for
:class:`ServiceHarness`.  The moving parts:

* per-tenant :class:`~repro.service.session.Session` admission queues
  (bounded; reject or backpressure on overflow),
* a **dispatcher** coroutine draining sessions round-robin — at most one
  job per tenant per sweep, so a flooding tenant cannot starve others —
  into a bounded run queue,
* ``workers`` worker coroutines executing jobs in threads
  (``asyncio.to_thread``); simulations are pure Python compute but the
  event loop must stay responsive to new submissions,
* a **live scheduler pool**: submissions with ``share_scheduler=True``
  reuse one scheduler instance per (scheduler key, machine fingerprint),
  so versioning profile tables keep learning across submissions from all
  tenants — the paper's persistent-runtime behaviour, where the second
  tenant benefits from what the first tenant's runs taught the policy,
* a :class:`~repro.service.cache.ResultCache` answering repeated
  submissions without re-simulating, byte-identical to the first run.
  A result is encoded once, when it is cached; the TCP transport
  splices that text into each reply frame (:func:`encode_frame`) and
  never encodes or decodes a result on the event loop.

Robustness machinery (all failure modes reproducible under a seeded
:class:`~repro.service.chaos.ServiceFaultPlan`):

* **supervision** — the dispatcher and every worker run under a
  supervisor: a coroutine that dies is logged, its in-flight job fails
  with a typed ``internal-error``, and a replacement is spawned, so the
  worker pool never shrinks;
* **deadlines** — a spec's ``deadline_s`` is enforced while the job is
  queued and cooperatively during simulation (the sim engine's
  wall-clock check), failing with typed ``deadline-exceeded``;
* **graceful drain** — :meth:`SchedulerService.shutdown` with
  ``drain=True`` stops admission (typed ``shutting-down``), finishes
  in-flight work, then flushes the cache; ``python -m repro.service
  serve`` wires SIGTERM to it;
* a **poisoned-submission breaker** — consecutive failures of one cache
  key trip a per-key circuit: identical submissions fast-fail with
  typed ``quarantined`` for a cooldown instead of burning workers;
* a ``health`` op reporting queue depths, live workers, pool and cache
  state.

Every response is a JSON object with ``"ok"``; failures carry a typed
``error.code`` (``bad-request`` / ``bad-spec`` / ``admission-rejected`` /
``run-failed`` / ``validation-failed`` / ``deadline-exceeded`` /
``internal-error`` / ``quarantined`` / ``shutting-down``) so clients can
branch without parsing prose.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.runtime.fingerprint import app_graph_fingerprint
from repro.service.cache import CacheKey, EncodedResult, ResultCache
from repro.service.chaos import ServiceFaultInjector, ServiceFaultPlan
from repro.service.session import AdmissionError, Job, Session
from repro.service.spec import SpecError, SubmissionSpec
from repro.sim.engine import WallDeadlineExceededError

log = logging.getLogger(__name__)

PROTOCOL = "repro.service/1"


class ValidationFailed(Exception):
    """A cold run produced a trace the sanitizer rejects."""

    def __init__(self, messages: list[str]) -> None:
        super().__init__("; ".join(messages))
        self.messages = messages


class QuarantinedError(Exception):
    """The submission's cache key is quarantined by the breaker."""

    def __init__(self, key: CacheKey, retry_after: float) -> None:
        super().__init__(
            f"submission is quarantined after repeated failures; "
            f"retry in {retry_after:.1f}s"
        )
        self.key = key
        self.retry_after = retry_after


class WorkerCrashError(RuntimeError):
    """Injected worker death (chaos) — escapes the worker coroutine."""


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    workers: int = 4            #: concurrent simulator workers
    max_pending: int = 16       #: per-tenant admission queue bound
    admission: str = "reject"   #: "reject" or "wait" on overflow
    cache_path: Optional[str] = None
    cache_entries: Optional[int] = 1024
    validate_results: bool = True  #: sanitize every cold run before caching
    journal: bool = True        #: append-only cache journal between snapshots
    #: Consecutive failures of one cache key before the breaker trips.
    breaker_threshold: int = 3
    #: Seconds identical submissions fast-fail (``quarantined``) after a trip.
    breaker_cooldown_s: float = 30.0
    #: Seeded service-fault injection (None = no chaos).
    fault_plan: Optional[ServiceFaultPlan] = None


@dataclass
class _SchedulerEntry:
    """One pooled live scheduler plus its serialization lock.

    A scheduler instance is single-run state *plus* learned profile
    tables; two simulations must not bind it concurrently, so cold runs
    drawing from the pool serialize on ``lock`` (runs with different
    keys still overlap freely).
    """

    scheduler: Any
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    runs: int = 0


class SubmissionBreaker:
    """Per-cache-key circuit breaker for poisoned submissions.

    ``threshold`` *consecutive* failures of one key trip its circuit:
    identical submissions fast-fail (typed ``quarantined``) for
    ``cooldown_s`` wall seconds instead of re-running a submission that
    deterministically fails.  Re-admission is probationary, mirroring
    worker quarantine in :mod:`repro.resilience.recovery`: after the
    cooldown one attempt is allowed — a failure re-trips immediately, a
    success clears the record.  Thread-safe (consulted from worker
    threads).
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("breaker cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.tripped = 0
        self._lock = threading.Lock()
        self._strikes: dict[CacheKey, int] = {}
        self._blocked_until: dict[CacheKey, float] = {}

    def blocked_for(self, key: CacheKey) -> Optional[float]:
        """Remaining quarantine seconds for ``key``, or None if admitted."""
        with self._lock:
            until = self._blocked_until.get(key)
            if until is None:
                return None
            remaining = until - time.monotonic()
            if remaining > 0:
                return remaining
            # cooldown over: probation — one more failure re-trips
            del self._blocked_until[key]
            self._strikes[key] = self.threshold - 1
            return None

    def record_failure(self, key: CacheKey) -> bool:
        """Count one failure; True if the circuit (re-)tripped."""
        with self._lock:
            strikes = self._strikes.get(key, 0) + 1
            self._strikes[key] = strikes
            if strikes >= self.threshold:
                self._blocked_until[key] = time.monotonic() + self.cooldown_s
                self._strikes[key] = self.threshold  # saturate
                self.tripped += 1
                return True
            return False

    def record_success(self, key: CacheKey) -> None:
        with self._lock:
            self._strikes.pop(key, None)
            self._blocked_until.pop(key, None)

    def active(self) -> int:
        """Number of keys currently quarantined."""
        with self._lock:
            now = time.monotonic()
            return sum(1 for until in self._blocked_until.values() if until > now)


class SchedulerService:
    """Transport-agnostic service core (see module docstring)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ValueError("need at least one worker")
        plan = self.config.fault_plan
        self.chaos: Optional[ServiceFaultInjector] = (
            plan.injector() if plan is not None and not plan.empty else None
        )
        self.cache = ResultCache(
            self.config.cache_path,
            max_entries=self.config.cache_entries,
            journal=self.config.journal,
            persist_fault=self.chaos.persist_fault if self.chaos is not None else None,
        )
        self.breaker = SubmissionBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self.sessions: dict[str, Session] = {}
        self._scheduler_pool: dict[tuple[str, str], _SchedulerEntry] = {}
        self._pool_lock = threading.Lock()
        # canonical (app, app_args, machine, machine_args) -> the two
        # fingerprints of the cache key.  A captured graph and a built
        # machine are deterministic functions of those spec fields, so
        # repeated submissions skip graph capture entirely — that is
        # what keeps a cache hit at transport cost instead of
        # graph-construction cost.
        self._fp_cache: dict[str, tuple[str, str]] = {}
        self._fp_lock = threading.Lock()
        # cold_runs / scheduler_reuses are bumped from worker threads;
        # += is not atomic, so stats mutation takes this lock
        self._stats_lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._run_queue: "asyncio.Queue[Job]" = asyncio.Queue(
            maxsize=2 * self.config.workers
        )
        self._work_event = asyncio.Event()
        self._dispatch_task: Optional[asyncio.Task] = None
        self._worker_tasks: dict[int, asyncio.Task] = {}
        self._inflight: dict[int, Job] = {}
        self._running = False
        self._draining = False
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.cold_runs = 0
        self.scheduler_reuses = 0
        self.workers_replaced = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._draining = False
        self._spawn_dispatcher()
        for i in range(self.config.workers):
            self._spawn_worker(i)

    def _all_tasks(self) -> list[asyncio.Task]:
        tasks = list(self._worker_tasks.values())
        if self._dispatch_task is not None:
            tasks.append(self._dispatch_task)
        return tasks

    async def stop(self) -> None:
        """Stop immediately: cancel loops, fail queued work, flush the cache.

        Queued and in-flight jobs fail with typed ``shutting-down`` —
        the retryable code, so clients holding them can resubmit against
        a restarted server (idempotent: results are cache-keyed).
        """
        self._running = False
        self._draining = True
        tasks = self._all_tasks()
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._dispatch_task = None
        self._worker_tasks = {}
        # anything still queued must not leave a client hanging
        for session in self.sessions.values():
            while True:
                try:
                    job = session.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._finish(job, _error(job.id, "shutting-down", "service stopped"))
        while True:
            try:
                job = self._run_queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._finish(job, _error(job.id, "shutting-down", "service stopped"))
        for job in list(self._inflight.values()):
            self._finish(job, _error(job.id, "shutting-down", "service stopped"))
        self._inflight.clear()
        self.cache.save()

    async def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Drain, then stop.

        With ``drain=True`` (the default) admission closes first — new
        submissions fail with typed ``shutting-down`` — and the service
        waits for every queued and in-flight job to finish (bounded by
        ``timeout`` wall seconds, if given) before stopping and flushing
        the cache.  ``drain=False`` is :meth:`stop`.
        """
        self._draining = True
        if drain:
            deadline = time.perf_counter() + timeout if timeout is not None else None
            while self._outstanding():
                if deadline is not None and time.perf_counter() > deadline:
                    log.warning(
                        "drain timed out with %d jobs outstanding", self._outstanding()
                    )
                    break
                await asyncio.sleep(0.02)
        await self.stop()

    def _outstanding(self) -> int:
        queued = sum(s.queue.qsize() for s in self.sessions.values())
        return queued + self._run_queue.qsize() + len(self._inflight)

    # ------------------------------------------------------------------
    # Supervision: a dead dispatcher/worker is replaced, never mourned
    # ------------------------------------------------------------------
    def _spawn_dispatcher(self) -> None:
        task = asyncio.create_task(self._dispatch(), name="svc-dispatch")
        self._dispatch_task = task
        task.add_done_callback(self._on_dispatcher_exit)

    def _on_dispatcher_exit(self, task: asyncio.Task) -> None:
        if not self._running or task.cancelled():
            return
        exc = task.exception()
        log.warning("service dispatcher died (%r); replacing", exc)
        self.workers_replaced += 1
        self._spawn_dispatcher()
        self._work_event.set()  # re-check queues the dead sweep may have missed

    def _spawn_worker(self, index: int) -> None:
        task = asyncio.create_task(self._worker(index), name=f"svc-worker-{index}")
        self._worker_tasks[index] = task
        task.add_done_callback(lambda t, i=index: self._on_worker_exit(i, t))

    def _on_worker_exit(self, index: int, task: asyncio.Task) -> None:
        """Supervisor: fail the dead worker's job, spawn a replacement."""
        if not self._running or task.cancelled():
            return
        exc = task.exception()
        job = self._inflight.pop(index, None)
        log.warning(
            "service worker %d died (%r) holding job %s; replacing",
            index, exc, job.id if job is not None else "<none>",
        )
        if job is not None:
            self._finish(
                job,
                _error(
                    job.id,
                    "internal-error",
                    f"worker crashed while handling this submission: {exc}",
                ),
            )
        self.workers_replaced += 1
        self._spawn_worker(index)

    # ------------------------------------------------------------------
    # The in-process transport (TCP wraps this too)
    # ------------------------------------------------------------------
    async def handle_request(
        self, request: Mapping[str, Any], tenant: str = "anon"
    ) -> dict:
        """Answer one request; a submission's ``result`` is a plain dict."""
        response = await self._respond(request, tenant)
        result = response.get("result")
        if isinstance(result, EncodedResult):
            response["result"] = result.payload
        return response

    async def _respond(self, request: Mapping[str, Any], tenant: str) -> dict:
        """Answer one request, leaving a result in its encoded form."""
        if not isinstance(request, Mapping):
            return _error(None, "bad-request", "request must be a JSON object")
        rid = request.get("id")
        op = request.get("op", "submit")
        try:
            if op == "ping":
                return {"ok": True, "id": rid, "protocol": PROTOCOL}
            if op == "stats":
                return {"ok": True, "id": rid, "stats": self.stats()}
            if op == "health":
                return {"ok": True, "id": rid, "health": self.health()}
            if op == "invalidate-machine":
                mfp = request.get("machine_fp")
                if not isinstance(mfp, str):
                    return _error(rid, "bad-request", "invalidate-machine needs machine_fp")
                return {"ok": True, "id": rid, "invalidated": self.cache.invalidate_machine(mfp)}
            if op == "submit":
                return await self._submit(request, tenant)
            return _error(rid, "bad-request", f"unknown op {op!r}")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # the transport must always answer
            return _error(rid, "run-failed", f"{type(exc).__name__}: {exc}")

    async def _submit(self, request: Mapping[str, Any], tenant: str) -> dict:
        rid = request.get("id") or f"job-{next(self._job_ids)}"
        tenant = str(request.get("tenant", tenant))
        if self._draining:
            return _error(
                rid, "shutting-down",
                "service is draining and admits no new submissions",
                tenant=tenant,
            )
        try:
            spec = SubmissionSpec.from_dict(request.get("spec"))
        except SpecError as exc:
            return _error(rid, "bad-spec", str(exc))
        job = Job(
            id=str(rid),
            tenant=tenant,
            spec=spec,
            no_cache=bool(request.get("no_cache", False)),
            submitted_at=time.perf_counter(),
        )
        session = self._session(tenant)
        try:
            await session.admit(job)
        except AdmissionError as exc:
            return _error(job.id, exc.code, str(exc), tenant=tenant)
        self._work_event.set()
        return await job.future

    def _session(self, tenant: str) -> Session:
        session = self.sessions.get(tenant)
        if session is None:
            session = Session(
                tenant,
                max_pending=self.config.max_pending,
                admission=self.config.admission,
            )
            self.sessions[tenant] = session
        return session

    def release_session(self, tenant: str) -> bool:
        """Drop ``tenant``'s session if it is idle (no queued jobs).

        Transports call this when a connection-scoped tenant
        (``conn-N``) disconnects, so a long-running server does not
        accumulate one dead session per connection ever made.  A session
        with queued jobs stays — the dispatcher still owns them.  Runs
        on the event loop, like every other ``self.sessions`` access.
        """
        session = self.sessions.get(tenant)
        if session is not None and session.queue.empty():
            del self.sessions[tenant]
            return True
        return False

    # ------------------------------------------------------------------
    # Dispatcher and workers
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """Round-robin: one job per session per sweep into the run queue."""
        while True:
            await self._work_event.wait()
            self._work_event.clear()
            moved = True
            while moved:
                moved = False
                for session in list(self.sessions.values()):
                    try:
                        job = session.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        continue
                    await self._run_queue.put(job)  # bounded: throttles the sweep
                    moved = True

    async def _worker(self, index: int) -> None:
        while True:
            job = await self._run_queue.get()
            job.started_at = time.perf_counter()
            # the job stays in _inflight until answered: if this
            # coroutine dies, the supervisor finds and fails it there
            self._inflight[index] = job
            fault = self.chaos.worker_fault() if self.chaos is not None else None
            if fault is not None:
                kind, arg = fault
                if kind == "crash":
                    raise WorkerCrashError(f"injected worker crash on job {job.id}")
                if kind == "stall":
                    await asyncio.sleep(arg)
            deadline_at = job.deadline_at
            if deadline_at is not None and time.perf_counter() > deadline_at:
                self._finish(
                    job,
                    _error(
                        job.id, "deadline-exceeded",
                        f"deadline of {job.spec.deadline_s}s passed while queued",
                    ),
                )
                self._inflight.pop(index, None)
                continue
            try:
                response = await asyncio.to_thread(self._execute, job)
            except SpecError as exc:
                response = _error(job.id, "bad-spec", str(exc))
            except ValidationFailed as exc:
                response = _error(job.id, "validation-failed", str(exc))
            except WallDeadlineExceededError:
                response = _error(
                    job.id, "deadline-exceeded",
                    f"deadline of {job.spec.deadline_s}s passed mid-simulation",
                )
            except QuarantinedError as exc:
                response = _error(
                    job.id, "quarantined", str(exc), retry_after=exc.retry_after
                )
            except asyncio.CancelledError:
                self._finish(job, _error(job.id, "shutting-down", "service stopped"))
                self._inflight.pop(index, None)
                raise
            except Exception as exc:
                response = _error(job.id, "run-failed", f"{type(exc).__name__}: {exc}")
            self._finish(job, response)
            self._inflight.pop(index, None)

    def _finish(self, job: Job, response: dict) -> None:
        job.finished_at = time.perf_counter()
        session = self.sessions.get(job.tenant)
        if response.get("ok"):
            self.jobs_completed += 1
            if session is not None:
                session.stats.completed += 1
            response["elapsed"] = job.finished_at - job.submitted_at
        else:
            self.jobs_failed += 1
            if session is not None:
                session.stats.failed += 1
                if response.get("error", {}).get("code") == "deadline-exceeded":
                    session.stats.deadline_exceeded += 1
            response.setdefault("tenant", job.tenant)
        if not job.future.done():
            job.future.set_result(response)

    # ------------------------------------------------------------------
    # Job execution (worker thread)
    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> dict:
        """Fingerprint, consult the cache and breaker, simulate on a miss."""
        from repro.sim.calibrate import machine_fingerprint

        spec = job.spec
        fp_key = json.dumps(
            {
                "app": spec.app,
                "app_args": dict(spec.app_args),
                "machine": spec.machine,
                "machine_args": dict(spec.machine_args),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        with self._fp_lock:
            fps = self._fp_cache.get(fp_key)
        machine = app = None
        if fps is None:
            graph_fp = app_graph_fingerprint(spec.build_app())
            machine = spec.build_machine()
            app = spec.build_app()
            app.register_cost_models(machine)
            machine_fp = machine_fingerprint(machine)
            with self._fp_lock:
                self._fp_cache[fp_key] = (graph_fp, machine_fp)
        else:
            graph_fp, machine_fp = fps
        key = CacheKey(
            graph_fp, machine_fp, spec.scheduler_key(), spec.seed, spec.config_key()
        )

        if not job.no_cache:
            hit = self.cache.lookup(key, encoded=True)
            if hit is not None:
                return self._ok(job, key, hit, cached=True)

        retry_after = self.breaker.blocked_for(key)
        if retry_after is not None:
            raise QuarantinedError(key, retry_after)

        if machine is None:
            machine = spec.build_machine()
            app = spec.build_app()
            app.register_cost_models(machine)

        try:
            result = self._simulate(job, spec, machine, app, machine_fp)
        except (SpecError, WallDeadlineExceededError, QuarantinedError):
            raise  # not the submission poisoning workers — no strike
        except Exception:
            if self.breaker.record_failure(key):
                log.warning(
                    "breaker tripped for cache key %s after %d consecutive failures",
                    key.graph_fp, self.breaker.threshold,
                )
            raise
        self.breaker.record_success(key)

        from repro.runtime.serialize import run_result_to_dict

        encoded = self.cache.insert(
            key, run_result_to_dict(result), meta={"app": spec.app, "tenant": job.tenant}
        )
        return self._ok(job, key, encoded, cached=False)

    def _simulate(
        self, job: Job, spec: SubmissionSpec, machine: Any, app: Any, machine_fp: str
    ) -> Any:
        """One cold run (worker thread): simulate, then sanitize."""
        from repro.runtime.runtime import OmpSsRuntime

        entry = self._pool_entry(spec, machine_fp) if spec.share_scheduler else None
        if entry is None:
            scheduler, options = spec.scheduler, dict(spec.scheduler_options)
            lock: Any = contextlib.nullcontext()
        else:
            scheduler, options, lock = entry.scheduler, None, entry.lock
        with lock:
            rt = OmpSsRuntime(
                machine, scheduler, config=spec.build_config(), scheduler_options=options
            )
            rt.engine.wall_deadline = job.deadline_at
            with rt:
                app.master(rt)
            result = rt.result()
            reused = False
            if entry is not None:
                entry.runs += 1
                reused = entry.runs > 1
        with self._stats_lock:
            self.cold_runs += 1
            self.scheduler_reuses += reused

        if self.config.validate_results:
            from repro.sanitizer.diagnostics import Severity
            from repro.sanitizer.invariants import validate_run

            errors = [
                f"{d.code}: {d.message}"
                for d in validate_run(result)
                if d.severity is Severity.ERROR
            ]
            if errors:
                raise ValidationFailed(errors)
        return result

    def _pool_entry(self, spec: SubmissionSpec, machine_fp: str) -> _SchedulerEntry:
        from repro.schedulers.registry import create_scheduler

        pool_key = (spec.scheduler_key(), machine_fp)
        with self._pool_lock:
            entry = self._scheduler_pool.get(pool_key)
            if entry is None:
                entry = _SchedulerEntry(
                    scheduler=create_scheduler(
                        spec.scheduler, **dict(spec.scheduler_options)
                    )
                )
                self._scheduler_pool[pool_key] = entry
            return entry

    def _ok(
        self, job: Job, key: CacheKey, result: EncodedResult, *, cached: bool
    ) -> dict:
        return {
            "ok": True,
            "id": job.id,
            "tenant": job.tenant,
            "cached": cached,
            "graph_fp": key.graph_fp,
            "machine_fp": key.machine_fp,
            "result": result,
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._pool_lock:
            pool = {
                "entries": len(self._scheduler_pool),
                "reuses": self.scheduler_reuses,
            }
        return {
            "protocol": PROTOCOL,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "cold_runs": self.cold_runs,
            "workers_replaced": self.workers_replaced,
            "cache": self.cache.stats.as_dict(),
            "cache_entries": len(self.cache),
            "scheduler_pool": pool,
            "sessions": {t: s.stats.as_dict() for t, s in self.sessions.items()},
        }

    def health(self) -> dict:
        """Liveness snapshot: what an operator (or a drain script) polls."""
        live = sum(1 for t in self._worker_tasks.values() if not t.done())
        with self._pool_lock:
            pool_size = len(self._scheduler_pool)
        return {
            "status": "draining" if self._draining else "ok",
            "workers": {
                "configured": self.config.workers,
                "live": live,
                "replaced": self.workers_replaced,
            },
            "queues": {t: s.pending() for t, s in self.sessions.items()},
            "run_queue_depth": self._run_queue.qsize(),
            "inflight": len(self._inflight),
            "scheduler_pool_size": pool_size,
            "cache": self.cache.stats.as_dict(),
            "cache_entries": len(self.cache),
            "breaker": {"active": self.breaker.active(), "tripped": self.breaker.tripped},
            "chaos": self.chaos.counters() if self.chaos is not None else None,
        }


def _error(rid: Optional[str], code: str, message: str, **extra: Any) -> dict:
    out: dict[str, Any] = {
        "ok": False,
        "id": rid,
        "error": {"code": code, "message": message},
    }
    out.update(extra)
    return out


# ----------------------------------------------------------------------
# TCP transport: newline-delimited JSON over a stream
# ----------------------------------------------------------------------
MAX_LINE = 8 * 1024 * 1024  # a spec is small; a result payload is not ours to read


def encode_frame(response: Mapping[str, Any]) -> bytes:
    """``json.dumps(response, sort_keys=True)`` and a newline, as bytes.

    An :class:`EncodedResult` is spliced in as its canonical text, so a
    reply frame costs no result encode; the bytes are those of dumping
    the decoded result.
    """
    if not isinstance(response.get("result"), EncodedResult):
        return json.dumps(response, sort_keys=True).encode() + b"\n"
    body = ", ".join(
        f"{json.dumps(k)}: "
        + (v.text if k == "result" else json.dumps(v, sort_keys=True))
        for k, v in sorted(response.items(), key=lambda kv: kv[0])
    )
    return f"{{{body}}}\n".encode()


def _corrupt_frame(data: bytes) -> bytes:
    """Injected frame damage: framing intact, payload unparseable."""
    body, nl = data[:-1], data[-1:]
    mid = len(body) // 2
    return body[:mid] + b"\x00\x00\x00\x00" + body[mid:] + nl


async def serve_tcp(
    service: SchedulerService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Bind a newline-delimited-JSON listener onto ``service``.

    Each connection is one tenant by default (``conn-N``), released on
    disconnect; requests may override with an explicit ``"tenant"``
    field (named tenants persist across connections).  Requests on one
    connection are processed concurrently (pipelining) — responses carry
    the request ``id`` for correlation and writes are serialized.

    When the service carries a chaos injector, the transport consults it
    per request (connection drop/reset at the request or response point)
    and per response frame (corruption/truncation) — the wire-level
    failure modes the retrying clients are tested against.
    """
    conn_ids = itertools.count(1)

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        tenant = f"conn-{next(conn_ids)}"
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        chaos = service.chaos

        def die(how: str) -> None:
            if how == "reset":
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            else:
                writer.close()

        async def send(response: dict) -> None:
            data = encode_frame(response)
            fault = chaos.frame_fault() if chaos is not None else None
            try:
                if fault == "corrupt":
                    data = _corrupt_frame(data)
                async with write_lock:
                    if fault == "truncate":
                        writer.write(data[: max(1, len(data) // 2)])
                        await writer.drain()
                        writer.close()
                        return
                    writer.write(data)
                    await writer.drain()
            except OSError:
                pass  # peer vanished mid-write; its retry reconnects

        async def answer(request: Any, ordinal: int) -> None:
            try:
                if isinstance(request, Mapping):
                    response = await service._respond(request, tenant)
                else:
                    response = _error(None, "bad-request", "request must be a JSON object")
                if chaos is not None:
                    fault = chaos.connection_fault("response", ordinal)
                    if fault is not None:
                        die(fault)  # the work happened; the answer is lost
                        return
                await send(response)
            except asyncio.CancelledError:
                raise
            except Exception:  # a handler bug must never kill the loop task
                log.exception("connection handler failed answering request %s", ordinal)

        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # over-limit line: StreamReader.readline wraps
                    # LimitOverrunError in ValueError — answer, then
                    # drop the connection (the stream is mid-line and
                    # cannot be resynchronized)
                    await send(
                        _error(
                            None,
                            "bad-request",
                            f"request line exceeds {MAX_LINE} bytes",
                        )
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                ordinal = 0
                if chaos is not None:
                    ordinal = chaos.request_ordinal()
                    fault = chaos.connection_fault("request", ordinal)
                    if fault is not None:
                        die(fault)  # dies before admission; nothing ran
                        break
                try:
                    request = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    task = asyncio.create_task(
                        send(_error(None, "bad-request", f"invalid JSON: {exc}"))
                    )
                else:
                    task = asyncio.create_task(answer(request, ordinal))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            # server teardown cancelled us mid-read: finish cleanly —
            # a task left in the cancelled state trips asyncio's
            # StreamReaderProtocol done-callback (it calls
            # task.exception() unguarded on 3.11) and spams the loop's
            # exception handler on every drain with open connections
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            # all of this connection's jobs are done (answer() awaited
            # their futures above), so its auto-created session is idle
            service.release_session(tenant)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    server = await asyncio.start_server(handle, host, port, limit=MAX_LINE)
    return server


# ----------------------------------------------------------------------
# Harness: run the service (and optionally TCP) on a background thread
# ----------------------------------------------------------------------
class ServiceHarness:
    """A running service owned by a background event-loop thread.

    Gives synchronous code — tests, benchmarks, the batch CLI — both
    transports: :meth:`request` calls straight into the service
    in-process, and with ``tcp=True`` the harness also listens on an
    ephemeral localhost port (:attr:`address`).  Use as a context
    manager; exit stops the loop and persists the cache.

    Unhandled event-loop exceptions are recorded in :attr:`loop_errors`
    — robustness tests assert it stays empty under protocol abuse.
    :meth:`kill` abandons the service without flushing anything, which
    is how tests simulate a crashed server (journal recovery).
    """

    def __init__(
        self, config: Optional[ServiceConfig] = None, *, tcp: bool = False
    ) -> None:
        self.service = SchedulerService(config)
        self._tcp = tcp
        self.address: Optional[tuple[str, int]] = None
        self.loop_errors: list[dict] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ServiceHarness":
        started = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            def record_error(
                loop: asyncio.AbstractEventLoop, context: dict
            ) -> None:
                self.loop_errors.append(context)
                loop.default_exception_handler(context)

            loop.set_exception_handler(record_error)
            self._loop = loop

            async def boot() -> None:
                await self.service.start()
                if self._tcp:
                    self._server = await serve_tcp(self.service)
                    self.address = self._server.sockets[0].getsockname()[:2]
                started.set()

            loop.run_until_complete(boot())
            loop.run_forever()
            try:
                # a kill() leaves connection handlers and workers mid-await;
                # run their cancellation to completion so the loop closes
                # clean (the *service* state is still abandoned unflushed)
                leftovers = asyncio.all_tasks(loop)
                for t in leftovers:
                    t.cancel()
                if leftovers:
                    loop.run_until_complete(
                        asyncio.gather(*leftovers, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()
            except RuntimeError:  # killed mid-flight; nothing left to salvage
                pass

        self._thread = threading.Thread(target=run, name="repro-service", daemon=True)
        self._thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return self

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        async def teardown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            await self.service.stop()

        asyncio.run_coroutine_threadsafe(teardown(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        self._loop = self._thread = self._server = None

    def drain(self, *, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: close admission, finish in-flight, flush."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=True, timeout=timeout), loop
        ).result(timeout=(timeout or 0) + 60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        self._loop = self._thread = self._server = None

    def kill(self) -> None:
        """Abandon the service without flushing — a simulated crash.

        No drain, no ``cache.save()``: whatever the append-only journal
        holds is all a restarted service gets to recover from.
        """
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        def abrupt() -> None:
            self.service._running = False  # mute supervision respawns
            for t in self.service._all_tasks():
                t.cancel()
            if self._server is not None:
                self._server.close()
            loop.stop()

        loop.call_soon_threadsafe(abrupt)
        thread.join(timeout=30)
        self._loop = self._thread = self._server = None

    def __enter__(self) -> "ServiceHarness":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()

    # -- the synchronous in-process transport ---------------------------
    def request(
        self, request: Mapping[str, Any], *, tenant: str = "local", timeout: float = 300.0
    ) -> dict:
        assert self._loop is not None, "harness not started"
        fut = asyncio.run_coroutine_threadsafe(
            self.service.handle_request(request, tenant), self._loop
        )
        return fut.result(timeout=timeout)


__all__ = [
    "MAX_LINE",
    "PROTOCOL",
    "QuarantinedError",
    "SchedulerService",
    "ServiceConfig",
    "ServiceHarness",
    "SubmissionBreaker",
    "ValidationFailed",
    "WorkerCrashError",
    "encode_frame",
    "serve_tcp",
]
