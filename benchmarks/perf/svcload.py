"""The service-mixed workload: the scheduler server under generated load.

    python benchmarks/perf/svcload.py --seed N --seconds S --trace 0|1 --out-dir DIR \
                                      [--server-cpu CPU]

One process drives the server from one asyncio thread over two TCP
connections, pipelining NDJSON frames and matching replies by ``id``
(only the id is read on the hot path; frames are decoded after the
phase).  Requests rotate over eight named tenants.

* Phase A, open loop: Poisson arrivals at RATE/s; each latency is timed
  from the request's due time, so a stall also delays later requests.
* Phase B, closed loop, on a fresh server: CONNECTIONS x OUTSTANDING
  requests in flight; work completed per second at saturation.

Each phase's server starts fresh with its own persisted cache (and
journal).  Given ``--server-cpu``, the server runs on that CPU and the
generator keeps this process's, so the generator's work is not taken
from the server's measured time; the calibration loop is sampled from a
thread pinned to the server's CPU.  Without it the server shares this
process's CPU at nice SERVER_NICE.  Prints one JSON line with the
metrics and every problem found.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import layers
import speed

HERE = Path(__file__).resolve().parent

RATE = 20.0               #: open-loop arrivals/s
OPEN_SHARE = 0.6          #: share of --seconds for phase A (the rest: phase B)
CONNECTIONS = 2
OUTSTANDING = 2           #: closed-loop requests in flight per connection
TENANTS = 8
WORKERS = 2
REPEAT_GAP = 8            #: a repeat names a spec first sent this many requests back
REQUEST_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0       #: drain budget before a server is killed
SERVER_NICE = 10
SETUP_PROBES = 3          #: set-up-only servers; with the two phases' servers, setup_s is a median of 5
LATENESS_LIMIT = 0.010    #: phase A is invalid above this generator lateness at the tail
OPEN_ATTEMPTS = 3         #: runs of an invalid phase A before the workload fails
TAIL_BEYOND = 10          #: samples beyond the reported tail percentile
MACHINE = {"n_smp": 4, "n_gpus": 2}
SHAPES = (
    ("matmul", {"n_tiles": 4}),
    ("matmul", {"n_tiles": 6}),
    ("cholesky", {"n_blocks": 8}),
    ("cholesky", {"n_blocks": 12}),
    ("pbpi", {"generations": 4, "n_blocks": 4}),
)
STAGES = ("svc.parse", "svc.admit", "svc.fingerprint", "svc.build", "svc.cache.lookup",
          "svc.cache.insert", "svc.simulate", "sanitizer.validate_run", "svc.serialize")
ID_RE = re.compile(rb'"id": "([^"]+)"')


# ----------------------------------------------------------------------
# The seeded spec stream
# ----------------------------------------------------------------------
class SpecStream:
    """Submissions drawn from ``seed``.

    New specs cycle through every (shape, share_scheduler) pair in
    shuffled blocks, and repeats cycle through the shapes the same way,
    so each shape is an equal share of cold runs and of cache hits at any
    seed.  Every block of four requests holds two repeats, each of a spec
    first sent at least REPEAT_GAP requests earlier (so it should hit).
    """

    def __init__(self, seed: int, prefix: str) -> None:
        self.rng = random.Random(seed)
        self.prefix = prefix
        self.n = 0
        #: shape index -> (first request number, spec) of its new specs
        self.sent: dict[int, list[tuple[int, dict]]] = {i: [] for i in range(len(SHAPES))}
        self._pairs: list[tuple[int, bool]] = []
        self._repeats: list[int] = []
        self._pattern: list[bool] = []

    def _new(self) -> dict:
        if not self._pairs:
            self._pairs = [(i, share) for i in range(len(SHAPES)) for share in (True, False)]
            self.rng.shuffle(self._pairs)
        shape, share = self._pairs.pop()
        spec = make_spec(shape, self.rng.randrange(1 << 30), share)
        self.sent[shape].append((self.n, spec))
        return spec

    def _repeat(self) -> Optional[dict]:
        if not self._repeats:
            self._repeats = list(range(len(SHAPES)))
            self.rng.shuffle(self._repeats)
        eligible = [spec for at, spec in self.sent[self._repeats[-1]]
                    if at <= self.n - REPEAT_GAP]
        if not eligible:
            return None
        self._repeats.pop()
        return self.rng.choice(eligible)

    def next(self) -> tuple[str, bytes, dict]:
        """(request id, frame, spec) of the next submission."""
        if not self._pattern:
            self._pattern = [True, True, False, False]
            self.rng.shuffle(self._pattern)
        spec = (self._pattern.pop() and self._repeat()) or self._new()
        rid = f"{self.prefix}{self.n}"
        frame = json.dumps({"op": "submit", "id": rid, "tenant": f"t{self.n % TENANTS}",
                            "spec": spec}).encode() + b"\n"
        self.n += 1
        return rid, frame, spec


def make_spec(shape: int, seed: int, share: bool) -> dict:
    app, args = SHAPES[shape]
    return {"app": app, "app_args": dict(args), "machine": "minotauro",
            "machine_args": dict(MACHINE), "scheduler": "versioning",
            "seed": seed, "share_scheduler": share}


def shape_of(spec: dict) -> str:
    return json.dumps([spec.get("app"), spec.get("app_args")], sort_keys=True)


def arrivals(seed: int, rate: float, duration: float) -> list[float]:
    """Offsets (seconds) of ``rate x duration`` Poisson arrivals in ``duration``.

    The count is fixed, so every seed yields the same sample size and
    tail percentile; a Poisson process with a given number of arrivals
    in a window places them uniformly at random within it.
    """
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _request(sock_file: Any, payload: dict) -> dict:
    sock_file.write(json.dumps(payload).encode() + b"\n")
    sock_file.flush()
    return json.loads(sock_file.readline())


class Server:
    """One server subprocess: spawn, time set-up to first ping, drain."""

    def __init__(self, workdir: str, name: str, traced: bool, cpu: Optional[int]) -> None:
        self.cpu = cpu
        self.cache_path = os.path.join(workdir, f"{name}-cache.json")
        self.spans_path = os.path.join(workdir, f"{name}-spans.json") if traced else None
        serve = ["serve", "--port", "0", "--workers", str(WORKERS),
                 "--cache-path", self.cache_path]
        if traced:
            self.cmd = [sys.executable, str(HERE / "traced_server.py"),
                        "--spans-out", self.spans_path, "--", *serve]
        else:
            self.cmd = [sys.executable, "-m", "repro.service", *serve]
        self.proc: Optional[subprocess.Popen] = None
        self.address: tuple[str, int] = ("", 0)
        self.setup_s = self.setup_raw_s = 0.0
        self.maxrss_kb = 0

    def start(self) -> "Server":
        loop0 = speed.loop_median(cpu=self.cpu)
        t0 = time.perf_counter()
        self.proc = proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True)
        try:
            # threads the server starts later inherit both settings; the
            # nice value lets a generator on the same CPU send on time
            # and the calibration thread sample on time
            if self.cpu is not None:
                os.sched_setaffinity(proc.pid, {self.cpu})
            os.setpriority(os.PRIO_PROCESS, proc.pid, SERVER_NICE)
            assert proc.stdout is not None
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.address = (host, int(port))
            with socket.create_connection(self.address) as sock, sock.makefile("rwb") as f:
                if not _request(f, {"op": "ping", "id": "ping"}).get("ok"):
                    raise RuntimeError("server did not answer ping")
        except BaseException:
            proc.kill()
            proc.wait()
            self.proc = None
            raise
        self.setup_raw_s = time.perf_counter() - t0
        self.setup_s = speed.scaled(self.setup_raw_s,
                                    (loop0 + speed.loop_median(cpu=self.cpu)) / 2)
        return self

    def stats(self) -> dict:
        with socket.create_connection(self.address) as sock, sock.makefile("rwb") as f:
            return _request(f, {"op": "stats", "id": "stats"}).get("stats", {})

    def stop(self) -> int:
        """SIGTERM (graceful drain), then reap; returns the exit code."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        proc.send_signal(signal.SIGTERM)
        killer = threading.Timer(STOP_TIMEOUT, proc.kill)
        killer.start()
        try:
            assert proc.stdout is not None
            proc.stdout.read()  # until the server exits and closes it
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if proc.stdout is not None:
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        return proc.returncode


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
@dataclass
class Sample:
    rid: str
    spec: dict
    due: float
    sent: float = 0.0
    recv: float = 0.0
    frame: bytes = b""
    reply: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.reply.get("ok"))


class Conn:
    """One pipelined connection: replies are matched to futures by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer
        self.pending: dict[str, asyncio.Future] = {}

    async def read_replies(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            m = ID_RE.search(line)
            fut = self.pending.pop(m.group(1).decode(), None) if m else None
            if fut is not None and not fut.done():
                fut.set_result((now, line))
        for fut in self.pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError("connection closed"))

    def send(self, rid: str, frame: bytes) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.pending[rid] = fut
        self.writer.write(frame)
        return fut


async def _connect(address: tuple[str, int], n: int) -> tuple[list[Conn], list[asyncio.Task]]:
    conns = []
    for _ in range(n):
        reader, writer = await asyncio.open_connection(*address, limit=64 * 1024 * 1024)
        conns.append(Conn(reader, writer))
    return conns, [asyncio.create_task(c.read_replies()) for c in conns]


async def _close(conns: list[Conn], readers: list[asyncio.Task]) -> None:
    for c in conns:
        c.writer.close()
    await asyncio.gather(*readers, return_exceptions=True)


async def _settle(sample: Sample, fut: asyncio.Future) -> None:
    try:
        sample.recv, sample.frame = await asyncio.wait_for(fut, REQUEST_TIMEOUT)
    except (asyncio.TimeoutError, ConnectionError):
        sample.recv = 0.0


async def open_loop(address: tuple[str, int],
                    plan: list[tuple[float, str, bytes, dict]]) -> list[Sample]:
    """Send each frame at its due offset, whatever the server is doing."""
    conns, readers = await _connect(address, CONNECTIONS)
    samples, waits = [], []
    start = time.perf_counter() + 0.05
    try:
        for i, (offset, rid, frame, spec) in enumerate(plan):
            s = Sample(rid, spec, due=start + offset)
            delay = s.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            s.sent = time.perf_counter()
            waits.append(asyncio.create_task(_settle(s, conns[i % len(conns)].send(rid, frame))))
            samples.append(s)
        await asyncio.gather(*waits)
    finally:
        await _close(conns, readers)
    return samples


async def closed_loop(address: tuple[str, int], stream: SpecStream, duration: float
                      ) -> tuple[list[Sample], float, float]:
    """Keep OUTSTANDING requests in flight per connection for ``duration``."""
    conns, readers = await _connect(address, CONNECTIONS)
    samples: list[Sample] = []
    start = time.perf_counter()
    end = start + duration

    async def client(conn: Conn) -> None:
        while time.perf_counter() < end:
            rid, frame, spec = stream.next()
            s = Sample(rid, spec, due=time.perf_counter())
            s.sent = s.due
            samples.append(s)
            await _settle(s, conn.send(rid, frame))
            if not s.recv:
                return

    try:
        await asyncio.gather(*(client(c) for c in conns for _ in range(OUTSTANDING)))
        finish = max((s.recv for s in samples), default=time.perf_counter())
    finally:
        await _close(conns, readers)
    return samples, start, finish


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def canonical(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def local_digest(spec_dict: dict) -> str:
    """Digest of a local batch run of a fresh-scheduler spec."""
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.serialize import run_result_to_dict
    from repro.service.spec import SubmissionSpec

    spec = SubmissionSpec.from_dict(spec_dict)
    machine, app = spec.build_machine(), spec.build_app()
    app.register_cost_models(machine)
    rt = OmpSsRuntime(machine, spec.scheduler, config=spec.build_config(),
                      scheduler_options=dict(spec.scheduler_options))
    with rt:
        app.master(rt)
    return canonical(run_result_to_dict(rt.result()))


def task_count(app: str, app_args: dict) -> int:
    from repro.runtime.fingerprint import GraphCapture
    from repro.service.spec import SubmissionSpec

    cap = GraphCapture()
    with cap:
        SubmissionSpec.from_dict({"app": app, "app_args": app_args}).build_app().master(cap)
    return len(cap.tasks)


def decode(samples: list[Sample]) -> None:
    for s in samples:
        if s.frame:
            s.reply = json.loads(s.frame)


def check(samples: list[Sample], phase: str) -> list[str]:
    """The service's promises, checked against every reply of a phase."""
    problems = []
    by_spec: dict[str, list[Sample]] = {}
    for s in samples:
        if s.ok:
            by_spec.setdefault(spec_key(s.spec), []).append(s)
    counts = {shape_of({"app": app, "app_args": args}): task_count(app, args)
              for app, args in SHAPES}
    for group in by_spec.values():
        spec = group[0].spec
        digests = {canonical(s.reply["result"]) for s in group}
        if not spec["share_scheduler"]:
            if digests != {local_digest(spec)}:
                problems.append(f"{phase}: {group[0].rid} differs from the local batch run")
            continue
        # a repeat sent before the first run's result was stored runs cold
        # again on the evolved shared scheduler and overwrites the entry,
        # so a hit must replay one of the cold replies, not the first
        cold = {canonical(s.reply["result"]) for s in group if not s.reply.get("cached")}
        for s in group:
            if s.reply.get("cached") and canonical(s.reply["result"]) not in cold:
                problems.append(f"{phase}: cached reply {s.rid} differs from every cold one")
        want = counts[shape_of(spec)]
        got = {s.reply["result"]["tasks_completed"] for s in group}
        if got != {want}:
            problems.append(f"{phase}: shared-pool reply {group[0].rid} carries {got} tasks, "
                            f"the app has {want}")
    if not any(s.ok and s.reply.get("cached") for s in samples):
        problems.append(f"{phase}: no reply came from the cache")
    return problems


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return 0.0, max(values, default=0.0)
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k]


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def latency_ms(s: Sample, log: Optional[speed.SpeedLog]) -> float:
    """Due-to-reply latency at the reference speed."""
    return (log.scaled(s.due, s.recv) if log is not None else s.recv - s.due) * 1e3


def by_shape_p50(samples: list[Sample], log: Optional[speed.SpeedLog]) -> float:
    """Geometric mean over spec shapes of each shape's median latency.

    A plain median of the five-shape mix lands on whichever shape
    straddles the middle and jumps between seeds; this is the typical
    latency with every shape weighted equally.
    """
    groups: dict[str, list[float]] = {}
    for s in samples:
        groups.setdefault(shape_of(s.spec), []).append(latency_ms(s, log))
    if not groups:
        return 0.0
    return statistics.geometric_mean(statistics.median(v) for v in groups.values())


def open_metrics(samples: list[Sample], log: speed.SpeedLog) -> dict[str, float]:
    done = [s for s in samples if s.ok]
    cold = [s for s in done if not s.reply["cached"]]
    hit = [s for s in done if s.reply["cached"]]
    pct, tail_ms = tail([latency_ms(s, log) for s in done])
    lateness = [(s.sent - s.due) * 1e3 for s in samples]
    return {
        "svc_cold_p50_ms": by_shape_p50(cold, log),
        "svc_cold_p50_raw_ms": by_shape_p50(cold, None),
        "svc_hit_p50_ms": by_shape_p50(hit, log),
        "svc_tail_ms": tail_ms,
        "svc_tail_pct": pct,
        "open_samples": len(done),
        "cold_samples": len(cold),
        "hit_samples": len(hit),
        # a few sends held up by the host are no sign of a saturated
        # generator; the validity check reads the tail percentile
        "lateness_p99_ms": quantile(lateness, 0.99),
        "lateness_tail_ms": tail(lateness)[1],
        "wire_p50_ms": statistics.median(
            [(s.recv - s.sent - s.reply["elapsed"]) * 1e3 for s in done] or [0.0]),
        "reply_kb_p50": statistics.median([len(s.frame) / 1024 for s in done] or [0.0]),
    }


def stage_metrics(dump: dict, scale: float) -> dict[str, float]:
    """Service stage latencies, busy shares and queue wait from a traced server.

    A stage's busy share is its summed span time over the server's
    lifetime (first to last recorded span).
    """
    out: dict[str, float] = {}
    by_stage: dict[str, list[float]] = {}
    spans = dump["spans"]
    for _sid, name, t0, t1, *_ in spans:
        by_stage.setdefault(name, []).append(t1 - t0)
    life = max(s[3] for s in spans) - min(s[2] for s in spans) if spans else 0.0
    for name in STAGES:
        durs = by_stage.get(name, [])
        stage = name.split(".", 1)[1] if name.startswith("svc.") else "validate"
        out[f"svc.{stage}.p50_ms"] = statistics.median(durs) * 1e3 * scale if durs else 0.0
        out[f"svc.{stage}.busy_share"] = layers.per(sum(durs), life)
    waits = dump["queue_waits"]
    out["svc.queue.p50_ms"] = statistics.median(waits) * 1e3 * scale if waits else 0.0
    out["svc.queue.wait_p98_ms"] = quantile(waits, 0.98) * 1e3 * scale
    return out


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def warm_up(address: tuple[str, int], seed: int) -> list[str]:
    """One cold submission per shape, so lazy imports finish before timing."""
    plan = []
    for i in range(len(SHAPES)):
        # seeds above the stream's range: warm-up results never hit later
        spec = make_spec(i, (1 << 30) + seed * len(SHAPES) + i, False)
        frame = json.dumps({"op": "submit", "id": f"w{i}", "spec": spec}).encode() + b"\n"
        plan.append((0.05 * i, f"w{i}", frame, spec))
    samples = asyncio.run(open_loop(address, plan))
    decode(samples)
    return [f"warm-up {s.rid} failed: {s.reply.get('error')}" for s in samples if not s.ok]


def open_phase(server: Server, seed: int, duration: float
               ) -> tuple[list[Sample], speed.SpeedLog, float]:
    """Phase A; also returns the phase's wall time at the reference speed
    over its raw wall time (the factor that scales the server's spans)."""
    stream = SpecStream(seed, "a")
    plan = [(t, *stream.next()) for t in arrivals(seed, RATE, duration)]
    with speed.SpeedLog(server.cpu) as log:
        t0 = time.perf_counter()
        samples = asyncio.run(open_loop(server.address, plan))
        t1 = time.perf_counter()
    return samples, log, log.scaled(t0, t1) / (t1 - t0)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    setups_raw: list[float] = field(default_factory=list)
    maxrss_kb: int = 0

    def account(self, samples: list[Sample], phase: str) -> None:
        decode(samples)
        self.attempted += len(samples)
        bad = [s for s in samples if not s.ok]
        self.failed += len(bad)
        for s in bad[:5]:
            self.problems.append(f"{phase}: {s.rid} failed: {s.reply.get('error', 'timeout')}")

    def server(self, srv: Server) -> None:
        self.setups.append(srv.setup_s)
        self.setups_raw.append(srv.setup_raw_s)

    def stop(self, srv: Server, *, rss: bool = False) -> None:
        code = srv.stop()
        if code != 0:
            self.problems.append(f"server exited with {code}")
        if rss:
            self.maxrss_kb = srv.maxrss_kb


def measure(seed: int, seconds: float, trace: bool, out_dir: str,
            server_cpu: Optional[int] = None) -> dict:
    out = Outcome()
    result: dict[str, Any] = {"workload": "service-mixed", "seed": seed}
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="svc-") as work:
        for i in range(SETUP_PROBES):
            probe = Server(work, f"probe{i}", False, server_cpu).start()
            out.server(probe)
            out.stop(probe)

        open_s = seconds * (0.4 if trace else OPEN_SHARE)
        for attempt in range(1, OPEN_ATTEMPTS + 1):
            srv = Server(work, f"open{attempt}", False, server_cpu).start()
            out.server(srv)
            try:
                out.problems += warm_up(srv.address, seed)
                samples, log, _ = open_phase(srv, seed, open_s)
            finally:
                # peak RSS of the open-loop server: its request count is fixed
                # by the seed, while the closed loop's follows the machine speed
                out.stop(srv, rss=True)
            out.account(samples, "open loop")
            out.problems += check(samples, "open loop")
            metrics = open_metrics(samples, log)
            metrics["open_attempts"] = attempt
            if metrics["lateness_tail_ms"] <= LATENESS_LIMIT * 1e3:
                break
            # the host held up the generator: the phase is invalid, so it
            # runs again on a fresh server; every attempt's replies count
        else:
            out.problems.append(f"open loop invalid: generator lateness "
                                f"{metrics['lateness_tail_ms']:.1f} ms at the tail percentile")

        if trace:
            srv = Server(work, "traced", True, server_cpu).start()
            try:
                out.problems += warm_up(srv.address, seed + 1)
                traced, tlog, scale = open_phase(srv, seed + 1, seconds - open_s)
                stats = srv.stats()
            finally:
                out.stop(srv)
            out.account(traced, "traced open loop")
            out.problems += check(traced, "traced open loop")
            with open(srv.spans_path) as fh:
                dump = json.load(fh)
            tm = open_metrics(traced, tlog)
            counts = dump["counts"]
            tasks = int(counts.get("tasks", 0))
            per_layer = layers.layer_metrics(dump["stats"], counts, tasks, scale)
            per_layer.update({
                "cluster.retransmits_per_task": 0.0,
                "cluster.steals_per_task": 0.0,
                "resil.retries_per_task": 0.0,
                "resil.spec_won_frac": 0.0,
                "resil.recompute_per_task": 0.0,
                "svc.cache.hit_frac": layers.per(counts.get("svc.cache.hits", 0),
                                                 counts.get("svc.cache.lookups", 0)),
                "svc.pool.reuse_frac": layers.per(stats["scheduler_pool"]["reuses"],
                                                  stats["cold_runs"]),
                "trace_overhead_frac": tm["svc_cold_p50_ms"] / metrics["svc_cold_p50_ms"] - 1.0,
            })
            chrome = os.path.join(out_dir, "trace-service-mixed.json")
            layers.write_chrome_trace(chrome, [tuple(s) for s in dump["spans"]],
                                      dump["spans"][0][2] if dump["spans"] else 0.0)
            result["trace"] = {
                "metrics": per_layer,
                "spans": layers.span_table(dump["stats"], tasks, scale),
                "stages": stage_metrics(dump, scale),
                "chrome_trace": chrome,
                "missing_wrappers": dump["missing"],
            }
        else:
            srv = Server(work, "closed", False, server_cpu).start()
            out.server(srv)
            try:
                out.problems += warm_up(srv.address, seed + 1)
                stream = SpecStream(seed + 1, "b")
                with speed.SpeedLog(server_cpu) as blog:
                    closed, start, finish = asyncio.run(
                        closed_loop(srv.address, stream, seconds - open_s))
            finally:
                out.stop(srv)
            out.account(closed, "closed loop")
            out.problems += check(closed, "closed loop")
            done = [s for s in closed if s.ok]
            tasks = sum(s.reply["result"]["tasks_completed"] for s in done)
            scaled = blog.scaled(start, finish)
            metrics.update(
                us_per_task=scaled / tasks * 1e6 if tasks else 0.0,
                us_per_task_raw=(finish - start) / tasks * 1e6 if tasks else 0.0,
                svc_sat_subs_s=len(done) / scaled if scaled else 0.0,
                closed_samples=len(done),
            )
    result.update(
        attempted=out.attempted,
        failed=out.failed,
        problems=out.problems,
        setup_samples=out.setups,
        setup_raw_samples=out.setups_raw,
        maxrss_kb=out.maxrss_kb,
        metrics=metrics,
    )
    return result


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--server-cpu", type=int, help="run the servers on this CPU")
    args = ap.parse_args(argv)
    # a terminated run still drains and reaps its servers (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(args.out_dir, exist_ok=True)
    print(json.dumps(measure(args.seed, args.seconds, bool(args.trace), args.out_dir,
                             args.server_cpu)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
