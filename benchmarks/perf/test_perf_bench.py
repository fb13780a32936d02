"""Tests of the benchmark itself: ``pytest benchmarks/perf``.

Tier-1 does not collect them (``testpaths = ["tests"]``).  Batch
workloads run at tiny sizes, set by monkeypatching the size constants of
``batch.py``; the service workload runs a real server for a few seconds.
``run.main`` runs its workloads in this process for TINY_SECONDS, not for
BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import batch  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import svcload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TINY_SECONDS = {"batch": 0.3, "service": 3.0}
#: a CPU besides the lowest, for the service's server, when there is one
OTHER_CPU = max(os.sched_getaffinity(0)) if len(os.sched_getaffinity(0)) > 1 else None


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    """Shrink every workload; faults-recovery keeps the sizes its recovery
    paths need to fire."""
    for name, value in {
        "CLUSTER_NODES": 4, "CLUSTER_TILES": 4, "NODE_MATMUL_TILES": 12,
        "NODE_CHOLESKY_BLOCKS": 6, "PBPI_GENERATIONS": 4, "PBPI_BLOCKS": 4,
        "FAULT_CLUSTER_NODES": 4, "FAULT_CLUSTER_TILES": 10,
        "MIN_TIMED": 2, "TRACED_ITERS": 2,
    }.items():
        monkeypatch.setattr(batch, name, value)
    monkeypatch.setattr(svcload, "REPEAT_GAP", 3)  # cache hits within a short phase
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


class FakeChild:
    """run.py's view of a workload child, measured in this process."""

    def __init__(self, result: dict) -> None:
        self.setup_s = self.setup_raw_s = 0.2
        self.returncode = 0
        self.maxrss_mb = 60.0
        self._result = result

    def result(self) -> dict:
        return self._result


@pytest.fixture
def in_process(monkeypatch: pytest.MonkeyPatch, tiny: None) -> None:
    def batch_child(workload, seed, seconds, trace, out_dir, setup_only=False):
        assert seconds == SPEC["run_seconds"]
        if setup_only:
            return FakeChild({})
        return FakeChild(batch.measure(workload, seed, TINY_SECONDS["batch"], trace,
                                       str(out_dir)))

    def service_child(seed, seconds, trace, out_dir):
        assert seconds == SPEC["run_seconds"]
        return FakeChild(svcload.measure(seed, TINY_SECONDS["service"], trace, str(out_dir)))

    monkeypatch.setattr(run, "batch_child", batch_child)
    monkeypatch.setattr(run, "service_child", service_child)


@pytest.mark.parametrize("workload", run.BATCH)
def test_batch_workload_smoke(workload: str, tiny: None, tmp_path: Path) -> None:
    res = batch.measure(workload, 3, 0.2, False, str(tmp_path))
    assert res["problems"] == []
    assert res["failed"] == 0
    assert len(res["us_per_task_samples"]) >= batch.MIN_TIMED
    assert all(v > 0 for v in res["us_per_task_samples"])
    runs_per_iteration = {"cluster-matmul": 1, "node-versioning": 3, "faults-recovery": 2}
    assert len(res["digests"]) == runs_per_iteration[workload]


def test_traced_pass_matches_untraced(tiny: None, tmp_path: Path) -> None:
    res = batch.measure("cluster-matmul", 3, 0.5, True, str(tmp_path))
    # the digest check covers traced and untraced iterations alike
    assert res["problems"] == []
    traced = res["trace"]
    assert traced["coverage_err_max"] <= batch.COVERAGE_TOL
    assert set(PER_LAYER) <= set(traced["metrics"])
    assert traced["metrics"]["cluster.calls_per_task"] > 0
    assert traced["metrics"]["trace_overhead_frac"] > 0
    assert traced["missing_wrappers"] == []
    events = json.loads(Path(traced["chrome_trace"]).read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"root.iteration", "sim.loop", "runtime.ev.task-end"}


def test_coverage_catches_double_counted_time(tiny: None, tmp_path: Path,
                                              monkeypatch: pytest.MonkeyPatch) -> None:
    """Self times must partition the iteration: a span whose time is not
    charged to its parent fails the 2% coverage check."""
    real = batch.layers.Tracer._close

    def uncharged(self, st, frame, name, t0, t1):
        real(self, st, frame, name, t0, t1)
        if name == "sim.loop" and st.stack:
            st.stack[-1][0] -= t1 - t0

    monkeypatch.setattr(batch.layers.Tracer, "_close", uncharged)
    res = batch.measure("node-versioning", 3, 0.2, True, str(tmp_path))
    assert any("cover the iteration wall time" in p for p in res["problems"])


@pytest.mark.parametrize(("trace", "cpu"), [(False, None), (False, OTHER_CPU), (True, OTHER_CPU)])
def test_service_workload(trace: bool, cpu: int | None, tiny: None, tmp_path: Path) -> None:
    res = svcload.measure(2, TINY_SECONDS["service"], trace, str(tmp_path), cpu)
    assert res["problems"] == []
    assert res["failed"] == 0 and res["attempted"] > 0
    if trace:
        metrics = res["trace"]["metrics"]
        assert set(PER_LAYER) <= set(metrics)
        assert metrics["svc.cache.hit_frac"] > 0
        assert res["trace"]["stages"]["svc.simulate.p50_ms"] > 0
    else:
        m = res["metrics"]
        assert m["us_per_task"] > 0 and m["svc_cold_p50_ms"] > 0 and m["svc_hit_p50_ms"] > 0
        assert len(res["setup_samples"]) == svcload.SETUP_PROBES + 1 + m["open_attempts"]


def test_service_workload_reruns_an_invalid_open_loop(tiny: None, tmp_path: Path,
                                                      monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(svcload, "LATENESS_LIMIT", -1.0)  # every phase A is invalid
    res = svcload.measure(2, TINY_SECONDS["service"], False, str(tmp_path), OTHER_CPU)
    assert res["metrics"]["open_attempts"] == svcload.OPEN_ATTEMPTS
    assert len(res["problems"]) == 1 and "open loop invalid" in res["problems"][0]
    assert res["failed"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_unit(trace: int, in_process: None, tmp_path: Path,
                                           capsys: pytest.CaptureFixture) -> None:
    argv = ["--seed", "5", "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
            "--out", str(tmp_path / "rows.ndjson"), "--out-dir", str(tmp_path)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    names = PER_LAYER if trace else E2E
    headers = [i for i, x in enumerate(lines) if x.startswith("== ")] + [len(lines)]
    for start, end in zip(headers, headers[1:]):
        block = lines[start:end]
        for name, unit in names.items():
            assert any(x.split()[:1] == [name] and x.rstrip().endswith(unit) for x in block), name
    final = json.loads(lines[-1])
    assert final["correct"] is True and final["failed"] == 0
    for workload in run.BATCH + (run.SERVICE,):
        for name, unit in names.items():
            assert final["metrics"][f"{workload}:{name}"]["unit"] == unit
    rows = [json.loads(x) for x in (tmp_path / "rows.ndjson").read_text().splitlines()]
    assert [r["workload"] for r in rows] == [w["name"] for w in SPEC["workloads"]]


def test_tampered_expected_digest_fails(in_process: None, tmp_path: Path,
                                        monkeypatch: pytest.MonkeyPatch,
                                        capsys: pytest.CaptureFixture) -> None:
    digests = batch.measure("node-versioning", 0, 0.1, False, str(tmp_path))["digests"]
    expected = tmp_path / "expected.json"
    monkeypatch.setattr(run, "EXPECTED_DIGESTS", expected)
    argv = ["--workload", "node-versioning", "--seed", "0", "--out-dir", str(tmp_path)]

    expected.write_text(json.dumps({"node-versioning": {"0": digests}}))
    assert run.main(argv) == 0
    tampered = [("0" if digests[0][0] != "0" else "1") + digests[0][1:], *digests[1:]]
    expected.write_text(json.dumps({"node-versioning": {"0": tampered}}))
    assert run.main(argv) == 1
    captured = capsys.readouterr()
    assert "differ from expected_digests.json" in captured.err
    assert json.loads(captured.out.splitlines()[-1])["correct"] is False


def test_run_length_is_fixed_by_benchmark_json(tmp_path: Path) -> None:
    with pytest.raises(SystemExit) as exc:
        run.main(["--seconds", str(SPEC["run_seconds"] / 2), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "node-versioning",
         "--seed", "0", "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# The open-loop generator against a deliberately slow fake server
# ----------------------------------------------------------------------
SERVICE_S = 0.03


def _fake_server() -> tuple[tuple[str, int], threading.Event]:
    """Answers one request at a time, each after SERVICE_S seconds."""
    ready, stop = threading.Event(), threading.Event()
    address: list = []

    def serve() -> None:
        async def main() -> None:
            lock = asyncio.Lock()

            async def handle(reader, writer):
                while line := await reader.readline():
                    rid = json.loads(line)["id"]
                    async with lock:
                        await asyncio.sleep(SERVICE_S)
                    writer.write(json.dumps({"id": rid, "ok": True}, sort_keys=True).encode()
                                 + b"\n")
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            address.append(server.sockets[0].getsockname()[:2])
            ready.set()
            while not stop.is_set():
                await asyncio.sleep(0.01)
            server.close()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10)
    return address[0], stop


def _plan(n: int, gap: float) -> list[tuple]:
    return [(i * gap, f"r{i}", json.dumps({"id": f"r{i}"}).encode() + b"\n", {})
            for i in range(n)]


def test_open_loop_latency_counts_queueing_at_a_slow_server() -> None:
    address, stop = _fake_server()
    try:
        samples = asyncio.run(svcload.open_loop(address, _plan(10, 0.01)))
    finally:
        stop.set()
    lat = [s.recv - s.due for s in samples]
    assert all(s.recv for s in samples)
    assert max(s.sent - s.due for s in samples) < 0.01
    # arrivals every 10 ms at a 30 ms serial server: request k waits for
    # the k requests ahead of it, so latency grows by about 20 ms a request
    for k, v in enumerate(lat):
        assert v >= (k + 1) * SERVICE_S - k * 0.01 - 0.005


def test_open_loop_latency_counts_a_generator_stall() -> None:
    """A stall delays sending; latency is still timed from the due time."""
    address, stop = _fake_server()

    async def stalled() -> list:
        asyncio.get_running_loop().call_later(0.06, time.sleep, 0.2)  # block the loop
        return await svcload.open_loop(address, _plan(6, 0.04))

    try:
        samples = asyncio.run(stalled())
    finally:
        stop.set()
    late = [s for s in samples if s.sent - s.due > 0.05]
    assert late, "the stall delayed no request"
    for s in samples:
        assert s.recv - s.due >= (s.sent - s.due) + SERVICE_S - 0.005


class _WallLog:
    """A SpeedLog whose reference speed is the wall clock's."""

    def scaled(self, t0: float, t1: float) -> float:
        return t1 - t0


@pytest.mark.parametrize(("late", "valid"), [(3, True), (40, False)])
def test_lateness_check_reads_the_tail_percentile(late: int, valid: bool) -> None:
    """Three sends held up by the host leave phase A valid; a generator
    late on many sends does not."""
    reply = {"ok": True, "cached": False, "elapsed": 0.0}
    samples = []
    for i in range(240):
        lag = 0.012 if i < late else 0.001
        samples.append(svcload.Sample(f"r{i}", svcload.make_spec(i % 5, i, False), due=float(i),
                                      sent=i + lag, recv=i + 0.02, reply=reply))
    m = svcload.open_metrics(samples, _WallLog())
    assert m["lateness_p99_ms"] > svcload.LATENESS_LIMIT * 1e3
    assert (m["lateness_tail_ms"] <= svcload.LATENESS_LIMIT * 1e3) == valid


@pytest.mark.parametrize(("hit_of", "ok"), [(1, True), (None, False)])
def test_a_hit_replays_one_of_the_cold_runs_of_a_shared_spec(hit_of: int | None,
                                                             ok: bool) -> None:
    """A repeat sent before the first run was stored runs cold again on
    the shared scheduler, with another result; later hits replay that one."""
    spec = svcload.make_spec(0, 7, True)
    tasks = svcload.task_count(spec["app"], spec["app_args"])
    results = [{"tasks_completed": tasks, "makespan": t} for t in (1.0, 2.0, 3.0)]
    hit = results[2] if hit_of is None else results[hit_of]
    replies = [{"ok": True, "cached": False, "result": results[0]},
               {"ok": True, "cached": False, "result": results[1]},
               {"ok": True, "cached": True, "result": hit}]
    samples = [svcload.Sample(f"r{i}", spec, due=0.0, reply=r) for i, r in enumerate(replies)]
    problems = svcload.check(samples, "phase")
    assert (problems == []) == ok


# ----------------------------------------------------------------------
# Calibration and comparison
# ----------------------------------------------------------------------
def test_speedlog_scales_by_the_speed_of_the_time() -> None:
    log = speed.SpeedLog()
    log.times = [0.0, 1.0, 2.0, 3.0]
    log.loops = [speed.REF_S] * 2 + [2 * speed.REF_S] * 2
    assert log.scaled(0.1, 0.5) == pytest.approx(0.4)
    assert log.scaled(2.5, 3.5) == pytest.approx(0.5)


@pytest.mark.skipif(OTHER_CPU is None, reason="needs a second CPU")
def test_speedlog_samples_on_the_given_cpu(monkeypatch: pytest.MonkeyPatch) -> None:
    before = os.sched_getaffinity(0)
    t0 = time.perf_counter()
    with speed.SpeedLog(OTHER_CPU) as log:
        time.sleep(3 * speed.SpeedLog.PERIOD)
        assert log.proc is not None and os.sched_getaffinity(log.proc.pid) == {OTHER_CPU}
    assert log.proc.returncode is not None  # the sampler has ended
    assert len(log.loops) == len(log.times) >= 2
    assert t0 < log.times[0] < log.times[-1] < time.perf_counter()
    assert all(loop > 0 for loop in log.loops)

    seen: list[set[int]] = []
    real = speed.loop_time
    monkeypatch.setattr(speed, "loop_time",
                        lambda: (seen.append(os.sched_getaffinity(0)), real())[1])
    assert speed.loop_median(3, cpu=OTHER_CPU) > 0
    assert seen == [{OTHER_CPU}] * 3
    assert os.sched_getaffinity(0) == before


def _rows(workload: str, values: list[float], failed: int = 0,
          seconds: float = 20.0) -> list[dict]:
    return [{"workload": workload, "seconds": seconds, "trace": False, "attempted": 10,
             "failed": failed, "metrics": {"us_per_task": v}} for v in values]


@pytest.mark.parametrize(("change", "failed", "want"), [
    ([100.0 + i * 0.1 for i in range(10)], 0, "unchanged"),
    ([130.0 + i * 0.1 for i in range(10)], 0, "regressed"),
    ([80.0 + i * 0.1 for i in range(10)], 0, "improved"),
])
def test_compare_verdicts(change: list[float], failed: int, want: str) -> None:
    parent = {"node-versioning": _rows("node-versioning", [100.0 + i * 0.1 for i in range(10)])}
    got = compare.compare(parent, {"node-versioning": _rows("node-versioning", change, failed)})
    row = next(r for r in got if r["metric"] == "us_per_task")
    assert row["verdict"] == want


def test_compare_unresolved_and_failures() -> None:
    wide = [60.0, 140.0] * 5
    parent = {"node-versioning": _rows("node-versioning", wide)}
    got = compare.compare(parent, {"node-versioning": _rows("node-versioning", wide, 1)})
    verdicts = {r["metric"]: r["verdict"] for r in got}
    assert verdicts["us_per_task"] == "unresolved"
    assert verdicts["fail_frac"] == "regressed"


@pytest.mark.parametrize(("change", "want"), [([10.0, 20.0], "unchanged"),
                                               ([50.0, 100.0], "unresolved")])
def test_compare_claims_no_gain_from_a_few_runs_of_a_wide_parent(change: list[float],
                                                                 want: str) -> None:
    parent = {"node-versioning": _rows("node-versioning", [60.0, 140.0])}
    got = compare.compare(parent, {"node-versioning": _rows("node-versioning", change)})
    assert next(r for r in got if r["metric"] == "us_per_task")["verdict"] == want


def test_compare_refuses_runs_of_different_lengths() -> None:
    parent = {"node-versioning": _rows("node-versioning", [100.0] * 10)}
    change = {"node-versioning": _rows("node-versioning", [100.0] * 10, seconds=5.0)}
    with pytest.raises(ValueError, match="different lengths"):
        compare.compare(parent, change)
