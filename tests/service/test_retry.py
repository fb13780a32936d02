"""Retrying clients: typed transport errors, backoff, idempotent resubmission."""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.service.chaos import FrameFaultRule, ServiceFaultPlan, WorkerCrashRule
from repro.service.client import (
    RETRYABLE_CODES,
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.server import ServiceConfig, ServiceHarness

SPEC = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "hyb"},
    "machine_args": {"n_smp": 2, "n_gpus": 1},
    "seed": 11,
}


# ----------------------------------------------------------------------
# Policy and backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_s"):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ValueError, match="base_s"):
            RetryPolicy(base_s=1.0, cap_s=0.5)
        with pytest.raises(ValueError, match="deadline_s"):
            RetryPolicy(deadline_s=0.0)

    def test_seeded_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_s=0.05, cap_s=2.0, seed=7)
        a = [policy.backoff().next() for _ in range(1)]  # fresh stream each
        seq1 = [s for b in [policy.backoff()] for s in (b.next(), b.next(), b.next())]
        seq2 = [s for b in [policy.backoff()] for s in (b.next(), b.next(), b.next())]
        assert seq1 == seq2
        assert all(policy.base_s <= s <= policy.cap_s for s in seq1 + a)

    def test_unseeded_backoffs_differ(self):
        policy = RetryPolicy(base_s=0.05, cap_s=2.0)
        seqs = {tuple(b.next() for _ in range(4)) for b in [policy.backoff() for _ in range(3)]}
        assert len(seqs) == 3  # astronomically unlikely to collide

    def test_retryable_codes(self):
        policy = RetryPolicy()
        for code in RETRYABLE_CODES:
            assert policy.retryable_code(code)
        for code in ("quarantined", "bad-spec", "deadline-exceeded", "run-failed", None):
            assert not policy.retryable_code(code)


# ----------------------------------------------------------------------
# Typed transport errors (satellite: no raw socket exceptions escape)
# ----------------------------------------------------------------------
def _fake_server(behaviour, *, max_conns: int = 8) -> tuple[str, int, threading.Thread]:
    """A TCP stub; ``behaviour(conn)`` scripts the server side per connection.

    Accepts up to ``max_conns`` connections (a retrying client reconnects
    after transport failures) and runs each through ``behaviour``.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(max_conns)
    listener.settimeout(30)
    addr = listener.getsockname()

    def run() -> None:
        try:
            for _ in range(max_conns):
                try:
                    conn, _ = listener.accept()
                except (OSError, socket.timeout):
                    return
                try:
                    behaviour(conn)
                finally:
                    conn.close()
        finally:
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return addr[0], addr[1], thread


def test_connection_refused_is_typed():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ServiceError) as err:
        ServiceClient("127.0.0.1", free_port)
    assert err.value.code == "connection-refused"


def test_server_never_replying_is_typed_timeout():
    def mute(conn: socket.socket) -> None:
        conn.recv(65536)  # read the request, say nothing
        threading.Event().wait(1.0)

    host, port, thread = _fake_server(mute)
    client = ServiceClient(host, port, timeout=0.2)
    with pytest.raises(ServiceError) as err:
        client.ping()
    assert err.value.code == "timeout"
    thread.join(timeout=5)


def test_client_reconnects_after_timeout():
    # the first connection never gets its reply; after the typed timeout
    # the same client must reconnect instead of reusing the dead stream
    conns = iter(range(2))

    def late_then_prompt(conn: socket.socket) -> None:
        first = next(conns) == 0
        conn.recv(65536)
        if first:
            conn.settimeout(5)
            try:
                while conn.recv(65536):  # until the client hangs up
                    pass
            except OSError:
                pass
            return
        conn.sendall(b'{"ok": true}\n')

    host, port, thread = _fake_server(late_then_prompt, max_conns=2)
    client = ServiceClient(host, port, timeout=0.2)
    with pytest.raises(ServiceError) as err:
        client.ping()
    assert err.value.code == "timeout"
    assert client.ping()["ok"]
    client.close()
    thread.join(timeout=5)


def test_non_json_reply_is_typed_bad_frame():
    def liar(conn: socket.socket) -> None:
        conn.recv(65536)
        conn.sendall(b"this is not json\n")

    host, port, thread = _fake_server(liar)
    client = ServiceClient(host, port, timeout=5)
    with pytest.raises(ServiceError) as err:
        client.ping()
    assert err.value.code == "bad-frame"
    thread.join(timeout=5)


def test_close_before_reply_is_typed_connection_closed():
    def hanger_upper(conn: socket.socket) -> None:
        conn.recv(65536)

    host, port, thread = _fake_server(hanger_upper)
    client = ServiceClient(host, port, timeout=5)
    with pytest.raises(ServiceError) as err:
        client.ping()
    assert err.value.code == "connection-closed"
    thread.join(timeout=5)


def test_async_client_unconnected_is_typed_not_connected():
    async def scenario():
        client = AsyncServiceClient("127.0.0.1", 1)
        with pytest.raises(ServiceError) as err:
            await client.request({"op": "ping"})
        return err.value.code

    assert asyncio.run(scenario()) == "not-connected"


# ----------------------------------------------------------------------
# End-to-end retries against a chaotic service
# ----------------------------------------------------------------------
def test_sync_client_retries_corrupt_frame_and_result_is_idempotent():
    # the very first response frame is corrupted on the wire; the client
    # sees bad-frame, reconnects, resubmits, and the cache answers
    plan = ServiceFaultPlan(frame_faults=(FrameFaultRule(at_frames=(0,)),))
    with ServiceHarness(ServiceConfig(workers=1, fault_plan=plan), tcp=True) as h:
        assert h.address is not None
        client = ServiceClient(
            *h.address, retry=RetryPolicy(max_attempts=4, base_s=0.01, cap_s=0.1, seed=0)
        )
        outcome = client.submit(SPEC)
        assert client.retries == 1
        assert outcome.cached  # first attempt ran and populated the cache
        assert outcome.result().tasks_completed == 8
        client.close()
    assert h.loop_errors == []


def test_sync_client_retries_crashed_worker():
    # internal-error is a response-typed retryable failure: no reconnect
    # needed, the second attempt lands on the replacement worker
    plan = ServiceFaultPlan(worker_crashes=(WorkerCrashRule(at_jobs=(0,)),))
    with ServiceHarness(ServiceConfig(workers=1, fault_plan=plan), tcp=True) as h:
        assert h.address is not None
        client = ServiceClient(
            *h.address, retry=RetryPolicy(max_attempts=4, base_s=0.01, cap_s=0.1, seed=0)
        )
        outcome = client.submit(SPEC)
        assert client.retries == 1
        assert outcome.result().tasks_completed == 8
        client.close()


def test_retry_budget_exhausts_and_last_error_surfaces():
    def always_lies(conn: socket.socket) -> None:
        for _ in range(10):
            if not conn.recv(65536):
                return
            try:
                conn.sendall(b"garbage\n")
            except OSError:
                return

    host, port, thread = _fake_server(always_lies)
    client = ServiceClient(
        host, port, timeout=5,
        retry=RetryPolicy(max_attempts=3, base_s=0.01, cap_s=0.02, seed=1),
    )
    with pytest.raises(ServiceError) as err:
        client.ping()
    assert err.value.code == "bad-frame"
    assert client.retries == 2  # 3 attempts = 2 retries
    thread.join(timeout=5)


def test_non_retryable_code_is_not_retried():
    with ServiceHarness(ServiceConfig(workers=1), tcp=True) as h:
        assert h.address is not None
        client = ServiceClient(
            *h.address, retry=RetryPolicy(max_attempts=5, base_s=0.01, cap_s=0.1, seed=2)
        )
        with pytest.raises(ServiceError) as err:
            client.submit({"app": "no-such-app"})
        assert err.value.code == "bad-spec"
        assert client.retries == 0
        client.close()


def test_async_client_retries_and_reconnects():
    plan = ServiceFaultPlan(frame_faults=(FrameFaultRule(at_frames=(0,)),))

    async def scenario():
        with ServiceHarness(ServiceConfig(workers=1, fault_plan=plan), tcp=True) as h:
            assert h.address is not None
            async with AsyncServiceClient(
                *h.address,
                retry=RetryPolicy(max_attempts=4, base_s=0.01, cap_s=0.1, seed=0),
            ) as client:
                outcome = await client.submit(SPEC)
                return client.retries, outcome.cached

    retries, cached = asyncio.run(scenario())
    assert retries == 1
    assert cached


def test_overall_deadline_stops_retrying_early():
    def mute_forever(conn: socket.socket) -> None:
        while conn.recv(65536):
            pass

    host, port, thread = _fake_server(mute_forever)
    client = ServiceClient(
        host, port, timeout=0.1,
        retry=RetryPolicy(max_attempts=50, base_s=0.2, cap_s=0.3, deadline_s=0.25, seed=3),
    )
    with pytest.raises(ServiceError) as err:
        client.ping()
    assert err.value.code == "timeout"
    assert client.retries < 5  # the deadline cut the 50-attempt budget short
    client.close()
    thread.join(timeout=5)
