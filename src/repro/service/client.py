"""Client-side bindings for the scheduler service.

Three flavours over the same request/response shapes:

* :class:`ServiceClient` — synchronous, one TCP connection, blocking
  socket I/O.  What a batch script (``reproduce.py --serve``) uses.
* :class:`AsyncServiceClient` — ``asyncio`` streams, for the load
  generator's many concurrent tenants.
* :class:`HarnessClient` — calls straight into an in-process
  :class:`~repro.service.server.ServiceHarness`, no sockets; what unit
  tests use.

All three normalise responses into :class:`SubmitOutcome` and raise
typed errors: :class:`AdmissionRejectedError` for admission overflow,
:class:`ServiceError` (with ``.code``) for everything else — including
transport failures, which surface as ``connection-closed`` /
``connection-reset`` / ``connection-refused`` / ``timeout`` /
``bad-frame`` / ``not-connected`` rather than raw socket exceptions.

Retries
-------
Both TCP clients accept a :class:`RetryPolicy`.  Retrying a submission
is *safe by construction*: results are keyed by the spec's cache key and
byte-identical across runs, so resubmitting after a lost response at
worst re-runs a simulation and at best hits the result cache.  The
policy retries only :data:`RETRYABLE_CODES` — failures where the work
may not have happened or the answer was lost — with decorrelated-jitter
exponential backoff, a bounded attempt budget, and an optional overall
wall-clock deadline.  Both clients step through one retry loop
(:class:`_RetryLoop`).  A transport-level failure always tears the
connection down, with or without a policy, so the next attempt (or the
next request) reconnects instead of reusing a dead stream; that is what
lets a client ride out a server restart.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.service.spec import SubmissionSpec


class ServiceError(Exception):
    """The service answered with a typed error response."""

    def __init__(self, code: str, message: str, response: Optional[dict] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.response = response or {}


class AdmissionRejectedError(ServiceError):
    """The tenant's admission queue was full under the reject policy."""


#: Error codes a :class:`RetryPolicy` retries by default: the failure is
#: transient (connection-level, a draining server, a crashed worker) and
#: resubmission is idempotent.  ``quarantined``, ``bad-spec``,
#: ``deadline-exceeded`` and friends are deliberately absent — retrying
#: those burns the budget on a deterministic failure.
RETRYABLE_CODES = frozenset(
    {
        "connection-closed",
        "connection-reset",
        "connection-refused",
        "not-connected",
        "timeout",
        "bad-frame",
        "shutting-down",
        "internal-error",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with decorrelated-jitter exponential backoff.

    ``max_attempts`` caps total tries (first attempt included);
    ``deadline_s`` additionally bounds the whole exchange in wall
    seconds — a retry that could not complete before the deadline is not
    attempted.  Sleeps follow the decorrelated-jitter scheme
    (``sleep = min(cap, uniform(base, prev * 3))``), which spreads a
    thundering herd of reconnecting clients better than plain
    exponential doubling.  ``seed`` pins the jitter stream for
    deterministic tests; production clients leave it ``None``.
    """

    max_attempts: int = 5
    base_s: float = 0.05
    cap_s: float = 2.0
    deadline_s: Optional[float] = None
    codes: frozenset = RETRYABLE_CODES
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_s <= 0 or self.cap_s < self.base_s:
            raise ValueError("need 0 < base_s <= cap_s")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or omitted)")
        object.__setattr__(self, "codes", frozenset(self.codes))

    def backoff(self) -> "_Backoff":
        return _Backoff(self)

    def retryable_code(self, code: Optional[str]) -> bool:
        return code is not None and code in self.codes


class _Backoff:
    """One exchange's sleep sequence (decorrelated jitter)."""

    def __init__(self, policy: RetryPolicy) -> None:
        self._policy = policy
        self._rng = random.Random(policy.seed)
        self._prev = policy.base_s

    def next(self) -> float:
        sleep = min(
            self._policy.cap_s, self._rng.uniform(self._policy.base_s, self._prev * 3)
        )
        self._prev = sleep
        return sleep


class _RetryLoop:
    """One exchange's retry decisions, free of I/O.

    Both TCP clients run an attempt, pass its outcome (the response, or
    the :class:`ServiceError` the transport raised) to :meth:`after`,
    and follow the answer: ``None`` means the outcome is final (return
    the response or raise the error, see :func:`_settle`); a float is
    the seconds to sleep before the next attempt.  Without a policy
    every outcome is final.
    """

    def __init__(self, policy: Optional[RetryPolicy]) -> None:
        self._policy = policy
        self._attempts = 0
        if policy is not None:
            self._backoff = policy.backoff()
            self._deadline = (
                time.perf_counter() + policy.deadline_s
                if policy.deadline_s is not None
                else None
            )

    def after(self, outcome: Union[dict, ServiceError]) -> Optional[float]:
        self._attempts += 1
        policy = self._policy
        if policy is None:
            return None
        code = (
            outcome.code
            if isinstance(outcome, ServiceError)
            else _response_error_code(outcome)
        )
        if not policy.retryable_code(code) or self._attempts >= policy.max_attempts:
            return None
        sleep = self._backoff.next()
        if self._deadline is not None and time.perf_counter() + sleep > self._deadline:
            return None
        return sleep


def _settle(outcome: Union[dict, ServiceError]) -> dict:
    """Return a final response, or raise a final error."""
    if isinstance(outcome, ServiceError):
        raise outcome
    return outcome


@dataclass
class SubmitOutcome:
    """One successful submission, decoded."""

    id: str
    cached: bool
    graph_fp: str
    machine_fp: str
    raw: dict          #: the full response (``raw["result"]`` is the payload)
    latency: float     #: client-observed round-trip seconds

    @property
    def result_payload(self) -> dict:
        return self.raw["result"]

    def result(self):
        """The deserialized :class:`RunResult` (live fields are None)."""
        from repro.runtime.serialize import run_result_from_dict

        return run_result_from_dict(self.raw["result"])


def _raise_for(response: dict) -> None:
    err = response.get("error") or {}
    code = err.get("code", "run-failed")
    message = err.get("message", "unknown service error")
    if code == "admission-rejected":
        raise AdmissionRejectedError(code, message, response)
    raise ServiceError(code, message, response)


def _decode_submit(response: dict, latency: float) -> SubmitOutcome:
    if not response.get("ok"):
        _raise_for(response)
    return SubmitOutcome(
        id=str(response.get("id")),
        cached=bool(response.get("cached")),
        graph_fp=str(response.get("graph_fp")),
        machine_fp=str(response.get("machine_fp")),
        raw=response,
        latency=latency,
    )


def _submit_request(
    spec: Union[SubmissionSpec, Mapping[str, Any]],
    *,
    rid: Optional[str],
    tenant: Optional[str],
    no_cache: bool,
) -> dict:
    payload = spec.to_dict() if isinstance(spec, SubmissionSpec) else dict(spec)
    request: dict[str, Any] = {"op": "submit", "spec": payload}
    if rid is not None:
        request["id"] = rid
    if tenant is not None:
        request["tenant"] = tenant
    if no_cache:
        request["no_cache"] = True
    return request


def _response_error_code(response: Mapping[str, Any]) -> Optional[str]:
    if response.get("ok"):
        return None
    return (response.get("error") or {}).get("code")


class _ClientOps:
    """Shared sync surface; subclasses provide :meth:`request`."""

    def request(self, request: Mapping[str, Any]) -> dict:
        raise NotImplementedError

    def submit(
        self,
        spec: Union[SubmissionSpec, Mapping[str, Any]],
        *,
        rid: Optional[str] = None,
        tenant: Optional[str] = None,
        no_cache: bool = False,
    ) -> SubmitOutcome:
        t0 = time.perf_counter()
        response = self.request(
            _submit_request(spec, rid=rid, tenant=tenant, no_cache=no_cache)
        )
        return _decode_submit(response, time.perf_counter() - t0)

    def ping(self) -> dict:
        response = self.request({"op": "ping"})
        if not response.get("ok"):
            _raise_for(response)
        return response

    def stats(self) -> dict:
        response = self.request({"op": "stats"})
        if not response.get("ok"):
            _raise_for(response)
        return response["stats"]

    def health(self) -> dict:
        response = self.request({"op": "health"})
        if not response.get("ok"):
            _raise_for(response)
        return response["health"]


class ServiceClient(_ClientOps):
    """Blocking TCP client: one connection, one request in flight.

    With a :class:`RetryPolicy`, :meth:`request` transparently
    reconnects and resubmits on retryable failures (see module
    docstring); :attr:`retries` counts the extra attempts made.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 300.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.address = (host, port)
        self._timeout = timeout
        self._retry = retry
        self._sock: Optional[socket.socket] = None
        self._rfile: Optional[Any] = None
        self.retries = 0
        self._connect()

    # -- transport ------------------------------------------------------
    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(self.address, timeout=self._timeout)
        except OSError as exc:
            self._sock = None
            raise ServiceError(
                "connection-refused", f"cannot connect to {self.address}: {exc}"
            ) from exc
        self._rfile = self._sock.makefile("rb")

    def _teardown(self) -> None:
        try:
            if self._rfile is not None:
                self._rfile.close()
        except OSError:
            pass
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        self._sock = self._rfile = None

    def _request_once(self, request: Mapping[str, Any]) -> dict:
        if self._sock is None:
            self._connect()
        assert self._sock is not None and self._rfile is not None
        try:
            self._sock.sendall(json.dumps(dict(request)).encode() + b"\n")
            line = self._rfile.readline()
        except socket.timeout as exc:
            # the stream is mid-exchange and unusable; request() tears
            # it down so the next attempt reconnects
            raise ServiceError(
                "timeout", f"no response within {self._timeout}s"
            ) from exc
        except OSError as exc:
            raise ServiceError(
                "connection-reset", f"connection failed mid-request: {exc}"
            ) from exc
        if not line:
            raise ServiceError("connection-closed", "server closed the connection")
        try:
            return json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(
                "bad-frame", f"undecodable response frame: {exc}"
            ) from exc

    # -- request with retry ---------------------------------------------
    def request(self, request: Mapping[str, Any]) -> dict:
        loop = _RetryLoop(self._retry)
        while True:
            try:
                outcome: Union[dict, ServiceError] = self._request_once(request)
            except ServiceError as exc:
                # the stream may be mid-exchange: never reuse it
                self._teardown()
                outcome = exc
            sleep = loop.after(outcome)
            if sleep is None:
                return _settle(outcome)
            self.retries += 1
            time.sleep(sleep)

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class HarnessClient(_ClientOps):
    """In-process client over a started ServiceHarness (tests)."""

    def __init__(self, harness: Any, *, tenant: str = "local") -> None:
        self._harness = harness
        self._tenant = tenant

    def request(self, request: Mapping[str, Any]) -> dict:
        return self._harness.request(request, tenant=self._tenant)


class AsyncServiceClient:
    """``asyncio`` TCP client for concurrent load generation.

    One connection per instance; requests are serialized per connection
    (the load generator gets concurrency by opening many clients, which
    is also what makes each connection its own tenant server-side).
    Accepts the same :class:`RetryPolicy` as :class:`ServiceClient`,
    with ``asyncio.sleep`` backoff and automatic reconnection.
    """

    def __init__(
        self, host: str, port: int, *, retry: Optional[RetryPolicy] = None
    ) -> None:
        self.address = (host, port)
        self._retry = retry
        self._reader: Optional[Any] = None
        self._writer: Optional[Any] = None
        self.retries = 0

    async def connect(self) -> "AsyncServiceClient":
        import asyncio

        from repro.service.server import MAX_LINE

        try:
            self._reader, self._writer = await asyncio.open_connection(
                *self.address, limit=MAX_LINE
            )
        except OSError as exc:
            self._reader = self._writer = None
            raise ServiceError(
                "connection-refused", f"cannot connect to {self.address}: {exc}"
            ) from exc
        return self

    async def _teardown(self) -> None:
        writer = self._writer
        self._reader = self._writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _request_once(self, request: Mapping[str, Any]) -> dict:
        if self._reader is None or self._writer is None:
            raise ServiceError(
                "not-connected", "client is not connected; call connect() first"
            )
        try:
            self._writer.write(json.dumps(dict(request)).encode() + b"\n")
            await self._writer.drain()
            line = await self._reader.readline()
        except OSError as exc:
            raise ServiceError(
                "connection-reset", f"connection failed mid-request: {exc}"
            ) from exc
        if not line:
            raise ServiceError("connection-closed", "server closed the connection")
        try:
            return json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(
                "bad-frame", f"undecodable response frame: {exc}"
            ) from exc

    async def request(self, request: Mapping[str, Any]) -> dict:
        import asyncio

        loop = _RetryLoop(self._retry)
        while True:
            try:
                if self._retry is not None and self._reader is None:
                    await self.connect()
                outcome: Union[dict, ServiceError] = await self._request_once(request)
            except ServiceError as exc:
                await self._teardown()
                outcome = exc
            sleep = loop.after(outcome)
            if sleep is None:
                return _settle(outcome)
            self.retries += 1
            await asyncio.sleep(sleep)

    async def submit(
        self,
        spec: Union[SubmissionSpec, Mapping[str, Any]],
        *,
        rid: Optional[str] = None,
        tenant: Optional[str] = None,
        no_cache: bool = False,
    ) -> SubmitOutcome:
        t0 = time.perf_counter()
        response = await self.request(
            _submit_request(spec, rid=rid, tenant=tenant, no_cache=no_cache)
        )
        return _decode_submit(response, time.perf_counter() - t0)

    async def close(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.close()


__all__ = [
    "AdmissionRejectedError",
    "AsyncServiceClient",
    "HarnessClient",
    "RETRYABLE_CODES",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "SubmitOutcome",
]
