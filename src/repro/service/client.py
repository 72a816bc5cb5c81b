"""Clients for the auction gateway (wire schema over HTTP/1.1).

:class:`GatewayClient` is the asyncio client for one gateway endpoint: a
keep-alive connection pool over :func:`asyncio.open_connection`, one
coroutine per in-flight request, decoding success payloads to
:class:`~repro.service.wire.AuctionResponse` and error payloads back to
the *typed exception* the in-process API would have raised
(:func:`~repro.service.wire.error_from_wire`) — so ``try/except
ShedError`` works identically whether the service is local or across
the network.

**Resilience** (DESIGN.md → "Resilient edge"):

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic seeded jitter* (drawn from the request's idempotency
  key, so two replays of a trace sleep identically).  Retryable
  failures are transport errors (``OSError``/``EOFError``: resets,
  refused connections, truncated responses; and an exchange that
  outlives :data:`REQUEST_TIMEOUT`) and :data:`RETRYABLE_STATUSES`
  ``{500, 502, 503}``; 400/404 are the caller's bug and 504 means the
  deadline is spent either way — retrying any of them cannot help.
  The default policy makes **zero** retries (``max_attempts=1``):
  resilience is opt-in per client, never ambient.
* Every attempt is stamped ``X-Auction-Attempt`` (1-based) so the
  gateway's keyed fault draws are per-attempt, and carries the
  request's idempotency key so a retried request replays from the
  gateway journal instead of re-solving.

:class:`SyncGatewayClient` runs a :class:`GatewayClient` for synchronous
callers on one daemon loop thread
(:class:`~repro.service._loop.LoopThread`); ``submit`` mirrors
:meth:`AuctionService.submit`'s future-based contract (``submit(request)
-> concurrent.futures.Future``), which is what lets the chaos harness
and the open-loop benchmark drive a gateway exactly like an in-process
service.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.io import _structure_to_dict
from repro.service._loop import LoopThread
from repro.service.wire import (
    AuctionResponse,
    default_idempotency_key,
    error_from_wire,
    request_to_wire,
)

if TYPE_CHECKING:
    from repro.conflicts.base import AnyStructure
    from repro.service.faults import FaultPlan
    from repro.service.wire import AuctionRequest

__all__ = ["GatewayClient", "RetryPolicy", "SyncGatewayClient"]

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]

# failures of the transport itself, as opposed to typed wire errors:
# always retryable.  ConnectionError ⊂ OSError and IncompleteReadError ⊂
# EOFError; asyncio.TimeoutError (an exchange past REQUEST_TIMEOUT) is
# the builtin TimeoutError ⊂ OSError from Python 3.11 on, but its own
# class on 3.10.
_TRANSPORT_ERRORS = (OSError, EOFError, asyncio.TimeoutError)

#: Seconds one HTTP exchange may take before it fails as a transport
#: error: a gateway that dies with pooled keep-alive connections open
#: would otherwise hang a request forever instead of failing it.
REQUEST_TIMEOUT = 60.0
#: Backoff before retry *i* is ``min(BACKOFF_CAP, base · BACKOFF_FACTOR^(i-1))``.
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 0.5
#: The seeded jitter scales a backoff down by up to this fraction.
JITTER = 0.5
#: HTTP statuses worth another attempt: injected fault, worker crash, shed.
RETRYABLE_STATUSES = frozenset({500, 502, 503})

_TOKEN_MASK = (1 << 63) - 1


def _jitter_token(key: str) -> int:
    """A stable 63-bit integer from an idempotency key (jitter seed)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _TOKEN_MASK


class _WireError(Exception):
    """Internal carrier pairing a typed wire error with its HTTP status.

    The retry loop decides retryability on the *status* and unwraps
    ``error`` for the caller — the typed exception crosses the retry
    layer unchanged.
    """

    def __init__(self, status: int, error: Exception) -> None:
        super().__init__(f"HTTP {status}: {error}")
        self.status = status
        self.error = error


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries and backs off one solve.

    ``max_attempts`` counts the first try (``1`` means no retries — the
    default, so resilience is always opt-in).  Backoff before retry
    *i* is ``min(BACKOFF_CAP, backoff_base · BACKOFF_FACTOR^(i-1))``
    scaled down by up to :data:`JITTER` using a draw seeded from the
    request's idempotency key — deterministic per request and per retry,
    so chaos replays are bit-stable while concurrent retries still
    de-synchronize.
    """

    max_attempts: int = 1
    backoff_base: float = 0.02

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative, got {self.backoff_base}")

    def delay_before(self, retry_index: int, token: int) -> float:
        """Seconds to sleep before retry ``retry_index`` (1-based)."""
        base = min(BACKOFF_CAP, self.backoff_base * BACKOFF_FACTOR ** (retry_index - 1))
        if base <= 0.0:
            return base
        seq = np.random.SeedSequence([token & _TOKEN_MASK, retry_index])
        fraction = float(np.random.default_rng(seq).random())
        return base * (1.0 - JITTER * fraction)


class GatewayClient:
    """Asyncio client for one gateway endpoint.

    Pools keep-alive connections to ``host``/``port`` up to
    ``max_connections`` (back-pressure beyond that is a semaphore wait,
    not a connect storm).  ``retry`` arms a :class:`RetryPolicy` for
    ``solve`` (default: none); ``fault_plan`` arms ``client.connect``
    injection sites for chaos runs.  A transport failure is retried on
    the same endpoint under the same idempotency key.  ``stats()``
    surfaces the attempt/retry/fault counters.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_connections: int = 128,
        *,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self._idle: list[_Connection] = []
        self._gate = asyncio.Semaphore(max_connections)
        self._closed = False
        self._stats: dict[str, int] = {"attempts": 0, "retries": 0, "connect_faults": 0}

    def stats(self) -> dict[str, int]:
        """Attempt/retry/fault counters since construction."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    async def _exchange(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One HTTP exchange under :data:`REQUEST_TIMEOUT`; returns
        (status, payload)."""
        if self._closed:
            raise RuntimeError("client is closed")
        payload = b"" if body is None else json.dumps(body).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1") + payload
        return await asyncio.wait_for(self._roundtrip(request), REQUEST_TIMEOUT)

    async def _checkout(self) -> _Connection:
        while self._idle:
            reader, writer = self._idle.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.open_connection(self.host, self.port)

    async def _roundtrip(self, request: bytes) -> tuple[int, dict[str, Any]]:
        """Send ``request`` on a pooled connection; returns (status, payload)."""
        async with self._gate:
            reader, writer = await self._checkout()
            try:
                writer.write(request)
                await writer.drain()
                status, response = await self._read_response(reader)
            except BaseException:
                writer.close()  # a half-used connection cannot be pooled
                raise
            if self._closed or writer.is_closing():
                writer.close()
            else:
                self._idle.append((reader, writer))
        return status, response

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        payload = json.loads(body) if body else {}
        if not isinstance(payload, dict):
            raise ValueError(f"gateway returned a non-object body: {payload!r}")
        return status, payload

    @staticmethod
    def _raise_if_error(payload: dict[str, Any]) -> dict[str, Any]:
        if payload.get("status") == "error":
            raise error_from_wire(payload)
        return payload

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    async def health(self) -> bool:
        """True when the gateway answers its health check with 200."""
        status, _payload = await self._exchange("GET", "/v1/health")
        return status == 200

    async def metrics(self) -> dict[str, Any]:
        _status, payload = await self._exchange("GET", "/v1/metrics")
        return self._raise_if_error(payload)

    async def register_scene(self, structure: AnyStructure) -> str:
        """Register a conflict structure; returns its fingerprint scene id."""
        _status, payload = await self._exchange(
            "POST", "/v1/scenes", {"structure": _structure_to_dict(structure)}
        )
        return str(self._raise_if_error(payload)["scene_id"])

    async def solve(self, request: AuctionRequest) -> AuctionResponse:
        """Solve one request under the retry policy; typed error on failure.

        Every attempt resends the same idempotency key (derived from
        the request when the envelope carries none), so a retry after a
        lost response replays from the gateway journal instead of
        re-solving.  A ``request.deadline`` travels as the
        ``X-Auction-Deadline`` header and is enforced server-side by the
        service's EWMA triage.
        """
        policy = self.retry
        key = request.idempotency_key or default_idempotency_key(request)
        token = _jitter_token(key)
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._stats["retries"] += 1
                await asyncio.sleep(policy.delay_before(attempt - 1, token))
            try:
                return await self._solve_attempt(request, key, attempt)
            except _WireError as exc:
                if (
                    attempt >= policy.max_attempts
                    or exc.status not in RETRYABLE_STATUSES
                ):
                    raise exc.error from None
            except _TRANSPORT_ERRORS:
                if attempt >= policy.max_attempts:
                    raise
        raise RuntimeError("unreachable: retry loop neither returned nor raised")

    async def _solve_attempt(
        self, request: AuctionRequest, key: str, attempt: int
    ) -> AuctionResponse:
        """One wire exchange, stamped with its attempt ordinal."""
        self._stats["attempts"] += 1
        await self._inject_connect_faults(request, attempt)
        headers = {"X-Auction-Attempt": str(attempt)}
        if request.deadline is not None:
            headers["X-Auction-Deadline"] = repr(request.deadline)
        wire = request_to_wire(request)
        wire["idempotency_key"] = key
        status, payload = await self._exchange("POST", "/v1/solve", wire, headers)
        if payload.get("status") == "error":
            raise _WireError(status, error_from_wire(payload))
        return AuctionResponse.from_wire(payload)

    async def _inject_connect_faults(
        self, request: AuctionRequest, attempt: int
    ) -> None:
        """Evaluate ``client.connect`` fault sites for this attempt."""
        plan = self.fault_plan
        if plan is None:
            return
        fault_key = (int(request.seed or 0), attempt)
        for spec in plan.actions("client.connect", key=fault_key):
            self._stats["connect_faults"] += 1
            if spec.kind == "latency":
                await asyncio.sleep(spec.delay)
            else:  # "reset"
                raise ConnectionResetError(
                    f"injected client.connect reset (attempt {attempt})"
                )

    async def close(self) -> None:
        self._closed = True
        while self._idle:
            _reader, writer = self._idle.pop()
            writer.close()

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class SyncGatewayClient:
    """Synchronous facade: :class:`GatewayClient` on a daemon loop thread.

    Takes :class:`GatewayClient`'s arguments.  ``submit(request)``
    returns a :class:`concurrent.futures.Future` resolving to an
    :class:`~repro.service.wire.AuctionResponse` or failing with the
    typed error — the same contract as :meth:`AuctionService.submit`, so
    open-loop drivers and the chaos harness can target a gateway without
    changing shape.  (One difference is inherent to the network
    boundary: admission-control sheds arrive asynchronously as a failed
    future, not as a synchronous ``ShedError`` from ``submit``.)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_connections: int = 128,
        *,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        async def make_client() -> GatewayClient:
            return GatewayClient(
                host, port, max_connections, retry=retry, fault_plan=fault_plan
            )

        # the client is built on the loop, so its asyncio state binds there
        self._runner, self._client = LoopThread.start("gateway-client-loop", make_client)

    def submit(self, request: AuctionRequest) -> Future[AuctionResponse]:
        """Start one solve; returns a future (typed error on failure)."""
        return self._runner.submit(self._client.solve(request))

    def solve(self, request: AuctionRequest) -> AuctionResponse:
        return self.submit(request).result()

    def register_scene(self, structure: AnyStructure) -> str:
        return self._runner.run(self._client.register_scene(structure), timeout=60)

    def health(self) -> bool:
        return self._runner.run(self._client.health(), timeout=30)

    def metrics(self) -> dict[str, Any]:
        return self._runner.run(self._client.metrics(), timeout=30)

    def stats(self) -> dict[str, int]:
        """The client's counters (loop-thread safe)."""
        return self._client.stats()

    def close(self) -> None:
        if self._runner.loop.is_closed():
            return
        try:
            self._runner.run(self._client.close(), timeout=30)
        finally:
            self._runner.stop()

    def __enter__(self) -> "SyncGatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
