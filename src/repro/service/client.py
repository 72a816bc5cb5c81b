"""Clients for the auction gateway (wire schema over HTTP/1.1).

:class:`GatewayClient` is the asyncio client, over one gateway endpoint
or several: per endpoint a keep-alive connection pool over
:func:`asyncio.open_connection`, one coroutine per in-flight request,
decoding success payloads to :class:`~repro.service.wire.AuctionResponse`
and error payloads back to the *typed exception* the in-process API
would have raised (:func:`~repro.service.wire.error_from_wire`) — so
``try/except ShedError`` works identically whether the service is local
or across the network.

**Resilience** (DESIGN.md → "Resilient edge"):

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic seeded jitter* (drawn from the request's idempotency
  key, so two replays of a trace sleep identically).  Retryable
  failures are transport errors (``OSError``/``EOFError``: resets,
  refused connections, truncated responses; and an exchange that
  outlives ``request_timeout``) and the retryable 5xx set
  ``{500, 502, 503}``; 400/404 are the caller's bug and 504 means the
  deadline is spent either way — retrying any of them cannot help.
  The default policy makes **zero** retries (``max_attempts=1``):
  resilience is opt-in per client, never ambient.
* **Hedging** — with ``hedge=True``, a solve that outlives the client's
  observed p99 launches a second attempt and the first response wins
  (loser cancelled).  Both attempts carry the same idempotency key, so
  the gateway coalesces them onto one solve — hedging trades a little
  duplicate *traffic* for tail latency, never duplicate *work*.
* Every attempt is stamped ``X-Auction-Attempt`` (1-based) so the
  gateway's keyed fault draws are per-attempt, and carries the
  request's idempotency key so a retried request replays from the
  gateway journal instead of re-solving.
* **Failover is a retry.**  With ``replicas``, each attempt goes to the
  least-loaded live endpoint, preferring one this solve has not tried,
  so a transport error spends one attempt and the next lands elsewhere;
  a typed wire error came from a live gateway and is never re-sent.
  Endpoint health is *passive* — eviction on consecutive transport
  failures, half-open re-admission on the next pick after a cooldown —
  so no background probe ever runs.

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
import time
from collections import deque
from collections.abc import Sequence
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
# always retryable, and the failures that count against an endpoint's
# health.  ConnectionError ⊂ OSError and IncompleteReadError ⊂ EOFError;
# asyncio.TimeoutError (an exchange past request_timeout) is the builtin
# TimeoutError ⊂ OSError from Python 3.11 on, but its own class on 3.10.
_TRANSPORT_ERRORS = (OSError, EOFError, asyncio.TimeoutError)

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
    """How a client retries, backs off, and hedges one solve.

    ``max_attempts`` counts the first try (``1`` means no retries — the
    default, so resilience is always opt-in).  Backoff before retry
    *i* is ``min(cap, base · factor^(i-1))`` scaled down by up to
    ``jitter`` (a fraction in [0, 1]) using a draw seeded from the
    request's idempotency key — deterministic per request and per retry,
    so chaos replays are bit-stable while concurrent retries still
    de-synchronize.

    ``hedge=True`` races a second attempt against a first one that has
    outlived the client's observed p99 latency (never sooner than
    ``hedge_min_delay``, and only once ``hedge_after_samples`` solves
    have been observed — before that there is no p99 to speak of).
    """

    max_attempts: int = 1
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_cap: float = 0.5
    jitter: float = 0.5
    retryable_statuses: frozenset[int] = frozenset({500, 502, 503})
    hedge: bool = False
    hedge_min_delay: float = 0.05
    hedge_after_samples: int = 32

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.hedge_after_samples < 1:
            raise ValueError("hedge_after_samples must be >= 1")
        object.__setattr__(
            self, "retryable_statuses", frozenset(self.retryable_statuses)
        )

    def delay_before(self, retry_index: int, token: int) -> float:
        """Seconds to sleep before retry ``retry_index`` (1-based)."""
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (retry_index - 1),
        )
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        seq = np.random.SeedSequence([token & _TOKEN_MASK, retry_index])
        fraction = float(np.random.default_rng(seq).random())
        return base * (1.0 - self.jitter * fraction)


class _Endpoint:
    """One gateway endpoint: its idle keep-alive connections, its
    connection gate, and its passive health state."""

    def __init__(self, host: str, port: int, max_connections: int) -> None:
        self.host = host
        self.port = port
        self.idle: list[_Connection] = []
        self.gate = asyncio.Semaphore(max_connections)
        self.live = True
        self.failures = 0  # consecutive transport failures
        self.down_since = 0.0  # eviction, or the last half-open trial
        self.inflight = 0

    async def checkout(self) -> _Connection:
        while self.idle:
            reader, writer = self.idle.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.open_connection(self.host, self.port)


class GatewayClient:
    """Asyncio client for one or more gateway endpoints.

    ``host``/``port`` is the first endpoint and ``replicas`` adds more;
    each pools keep-alive connections up to ``max_connections``
    (back-pressure beyond that is a semaphore wait, not a connect
    storm).  ``retry`` arms a :class:`RetryPolicy` for ``solve``
    (default: none); ``fault_plan`` arms ``client.connect`` injection
    sites for chaos runs.  ``request_timeout`` bounds every exchange: an
    endpoint that dies with pooled keep-alive connections open would
    otherwise hang a request forever instead of failing it over.

    An endpoint is evicted after ``failure_threshold`` consecutive
    transport failures, unless it is the last live one — with nowhere
    to fail over to, eviction could only turn a retryable failure into
    a refusal.  After ``cooldown`` seconds the next pick tries it once,
    half-open: success re-admits it, failure restarts the cooldown.
    ``stats()`` surfaces attempt/retry/hedge/eviction counters and each
    endpoint's state.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_connections: int = 128,
        *,
        replicas: Sequence[tuple[str, int]] = (),
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        failure_threshold: int = 3,
        cooldown: float = 0.5,
        request_timeout: float = 60.0,
    ) -> None:
        if max_connections < 1 or failure_threshold < 1:
            raise ValueError("max_connections and failure_threshold must be >= 1")
        if cooldown < 0 or request_timeout <= 0:
            raise ValueError("cooldown must be >= 0 and request_timeout > 0")
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.request_timeout = request_timeout
        self._endpoints = [
            _Endpoint(h, p, max_connections) for h, p in [(host, port), *replicas]
        ]
        self._closed = False
        self._latency_window: deque[float] = deque(maxlen=512)
        self._stats: dict[str, int] = {
            "attempts": 0,
            "retries": 0,
            "hedges_launched": 0,
            "hedges_won": 0,
            "connect_faults": 0,
            "evictions": 0,
            "readmissions": 0,
        }

    def stats(self) -> dict[str, Any]:
        """Attempt/retry/hedge/fault/eviction counters since construction,
        plus each endpoint's health under ``"endpoints"``."""
        snapshot: dict[str, Any] = dict(self._stats)
        snapshot["endpoints"] = [
            {
                "endpoint": f"{endpoint.host}:{endpoint.port}",
                "live": endpoint.live,
                "failures": endpoint.failures,
                "inflight": endpoint.inflight,
            }
            for endpoint in self._endpoints
        ]
        return snapshot

    # ------------------------------------------------------------------
    # transport and endpoint health
    # ------------------------------------------------------------------
    def _pick(self, tried: set[_Endpoint]) -> _Endpoint:
        """The endpoint for the next exchange.

        An evicted endpoint whose cooldown has passed gets the pick, once
        (picking it restarts its cooldown, so one trial runs at a time);
        otherwise the least-loaded live endpoint, preferring ones not in
        ``tried``.  Some endpoint is always live: the last is never
        evicted.
        """
        now = time.monotonic()
        for endpoint in self._endpoints:
            if (
                not endpoint.live
                and endpoint not in tried
                and now - endpoint.down_since >= self.cooldown
            ):
                endpoint.down_since = now
                return endpoint
        live = [endpoint for endpoint in self._endpoints if endpoint.live]
        fresh = [endpoint for endpoint in live if endpoint not in tried] or live
        return min(fresh, key=lambda endpoint: endpoint.inflight)

    async def _exchange(
        self,
        endpoint: _Endpoint,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One HTTP exchange with ``endpoint`` under ``request_timeout``,
        fed into its health: any answer (even a typed error) proves it
        alive, a transport error counts against it."""
        if self._closed:
            raise RuntimeError("client is closed")
        payload = b"" if body is None else json.dumps(body).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {endpoint.host}:{endpoint.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1") + payload
        endpoint.inflight += 1
        try:
            answer = await asyncio.wait_for(
                self._roundtrip(endpoint, request), self.request_timeout
            )
        except _TRANSPORT_ERRORS:
            endpoint.failures += 1
            if not endpoint.live:
                endpoint.down_since = time.monotonic()  # failed trial: re-cool
            elif endpoint.failures >= self.failure_threshold and any(
                other.live for other in self._endpoints if other is not endpoint
            ):
                endpoint.live = False
                endpoint.down_since = time.monotonic()
                self._stats["evictions"] += 1
            raise
        finally:
            endpoint.inflight -= 1
        endpoint.failures = 0
        if not endpoint.live:
            endpoint.live = True
            self._stats["readmissions"] += 1
        return answer

    async def _roundtrip(
        self, endpoint: _Endpoint, request: bytes
    ) -> tuple[int, dict[str, Any]]:
        """Send ``request`` on a pooled connection; returns (status, payload)."""
        async with endpoint.gate:
            reader, writer = await endpoint.checkout()
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
                endpoint.idle.append((reader, writer))
        return status, response

    async def _broadcast(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> list[tuple[int, dict[str, Any]]]:
        """The same exchange with every endpoint; the answers, or the last
        transport error when no endpoint answered."""
        answers: list[tuple[int, dict[str, Any]]] = []
        error: BaseException | None = None
        for endpoint in self._endpoints:
            try:
                answers.append(await self._exchange(endpoint, method, path, body))
            except _TRANSPORT_ERRORS as exc:  # repro: allow[silent-except] -- counted against the endpoint in _exchange; raised below if none answers
                error = exc
        if not answers:
            assert error is not None
            raise error
        return answers

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
        """True when any endpoint answers its health check with 200."""
        answers = await self._broadcast("GET", "/v1/health")
        return any(status == 200 for status, _payload in answers)

    async def metrics(self) -> dict[str, Any]:
        _status, payload = await self._exchange(self._pick(set()), "GET", "/v1/metrics")
        return self._raise_if_error(payload)

    async def register_scene(self, structure: AnyStructure) -> str:
        """Register a conflict structure on every endpoint (each gateway
        may back its own service); returns its fingerprint scene id,
        which is content-derived and therefore the same on each."""
        answers = await self._broadcast(
            "POST", "/v1/scenes", {"structure": _structure_to_dict(structure)}
        )
        scene_ids = [str(self._raise_if_error(payload)["scene_id"]) for _, payload in answers]
        return scene_ids[0]

    async def solve(self, request: AuctionRequest) -> AuctionResponse:
        """Solve one request under the retry policy; typed error on failure.

        Every attempt resends the same idempotency key (derived from
        the request when the envelope carries none), so a retry after a
        lost response — on the same endpoint or another — replays from
        the gateway journal instead of re-solving.  A
        ``request.deadline`` travels as the ``X-Auction-Deadline``
        header and is enforced server-side by the service's EWMA triage.
        """
        policy = self.retry
        key = request.idempotency_key or default_idempotency_key(request)
        token = _jitter_token(key)
        tried: set[_Endpoint] = set()
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._stats["retries"] += 1
                await asyncio.sleep(policy.delay_before(attempt - 1, token))
            try:
                if policy.hedge:
                    delay = self._hedge_delay(policy)
                    if delay is not None:
                        return await self._hedged(request, key, attempt, tried, delay)
                return await self._solve_attempt(request, key, attempt, tried)
            except _WireError as exc:
                if (
                    attempt >= policy.max_attempts
                    or exc.status not in policy.retryable_statuses
                ):
                    raise exc.error from None
            except _TRANSPORT_ERRORS:
                if attempt >= policy.max_attempts:
                    raise
        raise RuntimeError("unreachable: retry loop neither returned nor raised")

    def _hedge_delay(self, policy: RetryPolicy) -> float | None:
        """The p99-based hedge trigger, or ``None`` while under-sampled."""
        if len(self._latency_window) < policy.hedge_after_samples:
            return None
        ordered = sorted(self._latency_window)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        return max(policy.hedge_min_delay, p99)

    async def _hedged(
        self,
        request: AuctionRequest,
        key: str,
        attempt: int,
        tried: set[_Endpoint],
        delay: float,
    ) -> AuctionResponse:
        """Race a second attempt against a primary slower than ``delay``.

        The hedge's attempt ordinal is offset by ``max_attempts`` so its
        fault draws and backoff jitter never collide with a plain
        retry's, and it prefers an endpoint the primary is not on.  Same
        idempotency key on both: the gateway coalesces them onto one
        solve.
        """
        primary = asyncio.ensure_future(self._solve_attempt(request, key, attempt, tried))
        tasks: set[asyncio.Future[AuctionResponse]] = {primary}
        try:
            done, _ = await asyncio.wait(tasks, timeout=delay)
            if not done:  # the primary is slower than p99: launch the hedge
                self._stats["hedges_launched"] += 1
                ordinal = self.retry.max_attempts + attempt
                tasks.add(
                    asyncio.ensure_future(self._solve_attempt(request, key, ordinal, tried))
                )
            pending = set(tasks)
            failure: BaseException | None = None
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        if task is not primary:
                            self._stats["hedges_won"] += 1
                        return task.result()
                    failure = task.exception()
            assert failure is not None
            raise failure
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.wait(tasks)
            for task in tasks:
                if not task.cancelled():
                    task.exception()  # observed: a loser must not warn at GC

    async def _solve_attempt(
        self, request: AuctionRequest, key: str, attempt: int, tried: set[_Endpoint]
    ) -> AuctionResponse:
        """One wire exchange, stamped with its attempt ordinal."""
        endpoint = self._pick(tried)
        tried.add(endpoint)
        self._stats["attempts"] += 1
        await self._inject_connect_faults(request, attempt)
        headers = {"X-Auction-Attempt": str(attempt)}
        if request.deadline is not None:
            headers["X-Auction-Deadline"] = repr(request.deadline)
        wire = request_to_wire(request)
        wire["idempotency_key"] = key
        started = time.perf_counter()
        status, payload = await self._exchange(endpoint, "POST", "/v1/solve", wire, headers)
        self._latency_window.append(time.perf_counter() - started)
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

    async def solve_batch(
        self, requests: list[AuctionRequest]
    ) -> list[AuctionResponse | Exception]:
        """Solve a batch in one exchange; per-item failures come back as
        the typed exception *instances* in request order (mirroring how
        the in-process API fails futures individually)."""
        _status, payload = await self._exchange(
            self._pick(set()),
            "POST",
            "/v1/solve-batch",
            {"requests": [request_to_wire(r) for r in requests]},
        )
        envelopes = self._raise_if_error(payload)["responses"]
        return [
            error_from_wire(item)
            if item.get("status") == "error"
            else AuctionResponse.from_wire(item)
            for item in envelopes
        ]

    async def close(self) -> None:
        self._closed = True
        for endpoint in self._endpoints:
            while endpoint.idle:
                _reader, writer = endpoint.idle.pop()
                writer.close()

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class SyncGatewayClient:
    """Synchronous facade: :class:`GatewayClient` on a daemon loop thread.

    Takes :class:`GatewayClient`'s arguments (``options`` are its
    keywords).  ``submit(request)``
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
        **options: Any,
    ) -> None:
        async def make_client() -> GatewayClient:
            return GatewayClient(host, port, max_connections, **options)

        # the client is built on the loop, so its asyncio state binds there
        self._runner, self._client = LoopThread.start("gateway-client-loop", make_client)

    def submit(self, request: AuctionRequest) -> Future[AuctionResponse]:
        """Start one solve; returns a future (typed error on failure)."""
        return self._runner.submit(self._client.solve(request))

    def solve(self, request: AuctionRequest) -> AuctionResponse:
        return self.submit(request).result()

    def solve_batch(
        self, requests: list[AuctionRequest]
    ) -> list[AuctionResponse | Exception]:
        return self._runner.run(self._client.solve_batch(requests))

    def register_scene(self, structure: AnyStructure) -> str:
        return self._runner.run(self._client.register_scene(structure), timeout=60)

    def health(self) -> bool:
        return self._runner.run(self._client.health(), timeout=30)

    def metrics(self) -> dict[str, Any]:
        return self._runner.run(self._client.metrics(), timeout=30)

    def stats(self) -> dict[str, Any]:
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
