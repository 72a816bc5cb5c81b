"""Clients for the auction gateway (wire schema over HTTP/1.1).

:class:`GatewayClient` is the asyncio client: a keep-alive connection
pool over :func:`asyncio.open_connection`, one coroutine per in-flight
request, decoding success payloads to
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
  refused connections, truncated responses) and the retryable 5xx set
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
* :class:`ReplicaSet` — the same solve API over N gateway endpoints,
  with probe-driven eviction after ``failure_threshold`` consecutive
  failures and half-open re-admission after ``cooldown`` (mirroring the
  worker pool's circuit-breaker semantics).  Failover happens on
  *transport* errors only: a typed wire error came from a live replica
  and resending it elsewhere would just duplicate load.

:class:`SyncGatewayClient` / :class:`SyncReplicaClient` wrap the async
clients for synchronous callers by running them on one daemon loop thread
(:class:`~repro.service._loop.LoopThread`) and share every method body;
``submit`` mirrors :meth:`AuctionService.submit`'s future-based
contract (``submit(request) -> concurrent.futures.Future``), which is
what lets the chaos harness and the open-loop benchmark drive a gateway
exactly like an in-process service.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import deque
from collections.abc import Callable, Coroutine
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TypeVar

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

__all__ = [
    "GatewayClient",
    "ReplicaSet",
    "RetryPolicy",
    "SyncGatewayClient",
    "SyncReplicaClient",
]

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]

# failures of the transport itself, as opposed to typed wire errors:
# always retryable, and the only failures a ReplicaSet fails over on.
# (TimeoutError ⊂ OSError, ConnectionError ⊂ OSError,
# IncompleteReadError ⊂ EOFError.)
_TRANSPORT_ERRORS = (OSError, EOFError)

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


class GatewayClient:
    """Asyncio client for one gateway endpoint, pooling keep-alive
    connections up to ``max_connections`` (back-pressure beyond that is a
    semaphore wait, not a connect storm).

    ``retry`` arms a :class:`RetryPolicy` for ``solve`` (default: none);
    ``fault_plan`` arms ``client.connect`` injection sites for chaos
    runs.  ``stats()`` surfaces attempt/retry/hedge counters.
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
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self._idle: list[_Connection] = []
        self._gate = asyncio.Semaphore(max_connections)
        self._closed = False
        self._latency_window: deque[float] = deque(maxlen=512)
        self._stats: dict[str, int] = {
            "attempts": 0,
            "retries": 0,
            "hedges_launched": 0,
            "hedges_won": 0,
            "connect_faults": 0,
        }

    def stats(self) -> dict[str, int]:
        """Attempt/retry/hedge/fault counters since construction."""
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
        """One HTTP exchange on a pooled connection; returns (status, payload)."""
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
        async with self._gate:
            reader, writer = await self._checkout()
            try:
                writer.write(request)
                await writer.drain()
                status, response = await self._read_response(reader)
            except BaseException:
                writer.close()  # a half-used connection cannot be pooled
                raise
            self._checkin((reader, writer))
        return status, response

    async def _checkout(self) -> _Connection:
        while self._idle:
            reader, writer = self._idle.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.open_connection(self.host, self.port)

    def _checkin(self, conn: _Connection) -> None:
        if self._closed or conn[1].is_closing():
            conn[1].close()
        else:
            self._idle.append(conn)

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
        ``X-Auction-Deadline`` header and is enforced server-side by
        the service's EWMA triage.
        """
        policy = self.retry
        key = request.idempotency_key or default_idempotency_key(request)
        token = _jitter_token(key)
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._stats["retries"] += 1
                await asyncio.sleep(policy.delay_before(attempt - 1, token))
            try:
                return await self._attempt_or_hedged(request, key, attempt, policy)
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

    async def _attempt_or_hedged(
        self, request: AuctionRequest, key: str, attempt: int, policy: RetryPolicy
    ) -> AuctionResponse:
        if policy.hedge:
            delay = self._hedge_delay(policy)
            if delay is not None:
                return await self._hedged(request, key, attempt, policy, delay)
        return await self._solve_attempt(request, key, attempt)

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
        policy: RetryPolicy,
        delay: float,
    ) -> AuctionResponse:
        """Race a second attempt against a primary slower than ``delay``.

        The hedge's attempt ordinal is offset by ``max_attempts`` so its
        fault draws and backoff jitter never collide with a plain
        retry's.  Same idempotency key on both: the gateway coalesces
        them onto one solve.
        """
        primary = asyncio.ensure_future(self._solve_attempt(request, key, attempt))
        try:
            return await asyncio.wait_for(asyncio.shield(primary), delay)
        except TimeoutError:  # repro: allow[silent-except] -- not a failure: the primary is slow, launch the hedge
            pass
        self._stats["hedges_launched"] += 1
        hedge = asyncio.ensure_future(
            self._solve_attempt(request, key, policy.max_attempts + attempt)
        )
        pending: set[asyncio.Task[AuctionResponse]] = {primary, hedge}
        failure: BaseException | None = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        if task is hedge:
                            self._stats["hedges_won"] += 1
                        return task.result()
                    failure = task.exception()
            assert failure is not None
            raise failure
        finally:
            for task in (primary, hedge):
                if not task.done():
                    task.cancel()
            losers, _ = await asyncio.wait({primary, hedge})
            for task in losers:
                if not task.cancelled():
                    task.exception()  # observed: a loser must not warn at GC

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
        started = time.perf_counter()
        status, payload = await self._exchange("POST", "/v1/solve", wire, headers)
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
        while self._idle:
            _reader, writer = self._idle.pop()
            writer.close()

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class _Replica:
    """One endpoint's client plus its health-tracking state."""

    def __init__(self, client: GatewayClient, index: int) -> None:
        self.client = client
        self.index = index
        self.live = True
        self.failures = 0
        self.down_since = 0.0
        self.inflight = 0

    @property
    def endpoint(self) -> str:
        return f"{self.client.host}:{self.client.port}"


class ReplicaSet:
    """The solve API over N gateway replicas with failover.

    Requests go to the live replica with the fewest in-flight solves.
    A replica accumulating ``failure_threshold`` consecutive transport
    failures (from traffic or from the background health probe) is
    evicted; after ``cooldown`` seconds the probe loop re-tries it
    half-open and re-admits on success — the same breaker shape the
    worker pool uses for crashed workers.  Failover re-sends only on
    *transport* errors: a typed wire error (shed, deadline, bad
    request) came from a live replica and is returned as-is.

    ``request_timeout`` bounds every exchange: a replica that dies with
    pooled keep-alive connections open would otherwise hang a request
    forever instead of failing it over.
    """

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        *,
        max_connections: int = 128,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        probe_interval: float = 0.1,
        probe_timeout: float = 1.0,
        failure_threshold: int = 3,
        cooldown: float = 0.5,
        request_timeout: float = 60.0,
    ) -> None:
        if not endpoints:
            raise ValueError("ReplicaSet needs at least one endpoint")
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.request_timeout = request_timeout
        self._replicas = [
            _Replica(
                GatewayClient(
                    host,
                    port,
                    max_connections,
                    retry=retry,
                    fault_plan=fault_plan,
                ),
                index,
            )
            for index, (host, port) in enumerate(endpoints)
        ]
        self._closed = False
        self._probe_task: asyncio.Task[None] | None = None
        self._stats: dict[str, int] = {
            "failovers": 0,
            "evictions": 0,
            "readmissions": 0,
            "probe_failures": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReplicaSet":
        """Arm the background health-probe loop."""
        if self._probe_task is None:
            self._probe_task = asyncio.ensure_future(self._probe_loop())
        return self

    async def close(self) -> None:
        self._closed = True
        task = self._probe_task
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:  # repro: allow[silent-except] -- our own cancellation completing
                pass
            self._probe_task = None
        for replica in self._replicas:
            await replica.client.close()

    async def __aenter__(self) -> "ReplicaSet":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # health probing
    # ------------------------------------------------------------------
    async def _probe_loop(self) -> None:
        # bounded by _closed (flipped in close()), not an unbounded spin
        while not self._closed:
            await asyncio.sleep(self.probe_interval)
            for replica in self._replicas:
                if self._closed:
                    return
                if not replica.live and not self._cooled_down(replica):
                    continue  # evicted and still cooling: no half-open yet
                if await self._probe(replica):
                    self._mark_healthy(replica)
                else:
                    self._mark_failure(replica)

    def _cooled_down(self, replica: _Replica) -> bool:
        return time.perf_counter() - replica.down_since >= self.cooldown

    async def _probe(self, replica: _Replica) -> bool:
        try:
            return await asyncio.wait_for(
                replica.client.health(), self.probe_timeout
            )
        except _TRANSPORT_ERRORS + (ValueError,):  # repro: allow[silent-except] -- an unreachable replica is the probe's finding, counted below
            self._stats["probe_failures"] += 1
            return False

    def _mark_healthy(self, replica: _Replica) -> None:
        if not replica.live:
            replica.live = True
            self._stats["readmissions"] += 1
        replica.failures = 0

    def _mark_failure(self, replica: _Replica) -> None:
        replica.failures += 1
        if replica.live and replica.failures >= self.failure_threshold:
            replica.live = False
            replica.down_since = time.perf_counter()
            self._stats["evictions"] += 1
        elif not replica.live:
            replica.down_since = time.perf_counter()  # failed half-open: re-cool

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def _pick(self, tried: set[int]) -> _Replica | None:
        """Least-loaded live replica, preferring ones not yet tried."""
        live = [r for r in self._replicas if r.live]
        pool = [r for r in live if r.index not in tried] or live
        if not pool:
            return None
        return min(pool, key=lambda r: (r.inflight, r.index))

    async def solve(self, request: AuctionRequest) -> AuctionResponse:
        """Solve on the healthiest replica, failing over on transport loss."""
        last_error: BaseException | None = None
        tried: set[int] = set()
        for _sweep in range(self.failure_threshold * len(self._replicas)):
            replica = self._pick(tried)
            if replica is None:
                break
            tried.add(replica.index)
            replica.inflight += 1
            try:
                return await asyncio.wait_for(
                    replica.client.solve(request), self.request_timeout
                )
            except _TRANSPORT_ERRORS as exc:  # repro: allow[silent-except] -- failover: counted, next replica tries
                last_error = exc
                self._mark_failure(replica)
                self._stats["failovers"] += 1
            finally:
                replica.inflight -= 1
        if last_error is not None:
            raise last_error
        raise RuntimeError("no live gateway replicas")

    async def register_scene(self, structure: AnyStructure) -> str:
        """Register on every replica (each gateway may back its own
        service); returns the fingerprint scene id, which is content-
        derived and therefore identical across replicas."""
        scene_id: str | None = None
        last_error: BaseException | None = None
        for replica in self._replicas:
            try:
                scene_id = await asyncio.wait_for(
                    replica.client.register_scene(structure), self.request_timeout
                )
            except _TRANSPORT_ERRORS as exc:  # repro: allow[silent-except] -- replica down: marked, registration proceeds on the rest
                last_error = exc
                self._mark_failure(replica)
        if scene_id is None:
            raise last_error if last_error is not None else RuntimeError(
                "no live gateway replicas"
            )
        return scene_id

    async def health(self) -> bool:
        """True when any replica answers its health check."""
        for replica in self._replicas:
            if replica.live and await self._probe(replica):
                return True
        return False

    def stats(self) -> dict[str, Any]:
        """Failover/eviction counters plus per-replica state."""
        snapshot: dict[str, Any] = dict(self._stats)
        snapshot["replicas"] = [
            {
                "endpoint": replica.endpoint,
                "live": replica.live,
                "failures": replica.failures,
                "inflight": replica.inflight,
                "client": replica.client.stats(),
            }
            for replica in self._replicas
        ]
        return snapshot


S = TypeVar("S", bound="_SyncFacade")


class _SyncFacade:
    """The synchronous methods both facades share: each forwards to the
    async target (a :class:`GatewayClient` or a :class:`ReplicaSet`)
    running on a private :class:`~repro.service._loop.LoopThread`."""

    _target: GatewayClient | ReplicaSet

    def __init__(
        self,
        name: str,
        setup: Callable[[], Coroutine[Any, Any, GatewayClient | ReplicaSet]],
    ) -> None:
        # the target is built on the loop, so its asyncio state binds there
        self._runner, self._target = LoopThread.start(name, setup)

    def submit(self, request: AuctionRequest) -> Future[AuctionResponse]:
        """Start one solve; returns a future (typed error on failure)."""
        return self._runner.submit(self._target.solve(request))

    def solve(self, request: AuctionRequest) -> AuctionResponse:
        return self.submit(request).result()

    def register_scene(self, structure: AnyStructure) -> str:
        return self._runner.run(self._target.register_scene(structure), timeout=60)

    def health(self) -> bool:
        return self._runner.run(self._target.health(), timeout=30)

    def stats(self) -> dict[str, Any]:
        """The target's counters (loop-thread safe)."""
        return self._target.stats()

    def close(self) -> None:
        if self._runner.loop.is_closed():
            return
        try:
            self._runner.run(self._target.close(), timeout=30)
        finally:
            self._runner.stop()

    def __enter__(self: S) -> S:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SyncGatewayClient(_SyncFacade):
    """Synchronous facade: :class:`GatewayClient` on a daemon loop thread.

    ``submit(request)`` returns a :class:`concurrent.futures.Future`
    resolving to an :class:`~repro.service.wire.AuctionResponse` or
    failing with the typed error — the same contract as
    :meth:`AuctionService.submit`, so open-loop drivers and the chaos
    harness can target a gateway without changing shape.  (One
    difference is inherent to the network boundary: admission-control
    sheds arrive asynchronously as a failed future, not as a synchronous
    ``ShedError`` from ``submit``.)
    """

    _target: GatewayClient

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

        super().__init__("gateway-client-loop", make_client)

    def solve_batch(
        self, requests: list[AuctionRequest]
    ) -> list[AuctionResponse | Exception]:
        return self._runner.run(self._target.solve_batch(requests))

    def metrics(self) -> dict[str, Any]:
        return self._runner.run(self._target.metrics(), timeout=30)


class SyncReplicaClient(_SyncFacade):
    """Synchronous facade: :class:`ReplicaSet` on a daemon loop thread,
    probe loop armed — the multi-replica counterpart of
    :class:`SyncGatewayClient` with the same ``submit`` contract."""

    _target: ReplicaSet

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        *,
        max_connections: int = 128,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        probe_interval: float = 0.1,
        probe_timeout: float = 1.0,
        failure_threshold: int = 3,
        cooldown: float = 0.5,
        request_timeout: float = 60.0,
    ) -> None:
        async def make_set() -> ReplicaSet:
            replica_set = ReplicaSet(
                endpoints,
                max_connections=max_connections,
                retry=retry,
                fault_plan=fault_plan,
                probe_interval=probe_interval,
                probe_timeout=probe_timeout,
                failure_threshold=failure_threshold,
                cooldown=cooldown,
                request_timeout=request_timeout,
            )
            return await replica_set.start()

        super().__init__("replica-client-loop", make_set)
