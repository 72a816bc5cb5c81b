"""The long-lived auction service: queue, coalesce, route, solve, account.

:class:`AuctionService` turns the batch engine into a request-driven
system.  The moving parts, in request order:

* **Scene registry** (:mod:`repro.service.scenes`) — conflict structures
  are registered once under a content-hash id; requests reference scenes
  by id, so the per-request payload is just valuations + a seed.
* **Compilation caches** — an LRU of :class:`CompiledStructure`\\ s keyed
  by structure identity (one entry per scene) and an LRU of
  :class:`CompiledAuction`\\ s keyed by ``(scene, k, profile_key)`` for
  requests that declare a reusable valuation profile.  A repeated profile
  therefore pays for its LP exactly once; both caches expose
  hit/miss/eviction counters through the metrics snapshot.  Capacity 0
  disables a cache — the benchmark's baseline configuration.
* **Coalescing queue** — submitted requests land on one queue; the
  dispatcher batches whatever arrives within ``coalesce_window`` seconds
  of the first pending request (up to ``max_batch``), groups the batch by
  scene, and hands each group to the engine's stage-batched
  :meth:`~repro.engine.batch.BatchAuctionEngine.solve_compiled` — one
  compiled-structure pass, one LP stage, one rounding stage per group.
  Each request carries its own seed, so its result is independent of
  which batch it was coalesced into (pinned by the service tests).
* **Executors** — ``executor="serial"`` (the default) solves every
  group inline on the dispatcher thread: deterministic ordering, and one
  thread owns the thread-local HiGHS backend.
  ``executor="process"`` hands each group to a
  :class:`~repro.service.pool.ProcessShardPool` of long-lived worker
  processes — each owning its own HiGHS backend and compilation caches
  (every lane releases its LP models after each batch, so pool solves
  start cold), and each running the serial path — with
  scene-affinity routing (plus spill to the least-loaded worker),
  pickle-once scene shipping, and crash recovery.  Each worker solves
  its share of the cores' worth of groups at once on threads (HiGHS
  releases the GIL while it solves; see the pool's "Lanes").
  Per-request seeds make pool results bit-identical to the serial path,
  so the choice of executor is purely a throughput decision.
* **Metrics** (:mod:`repro.service.metrics`) — throughput, p50/p95/p99
  latency, batch sizes, cache hit rates, warm/cold LP solve counts, LP
  solves per solver mode and simplex iteration totals.  Every accepted
  request is counted once, completed or failed, where its future
  resolves: one settle step for every path out of the queue.

:meth:`solve_batch` / :meth:`run_trace` bypass the queue entirely for
synchronous, simulated replays.

**Fault tolerance** (DESIGN.md → "Fault tolerance & chaos"): the queued
path enforces *admission control* (``max_queue`` bounds the backlog;
overflow raises :class:`~repro.service.errors.ShedError` synchronously)
and *per-request deadlines* (``AuctionRequest.deadline`` is a budget in
seconds from submit; a batch never waits past the point where its
earliest member could still be served, an expired request fails typed
with :class:`~repro.service.errors.DeadlineExceeded`, and a request
whose remaining budget cannot fit an LP solve degrades to the paper's
greedy baseline allocation, flagged ``details["degraded"]``).  A
:class:`~repro.service.faults.FaultPlan` injects slow-solve latency and
backend errors at the ``"service.solve"`` site (and crash/spawn faults
in the pool workers); production configurations carry no plan.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core.auction import AuctionProblem
from repro.engine.batch import BatchAuctionEngine
from repro.engine.compiled import CompiledAuction, compile_structure
from repro.engine.highs import LP_COUNTERS, warm_start_stats
from repro.service.errors import DeadlineExceeded, InjectedFaultError, ShedError
from repro.service.metrics import ServiceMetrics
from repro.service.scenes import SceneRegistry
from repro.service.wire import AuctionRequest, AuctionResponse
from repro.util.lru import LRUCache
from repro.util.rng import ensure_rng
from repro.valuations.profile import Profile, as_profile

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.valuations.base import Valuation

    from repro.mechanism.truthful import MechanismOutcome
    from repro.service.faults import FaultPlan
    from repro.service.pool import ProcessShardPool
    from repro.service.scenes import AnyStructure
    from repro.service.traffic import TrafficTrace

__all__ = ["AuctionService"]

_EXECUTORS = ("serial", "process")


_REQUEST_MODES = ("allocate", "truthful")


def _check_modes(requests: Sequence[AuctionRequest]) -> None:
    """Reject a request whose ``mode`` the service does not serve."""
    bad = [r.mode for r in requests if r.mode not in _REQUEST_MODES]
    if bad:
        raise ValueError(f"mode must be one of {_REQUEST_MODES}, got {bad[0]!r}")


def _scene_groups(requests: Sequence[AuctionRequest]) -> dict[str, list[int]]:
    """The positions of ``requests`` by scene, scenes in first-seen order."""
    groups: dict[str, list[int]] = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.scene_id, []).append(i)
    return groups


def _valuations_of(request: AuctionRequest) -> Sequence[Valuation]:
    """The request's valuations for an :class:`AuctionProblem`: a
    :class:`Profile` as is (problems treat it as immutable), any other
    sequence as a private list copy."""
    if isinstance(request.valuations, Profile):
        return request.valuations
    return list(request.valuations)


def _columnar(request: AuctionRequest) -> AuctionRequest:
    """The request with bid-list valuations converted to one
    :class:`Profile` — what the queue, the pool pickle and the engine's
    column enumeration run on.  Profiles and sequences holding other
    valuation types (the additive family) pass through unchanged."""
    profile = as_profile(request.valuations, request.k)
    if profile is None or profile is request.valuations:
        return request
    return replace(request, valuations=profile)


@dataclass
class _Pending:
    request: AuctionRequest
    future: Future[AuctionResponse]
    submitted_at: float
    expires_at: float | None = None


class AuctionService:
    """Long-lived auction server over :class:`BatchAuctionEngine`."""

    def __init__(
        self,
        *,
        registry: SceneRegistry | None = None,
        executor: str = "serial",
        num_shards: int = 2,
        coalesce_window: float = 0.005,
        max_batch: int = 32,
        structure_cache_size: int = 32,
        problem_cache_size: int = 256,
        mechanism_cache_size: int = 64,
        mechanism_pricing: str = "approx",
        worker_retries: int = 1,
        max_queue: int | None = None,
        fault_plan: FaultPlan | None = None,
        degrade_headroom: float = 1.0,
        solve_time_hint: float | None = None,
        pool_config: dict[str, Any] | None = None,
    ) -> None:
        """``mechanism_cache_size`` bounds the LRU of prepared truthful
        outcomes (decomposition + payments) keyed by
        ``(scene_id, k, profile_key)``; 0 disables it — every truthful
        request then recomputes its decomposition, the benchmark's
        baseline.  ``mechanism_pricing`` forwards the decomposition's
        pricing mode.  The service skips the batching window when it
        cannot pay off — caches disabled, or a distinct-heavy request
        stream (see :meth:`_bypass_window`) — and, with the process
        executor, whenever a pool lane could start the batch at once
        (:meth:`_window_for`): ``coalesce_window`` is the longest a batch
        is held, and only while every lane is busy.

        With ``executor="process"``, ``num_shards`` is the worker-process
        count (started as :mod:`repro.util.mp` decides: forkserver where
        available, else spawn), and ``worker_retries`` bounds how often a
        batch whose worker crashed is retried on the respawned worker
        before its futures fail.  The cache sizes and the pricing mode
        configure each *worker's* caches — the parent-side caches
        stay idle, since compilation happens where the solving does.
        ``pool_config`` forwards extra keyword arguments to
        :class:`~repro.service.pool.ProcessShardPool` (its respawn
        backoff; the breaker's limits are the pool's module constants).

        ``max_queue`` bounds the dispatcher backlog (``None`` =
        unbounded); :meth:`submit` raises
        :class:`~repro.service.errors.ShedError` synchronously when the
        bound is hit.  ``degrade_headroom`` scales the solve-time
        estimate used by deadline triage: a request is degraded to the
        greedy baseline when its remaining budget is below
        ``degrade_headroom`` times the estimated solve time (0 disables
        degradation — expired requests still fail typed).
        ``solve_time_hint`` seeds the EWMA solve-time estimate before the
        first observation.  ``fault_plan`` arms a
        :class:`~repro.service.faults.FaultPlan` for chaos runs."""
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if coalesce_window < 0 or max_batch < 1:
            raise ValueError("coalesce_window must be >= 0 and max_batch >= 1")
        if mechanism_pricing not in ("approx", "reference"):
            raise ValueError(f"unknown mechanism pricing {mechanism_pricing!r}")
        if worker_retries < 0:
            raise ValueError("worker_retries must be non-negative")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be positive (or None for unbounded)")
        if degrade_headroom < 0:
            raise ValueError("degrade_headroom must be non-negative")
        if solve_time_hint is not None and solve_time_hint <= 0:
            raise ValueError("solve_time_hint must be positive")
        self.registry = registry or SceneRegistry()
        self.executor = executor
        self.num_shards = num_shards if executor == "process" else 1
        self.worker_retries = worker_retries
        self.max_queue = max_queue
        self.fault_plan = fault_plan
        self.degrade_headroom = degrade_headroom
        self.pool_config = dict(pool_config or {})
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self.mechanism_pricing = mechanism_pricing
        self.metrics = ServiceMetrics()
        self.structure_cache = LRUCache(structure_cache_size, name="structures")
        self.problem_cache = LRUCache(problem_cache_size, name="problems")
        self.mechanism_cache = LRUCache(mechanism_cache_size, name="mechanisms")
        # rolling profile_key presence of recent requests, for the
        # distinct-heavy coalescing bypass (windowed counter, newest wins)
        self._recent_profiled: list[bool] = []  #: guarded-by: _state_lock
        # the engine is used purely through solve_compiled, stage-batching
        # each coalesced group
        self.engine = BatchAuctionEngine(structure_cache=self.structure_cache)
        self._queue: queue.SimpleQueue[_Pending] = queue.SimpleQueue()
        # SimpleQueue.qsize is unreliable; _queued tracks depth explicitly.
        # _idle shares _state_lock, so either name satisfies the guard.
        self._queued = 0  #: guarded-by: _state_lock, _idle
        self._inflight = 0  #: guarded-by: _state_lock, _idle
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._warm_totals = dict.fromkeys(LP_COUNTERS, 0)  #: guarded-by: _state_lock, _idle
        # EWMA of observed per-request solve time, feeding deadline triage
        self._solve_ewma: float | None = solve_time_hint  #: guarded-by: _state_lock
        self._closed = False  #: guarded-by: _state_lock, _idle
        self._dispatcher: threading.Thread | None = None
        self._pool: ProcessShardPool | None = None  # created lazily on first submit

    # ------------------------------------------------------------------
    # scenes
    # ------------------------------------------------------------------
    def register_scene(self, structure: AnyStructure) -> str:
        """Register (or re-register) a conflict structure; returns scene id."""
        return self.registry.register(structure)

    # ------------------------------------------------------------------
    # compilation (through the service-owned caches)
    # ------------------------------------------------------------------
    def _compiled_for(self, request: AuctionRequest) -> CompiledAuction:
        structure = self.registry.get(request.scene_id)
        compiled_structure = compile_structure(structure, cache=self.structure_cache)

        def build() -> CompiledAuction:
            problem = AuctionProblem(structure, request.k, _valuations_of(request))
            return CompiledAuction(problem, structure=compiled_structure)

        if request.profile_key is None:
            return build()
        key = (request.scene_id, request.k, request.profile_key)
        return self.problem_cache.get_or_create(key, build)

    def _mechanism_outcome(self, request: AuctionRequest) -> MechanismOutcome:
        """The prepared truthful outcome for a request (cached by profile).

        Prepared with a fixed internal seed so the cached entry does not
        depend on which request of a shared profile arrived first (the
        seed only feeds the decomposition's rare randomized-escape path);
        per-request randomness enters at sampling time only.
        """
        from repro.mechanism.truthful import TruthfulMechanism

        structure = self.registry.get(request.scene_id)
        compiled_structure = compile_structure(structure, cache=self.structure_cache)

        def build() -> MechanismOutcome:
            mechanism = TruthfulMechanism(
                structure,
                request.k,
                pricing=self.mechanism_pricing,
                compiled_structure=compiled_structure,
            )
            return mechanism.prepare(_valuations_of(request), seed=0)

        if request.profile_key is None:
            return build()
        key = (request.scene_id, request.k, request.profile_key)
        return self.mechanism_cache.get_or_create(key, build)

    # ------------------------------------------------------------------
    # synchronous path (used by simulated replay and the dispatcher)
    # ------------------------------------------------------------------
    def _solve_scene_group(self, requests: list[AuctionRequest]) -> list[Any]:
        """Solve one scene's coalesced requests (mixed modes), in order.

        Allocate requests go through the engine's stage-batched path as
        one group; truthful requests sample their (cached) decomposition
        with their own seeds — either way a request's result is
        independent of the batch it landed in.
        """
        self._inject_solve_faults(requests)
        results: list[Any] = [None] * len(requests)
        alloc = [(i, r) for i, r in enumerate(requests) if r.mode == "allocate"]
        if alloc:
            group = [(r, self._compiled_for(r)) for _, r in alloc]
            for (i, _), result in zip(alloc, self._solve_group(group)):
                results[i] = result
        for i, request in enumerate(requests):
            if request.mode == "truthful":
                outcome = self._mechanism_outcome(request)
                rng = ensure_rng(request.seed)
                results[i] = replace(
                    outcome,
                    sampled_allocation=outcome.decomposition.sample(rng),
                )
        return results

    def _note_requests(self, requests: list[AuctionRequest]) -> None:
        """Feed the distinct-heavy detector (windowed, newest last)."""
        with self._state_lock:
            self._recent_profiled.extend(
                r.profile_key is not None for r in requests
            )
            del self._recent_profiled[:-64]

    def _bypass_window(self, head: AuctionRequest) -> bool:
        """Should the coalescing window be skipped for this batch?

        Coalescing pays off when batched requests share cached state
        (profiles, scenes); it only adds latency and stage-batching
        overhead when the caches are disabled or the request stream is
        distinct-heavy.  Both conditions are cheap to detect — the recent
        requests' ``profile_key`` presence plus the batch head's own — so
        the service adapts per batch instead of making the operator tune
        the window per trace.
        """
        # a disabled cache means batching the head's mode cannot pay off
        cache = self.mechanism_cache if head.mode == "truthful" else self.problem_cache
        if cache.capacity == 0:
            return True
        with self._state_lock:
            recent = list(self._recent_profiled[-32:])
        recent.append(head.profile_key is not None)
        return sum(recent) / len(recent) < 0.25

    def _window_for(self, head: AuctionRequest) -> float:
        """How long the dispatcher holds a batch open behind ``head``.

        Zero when the process pool would start ``head``'s job at once: a
        batch held while a lane idles only queues its members behind one
        another on one lane.  The serial executor solves each batch
        inline, so there the window is what forms batches at all.
        """
        pool = self._pool
        if pool is not None and pool.lane_free_for(head.scene_id):
            return 0.0
        return self._serial_window(head)

    def _serial_window(self, head: AuctionRequest) -> float:
        """The window without a pool to ask: ``coalesce_window`` unless
        :meth:`_bypass_window` fires.  Simulated replay uses it as is."""
        return 0.0 if self._bypass_window(head) else self.coalesce_window

    def _inject_solve_faults(self, requests: list[AuctionRequest]) -> None:
        """Evaluate the ``"service.solve"`` fault site for one scene group.

        Keyed by each request's seed, so the decision is independent of
        how requests were coalesced.  Injected slow-downs accumulate
        (each fired request browns out the shared solve); an injected
        backend error fails the whole group typed, exactly like a native
        solver failure would.
        """
        plan = self.fault_plan
        if plan is None:
            return
        delay = 0.0
        errored = False
        for request in requests:
            for spec in plan.actions("service.solve", key=request.seed):
                if spec.kind == "slow":
                    delay += spec.delay
                else:
                    errored = True
        if delay > 0:
            time.sleep(delay)
        if errored:
            raise InjectedFaultError("injected backend error at site service.solve")

    def _solve_group(
        self, group: list[tuple[AuctionRequest, CompiledAuction]]
    ) -> list[AuctionResponse]:
        before = warm_start_stats()
        t0 = time.perf_counter()
        results = self.engine.solve_compiled(
            [(compiled, req.seed) for req, compiled in group]
        )
        elapsed = time.perf_counter() - t0
        after = warm_start_stats()
        with self._state_lock:
            for key in LP_COUNTERS:
                self._warm_totals[key] += after[key] - before[key]
        per_request = elapsed / len(group) if group else 0.0
        if group:
            self._observe_solve_time(per_request)
        # the engine's bare SolverResults gain the wire envelope here, so
        # every path out of the service (queue, batch, pool, gateway)
        # hands back the canonical AuctionResponse
        return [
            AuctionResponse.from_result(
                result,
                scene_id=req.scene_id,
                seed=req.seed,
                timing={"solve_seconds": per_request},
            )
            for (req, _), result in zip(group, results)
        ]

    def solve_batch(self, requests: list[AuctionRequest]) -> list[AuctionResponse]:
        """Solve one coalesced batch synchronously, grouped by scene.

        This is the queueless entry point: results come back in request
        order — :class:`~repro.service.wire.AuctionResponse` for allocate
        requests (the canonical wire-schema result),
        :class:`~repro.mechanism.truthful.MechanismOutcome` for truthful
        ones — and every request's latency is recorded from batch start
        (the queue-based path records from its actual submit instead).
        """
        _check_modes(requests)  # before any metrics or work, as in submit()
        start = self.metrics.record_submit()
        for _ in requests[1:]:
            self.metrics.record_submit(start)
        self.metrics.record_batch(len(requests))
        self._note_requests(requests)
        results: list[AuctionResponse | None] = [None] * len(requests)
        try:
            for indices in _scene_groups(requests).values():
                solved = self._solve_scene_group([requests[i] for i in indices])
                for i, result in zip(indices, solved):
                    results[i] = result
                    self.metrics.record_done(time.perf_counter() - start)
        except BaseException:
            # each request was recorded as submitted: the ones left unsolved
            # finish failed, or the metrics would count them in flight
            for _ in range(sum(r is None for r in results)):
                self.metrics.record_done(time.perf_counter() - start, failed=True)
            raise
        return results  # type: ignore[return-value]

    def run_trace(self, trace: TrafficTrace, realtime: bool = False) -> list[AuctionResponse]:
        """Replay a :class:`~repro.service.traffic.TrafficTrace`.

        ``realtime=False`` (default) simulates the open-loop arrival
        process without sleeping: requests whose arrival stamps fall
        within ``coalesce_window`` of the first pending one are coalesced
        — deterministically, since only the recorded stamps matter — and
        each batch is solved inline.  ``realtime=True`` sleeps to each
        arrival stamp and submits through the queue, exercising the
        dispatcher (and process pool) under genuine open-loop load.
        """
        requests = list(trace)
        if realtime:
            t0 = time.perf_counter()
            futures: list[Future[AuctionResponse]] = []
            for item in requests:
                delay = item.arrival - (time.perf_counter() - t0)
                if delay > 0:
                    time.sleep(delay)
                futures.append(self.submit(item.request))
            return [f.result() for f in futures]
        results: list[AuctionResponse] = []
        i = 0
        while i < len(requests):
            head = requests[i].request
            cutoff = requests[i].arrival + self._serial_window(head)
            j = i + 1
            while (
                j < len(requests)
                and j - i < self.max_batch
                and requests[j].arrival <= cutoff
            ):
                j += 1
            results.extend(self.solve_batch([item.request for item in requests[i:j]]))
            i = j
        return results

    # ------------------------------------------------------------------
    # queued path (dispatcher + process pool)
    # ------------------------------------------------------------------
    def _worker_config(self) -> dict[str, Any]:
        """The service options each pool worker's private service mirrors."""
        return {
            "structure_cache_size": self.structure_cache.capacity,
            "problem_cache_size": self.problem_cache.capacity,
            "mechanism_cache_size": self.mechanism_cache.capacity,
            "mechanism_pricing": self.mechanism_pricing,
            "fault_plan": self.fault_plan,
        }

    def _start_locked(self) -> None:
        """Start dispatcher + process pool (caller holds ``_state_lock``)."""
        if self._dispatcher is None:
            if self.executor == "process":
                from repro.service.pool import ProcessShardPool

                self._pool = ProcessShardPool(
                    self.registry,
                    self.num_shards,
                    worker_config=self._worker_config(),
                    max_retries=self.worker_retries,
                    **self.pool_config,
                ).start()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="auction-dispatcher", daemon=True
            )
            self._dispatcher.start()

    def submit(self, request: AuctionRequest) -> Future:
        """Enqueue one request; returns a future resolving to its result.

        Raises :class:`~repro.service.errors.ShedError` synchronously when
        admission control rejects the request (``max_queue`` backlog full)
        — nothing was accepted and nothing is in flight.
        """
        if request.scene_id not in self.registry:
            raise KeyError(f"unknown scene {request.scene_id!r}; register it first")
        _check_modes([request])
        if request.deadline is not None and request.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {request.deadline}")
        # converted once here, on the caller's clock: everything downstream
        # (queue, pool pickle, column enumeration) runs on the flat arrays
        request = _columnar(request)
        future: Future = Future()
        # closed-check and accounting under one lock hold: once _queued is
        # incremented a concurrent close() cannot observe an empty queue, so
        # the dispatcher stays alive until this request is picked up
        with self._state_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self.max_queue is not None and self._queued >= self.max_queue:
                shed = True
            else:
                shed = False
                self._start_locked()
                self._queued += 1
                self._inflight += 1
        if shed:
            self.metrics.record_shed()
            raise ShedError(
                f"queue full ({self.max_queue} pending); request shed"
            )
        submitted_at = self.metrics.record_submit()
        expires_at = (
            None if request.deadline is None else submitted_at + request.deadline
        )
        pending = _Pending(request, future, submitted_at, expires_at)
        self._queue.put(pending)
        return future

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:  # repro: allow[silent-except] -- idle poll; loops back to the queue
                with self._state_lock:
                    if self._closed and self._queued == 0:
                        return
                continue
            batch = [first]
            window = self._window_for(first.request)
            # a batch never waits past the point where its earliest-deadline
            # member could still be served: each deadlined member pulls the
            # cutoff up to its expiry minus a solve-estimate margin
            cutoff = time.perf_counter() + window
            cutoff = min(cutoff, self._dispatch_by(first))
            while len(batch) < self.max_batch:
                remaining = cutoff - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    member = self._queue.get(timeout=remaining)
                except queue.Empty:  # repro: allow[silent-except] -- window elapsed; batch dispatches as-is
                    break
                batch.append(member)
                cutoff = min(cutoff, self._dispatch_by(member))
            with self._state_lock:
                self._queued -= len(batch)
            batch = self._triage(batch)
            if not batch:
                continue
            now = time.perf_counter()
            self.metrics.record_batch(
                len(batch), dispatch_wait=sum(now - p.submitted_at for p in batch)
            )
            requests = [p.request for p in batch]
            self._note_requests(requests)
            for scene_id, indices in _scene_groups(requests).items():
                pendings = [batch[i] for i in indices]
                if self.executor == "process":
                    self._submit_remote(scene_id, pendings)
                else:
                    self._run_pendings(pendings)

    # ------------------------------------------------------------------
    # deadlines: triage + graceful degradation
    # ------------------------------------------------------------------
    def _solve_estimate(self) -> float | None:
        """Current EWMA estimate of one request's solve time (or None)."""
        with self._state_lock:
            return self._solve_ewma

    def _observe_solve_time(self, per_request: float) -> None:
        """Fold one observed per-request solve latency into the EWMA."""
        with self._state_lock:
            if self._solve_ewma is None:
                self._solve_ewma = per_request
            else:
                self._solve_ewma += 0.2 * (per_request - self._solve_ewma)

    def _dispatch_by(self, pending: _Pending) -> float:
        """Latest useful dispatch time for one pending request.

        Expiry minus a solve-estimate margin, so a request dispatched at
        the cutoff still has budget to be solved (or at least degraded);
        requests without deadlines never tighten the batch window.
        """
        if pending.expires_at is None:
            return float("inf")
        estimate = self._solve_estimate() or 0.0
        return pending.expires_at - 1.5 * self.degrade_headroom * estimate

    def _triage(self, batch: list[_Pending]) -> list[_Pending]:
        """Deadline triage at dispatch time; returns the members that
        proceed to the full pipeline.

        Expired members fail typed with :class:`DeadlineExceeded`
        (recorded as timeouts); allocate members whose remaining budget
        cannot fit an estimated LP solve are served by the greedy
        baseline inline (degradation is parent-side only — remote
        workers never see them, so ``perf_counter`` stamps are never
        compared across processes).
        """
        now = time.perf_counter()
        estimate = self._solve_estimate()
        keep: list[_Pending] = []
        degraded: list[_Pending] = []
        for p in batch:
            if p.expires_at is None:
                keep.append(p)
                continue
            remaining = p.expires_at - now
            if remaining <= 0:
                expired = DeadlineExceeded(
                    f"deadline {p.request.deadline}s expired before dispatch"
                )
                self._settle([p], expired, timed_out=True)
            elif (
                self.degrade_headroom > 0
                and estimate is not None
                and remaining < self.degrade_headroom * estimate
                and p.request.mode == "allocate"
            ):
                degraded.append(p)
            else:
                keep.append(p)
        if degraded:
            self._serve_degraded(degraded)
        return keep

    def _serve_degraded(self, pendings: list[_Pending]) -> None:
        """Serve low-budget requests with the greedy baseline, inline."""
        for p in pendings:
            outcome: list[AuctionResponse] | BaseException
            try:
                outcome = [self._greedy_result(p.request)]
            except BaseException as exc:  # noqa: BLE001  # repro: allow[silent-except] -- _settle fails the future
                outcome = exc
            self._settle([p], outcome, degraded=True)

    def _greedy_result(self, request: AuctionRequest) -> AuctionResponse:
        """The paper's greedy baseline as a flagged, LP-free result.

        ``lp_value=0`` states honestly that no LP bound was computed
        (``meets_guarantee`` is vacuously true, ``guarantee`` is inf);
        ``details`` carries the degradation flag the chaos runner and
        clients key on.
        """
        from repro.core.baselines import greedy_channel_allocation

        structure = self.registry.get(request.scene_id)
        problem = AuctionProblem(structure, request.k, _valuations_of(request))
        t0 = time.perf_counter()
        allocation = greedy_channel_allocation(problem)
        return AuctionResponse(
            allocation=allocation,
            welfare=problem.welfare(allocation),
            lp_value=0.0,
            feasible=True,
            guarantee=float("inf"),
            lp_iterations=0,
            details={"degraded": True, "fallback": "greedy"},
            scene_id=request.scene_id,
            seed=request.seed,
            timing={"solve_seconds": time.perf_counter() - t0},
        )

    def _submit_remote(self, scene_id: str, pendings: list[_Pending]) -> None:
        """Hand one scene group to the process pool; futures resolve later.

        The pool owns routing (scene affinity + spill) and crash retries;
        this callback only translates its group future back into the
        per-request futures and accounting, running on the pool's feeder
        thread for whichever worker solved the batch.
        """
        pool = self._pool
        assert pool is not None  # created with the dispatcher for executor="process"
        dispatched_at = time.perf_counter()
        group_future = pool.submit(scene_id, [p.request for p in pendings])

        def finish(f: Future[list[AuctionResponse]]) -> None:
            exc = f.exception()
            if exc is None:
                # remote roundtrip (solve + IPC) feeds the triage EWMA —
                # what a parent-side deadline actually has to budget for
                elapsed = time.perf_counter() - dispatched_at
                self._observe_solve_time(elapsed / len(pendings))
            self._settle(pendings, f.result() if exc is None else exc)

        group_future.add_done_callback(finish)

    def _run_pendings(self, pendings: list[_Pending]) -> None:
        outcome: list[Any] | BaseException
        try:
            outcome = self._solve_scene_group([p.request for p in pendings])
        except BaseException as exc:  # noqa: BLE001  # repro: allow[silent-except] -- _settle fails the futures
            outcome = exc
        self._settle(pendings, outcome)

    def _settle(
        self,
        pendings: list[_Pending],
        outcome: Sequence[Any] | BaseException,
        **flags: bool,
    ) -> None:
        """The one way out for accepted requests: record each completion,
        resolve each future with its result (``outcome`` in ``pendings``
        order) or with the one exception ``outcome``, and release them
        from the in-flight count.  ``flags`` pass to ``record_done``."""
        for i, p in enumerate(pendings):
            latency = time.perf_counter() - p.submitted_at
            if isinstance(outcome, BaseException):
                self.metrics.record_done(latency, failed=True, **flags)
                p.future.set_exception(outcome)
            else:
                self.metrics.record_done(latency, **flags)
                p.future.set_result(outcome[i])
        self._mark_finished(len(pendings))

    def _mark_finished(self, count: int) -> None:
        with self._idle:
            self._inflight -= count
            if self._inflight == 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has resolved.

        Returns ``False`` on timeout (requests still in flight).
        """
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0, timeout=timeout)

    def close(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: stop intake, finish every accepted request,
        then stop the workers.

        Accepted requests are never dropped: even when the ``timeout``-
        bounded drain wait expires (return value ``False``), close still
        completes the remaining backlog before returning — ``timeout``
        bounds the *reporting*, not the shutdown.  Submitting after close
        raises.  Idempotent.
        """
        with self._state_lock:
            if self._closed:
                return True
            self._closed = True
            dispatcher = self._dispatcher
        drained = self.drain(timeout=timeout)
        if dispatcher is not None:
            dispatcher.join()
        if self._pool is not None:
            self._pool.close()  # kept for post-close stats snapshots
        return drained

    def __enter__(self) -> "AuctionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """Can the service accept and serve requests right now?

        The serial executor is healthy while open; the process
        executor additionally requires at least one routable worker
        (circuit breakers open on every worker means submits would only
        queue and fail).
        """
        with self._state_lock:
            if self._closed:
                return False
            pool = self._pool
        return True if pool is None else pool.healthy()

    def cache_stats(self) -> dict[str, Any]:
        with self._state_lock:
            warm = dict(self._warm_totals)
        return {
            "structures": self.structure_cache.stats(),
            "problems": self.problem_cache.stats(),
            "mechanisms": self.mechanism_cache.stats(),
            "lp_warm_solves": warm,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Metrics + cache accounting + static configuration, one dict.

        With the process executor the parent-side caches are idle by
        design; the per-worker cache and warm-solve accounting (plus IPC
        overhead counters) lives under ``"pool"``.
        """
        snapshot = self.metrics.snapshot(caches=self.cache_stats())
        if self._pool is not None:
            snapshot["pool"] = self._pool.stats()
        snapshot["config"] = {
            "executor": self.executor,
            "num_shards": self.num_shards,
            "coalesce_window": self.coalesce_window,
            "max_batch": self.max_batch,
            "structure_cache_capacity": self.structure_cache.capacity,
            "problem_cache_capacity": self.problem_cache.capacity,
            "mechanism_cache_capacity": self.mechanism_cache.capacity,
            "mechanism_pricing": self.mechanism_pricing,
            "worker_retries": self.worker_retries,
            "max_queue": self.max_queue,
            "degrade_headroom": self.degrade_headroom,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.to_dict()
            ),
            "scenes": len(self.registry),
        }
        return snapshot
