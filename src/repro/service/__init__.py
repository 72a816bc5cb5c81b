"""Auction service layer: serve allocation requests over the batch engine.

The modules (see DESIGN.md → "The auction service", "Fault tolerance &
chaos", and "The serving edge"):

* :mod:`repro.service.scenes` — content-hash scene registry, so
  structurally identical interference scenes share one canonical object
  and therefore one compilation;
* :mod:`repro.service.service` — :class:`AuctionService`: coalescing
  request queue, per-service LRU compilation caches, two executors
  (``"serial"`` inline on the dispatcher, ``"process"`` on the pool),
  graceful drain, admission control + per-request deadlines with
  greedy-baseline degradation;
* :mod:`repro.service.pool` — :class:`ProcessShardPool`: long-lived
  worker processes (own HiGHS backend and caches; LP models are
  released after every batch) behind the
  ``executor="process"`` service configuration — the only parallel
  executor, for distinct-heavy traffic — with scene-affinity routing,
  capped-backoff respawn and per-worker circuit breakers;
* :mod:`repro.service.wire` — the versioned wire schema
  (``schema_version`` :data:`SCHEMA_VERSION`): :class:`AuctionRequest` /
  :class:`AuctionResponse` with exact JSON round trips, and every typed
  error mapped to a stable ``error_code`` + HTTP status
  (:data:`~repro.service.wire.WIRE_ERROR_CODES`);
* :mod:`repro.service.gateway` — :class:`~repro.service.gateway.AuctionGateway`, the
  stdlib-asyncio HTTP/1.1 front-end serving the wire schema over
  localhost sockets (plus :class:`GatewayServer`, its sync wrapper);
* :mod:`repro.service.client` — :class:`~repro.service.client.GatewayClient` (asyncio,
  over one gateway endpoint: pooled keep-alive connections,
  typed-error reconstruction, :class:`RetryPolicy` retries with seeded
  backoff) and its sync facade
  :class:`SyncGatewayClient` (future-based ``submit``, mirroring the
  in-process service) on the loop-thread bridge
  (:mod:`repro.service._loop`);
* :mod:`repro.service.traffic` — open-loop Poisson/burst traffic over
  the metro workload family;
* :mod:`repro.service.metrics` — throughput, latency percentiles, cache
  hit rates, shed/timeout/degraded counters, served as JSON at
  ``/v1/metrics``;
* :mod:`repro.service.errors` — the typed failure hierarchy
  (:class:`ShedError`, :class:`DeadlineExceeded`,
  :class:`InjectedFaultError`);
* :mod:`repro.service.faults` — declarative, seeded fault injection at
  named sites (:class:`FaultPlan`);
* :mod:`repro.service.scenarios` / :mod:`repro.service.chaos` — the
  named scenario library and the invariant-checking chaos runner.
"""

from repro.service.chaos import ChaosReport, run_scenario
from repro.service.client import RetryPolicy, SyncGatewayClient
from repro.service.errors import (
    DeadlineExceeded,
    InjectedFaultError,
    ServiceFaultError,
    ShedError,
)
from repro.service.faults import FAULT_SITES, FaultPlan, FaultSpec
from repro.service.gateway import GatewayServer
from repro.service.metrics import ServiceMetrics
from repro.service.pool import ProcessShardPool, WorkerCrashError
from repro.service.scenarios import Scenario, scenario_library
from repro.service.scenes import SceneRegistry, scene_fingerprint
from repro.service.service import AuctionService
from repro.service.traffic import TrafficTrace, burst_trace, poisson_trace
from repro.service.wire import (
    SCHEMA_VERSION,
    AuctionRequest,
    AuctionResponse,
    default_idempotency_key,
    error_from_wire,
    error_to_wire,
    http_status_for,
    request_from_wire,
    request_to_wire,
)

__all__ = [
    "AuctionRequest",
    "AuctionResponse",
    "AuctionService",
    "SCHEMA_VERSION",
    "request_to_wire",
    "request_from_wire",
    "error_to_wire",
    "error_from_wire",
    "http_status_for",
    "default_idempotency_key",
    "GatewayServer",
    "RetryPolicy",
    "SyncGatewayClient",
    "ProcessShardPool",
    "WorkerCrashError",
    "SceneRegistry",
    "scene_fingerprint",
    "ServiceMetrics",
    "ServiceFaultError",
    "ShedError",
    "DeadlineExceeded",
    "InjectedFaultError",
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "ChaosReport",
    "Scenario",
    "scenario_library",
    "run_scenario",
    "TrafficTrace",
    "poisson_trace",
    "burst_trace",
]
