"""Chaos runner: drive a scenario under faults, assert the serving invariants.

:func:`run_scenario` replays one :class:`~repro.service.scenarios.Scenario`
in real time through the queued service path, with its fault plan armed,
and checks the fault-tolerance contract (DESIGN.md → "Fault tolerance &
chaos"):

1. **typed resolution** — every accepted request resolves to a result or
   to a *typed* failure (:class:`~repro.service.errors.ServiceFaultError`
   subclass or :class:`~repro.service.pool.WorkerCrashError`); an untyped
   exception is a bug, not a fault;
2. **replay fidelity** — every completed non-degraded result is
   bit-identical to a fault-free serial replay of the same trace (the
   per-request seeds make this checkable at all);
3. **end-state health** — after draining, the pool (if any) holds only
   live workers: crashes were absorbed by respawn, not papered over;
4. **no duplicate solves** (gateway transport) — retried requests were
   deduplicated by the gateway's idempotency journal: the
   ``duplicate_solves`` counter stayed zero, so at-least-once delivery
   still produced exactly-once results.

Degraded results (greedy fallback, flagged ``details["degraded"]``) are
exempt from invariant 2 by construction — they deliberately serve a
different algorithm — and are counted separately.  Shed requests were
never accepted, so they appear only in the report's ``shed`` count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.service.client import RetryPolicy, SyncGatewayClient
from repro.service.errors import ServiceFaultError, ShedError
from repro.service.faults import FaultPlan
from repro.service.gateway import GatewayServer
from repro.service.pool import WorkerCrashError
from repro.service.scenarios import Scenario

__all__ = ["TYPED_FAILURES", "ChaosReport", "run_scenario"]

# the complete set of failures the service is allowed to resolve with
TYPED_FAILURES = (ServiceFaultError, WorkerCrashError)

_UNSET = object()  # sentinel: "use the scenario's own fault plan"


@dataclass
class ChaosReport:
    """Outcome of one scenario run, invariants included."""

    scenario: str
    fault_plan: dict[str, Any] | None
    accepted: int
    shed: int
    completed: int
    degraded: int
    failed_typed: int
    failed_untyped: int
    replay_mismatches: int
    pool_healthy: bool
    p99_seconds: float | None
    transport: str = "in-process"
    fired: dict[str, int] = field(default_factory=dict)
    gateway: dict[str, int] = field(default_factory=dict)
    client: dict[str, int] = field(default_factory=dict)
    invariants: dict[str, bool] = field(default_factory=dict)

    @property
    def completion_rate(self) -> float:
        """Completed over accepted (shed requests were never accepted)."""
        return self.completed / self.accepted if self.accepted else 1.0

    def ok(self) -> bool:
        return all(self.invariants.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "fault_plan": self.fault_plan,
            "accepted": self.accepted,
            "shed": self.shed,
            "completed": self.completed,
            "degraded": self.degraded,
            "failed_typed": self.failed_typed,
            "failed_untyped": self.failed_untyped,
            "replay_mismatches": self.replay_mismatches,
            "completion_rate": self.completion_rate,
            "transport": self.transport,
            "pool_healthy": self.pool_healthy,
            "p99_seconds": self.p99_seconds,
            "fired": self.fired,
            "gateway": self.gateway,
            "client": self.client,
            "invariants": self.invariants,
        }


def _warm_profiles(service: Any, trace: Any) -> None:
    """Pre-solve one request per distinct profile, then zero the metrics.

    Warm-up results are discarded — caches change solve *latency*, never
    the bit-identical results — so the subsequent timed run measures
    steady-state tails.  Requests without a profile key are uncacheable
    and skipped.
    """
    seen: set[Any] = set()
    futures = []
    for item in trace:
        key = item.request.profile_key
        if key is None or key in seen:
            continue
        seen.add(key)
        futures.append(service.submit(item.request))
    for future in futures:
        future.result(timeout=300)
    service.metrics.reset()


def _same_result(a: Any, b: Any) -> bool:
    """Bit-identity for the two result kinds the service returns."""
    if hasattr(a, "sampled_allocation"):  # MechanismOutcome
        return bool(a.sampled_allocation == b.sampled_allocation)
    return bool(
        a.allocation == b.allocation
        and a.welfare == b.welfare
        and a.lp_value == b.lp_value
    )


def run_scenario(
    scenario: Scenario,
    *,
    fault_plan: FaultPlan | None | object = _UNSET,
    check_replay: bool = True,
    warmup_profiles: bool = False,
    transport: str = "in-process",
) -> ChaosReport:
    """Run one scenario end to end and evaluate the invariants.

    ``fault_plan`` overrides the scenario's own plan (``None`` runs it
    fault-free — useful for sweeping one traffic shape across plans).
    ``check_replay=False`` skips the fault-free reference run (roughly
    halves the cost) and reports zero mismatches.  ``warmup_profiles``
    pre-solves one request per distinct valuation profile in the trace
    and then resets the metrics, so the reported latencies measure the
    steady state (warm caches) instead of cold-start LP solves — the
    overload benchmark compares unloaded vs overloaded tails this way.

    ``transport="gateway"`` drives the same service through a real
    localhost HTTP gateway (:class:`~repro.service.gateway.GatewayServer`
    + :class:`~repro.service.client.SyncGatewayClient`) instead of
    in-process ``submit``: the invariants must hold across the wire too.
    The client arms the scenario's ``client["retry"]`` policy and the
    same fault plan (for ``client.connect`` sites), so network scenarios
    exercise refuse/drop/truncate/reset against a retrying client whose
    lost responses replay from the gateway's idempotency journal.
    Two accounting consequences are inherent to the network boundary —
    admission-control sheds arrive asynchronously as
    :class:`~repro.service.errors.ShedError`-failed futures (and are
    counted into ``shed``, exactly as the synchronous path counts them),
    and draining means awaiting every HTTP response rather than the
    service queue alone.
    """
    if transport not in ("in-process", "gateway"):
        raise ValueError(f"unknown transport {transport!r}")
    plan = scenario.fault_plan if fault_plan is _UNSET else fault_plan
    if plan is not None:
        plan.reset()  # re-arm: fire caps and streams start fresh per run
    registry, scene_ids = scenario.build_registry()
    trace = scenario.build_trace(registry, scene_ids)

    service = scenario.build_service(registry, fault_plan=plan)
    server: GatewayServer | None = None
    client: SyncGatewayClient | None = None
    slots: list[Any | None] = [None] * len(trace)  # future or None (shed)
    shed = 0
    try:
        if transport == "gateway":
            server = GatewayServer(service).start()
            retry = (
                RetryPolicy(**scenario.client["retry"])
                if "retry" in scenario.client
                else None
            )
            client = SyncGatewayClient(
                port=server.port, retry=retry, fault_plan=plan
            )
        submit = service.submit if client is None else client.submit
        if warmup_profiles:
            _warm_profiles(service, trace)
        t0 = time.perf_counter()
        for i, item in enumerate(trace):
            delay = item.arrival - (time.perf_counter() - t0)
            if delay > 0:
                time.sleep(delay)
            try:
                slots[i] = submit(item.request)
            except ShedError:  # repro: allow[silent-except] -- counted into the report
                shed += 1
        if client is not None:
            # over HTTP "drained" means every response has arrived, not
            # just that the service queue is empty — responses still in
            # flight on the gateway loop are otherwise invisible here
            for future in slots:
                if future is not None:
                    future.exception(timeout=300)
        service.drain()
        pool_healthy = service.healthy()
        snapshot = service.metrics_snapshot()
        gateway_counters = {} if server is None else server.gateway.counters()
        client_stats = {} if client is None else client.stats()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()
        service.close()

    completed = degraded = failed_typed = failed_untyped = 0
    unresolved = 0
    results: list[Any | None] = [None] * len(trace)
    for i, future in enumerate(slots):
        if future is None:
            continue
        if not future.done():  # drain() returned, so this is a bug
            unresolved += 1
            continue
        exc = future.exception()
        if exc is None:
            results[i] = future.result()
            completed += 1
            details = getattr(results[i], "details", None)
            if isinstance(details, dict) and details.get("degraded"):
                degraded += 1
        elif isinstance(exc, ShedError):
            # gateway transport: the 503 surfaces on the future instead of
            # synchronously at submit; same meaning — never accepted
            slots[i] = None
            shed += 1
        elif isinstance(exc, TYPED_FAILURES):
            failed_typed += 1
        else:
            failed_untyped += 1

    mismatches = 0
    if check_replay and completed > degraded:
        reference = scenario.build_service(
            registry, fault_plan=None, executor="serial"
        )
        try:
            replayed = reference.run_trace(trace)
        finally:
            reference.close()
        for result, expected in zip(results, replayed):
            if result is None:
                continue
            details = getattr(result, "details", None)
            if isinstance(details, dict) and details.get("degraded"):
                continue
            if not _same_result(result, expected):
                mismatches += 1

    accepted = len(trace) - shed
    latency = snapshot.get("latency_seconds") or {}
    report = ChaosReport(
        scenario=scenario.name,
        fault_plan=None if plan is None else plan.to_dict(),
        accepted=accepted,
        shed=shed,
        completed=completed,
        degraded=degraded,
        failed_typed=failed_typed,
        failed_untyped=failed_untyped,
        replay_mismatches=mismatches,
        pool_healthy=pool_healthy,
        p99_seconds=latency.get("p99"),
        transport=transport,
        fired={} if plan is None else plan.fired_counts(),
        gateway=gateway_counters,
        client=client_stats,
    )
    report.invariants = {
        "all_resolved": unresolved == 0,
        "typed_failures_only": failed_untyped == 0,
        "accounted": accepted == completed + failed_typed + failed_untyped,
        "replay_identical": mismatches == 0,
        "pool_healthy": pool_healthy,
        # trivially true in-process: only a gateway journal can dedupe,
        # and only the gateway transport can duplicate in the first place
        "no_duplicate_solves": gateway_counters.get("duplicate_solves", 0) == 0,
    }
    return report
