"""Declarative serving scenarios: scene family × traffic mix × fault plan.

A :class:`Scenario` names everything one chaos or stress run needs —
which metro scenes to register, what open-loop traffic to drive, how the
service is configured, and which :class:`~repro.service.faults.FaultPlan`
(if any) is armed — as plain data that serializes to JSON.  The
:func:`scenario_library` ships the named configurations the ROADMAP's
"scenario library + stress/chaos harness" item calls for; the chaos
runner (:mod:`repro.service.chaos`) sweeps them and asserts the serving
invariants, and ``benchmarks/bench_chaos.py`` pins two of them as the
``BENCH_chaos.json`` acceptance workloads.

Everything is deterministic from the embedded seeds: scenes from
``scene_seed``, traffic from ``traffic_seed``, fault decisions from the
plan's own seed.  A scenario is therefore a complete, replayable
description of a run — the JSON form is what a bug report attaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.service.faults import FaultPlan, FaultSpec
from repro.service.scenes import SceneRegistry
from repro.service.service import AuctionService
from repro.service.traffic import TrafficTrace, burst_trace, poisson_trace

__all__ = ["Scenario", "scenario_library"]

_SCENE_FAMILIES = ("metro_disk", "metro_protocol")
_TRAFFIC_KINDS = ("poisson", "burst")


@dataclass(frozen=True)
class Scenario:
    """One named, fully-seeded serving scenario.

    ``num_requests`` is the trace length (the "n" of the chaos
    acceptance scenarios); ``scene_size`` is the per-scene bidder count.
    ``service`` holds :class:`AuctionService` keyword overrides
    (executor, queue bound, retries, …), ``client`` holds gateway-client
    overrides for ``transport="gateway"`` runs (a ``"retry"`` entry is
    :class:`~repro.service.client.RetryPolicy` keywords — how the
    network scenarios arm bounded retries), and ``fault_plan`` the armed
    faults — ``None`` runs fault-free, which is also how the chaos
    runner builds the replay reference.
    """

    name: str
    description: str
    scene_family: str = "metro_disk"
    scene_size: int = 24
    num_scenes: int = 2
    scene_seed: int = 501
    k: int = 3
    num_requests: int = 100
    traffic: str = "poisson"
    rate: float = 400.0
    burst_size: int = 32
    gap: float = 0.05
    repeat_fraction: float = 0.8
    unique_profiles: int = 8
    mode: str = "allocate"
    deadline: float | None = None
    traffic_seed: int = 7
    service: dict[str, Any] = field(default_factory=dict)
    client: dict[str, Any] = field(default_factory=dict)
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.scene_family not in _SCENE_FAMILIES:
            raise ValueError(
                f"scene_family must be one of {_SCENE_FAMILIES}, "
                f"got {self.scene_family!r}"
            )
        if self.traffic not in _TRAFFIC_KINDS:
            raise ValueError(
                f"traffic must be one of {_TRAFFIC_KINDS}, got {self.traffic!r}"
            )
        if self.scene_size < 1 or self.num_scenes < 1 or self.num_requests < 0:
            raise ValueError("scene_size/num_scenes/num_requests out of range")

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def build_registry(self) -> tuple[SceneRegistry, list[str]]:
        """Fresh registry holding this scenario's scenes, plus their ids."""
        from repro.experiments.workloads import (
            metro_disk_scene,
            metro_protocol_scene,
        )

        builder = {
            "metro_disk": metro_disk_scene,
            "metro_protocol": metro_protocol_scene,
        }[self.scene_family]
        registry = SceneRegistry()
        scene_ids = [
            registry.register(builder(self.scene_size, seed=self.scene_seed + i))
            for i in range(self.num_scenes)
        ]
        return registry, scene_ids

    def build_trace(
        self, registry: SceneRegistry, scene_ids: list[str]
    ) -> TrafficTrace:
        """The scenario's open-loop trace (exactly ``num_requests`` long)."""
        if self.traffic == "poisson":
            trace = poisson_trace(
                registry,
                scene_ids,
                k=self.k,
                rate=self.rate,
                num_requests=self.num_requests,
                seed=self.traffic_seed,
                repeat_fraction=self.repeat_fraction,
                unique_profiles=self.unique_profiles,
                mode=self.mode,
                deadline=self.deadline,
            )
        else:
            bursts = -(-self.num_requests // self.burst_size)  # ceil
            trace = burst_trace(
                registry,
                scene_ids,
                k=self.k,
                burst_size=self.burst_size,
                bursts=max(bursts, 1),
                gap=self.gap,
                seed=self.traffic_seed,
                repeat_fraction=self.repeat_fraction,
                unique_profiles=self.unique_profiles,
                mode=self.mode,
                deadline=self.deadline,
            )
        return TrafficTrace(
            requests=trace.requests[: self.num_requests], meta=trace.meta
        )

    def build_service(
        self, registry: SceneRegistry, **overrides: Any
    ) -> AuctionService:
        """The scenario's service; ``overrides`` win over the scenario's
        own ``service`` dict (the chaos runner swaps ``fault_plan`` this
        way to build the fault-free replay reference)."""
        kwargs: dict[str, Any] = {"fault_plan": self.fault_plan}
        kwargs.update(self.service)
        kwargs.update(overrides)
        return AuctionService(registry=registry, **kwargs)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if f.name == "fault_plan" and value else value
        return out


def scenario_library() -> dict[str, Scenario]:
    """The named scenarios, freshly built (fault plans armed per call)."""
    scenarios = (
        Scenario(
            name="dense_metro",
            description=(
                "sustained repeat-heavy Poisson load over two dense metro "
                "scenes — the nominal serving regime, no faults"
            ),
            scene_size=32,
            num_requests=200,
            service={"executor": "serial", "coalesce_window": 0.002},
        ),
        Scenario(
            name="flash_crowd_burst",
            description=(
                "simultaneous-arrival bursts against a bounded queue: "
                "admission control sheds typed, accepted requests complete"
            ),
            traffic="burst",
            burst_size=32,
            gap=0.05,
            num_requests=192,
            service={
                "executor": "serial",
                "coalesce_window": 0.002,
                "max_queue": 64,
            },
        ),
        Scenario(
            name="distinct_adversarial",
            description=(
                "distinct-heavy (cache-hostile) traffic: every request a "
                "fresh profile, the GIL-ceiling workload of PR 6"
            ),
            repeat_fraction=0.0,
            unique_profiles=0,
            num_requests=120,
            rate=200.0,
            service={"executor": "serial", "coalesce_window": 0.0},
        ),
        Scenario(
            name="crash_storm",
            description=(
                "seeded crash+slow-solve plan on the process pool: worker "
                "incarnations 0-1 crash on half the batches, respawn + "
                "retry absorb every loss bit-identically"
            ),
            num_requests=300,
            rate=600.0,
            service={
                "executor": "process",
                "num_shards": 2,
                "worker_retries": 3,
                "pool_config": {"respawn_backoff": 0.01},
            },
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        site="pool.worker.batch",
                        kind="crash",
                        probability=0.5,
                        generations=(0, 1),
                    ),
                    FaultSpec(
                        site="service.solve",
                        kind="slow",
                        probability=0.05,
                        delay=0.002,
                    ),
                ],
                seed=11,
            ),
        ),
        Scenario(
            name="flaky_network",
            description=(
                "network-layer chaos on the HTTP edge: connection resets, "
                "dropped and truncated responses, injected path latency — "
                "retrying clients replay lost responses from the "
                "idempotency journal, so every accepted request resolves "
                "bit-identically and nothing solves twice"
            ),
            num_requests=300,
            rate=600.0,
            service={"executor": "serial", "coalesce_window": 0.002},
            client={"retry": {"max_attempts": 4, "backoff_base": 0.01}},
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        site="gateway.response", kind="drop", probability=0.03
                    ),
                    FaultSpec(
                        site="gateway.response", kind="truncate", probability=0.03
                    ),
                    FaultSpec(
                        site="client.connect", kind="reset", probability=0.04
                    ),
                    FaultSpec(
                        site="client.connect",
                        kind="latency",
                        probability=0.05,
                        delay=0.002,
                    ),
                ],
                seed=17,
            ),
        ),
        Scenario(
            name="gateway_partition",
            description=(
                "a partitioned edge refusing whole connections before "
                "admission: ~30% of attempts are refused; bounded retries "
                "with backoff land every request on a later attempt"
            ),
            num_requests=300,
            rate=600.0,
            service={"executor": "serial", "coalesce_window": 0.002},
            client={"retry": {"max_attempts": 8, "backoff_base": 0.005}},
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        site="gateway.accept", kind="refuse", probability=0.3
                    )
                ],
                seed=19,
            ),
        ),
        Scenario(
            name="slow_worker_brownout",
            description=(
                "injected per-batch latency in the pool workers: the "
                "parent sees a browning-out shard, nothing fails"
            ),
            num_requests=300,
            rate=600.0,
            service={
                "executor": "process",
                "num_shards": 2,
                "worker_retries": 1,
            },
            fault_plan=FaultPlan(
                [
                    FaultSpec(
                        site="pool.worker.batch",
                        kind="slow",
                        probability=0.3,
                        delay=0.005,
                    )
                ],
                seed=13,
            ),
        ),
    )
    return {scenario.name: scenario for scenario in scenarios}
