"""Traffic generation and replay for the auction service.

Open-loop traces over the metro workload family
(:mod:`repro.experiments.workloads`): arrivals are generated *without*
feedback from service latency — a Poisson process for sustained load, or
bursts for stress — which is the right model for a spectrum-redistribution
frontend whose bidders do not pace themselves on the auctioneer.

Two mix axes, matching how real request streams repeat themselves:

* **repeat-heavy** (``repeat_fraction`` near 1) — most requests re-submit
  one of a small pool of valuation profiles (license renewals, retried
  requests, mechanism probes).  These carry a ``profile_key``, so the
  service's problem cache collapses each profile to one LP solve.
* **distinct-heavy** (``repeat_fraction`` near 0) — every request draws a
  fresh profile; only the scene's compiled structure is reusable.

Traces are plain data (arrival stamp + :class:`AuctionRequest`) and
serialize to JSON for record/replay — each request in its wire form
(:func:`~repro.service.wire.request_to_wire`), so a captured production mix
can be re-driven against a new build, bit-identically and under the same
idempotency keys — the same shape `benchmarks/bench_service.py` uses for
its regression scenarios.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.service.scenes import SceneRegistry
from repro.service.wire import AuctionRequest, request_from_wire, request_to_wire
from repro.util.rng import SeedLike, ensure_rng
from repro.valuations.base import Valuation
from repro.valuations.generators import random_xor_valuations

__all__ = [
    "TrafficRequest",
    "TrafficTrace",
    "poisson_trace",
    "burst_trace",
    "save_trace",
    "load_trace",
]


@dataclass(frozen=True)
class TrafficRequest:
    """One scheduled request: when it arrives and what it asks for."""

    arrival: float  # seconds from trace start
    request: AuctionRequest


@dataclass
class TrafficTrace:
    """An ordered open-loop request schedule plus its generation metadata."""

    requests: list[TrafficRequest]
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[TrafficRequest]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> TrafficRequest:
        return self.requests[index]

    @property
    def duration(self) -> float:
        return self.requests[-1].arrival if self.requests else 0.0

    def profile_keys(self) -> set[str]:
        return {
            item.request.profile_key
            for item in self.requests
            if item.request.profile_key is not None
        }


def _profile_pools(
    registry: SceneRegistry,
    scene_ids: list[str],
    k: int,
    unique_profiles: int,
    bids_per_bidder: int,
    rng: np.random.Generator,
) -> dict[str, list[tuple[str, list[Valuation]]]]:
    """Per-scene pools of reusable (profile_key, valuations) pairs."""
    pools: dict[str, list[tuple[str, list[Valuation]]]] = {}
    for scene_id in scene_ids:
        n = registry.get(scene_id).n
        pools[scene_id] = [
            (
                f"{scene_id}:profile{i}",
                random_xor_valuations(
                    n, k, bids_per_bidder=bids_per_bidder, seed=rng
                ),
            )
            for i in range(unique_profiles)
        ]
    return pools


def _requests_for_arrivals(
    arrivals: np.ndarray,
    registry: SceneRegistry,
    scene_ids: list[str],
    k: int,
    repeat_fraction: float,
    unique_profiles: int,
    bids_per_bidder: int,
    rng: np.random.Generator,
    mode: str = "allocate",
    deadline: float | None = None,
) -> list[TrafficRequest]:
    pools = _profile_pools(
        registry, scene_ids, k, unique_profiles, bids_per_bidder, rng
    )
    out: list[TrafficRequest] = []
    for arrival in arrivals:
        scene_id = scene_ids[int(rng.integers(len(scene_ids)))]
        if unique_profiles and rng.random() < repeat_fraction:
            profile_key: str | None
            valuations: list[Valuation]
            profile_key, valuations = pools[scene_id][
                int(rng.integers(unique_profiles))
            ]
        else:
            profile_key = None
            valuations = random_xor_valuations(
                registry.get(scene_id).n,
                k,
                bids_per_bidder=bids_per_bidder,
                seed=rng,
            )
        out.append(
            TrafficRequest(
                arrival=float(arrival),
                request=AuctionRequest(
                    scene_id=scene_id,
                    k=k,
                    valuations=valuations,
                    seed=int(rng.integers(2**31)),
                    profile_key=profile_key,
                    mode=mode,
                    deadline=deadline,
                ),
            )
        )
    return out


def poisson_trace(
    registry: SceneRegistry,
    scene_ids: list[str],
    *,
    k: int,
    rate: float,
    num_requests: int,
    seed: SeedLike,
    repeat_fraction: float = 0.8,
    unique_profiles: int = 8,
    bids_per_bidder: int = 4,
    mode: str = "allocate",
    deadline: float | None = None,
) -> TrafficTrace:
    """Open-loop Poisson arrivals at ``rate`` requests/second.

    Scenes are drawn uniformly per request; ``repeat_fraction`` of the
    requests reuse a pooled profile (with ``profile_key`` set), the rest
    are distinct.  ``mode="truthful"`` marks every request for the
    truthful-mechanism pipeline (repeat-heavy truthful traces are the
    ``BENCH_mechanism.json`` acceptance workload).  ``deadline`` stamps
    every request with the same per-request latency budget (seconds from
    submit) for deadline/degradation scenarios.  Fully deterministic
    from ``seed``.
    """
    if rate <= 0 or num_requests < 0:
        raise ValueError("need rate > 0 and num_requests >= 0")
    rng = ensure_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=num_requests))
    requests = _requests_for_arrivals(
        arrivals,
        registry,
        list(scene_ids),
        k,
        repeat_fraction,
        unique_profiles,
        bids_per_bidder,
        rng,
        mode=mode,
        deadline=deadline,
    )
    return TrafficTrace(
        requests=requests,
        meta={
            "kind": "poisson",
            "rate": rate,
            "num_requests": num_requests,
            "repeat_fraction": repeat_fraction,
            "unique_profiles": unique_profiles,
            "k": k,
            "scenes": list(scene_ids),
            "mode": mode,
            "deadline": deadline,
        },
    )


def burst_trace(
    registry: SceneRegistry,
    scene_ids: list[str],
    *,
    k: int,
    burst_size: int,
    bursts: int,
    gap: float,
    seed: SeedLike,
    repeat_fraction: float = 0.8,
    unique_profiles: int = 8,
    bids_per_bidder: int = 4,
    mode: str = "allocate",
    deadline: float | None = None,
) -> TrafficTrace:
    """``bursts`` bursts of ``burst_size`` simultaneous arrivals, ``gap``
    seconds apart — the coalescing window's best case and the queue's
    worst case (and, with ``deadline``/``max_queue`` set, the overload
    scenario that exercises admission control)."""
    if burst_size < 1 or bursts < 1 or gap < 0:
        raise ValueError("need burst_size >= 1, bursts >= 1, gap >= 0")
    rng = ensure_rng(seed)
    arrivals = np.repeat(np.arange(bursts) * gap, burst_size)
    requests = _requests_for_arrivals(
        arrivals,
        registry,
        list(scene_ids),
        k,
        repeat_fraction,
        unique_profiles,
        bids_per_bidder,
        rng,
        mode=mode,
        deadline=deadline,
    )
    return TrafficTrace(
        requests=requests,
        meta={
            "kind": "burst",
            "burst_size": burst_size,
            "bursts": bursts,
            "gap": gap,
            "repeat_fraction": repeat_fraction,
            "k": k,
            "scenes": list(scene_ids),
            "mode": mode,
            "deadline": deadline,
        },
    )


# ----------------------------------------------------------------------
# record / replay
# ----------------------------------------------------------------------
# each entry is the request's wire dict (request_to_wire: columnar profile
# in bid order, metadata and idempotency key included) plus its arrival


def save_trace(trace: TrafficTrace, path: str | pathlib.Path) -> pathlib.Path:
    """Serialize a trace to JSON, each request in its wire form.  Raises
    ``TypeError`` for valuations without a bid list (the additive
    family), as :func:`~repro.service.wire.request_to_wire` does."""
    payload = {
        "meta": trace.meta,
        "requests": [
            {"arrival": item.arrival, "request": request_to_wire(item.request)}
            for item in trace.requests
        ],
    }
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload) + "\n")
    return path


def load_trace(path: str | pathlib.Path) -> TrafficTrace:
    """Load a trace written by :func:`save_trace` for replay; each
    request's valuations come back as one
    :class:`~repro.valuations.profile.Profile`."""
    payload = json.loads(pathlib.Path(path).read_text())
    requests = [
        TrafficRequest(
            arrival=float(entry["arrival"]),
            request=request_from_wire(entry["request"]),
        )
        for entry in payload["requests"]
    ]
    return TrafficTrace(requests=requests, meta=payload.get("meta", {}))
