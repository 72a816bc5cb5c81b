"""The serving stacks a workload drives, behind one small interface.

``GatewayStack`` launches ``perfbench.server`` as its own process and
talks to it through ``SyncGatewayClient``; ``InProcessStack`` runs the
process-pool ``AuctionService`` inside the benchmark process (the wire
schema serializes allocate results only, so truthful requests cannot
cross HTTP).  Both execute with ``num_shards = max(1, nproc - 1)``, all
other options at their defaults.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench.harness import Outcome, RunError, ServerProcess, closed_loop, nproc
from repro.service import AuctionService, SyncGatewayClient
from repro.service.wire import AuctionRequest

SERVER_LIFETIME = 175.0  # the server stops itself after this, whatever happens


def shards() -> int:
    return max(1, nproc() - 1)


@dataclass(frozen=True)
class SetupTimes:
    total_s: float
    register_ms: float
    warmup_s: float
    warmup: list[Outcome]  # verified by the caller, after the clock stops


def _warm_up(stack: Any, warmup: list[AuctionRequest]) -> list[Outcome]:
    loop = closed_loop(stack.submit, warmup, nproc(), float("inf"))
    if loop.failed:
        errors = [o.error for o in loop.outcomes if o.error]
        raise RunError(f"warm-up failed: {errors[:3]}")
    return loop.outcomes


class GatewayStack:
    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.server = ServerProcess(root, shards(), SERVER_LIFETIME, env)
        self.client: SyncGatewayClient | None = None

    def setup(self, scene: Any, scene_id: str, warmup: list[AuctionRequest]) -> SetupTimes:
        """Launch to ready: process start and imports, ``POST /v1/scenes``,
        then the warm-up requests, which spawn the pool, ship and compile
        the scene and fill the caches the workload relies on."""
        t0 = time.perf_counter()
        self.server.start()
        self.client = SyncGatewayClient(port=self.server.port, max_connections=nproc())
        t_register = time.perf_counter()
        registered = self.client.register_scene(scene)
        t_warm = time.perf_counter()
        if registered != scene_id:
            raise RunError(f"server registered the scene as {registered}, not {scene_id}")
        warmed = _warm_up(self, warmup)
        t_ready = time.perf_counter()
        return SetupTimes(t_ready - t0, 1e3 * (t_warm - t_register), t_ready - t_warm, warmed)

    def submit(self, request: AuctionRequest) -> Future:
        assert self.client is not None
        return self.client.submit(request)

    def metrics(self) -> dict[str, Any]:
        assert self.client is not None
        return self.client.metrics()

    def serving_pids(self, snapshot: dict[str, Any]) -> list[int]:
        return [self.server.pid] + [w["pid"] for w in snapshot["pool"]["workers"]]

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.client = None
            self.server.stop()


class InProcessStack:
    def __init__(self) -> None:
        self.service: AuctionService | None = None

    def setup(self, scene: Any, scene_id: str, warmup: list[AuctionRequest]) -> SetupTimes:
        """Service construction to ready: ``register_scene``, then the
        warm-up requests, which spawn the pool and ship the scene."""
        t0 = time.perf_counter()
        self.service = AuctionService(executor="process", num_shards=shards())
        registered = self.service.register_scene(scene)
        t_warm = time.perf_counter()
        if registered != scene_id:
            raise RunError(f"service registered the scene as {registered}, not {scene_id}")
        warmed = _warm_up(self, warmup)
        t_ready = time.perf_counter()
        return SetupTimes(t_ready - t0, 1e3 * (t_warm - t0), t_ready - t_warm, warmed)

    def submit(self, request: AuctionRequest) -> Future:
        assert self.service is not None
        return self.service.submit(request)

    def metrics(self) -> dict[str, Any]:
        assert self.service is not None
        return self.service.metrics_snapshot()

    def serving_pids(self, snapshot: dict[str, Any]) -> list[int]:
        return [w["pid"] for w in snapshot["pool"]["workers"]]

    def close(self) -> None:
        service, self.service = self.service, None
        if service is not None and not service.close(timeout=30):
            raise RunError("in-process service did not drain within 30s")


def pool_spawn_seconds() -> float:
    """Spawn-to-first-answer time of a one-scene process pool, from outside:
    a fresh service answering one request on an 8-vertex scene."""
    from repro.experiments.workloads import metro_disk_scene
    from repro.valuations.generators import random_xor_valuations

    tiny = metro_disk_scene(8, seed=0)
    t0 = time.perf_counter()
    service = AuctionService(executor="process", num_shards=shards())
    try:
        scene_id = service.register_scene(tiny)
        request = AuctionRequest(
            scene_id=scene_id,
            k=2,
            valuations=random_xor_valuations(8, 2, bids_per_bidder=1, seed=0),
            seed=0,
        )
        service.submit(request).result(timeout=60)
        return time.perf_counter() - t0
    finally:
        service.close(timeout=30)


def stop_mp_helpers() -> None:
    """Stop the multiprocessing forkserver and resource tracker this process
    started for its pools, if any, and wait for them to exit."""
    from multiprocessing import forkserver, resource_tracker

    for helper, pid_attr in (
        (getattr(forkserver, "_forkserver", None), "_forkserver_pid"),
        (getattr(resource_tracker, "_resource_tracker", None), "_pid"),
    ):
        if helper is not None and getattr(helper, pid_attr, None) is not None:
            helper._stop()


def server_env(root: Path, tmpdir: str) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = tmpdir
    return env


def counter_metrics(
    before: dict[str, Any], after: dict[str, Any], over_http: bool
) -> dict[str, float]:
    """Per-layer counters from two metrics snapshots around the main phase.

    Every counter is looked up by its exact path: a path the program no
    longer reports fails the run rather than reading as zero.
    """

    def at(node: Any, *path: str) -> Any:
        for key in path:
            try:
                node = node[key]
            except (KeyError, TypeError) as exc:
                raise RunError(f"metrics snapshot has no {'.'.join(path)}") from exc
        return node

    def delta(*path: str) -> float:
        return float(at(after, *path) - at(before, *path))

    def worker_total(snapshot: dict[str, Any], *path: str) -> float:
        workers = at(snapshot, "pool", "workers")
        return float(sum(at(worker, "worker_stats", *path) for worker in workers))

    def delta_workers(*path: str) -> float:
        return worker_total(after, *path) - worker_total(before, *path)

    def rate(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    done = delta("requests_completed")
    if done < 1:
        raise RunError("no request completed in the main phase")
    batches = delta("batches")
    batched = at(after, "batches") * (at(after, "mean_batch_size") or 0.0) - at(
        before, "batches"
    ) * (at(before, "mean_batch_size") or 0.0)
    lp_solves = delta_workers("caches", "lp_warm_solves", "warm") + delta_workers(
        "caches", "lp_warm_solves", "cold"
    )
    return {
        "engine.lp_solves_per_req": lp_solves / done,
        "pool.sent_kb_per_req": delta("pool", "ipc_bytes_sent") / 1024 / done,
        "pool.recv_kb_per_req": delta("pool", "ipc_bytes_received") / 1024 / done,
        "pool.ipc_ms_per_req": 1e3 * delta("pool", "ipc_seconds") / done,
        "pool.restarts": delta("pool", "restarts"),
        "service.mean_batch_size": batched / batches if batches else 0.0,
        "service.problem_cache_hit_rate": rate(
            delta_workers("caches", "problems", "hits"),
            delta_workers("caches", "problems", "misses"),
        ),
        "service.mechanism_cache_hit_rate": rate(
            delta_workers("caches", "mechanisms", "hits"),
            delta_workers("caches", "mechanisms", "misses"),
        ),
        # the in-process stack has no gateway: nothing to count there
        "gateway.responses_error": delta("gateway", "responses_error") if over_http else 0.0,
        "gateway.journal_hits": delta("gateway", "journal_hits") if over_http else 0.0,
    }


def overhead_ms(outcomes: list[Any]) -> list[float]:
    """Client latency minus the worker's ``solve_seconds``, per response."""
    return [
        1e3 * (o.latency - o.verified.solve_seconds)
        for o in outcomes
        if o.latency is not None and o.verified.solve_seconds is not None
    ]

