"""Serve auction requests with the AuctionService.

Registers two metro scenes, drives a repeat-heavy Poisson trace through
the coalescing queue (solved on the dispatcher thread), then replays the same trace
through a no-cache/no-coalescing configuration to show what the caches
buy — a miniature of benchmarks/bench_service.py.

With ``--workers N`` (default 2) a final segment drives a distinct-heavy
trace through the multi-process shard pool (``executor="process"``):
N long-lived worker processes, each owning its HiGHS backend and caches,
with allocations bit-identical to the in-process path.  ``--workers 0``
skips the pool segment.  The service context manager — backed by the
pool's own ``atexit`` hook — guarantees no stray worker processes
outlive the example.

Run from the repository root:

    PYTHONPATH=src python examples/auction_service.py
    PYTHONPATH=src python examples/auction_service.py --workers 4
"""

from __future__ import annotations

import argparse

from repro.experiments.workloads import metro_disk_scene, metro_protocol_scene
from repro.service import AuctionService, poisson_trace


def build_service(**overrides) -> AuctionService:
    options = {
        "executor": "serial",
        "coalesce_window": 0.01,
    }
    options.update(overrides)
    return AuctionService(**options)


def demo_process_pool(registry, scene_id: str, workers: int) -> None:
    """Distinct-heavy traffic on the GIL-free worker-process tier."""
    trace = poisson_trace(
        registry,
        [scene_id],
        k=4,
        rate=400.0,
        num_requests=12,
        seed=21,
        repeat_fraction=0.0,  # every request a fresh profile: cache-miss traffic
        unique_profiles=0,
    )
    pooled = build_service(
        registry=registry,
        executor="process",
        num_shards=workers,
        coalesce_window=0.0,
        max_batch=1,
    )
    serial = build_service(registry=registry, executor="serial", coalesce_window=0.0)
    # the with-blocks are the stray-process guard: close() joins every
    # worker (and the pool registers an atexit fallback besides)
    with pooled, serial:
        futures = [pooled.submit(item.request) for item in trace]
        pool_results = [f.result(timeout=300) for f in futures]
        serial_results = serial.run_trace(trace)
    assert [r.allocation for r in pool_results] == [
        r.allocation for r in serial_results
    ], "process pool must be placement-invariant"
    snap = pooled.metrics_snapshot()
    pool = snap["pool"]
    print(
        f"process pool ({workers} workers, {pool['start_method']}, "
        f"{pool['cores']} cores): {snap['requests_completed']} distinct "
        f"requests, {snap['throughput_rps']:.1f} req/s, "
        f"{pool['ipc_bytes_sent'] + pool['ipc_bytes_received']} IPC bytes, "
        f"jobs per worker {[w['jobs'] for w in pool['workers']]}"
    )
    print(
        f"pool allocations bit-identical to the serial path: "
        f"{len(pool_results)}/{len(trace)} requests match"
    )
    assert not any(w["alive"] for w in pooled._pool.stats()["workers"])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the pool segment; 0 skips it "
        "(default %(default)s)",
    )
    args = parser.parse_args(argv)

    service = build_service()
    disk = service.register_scene(metro_disk_scene(150, seed=11))
    protocol = service.register_scene(metro_protocol_scene(150, seed=12))
    print(f"registered scenes {disk} (disk) and {protocol} (protocol)")

    trace = poisson_trace(
        service.registry,
        [disk, protocol],
        k=4,
        rate=400.0,
        num_requests=60,
        seed=7,
        repeat_fraction=0.85,
        unique_profiles=4,
    )
    print(f"trace: {len(trace)} requests over {trace.duration:.2f}s, "
          f"{len(trace.profile_keys())} reusable profiles")

    with service:
        results = service.run_trace(trace, realtime=True)
    welfare = sum(r.welfare for r in results)
    assert all(r.feasible for r in results)

    snap = service.metrics_snapshot()
    lat = snap["latency_seconds"]
    caches = snap["caches"]
    print(f"served {snap['requests_completed']} requests, total welfare {welfare:.0f}")
    print(f"throughput {snap['throughput_rps']:.1f} req/s | latency "
          f"p50 {lat['p50'] * 1e3:.1f}ms p95 {lat['p95'] * 1e3:.1f}ms "
          f"p99 {lat['p99'] * 1e3:.1f}ms")
    print(f"problem cache hit rate {caches['problems']['hit_rate']:.0%} "
          f"({caches['problems']['hits']} hits, "
          f"{caches['problems']['misses']} misses), mean batch "
          f"{snap['mean_batch_size']:.1f}")

    # same trace, cold configuration: every request recompiles and re-solves
    baseline = build_service(
        executor="serial",
        coalesce_window=0.0,
        structure_cache_size=0,
        problem_cache_size=0,
    )
    baseline.registry = service.registry  # same scenes
    baseline_results = baseline.run_trace(trace)  # simulated (no sleeping)
    assert sum(r.welfare for r in baseline_results) > 0
    cold = baseline.metrics_snapshot()
    print(f"no-cache/no-coalescing baseline: {cold['throughput_rps']:.1f} req/s "
          f"vs {snap['throughput_rps']:.1f} req/s served "
          f"({cold['caches']['problems']['hits']} cache hits by construction)")

    if args.workers > 0:
        demo_process_pool(service.registry, disk, args.workers)


if __name__ == "__main__":
    main()
