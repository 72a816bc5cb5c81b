"""Auction-service load benchmark — writes BENCH_service.json.

Drives the AuctionService with open-loop traffic over metro scenes and
records throughput, latency percentiles, and cache accounting for a
tuned configuration against the **no-cache/no-coalescing baseline of the
same service** (structure/problem cache capacity 0, coalescing window 0,
same engine, same trace):

* ``sustained_repeat_n1000`` — the acceptance scenario: a repeat-heavy
  Poisson trace (85% of requests reuse one of 8 valuation profiles)
  against one n≈1000 metro disk scene, replayed at maximum service rate.
  The tuned service collapses repeated profiles onto cached compiled
  auctions (one LP solve per profile) and stage-batches coalesced
  groups; the baseline recompiles and re-solves per request.
* ``sustained_distinct_n1000`` — the adversarial mix: every request is a
  fresh profile, so only the compiled structure is reusable.  The
  service's adaptive coalescing detects the distinct-heavy stream and
  bypasses the batching window (batch size 1, same code path as the
  baseline), so the tuned configuration no longer pays a stage-batching
  penalty here — the honest result is parity, not a speedup.
* ``burst_realtime`` — 4 bursts of 12 simultaneous requests through the
  live queue in real time, solved on the dispatcher (``executor="serial"``):
  what the coalescing window does to tail latency.
* ``smoke_repeat_n300`` — a scaled-down repeat scenario cheap enough for
  the CI regression gate to re-measure (see check_regression.py).
* ``pool_scaling_distinct_n1000`` — the process-pool cores-scaling curve:
  the distinct-heavy n=1000 trace driven open-loop at maximum rate
  through the queue, against the serial baseline and the
  :class:`~repro.service.pool.ProcessShardPool` at 1/2/4/… workers (capped
  at the host's cores, which are recorded — the ≥3x acceptance criterion
  is only evaluable on a ≥4-core runner, and the regression gate compares
  pool metrics like-to-like by core count).
* ``pool_smoke_n300`` — a 2-worker distinct-heavy pool scenario cheap
  enough for CI: parity with the serial path asserted, throughput and
  IPC overhead recorded.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_service.py              # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke      # CI smoke
    PYTHONPATH=src python benchmarks/bench_service.py --pool-smoke # CI pool smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.experiments.workloads import metro_disk_scene
from repro.service import (
    AuctionService,
    SceneRegistry,
    burst_trace,
    poisson_trace,
)

OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_service.json"

HEADLINE_MIN_SPEEDUP = 3.0
SMOKE_MIN_SPEEDUP = 2.0
# pool acceptance: >=3x over the serial baseline on distinct-heavy
# traffic — only evaluable when the host actually has cores to scale onto
POOL_MIN_SPEEDUP = 3.0
POOL_MIN_CORES = 4
# pool smoke floor (2 workers vs serial); applied only on multi-core hosts
POOL_SMOKE_MIN_SPEEDUP = 1.2


def _service(registry: SceneRegistry, tuned: bool, **overrides) -> AuctionService:
    """The benchmark's two configurations of the same service."""
    options: dict = {"registry": registry, "executor": "serial"}
    if tuned:
        options.update(coalesce_window=0.05, max_batch=16)
    else:  # baseline: no caches, no coalescing — everything else identical
        options.update(
            coalesce_window=0.0,
            max_batch=1,
            structure_cache_size=0,
            problem_cache_size=0,
        )
    options.update(overrides)
    return AuctionService(**options)


def _summarize(service: AuctionService, results, wall: float) -> dict:
    snap = service.metrics_snapshot()
    caches = snap["caches"]
    lat = snap["latency_seconds"]
    return {
        "requests": snap["requests_completed"],
        "wall_seconds": wall,
        "throughput_rps": snap["requests_completed"] / wall,
        "latency_p50_ms": lat["p50"] * 1e3,
        "latency_p95_ms": lat["p95"] * 1e3,
        "latency_p99_ms": lat["p99"] * 1e3,
        "mean_batch_size": snap["mean_batch_size"],
        "problem_cache_hit_rate": caches["problems"]["hit_rate"],
        "structure_cache_hit_rate": caches["structures"]["hit_rate"],
        "lp_solves": caches["lp_warm_solves"]["warm"]
        + caches["lp_warm_solves"]["cold"],
        "total_welfare": float(sum(r.welfare for r in results)),
        "all_feasible": bool(all(r.feasible for r in results)),
    }


def bench_sustained(
    n: int,
    *,
    k: int = 6,
    num_requests: int = 48,
    repeat_fraction: float = 0.85,
    unique_profiles: int = 8,
    scene_seed: int = 1000,
    trace_seed: int = 41,
) -> dict:
    """Max-rate replay of one Poisson trace under tuned vs baseline config.

    Both configurations replay the *identical* trace (same valuations,
    same per-request seeds) in simulated time — no sleeping — so the
    wall clock measures pure service throughput.  Welfare totals must
    agree: the tuned path's caching and coalescing are result-invariant.
    """
    registry = SceneRegistry()
    scene_id = registry.register(metro_disk_scene(n, seed=scene_seed))
    trace = poisson_trace(
        registry,
        [scene_id],
        k=k,
        rate=100.0,
        num_requests=num_requests,
        seed=trace_seed,
        repeat_fraction=repeat_fraction,
        unique_profiles=unique_profiles,
    )
    entry = {
        "workload": (
            f"{num_requests} requests, 1 metro disk scene n={n}, k={k}, "
            f"repeat_fraction={repeat_fraction}, "
            f"{unique_profiles} reusable profiles"
        ),
    }
    for label, tuned in (("baseline", False), ("tuned", True)):
        service = _service(registry, tuned)
        start = time.perf_counter()
        results = service.run_trace(trace)
        wall = time.perf_counter() - start
        entry[label] = _summarize(service, results, wall)
    assert entry["tuned"]["total_welfare"] == entry["baseline"]["total_welfare"], (
        "tuned service diverged from baseline on the same trace"
    )
    entry["speedup"] = (
        entry["tuned"]["throughput_rps"] / entry["baseline"]["throughput_rps"]
    )
    return entry


def _drive_queue(service: AuctionService, trace) -> tuple[list, float]:
    """Open-loop max-rate drive through the live queue.

    Unlike ``run_trace`` this submits every request up front (arrival
    stamps ignored) so the dispatcher or the worker processes run at
    saturation.  The first request is replayed once as an untimed warm-up:
    with ``executor="process"`` the first submit is what spawns the worker
    pool, and spawn cost is startup, not steady-state throughput.
    """
    service.submit(trace[0].request).result(timeout=600)
    service.metrics.reset()
    start = time.perf_counter()
    futures = [service.submit(item.request) for item in trace]
    results = [f.result(timeout=600) for f in futures]
    wall = time.perf_counter() - start
    return results, wall


def _summarize_queue(service: AuctionService, results, wall: float) -> dict:
    """Throughput/latency summary for queue-driven runs.

    Parent-side cache counters are meaningless under ``executor="process"``
    (the workers own the caches), so this reports only what is placement
    independent plus the pool's own accounting when present.
    """
    snap = service.metrics_snapshot()
    lat = snap["latency_seconds"]
    entry = {
        "requests": snap["requests_completed"],
        "wall_seconds": wall,
        "throughput_rps": snap["requests_completed"] / wall,
        "latency_p50_ms": lat["p50"] * 1e3,
        "latency_p95_ms": lat["p95"] * 1e3,
        "latency_p99_ms": lat["p99"] * 1e3,
        "latency_samples": lat["samples"],
        "total_welfare": float(sum(r.welfare for r in results)),
        "all_feasible": bool(all(r.feasible for r in results)),
    }
    pool = snap.get("pool")
    if pool is not None:
        entry["pool_stats"] = {
            "start_method": pool["start_method"],
            "restarts": pool["restarts"],
            "failed_batches": pool["failed_batches"],
            "ipc_bytes_sent": pool["ipc_bytes_sent"],
            "ipc_bytes_received": pool["ipc_bytes_received"],
            "ipc_seconds": pool["ipc_seconds"],
            "scenes_shipped": pool["scenes_shipped"],
            "jobs_per_worker": [w["jobs"] for w in pool["workers"]],
        }
    return entry


def _distinct_trace(registry, scene_id, *, k, num_requests, trace_seed):
    return poisson_trace(
        registry,
        [scene_id],
        k=k,
        rate=500.0,
        num_requests=num_requests,
        seed=trace_seed,
        repeat_fraction=0.0,
        unique_profiles=0,
    )


def _queue_service(registry, executor: str, shards: int) -> AuctionService:
    # max_batch=1 keeps every request an independent job, so all workers
    # can be busy at once — coalescing distinct-heavy traffic would only
    # serialize batches behind single workers
    return AuctionService(
        registry=registry,
        executor=executor,
        num_shards=shards,
        coalesce_window=0.0,
        max_batch=1,
    )


def _pool_worker_counts(cores: int) -> list[int]:
    return [c for c in (1, 2, 4, 8) if c <= cores] or [1]


def bench_pool_scaling(
    n: int = 1000,
    *,
    k: int = 6,
    num_requests: int = 16,
    scene_seed: int = 1000,
    trace_seed: int = 44,
) -> dict:
    """Cores-scaling curve: the serial dispatcher vs the multi-process pool.

    Every configuration replays the identical distinct-heavy trace (every
    request a fresh valuation profile — only the compiled structure is
    reusable, so per-request work is irreducible and GIL-bound in one
    process).  Allocations must be bit-identical across placements.
    The host core count is recorded and the >=3x acceptance criterion is
    evaluated only on hosts with >= POOL_MIN_CORES cores; the regression
    gate compares pool numbers like-to-like by the recorded core count.
    """
    cores = os.cpu_count() or 1
    counts = _pool_worker_counts(cores)
    registry = SceneRegistry()
    scene_id = registry.register(metro_disk_scene(n, seed=scene_seed))
    trace = _distinct_trace(
        registry, scene_id, k=k, num_requests=num_requests, trace_seed=trace_seed
    )

    def run(executor: str, shards: int) -> tuple[list, dict]:
        service = _queue_service(registry, executor, shards)
        try:
            results, wall = _drive_queue(service, trace)
            summary = _summarize_queue(service, results, wall)
        finally:
            service.close()
        return results, summary

    base_results, base = run("serial", 1)
    entry: dict = {
        "workload": (
            f"{num_requests} distinct-profile requests, 1 metro disk scene "
            f"n={n}, k={k}, open-loop max rate, max_batch=1"
        ),
        "cores": cores,
        "worker_counts": counts,
        "serial_baseline": base,
        "pool": {},
    }
    expected = [r.allocation for r in base_results]
    for workers in counts:
        pool_results, summary = run("process", workers)
        assert [r.allocation for r in pool_results] == expected, (
            f"process pool ({workers} workers) diverged from serial baseline"
        )
        entry["pool"][str(workers)] = summary
    best_workers = max(counts, key=lambda w: entry["pool"][str(w)]["throughput_rps"])
    best = entry["pool"][str(best_workers)]["throughput_rps"]
    one = entry["pool"]["1"]["throughput_rps"]
    entry["best_workers"] = best_workers
    entry["speedup_vs_serial"] = best / entry["serial_baseline"]["throughput_rps"]
    entry["scaling_vs_one_worker"] = {
        str(w): entry["pool"][str(w)]["throughput_rps"] / one for w in counts
    }
    entry["criterion"] = (
        f"process pool >= {POOL_MIN_SPEEDUP}x serial baseline throughput "
        f"on the distinct-heavy n={n} trace; evaluable only on hosts with "
        f">= {POOL_MIN_CORES} cores (cores recorded above)"
    )
    entry["met"] = (
        entry["speedup_vs_serial"] >= POOL_MIN_SPEEDUP
        if cores >= POOL_MIN_CORES
        else None
    )
    return entry


def bench_pool_smoke(
    n: int = 300,
    *,
    k: int = 6,
    num_requests: int = 16,
    workers: int = 2,
    scene_seed: int = 1200,
    trace_seed: int = 47,
) -> dict:
    """Budgeted pool scenario for CI: 2 workers, n=300 distinct trace.

    Pins parity (pool allocations bit-identical to the serial path) and
    records throughput plus IPC accounting (bytes sent per request is a
    gated metric of its own).  Cheap enough for the CI
    regression gate to re-measure on every PR.
    """
    cores = os.cpu_count() or 1
    registry = SceneRegistry()
    scene_id = registry.register(metro_disk_scene(n, seed=scene_seed))
    trace = _distinct_trace(
        registry, scene_id, k=k, num_requests=num_requests, trace_seed=trace_seed
    )
    serial = _queue_service(registry, "serial", 1)
    try:
        serial_results, serial_wall = _drive_queue(serial, trace)
        serial_summary = _summarize_queue(serial, serial_results, serial_wall)
    finally:
        serial.close()
    pooled = _queue_service(registry, "process", workers)
    try:
        pool_results, pool_wall = _drive_queue(pooled, trace)
        pool_summary = _summarize_queue(pooled, pool_results, pool_wall)
    finally:
        pooled.close()
    identical = [r.allocation for r in pool_results] == [
        r.allocation for r in serial_results
    ]
    assert identical, "process pool diverged from the serial path"
    return {
        "workload": (
            f"{num_requests} distinct-profile requests, 1 metro disk scene "
            f"n={n}, k={k}, open-loop max rate, {workers} worker processes"
        ),
        "cores": cores,
        "workers": workers,
        "serial": serial_summary,
        "pool": pool_summary,
        "speedup_vs_serial": (
            pool_summary["throughput_rps"] / serial_summary["throughput_rps"]
        ),
        # what the parent pickles to the workers per request: requests
        # ship as columnar profiles, so this is a few bytes per bid
        "ipc_bytes_sent_per_request": (
            pool_summary["pool_stats"]["ipc_bytes_sent"] / num_requests
        ),
        "identical_allocations": identical,
    }


def bench_burst(
    n: int = 300, *, k: int = 6, burst_size: int = 12, bursts: int = 4
) -> dict:
    """Real-time bursts through the live queue, solved on the dispatcher."""
    registry = SceneRegistry()
    scene_a = registry.register(metro_disk_scene(n, seed=1300))
    scene_b = registry.register(metro_disk_scene(n, seed=1301))
    trace = burst_trace(
        registry,
        [scene_a, scene_b],
        k=k,
        burst_size=burst_size,
        bursts=bursts,
        gap=1.0,
        seed=43,
        repeat_fraction=0.75,
        unique_profiles=4,
    )
    service = _service(registry, tuned=True, coalesce_window=0.01)
    start = time.perf_counter()
    with service:
        results = service.run_trace(trace, realtime=True)
        service.drain()
    wall = time.perf_counter() - start
    entry = _summarize(service, results, wall)
    entry["workload"] = (
        f"{bursts} bursts x {burst_size} requests, 2 scenes n={n}, k={k}, "
        f"realtime open-loop, serial dispatcher"
    )
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small repeat-heavy scenario only; exit nonzero below "
        f"{SMOKE_MIN_SPEEDUP}x",
    )
    parser.add_argument(
        "--pool-smoke",
        action="store_true",
        help="budgeted 2-worker process-pool scenario only (n=300 distinct "
        "trace); exit nonzero on parity failure, or below "
        f"{POOL_SMOKE_MIN_SPEEDUP}x vs serial on multi-core hosts",
    )
    args = parser.parse_args(argv)

    # warm imports/HiGHS on a throwaway scene so neither config pays cold-start
    bench_sustained(60, num_requests=4, unique_profiles=2, scene_seed=9, trace_seed=9)

    if args.pool_smoke:
        smoke = bench_pool_smoke()
        ok = smoke["identical_allocations"] and smoke["pool"]["all_feasible"]
        floor_applies = smoke["cores"] >= 2 and smoke["workers"] >= 2
        if floor_applies:
            ok = ok and smoke["speedup_vs_serial"] >= POOL_SMOKE_MIN_SPEEDUP
        print(
            f"pool smoke n=300 ({smoke['workers']} workers, "
            f"{smoke['cores']} cores): {smoke['speedup_vs_serial']:.2f}x vs "
            f"serial (floor {POOL_SMOKE_MIN_SPEEDUP}x"
            f"{' applied' if floor_applies else ' waived: single core'}), "
            f"pool {smoke['pool']['throughput_rps']:.2f} rps, "
            f"parity {'OK' if smoke['identical_allocations'] else 'BROKEN'} -> "
            f"{'OK' if ok else 'FAIL'}"
        )
        return 0 if ok else 1

    if args.smoke:
        smoke = bench_sustained(300, num_requests=24, scene_seed=1200, trace_seed=42)
        ok = smoke["speedup"] >= SMOKE_MIN_SPEEDUP and smoke["tuned"]["all_feasible"]
        print(
            f"service smoke n=300: {smoke['speedup']:.2f}x "
            f"(floor {SMOKE_MIN_SPEEDUP}x), tuned "
            f"{smoke['tuned']['throughput_rps']:.1f} rps -> "
            f"{'OK' if ok else 'FAIL'}"
        )
        return 0 if ok else 1

    repeat = bench_sustained(1000)
    print(
        f"sustained repeat n=1000: {repeat['speedup']:.2f}x "
        f"({repeat['tuned']['throughput_rps']:.1f} vs "
        f"{repeat['baseline']['throughput_rps']:.1f} rps)",
        flush=True,
    )
    distinct = bench_sustained(
        1000, num_requests=16, repeat_fraction=0.0, unique_profiles=0, trace_seed=44
    )
    print(f"sustained distinct n=1000: {distinct['speedup']:.2f}x", flush=True)
    burst = bench_burst()
    print(
        f"burst realtime: p95 {burst['latency_p95_ms']:.0f}ms, "
        f"mean batch {burst['mean_batch_size']:.1f}",
        flush=True,
    )
    smoke = bench_sustained(300, num_requests=24, scene_seed=1200, trace_seed=42)
    pool_scaling = bench_pool_scaling()
    print(
        f"pool scaling distinct n=1000 ({pool_scaling['cores']} cores): "
        f"{pool_scaling['speedup_vs_serial']:.2f}x vs serial at "
        f"{pool_scaling['best_workers']} workers "
        f"(criterion {'n/a: <4 cores' if pool_scaling['met'] is None else pool_scaling['met']})",
        flush=True,
    )
    pool_smoke = bench_pool_smoke()

    results = {
        "config": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": os.cpu_count(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "sustained_repeat_n1000": repeat,
        "sustained_distinct_n1000": distinct,
        "burst_realtime": burst,
        "smoke_repeat_n300": smoke,
        "pool_scaling_distinct_n1000": pool_scaling,
        "pool_smoke_n300": pool_smoke,
        "headline": {
            "criterion": (
                "tuned service >= 3x throughput of the no-cache/no-coalescing "
                "baseline configuration on a repeat-heavy n=1000 metro trace, "
                "p50/p95 latency and cache hit rate reported"
            ),
            "speedup": repeat["speedup"],
            "tuned_throughput_rps": repeat["tuned"]["throughput_rps"],
            "tuned_latency_p50_ms": repeat["tuned"]["latency_p50_ms"],
            "tuned_latency_p95_ms": repeat["tuned"]["latency_p95_ms"],
            "problem_cache_hit_rate": repeat["tuned"]["problem_cache_hit_rate"],
            "met": repeat["speedup"] >= HEADLINE_MIN_SPEEDUP,
        },
        "pool_headline": {
            "criterion": pool_scaling["criterion"],
            "cores": pool_scaling["cores"],
            "speedup_vs_serial": pool_scaling["speedup_vs_serial"],
            "best_workers": pool_scaling["best_workers"],
            "met": pool_scaling["met"],
        },
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results["headline"], indent=2))
    print(json.dumps(results["pool_headline"], indent=2))
    print(f"wrote {OUTPUT}")
    # pool_headline met=None (too few cores) is not a failure — recorded honestly
    ok = results["headline"]["met"] and results["pool_headline"]["met"] is not False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
