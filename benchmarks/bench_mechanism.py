"""Truthful-mechanism benchmark — writes BENCH_mechanism.json.

Measures the Section 5 truthful-in-expectation mechanism on the compiled
fast path (PR 5) against the reference (pre-fast-path) pipeline:

* ``truthful_trace_n300`` — the acceptance scenario: a repeat-heavy
  Poisson trace of truthful requests (85% reuse one of 6 valuation
  profiles) against one n≈300 metro disk scene, replayed at maximum
  service rate.  The fast service prepares each profile's decomposition +
  payments once (compiled pricing, warm-started VCG probes, vectorized
  derandomization) and serves repeats by sampling; the baseline service
  recomputes the full reference mechanism — seed-era ``AuctionLP``
  rebuilds and per-bidder cold VCG solves — for every request, exactly
  the pre-PR cost.  Sampled allocations must be bit-identical between
  the two replays and payments equal to VCG-probe tolerance.  Its
  ``stages`` entry (:func:`bench_stages`) times the fast mechanism's two
  stages on each distinct profile of the trace: the median
  ``decompose_ms`` and ``vcg_ms`` per profile and the median
  ``pricing_iterations`` (all three gated by check_regression.py), and
  the median VCG ``probes``, ``screened`` bidders and probe ``threads``.
* ``truthful_n1000`` — one n=1000 metro disk truthful auction end to end
  on the fast path (LP → decomposition → payments → sample), which the
  reference pipeline cannot finish in reasonable time; the acceptance
  criterion is single-digit seconds.
* ``vcg_n1000`` — the VCG stage of one ``distinct_alloc_n1000``-style
  profile (metro disk n=1000, k=6, 4 XOR bids) in truthful mode, timed
  on one probe thread and at the thread budget; recorded, not gated.
* ``vcg_thread_edge`` — two small truthful profiles, one on each side of
  ``MIN_PROBES_PER_THREAD`` (19 and 31 probes), timed on one probe thread
  and on every core with the floor lifted; recorded, not gated.
* ``decomposition_parity`` — a direct ``pricing="approx"`` vs
  ``pricing="reference"`` decomposition on one instance: pool, weights,
  keep probabilities, and samples compared bit-for-bit (the same
  invariant ``tests/test_mechanism_parity.py`` pins across models).
* ``smoke_truthful_n150`` — a scaled-down trace cheap enough for the CI
  regression gate to re-measure (see check_regression.py).

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_mechanism.py            # full
    PYTHONPATH=src python benchmarks/bench_mechanism.py --smoke    # CI smoke
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

from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.engine.compiled import CompiledAuction, compile_structure
from repro.engine import highs
from repro.engine.highs import set_solver_processes
from repro.experiments.workloads import (
    metro_disk_auction,
    metro_disk_scene,
    metro_truthful_auction,
)
from repro.mechanism.lavi_swamy import decompose_lp_solution, default_alpha
from repro.mechanism.truthful import TruthfulMechanism
from repro.mechanism.vcg import vcg_payments
from repro.service import AuctionService, SceneRegistry, TrafficTrace, poisson_trace

OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_mechanism.json"

HEADLINE_MIN_SPEEDUP = 4.0
SMOKE_MIN_SPEEDUP = 3.0
N1000_MAX_SECONDS = 10.0


def _service(registry: SceneRegistry, fast: bool) -> AuctionService:
    """The benchmark's two configurations of the same service."""
    options: dict = {"registry": registry, "executor": "serial"}
    if fast:
        options.update(coalesce_window=0.05, max_batch=16)
    else:  # baseline: no caches, no coalescing, reference mechanism pipeline
        options.update(
            coalesce_window=0.0,
            max_batch=1,
            structure_cache_size=0,
            problem_cache_size=0,
            mechanism_cache_size=0,
            mechanism_pricing="reference",
        )
    return AuctionService(**options)


def _truthful_trace(
    n: int,
    *,
    k: int,
    num_requests: int,
    repeat_fraction: float,
    unique_profiles: int,
    bids_per_bidder: int,
    scene_seed: int,
    trace_seed: int,
) -> tuple[SceneRegistry, TrafficTrace]:
    """One metro disk scene and a truthful Poisson trace against it."""
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
        bids_per_bidder=bids_per_bidder,
        mode="truthful",
    )
    return registry, trace


def bench_stages(n: int = 300) -> dict:
    """Per-stage times of the fast mechanism on a truthful trace's profiles.

    Every distinct profile of :func:`bench_truthful_trace`'s default trace
    at size ``n`` is prepared once as the fast service prepares it — LP,
    compiled decomposition, warm VCG probes — with the decomposition and
    the payments timed separately.  Reports the median milliseconds per
    profile of each stage, and the median pricing iterations (the master
    solves of one decomposition, deterministic for a fixed trace).
    """
    registry, trace = _truthful_trace(
        n,
        k=4,
        num_requests=36,
        repeat_fraction=0.85,
        unique_profiles=6,
        bids_per_bidder=2,
        scene_seed=1500,
        trace_seed=51,
    )
    decompose_ms: list[float] = []
    iterations: list[int] = []
    vcg_ms: list[float] = []
    probes: list[int] = []
    screened: list[int] = []
    threads: list[int] = []
    seen: set[str] = set()
    for item in trace:
        request = item.request
        if request.profile_key is not None:
            if request.profile_key in seen:
                continue
            seen.add(request.profile_key)
        structure = registry.get(request.scene_id)
        compiled_structure = compile_structure(structure)
        problem = AuctionProblem(structure, request.k, request.valuations)
        solution = SpectrumAuctionSolver(
            problem, compiled=CompiledAuction(problem, structure=compiled_structure)
        ).solve_lp()
        alpha = default_alpha(problem)
        start = time.perf_counter()
        decomposition = decompose_lp_solution(
            problem, solution, alpha=alpha, seed=0, compiled_structure=compiled_structure
        )
        decompose_ms.append((time.perf_counter() - start) * 1e3)
        iterations.append(decomposition.iterations)
        start = time.perf_counter()
        vcg = vcg_payments(problem, solution, alpha, compiled_structure=compiled_structure)
        vcg_ms.append((time.perf_counter() - start) * 1e3)
        probes.append(vcg.probes)
        screened.append(vcg.screened)
        threads.append(vcg.threads)
    return {
        "workload": (
            f"every distinct profile of the n={n} truthful trace, prepared once; "
            "median ms per profile, the median pricing iterations, and the "
            "median VCG probes, screened bidders and probe threads"
        ),
        "profiles": len(vcg_ms),
        "decompose_ms": float(np.median(decompose_ms)),
        "pricing_iterations": float(np.median(iterations)),
        "vcg_ms": float(np.median(vcg_ms)),
        "probes": float(np.median(probes)),
        "screened": float(np.median(screened)),
        "threads": float(np.median(threads)),
    }


def bench_vcg_n1000(n: int = 1000, k: int = 6, seed: int = 2011) -> dict:
    """The VCG stage of one ``distinct_alloc_n1000``-style profile (metro
    disk n=1000, k=6, 4 XOR bids per bidder) in truthful mode, on one
    probe thread and at this process's thread budget
    (:func:`repro.engine.highs.probe_threads`).  Recorded, not gated."""
    problem = metro_disk_auction(n, k, seed=seed)
    compiled = CompiledAuction(problem)
    solution = compiled.solve_lp()
    alpha = default_alpha(problem)
    timings = {}
    runs = {}
    # one thread: tell the budget that every core runs a solver process
    for label, processes in (("one_thread", os.cpu_count() or 1), ("budget", 1)):
        previous = set_solver_processes(processes)
        try:
            start = time.perf_counter()
            runs[label] = vcg_payments(problem, solution, alpha, compiled=compiled)
            timings[label] = (time.perf_counter() - start) * 1e3
        finally:
            set_solver_processes(previous)
    one, budget = runs["one_thread"], runs["budget"]
    assert np.array_equal(one.payments, budget.payments), "payments depend on threads"
    return {
        "workload": (
            f"metro_disk_auction(n={n}, k={k}, 4 XOR bids), one profile's VCG "
            "stage on one probe thread and at the thread budget"
        ),
        "probes": budget.probes,
        "screened": budget.screened,
        "threads": budget.threads,
        "vcg_ms_one_thread": timings["one_thread"],
        "vcg_ms_budget": timings["budget"],
        "speedup": timings["one_thread"] / timings["budget"],
        "payments_identical": True,
    }


# two metro k=4 truthful profiles, one on each side of the per-thread probe
# floor: n=50 seed 1 (19 probes, one thread at the budget) and n=65 seed 3
# (31 probes, two threads where two cores are free)
THREAD_EDGE_PROFILES = ((50, 1), (65, 3))


def bench_vcg_thread_edge(repeats: int = 9) -> dict:
    """The evidence for ``MIN_PROBES_PER_THREAD``: on each
    :data:`THREAD_EDGE_PROFILES` profile, the median VCG stage on one
    probe thread and on every core this process may use with the
    per-thread probe floor lifted (``MIN_PROBES_PER_THREAD`` set to 1 for
    the call), interleaved, and the threads the budget gives it.
    Recorded, not gated."""
    points = {}
    for n, seed in THREAD_EDGE_PROFILES:
        problem = metro_truthful_auction(n, 4, seed=seed)
        compiled = CompiledAuction(problem)
        solution = compiled.solve_lp()
        alpha = default_alpha(problem)
        at_budget = vcg_payments(problem, solution, alpha, compiled=compiled)
        one_ms: list[float] = []
        lifted_ms: list[float] = []
        for _ in range(repeats):
            previous = set_solver_processes(os.cpu_count() or 1)
            try:
                start = time.perf_counter()
                one = vcg_payments(problem, solution, alpha, compiled=compiled)
                one_ms.append((time.perf_counter() - start) * 1e3)
            finally:
                set_solver_processes(previous)
            floor = highs.MIN_PROBES_PER_THREAD
            highs.MIN_PROBES_PER_THREAD = 1
            try:
                start = time.perf_counter()
                lifted = vcg_payments(problem, solution, alpha, compiled=compiled)
                lifted_ms.append((time.perf_counter() - start) * 1e3)
            finally:
                highs.MIN_PROBES_PER_THREAD = floor
            assert np.array_equal(one.payments, lifted.payments), "payments depend on threads"
        points[f"n{n}_seed{seed}"] = {
            "probes": at_budget.probes,
            "threads_at_budget": at_budget.threads,
            "threads_lifted": lifted.threads,
            "vcg_ms_one_thread": float(np.median(one_ms)),
            "vcg_ms_lifted": float(np.median(lifted_ms)),
            "speedup": float(np.median(one_ms) / np.median(lifted_ms)),
        }
    return {
        "workload": (
            "metro_truthful_auction(n, k=4) profiles on each side of "
            f"MIN_PROBES_PER_THREAD={highs.MIN_PROBES_PER_THREAD}; median of "
            f"{repeats} interleaved VCG stages on one probe thread and on every "
            "core with the floor lifted"
        ),
        "min_probes_per_thread": highs.MIN_PROBES_PER_THREAD,
        "points": points,
    }


def bench_truthful_trace(
    n: int,
    *,
    k: int = 4,
    num_requests: int = 36,
    repeat_fraction: float = 0.85,
    unique_profiles: int = 6,
    bids_per_bidder: int = 2,
    scene_seed: int = 1500,
    trace_seed: int = 51,
) -> dict:
    """Max-rate replay of one truthful Poisson trace, fast vs reference.

    Both configurations replay the *identical* trace (same valuations,
    same per-request sampling seeds) in simulated time.  The fast path's
    caching, coalescing, compiled pricing, and warm VCG probes are
    result-preserving: sampled allocations are asserted bit-identical and
    payments equal within probe tolerance.
    """
    registry, trace = _truthful_trace(
        n,
        k=k,
        num_requests=num_requests,
        repeat_fraction=repeat_fraction,
        unique_profiles=unique_profiles,
        bids_per_bidder=bids_per_bidder,
        scene_seed=scene_seed,
        trace_seed=trace_seed,
    )
    entry: dict = {
        "workload": (
            f"{num_requests} truthful requests, 1 metro disk scene n={n}, "
            f"k={k}, repeat_fraction={repeat_fraction}, "
            f"{unique_profiles} reusable profiles, {bids_per_bidder} bids/bidder"
        ),
    }
    outcomes = {}
    for label, fast in (("baseline", False), ("fast", True)):
        service = _service(registry, fast)
        start = time.perf_counter()
        results = service.run_trace(trace)
        wall = time.perf_counter() - start
        outcomes[label] = results
        snap = service.metrics_snapshot()
        entry[label] = {
            "requests": snap["requests_completed"],
            "wall_seconds": wall,
            "throughput_rps": snap["requests_completed"] / wall,
            "latency_p50_ms": snap["latency_seconds"]["p50"] * 1e3,
            "latency_p95_ms": snap["latency_seconds"]["p95"] * 1e3,
            "mechanism_cache_hit_rate": snap["caches"]["mechanisms"]["hit_rate"],
            "expected_welfare": float(
                sum(r.decomposition.expected_welfare() for r in results)
            ),
        }
    fast_r, base_r = outcomes["fast"], outcomes["baseline"]
    samples_identical = all(
        f.sampled_allocation == b.sampled_allocation
        for f, b in zip(fast_r, base_r)
    )
    payment_gap = float(
        max(
            np.abs(f.payments - b.payments).max()
            for f, b in zip(fast_r, base_r)
        )
    )
    marginals_identical = all(
        f.decomposition.target == b.decomposition.target
        for f, b in zip(fast_r, base_r)
    )
    assert samples_identical, "fast path sampled different allocations"
    assert marginals_identical, "fast path published different marginals"
    assert payment_gap < 1e-6, f"payments diverged by {payment_gap}"
    entry["samples_identical"] = samples_identical
    entry["marginals_identical"] = marginals_identical
    entry["max_payment_gap"] = payment_gap
    entry["speedup"] = (
        entry["fast"]["throughput_rps"] / entry["baseline"]["throughput_rps"]
    )
    return entry


def bench_n1000(n: int = 1000, k: int = 4, seed: int = 1700) -> dict:
    """One n=1000 truthful metro disk auction end to end on the fast path."""
    problem = metro_truthful_auction(n, k, seed=seed)
    mechanism = TruthfulMechanism(problem.structure, problem.k)
    start = time.perf_counter()
    outcome = mechanism.run(problem.valuations, seed=1)
    wall = time.perf_counter() - start
    mass = outcome.decomposition.pair_mass()
    mass_error = max(
        (abs(mass[p] - t) for p, t in outcome.decomposition.target.items()),
        default=0.0,
    )
    return {
        "workload": f"metro_truthful_auction(n={n}, k={k}), single fast-path run",
        "wall_seconds": wall,
        "n": n,
        "k": k,
        "lp_value": float(outcome.lp_value),
        "decomposition_iterations": outcome.decomposition.iterations,
        "pool_size": len(outcome.decomposition.allocations),
        "pair_mass_error": float(mass_error),
        "revenue": float(outcome.payments.sum()),
        "winners_sampled": len(outcome.sampled_allocation),
    }


def bench_decomposition_parity(n: int = 200, k: int = 4, seed: int = 1600) -> dict:
    """Direct approx-vs-reference decomposition comparison on one instance."""
    problem = metro_truthful_auction(n, k, seed=seed)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    timings = {}
    results = {}
    for mode in ("reference", "approx"):
        start = time.perf_counter()
        results[mode] = decompose_lp_solution(
            problem, solution, seed=7, pricing=mode
        )
        timings[mode] = time.perf_counter() - start
    ref, fast = results["reference"], results["approx"]
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    entry = {
        "workload": f"decompose x*/alpha, metro_truthful_auction(n={n}, k={k})",
        "iterations": ref.iterations,
        "pool_size": len(ref.allocations),
        "seconds_reference": timings["reference"],
        "seconds_approx": timings["approx"],
        "decompose_speedup": timings["reference"] / timings["approx"],
        "pool_identical": ref.allocations == fast.allocations,
        "weights_identical": bool(np.array_equal(ref.weights, fast.weights)),
        "keep_identical": ref.keep_probability == fast.keep_probability,
        "samples_identical": all(
            ref.sample(rng_a) == fast.sample(rng_b) for _ in range(100)
        ),
    }
    assert entry["pool_identical"] and entry["weights_identical"]
    assert entry["keep_identical"] and entry["samples_identical"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small repeat-heavy truthful trace only; exit nonzero below "
        f"{SMOKE_MIN_SPEEDUP}x",
    )
    args = parser.parse_args(argv)

    # warm imports/HiGHS on a throwaway scene so neither config pays cold-start
    bench_truthful_trace(
        60, num_requests=4, unique_profiles=2, scene_seed=19, trace_seed=19
    )

    if args.smoke:
        smoke = bench_truthful_trace(
            150, num_requests=10, unique_profiles=4, scene_seed=1400, trace_seed=52
        )
        ok = smoke["speedup"] >= SMOKE_MIN_SPEEDUP and smoke["samples_identical"]
        print(
            f"mechanism smoke n=150: {smoke['speedup']:.2f}x "
            f"(floor {SMOKE_MIN_SPEEDUP}x), samples identical -> "
            f"{'OK' if ok else 'FAIL'}"
        )
        return 0 if ok else 1

    trace = bench_truthful_trace(300)
    trace["stages"] = bench_stages(300)
    print(
        f"truthful trace n=300: {trace['speedup']:.2f}x "
        f"({trace['fast']['throughput_rps']:.2f} vs "
        f"{trace['baseline']['throughput_rps']:.2f} rps), "
        f"samples identical: {trace['samples_identical']}; per profile: "
        f"decompose {trace['stages']['decompose_ms']:.1f} ms, "
        f"vcg {trace['stages']['vcg_ms']:.1f} ms",
        flush=True,
    )
    parity = bench_decomposition_parity()
    print(
        f"decomposition parity n=200: approx {parity['decompose_speedup']:.1f}x "
        f"vs reference, bit-identical: {parity['pool_identical']}",
        flush=True,
    )
    n1000 = bench_n1000()
    print(
        f"truthful n=1000: {n1000['wall_seconds']:.2f}s "
        f"({n1000['decomposition_iterations']} pricing iterations, "
        f"pool {n1000['pool_size']})",
        flush=True,
    )
    vcg_n1000 = bench_vcg_n1000()
    print(
        f"VCG n=1000 k=6: {vcg_n1000['probes']} probes, "
        f"{vcg_n1000['vcg_ms_one_thread']:.0f} ms on one thread, "
        f"{vcg_n1000['vcg_ms_budget']:.0f} ms on {vcg_n1000['threads']} "
        f"({vcg_n1000['speedup']:.2f}x)",
        flush=True,
    )
    edge = bench_vcg_thread_edge()
    for label, point in edge["points"].items():
        print(
            f"VCG thread edge {label}: {point['probes']} probes, "
            f"{point['threads_at_budget']} thread(s) at the budget, "
            f"{point['threads_lifted']} threads {point['speedup']:.2f}x",
            flush=True,
        )
    smoke = bench_truthful_trace(
        150, num_requests=10, unique_profiles=4, scene_seed=1400, trace_seed=52
    )

    results = {
        "config": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "truthful_trace_n300": trace,
        "decomposition_parity": parity,
        "truthful_n1000": n1000,
        "vcg_n1000": vcg_n1000,
        "vcg_thread_edge": edge,
        "smoke_truthful_n150": smoke,
        "headline": {
            "criterion": (
                "fast truthful path >= 4x throughput of the reference "
                "(pre-fast-path) pipeline on a repeat-heavy truthful metro "
                "trace, with bit-identical decomposition marginals and "
                "sampled allocations for fixed seeds, and a truthful n=1000 "
                "disk auction in single-digit seconds"
            ),
            "trace_speedup": trace["speedup"],
            "samples_identical": trace["samples_identical"],
            "marginals_identical": trace["marginals_identical"],
            "n1000_seconds": n1000["wall_seconds"],
            "met": bool(
                trace["speedup"] >= HEADLINE_MIN_SPEEDUP
                and trace["samples_identical"]
                and trace["marginals_identical"]
                and n1000["wall_seconds"] < N1000_MAX_SECONDS
            ),
        },
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results["headline"], indent=2))
    print(f"wrote {OUTPUT}")
    return 0 if results["headline"]["met"] else 1


if __name__ == "__main__":
    sys.exit(main())
