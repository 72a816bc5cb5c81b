"""LP solver-policy grid — writes BENCH_lp.json.

Times every backend mode of :func:`repro.engine.highs.solve_packing_lp_fast`
(``simplex`` = HiGHS's default dual simplex, the seed-parity path;
``primal`` = primal simplex; ``ipm`` = interior point + crossover) on the
LP (1)/(4) of metro disk-model auctions (k=6, 4 bids per bidder) over a
grid of n, and records what the ``solver="auto"`` policy
(:func:`repro.engine.highs.choose_solver`) picks at each point.  The band
edges in ``engine/highs.py`` are read off this grid.

Per grid point the modes run interleaved (one solve of each mode per
repeat, so drift on a shared box hits every mode alike) and each mode's
median wall time is recorded, along with the LP's rows, columns and nnz
and each mode's objective — all modes must agree to 1e-9 relative.  Dual
simplex is skipped from n=2000 up (22 s at n=5000).

``policy_n1000`` is the self-normalizing figure the CI gate
(``check_regression.py``) re-measures: fastest median over the chosen
mode's median at n=1000, so 1.0 means the policy picked the fastest mode.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_lp_policy.py             # ~1 min
    PYTHONPATH=src python benchmarks/bench_lp_policy.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np
import scipy

from repro.engine.compiled import CompiledAuction
from repro.engine.highs import (
    IPM_MIN_ROWS,
    PRIMAL_MAX_ROWS,
    SOLVER_MODES,
    choose_solver,
    fast_backend_available,
    solve_packing_lp_fast,
)
from repro.experiments.workloads import metro_disk_auction

OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_lp.json"

GRID = (300, 500, 1000, 2000, 2500, 3000, 5000)  # 2500: below the upper edge
DUAL_MAX_N = 1000  # dual simplex is skipped above this n
K = 6
SCENE_SEED = 42
POLICY_N = 1000
OBJECTIVE_RTOL = 1e-9


def measure_point(n: int, repeats: int = 3, seed: int = SCENE_SEED) -> dict:
    """Median solve time per mode on one metro LP, modes interleaved."""
    a, b, c = CompiledAuction(metro_disk_auction(n, K, seed=seed))._build_csc()
    rows, cols = a.shape
    modes = [m for m in SOLVER_MODES if m != "simplex" or n <= DUAL_MAX_N]
    seconds: dict[str, list[float]] = {mode: [] for mode in modes}
    objective: dict[str, float] = {}
    for _ in range(repeats):
        for mode in modes:
            t0 = time.perf_counter()
            solution = solve_packing_lp_fast(c, a, b, solver=mode)
            seconds[mode].append(time.perf_counter() - t0)
            objective[mode] = solution.value
    median_ms = {mode: 1e3 * statistics.median(t) for mode, t in seconds.items()}
    reference = objective[modes[0]]
    rel_diff = max(
        abs(value - reference) / max(1.0, abs(reference)) for value in objective.values()
    )
    if rel_diff > OBJECTIVE_RTOL:
        raise AssertionError(f"n={n}: modes disagree on the LP optimum: {objective}")
    chosen = choose_solver(rows, cols)
    fastest = min(median_ms, key=median_ms.__getitem__)
    return {
        "n": n,
        "rows": rows,
        "cols": cols,
        "nnz": int(a.nnz),
        "median_ms": median_ms,
        "objective": objective,
        "objective_max_rel_diff": rel_diff,
        "chosen": chosen,
        "fastest": fastest,
    }


def policy_entry(point: dict) -> dict:
    """How close the policy's pick at one grid point is to the fastest mode."""
    chosen, fastest = point["chosen"], point["fastest"]
    return {
        "n": point["n"],
        "chosen": chosen,
        "fastest": fastest,
        "fastest_over_chosen": point["median_ms"][fastest] / point["median_ms"][chosen],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="solves per mode (median)")
    args = parser.parse_args(argv)
    if not fast_backend_available():
        print("persistent HiGHS backend unavailable: nothing to measure")
        return 1

    grid = []
    for n in GRID:
        point = measure_point(n, repeats=max(1, args.repeats))
        grid.append(point)
        times = ", ".join(f"{m} {ms:.0f}ms" for m, ms in point["median_ms"].items())
        print(
            f"n={n} ({point['rows']} rows, {point['nnz']} nnz): {times}; "
            f"auto -> {point['chosen']}, fastest {point['fastest']}",
            flush=True,
        )
    policy = policy_entry(next(p for p in grid if p["n"] == POLICY_N))
    results = {
        "config": {
            "workload": f"metro disk auction, k={K}, 4 bids per bidder, seed {SCENE_SEED}",
            "repeats": max(1, args.repeats),
            "highs_threads": 1,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "band_edges": {"IPM_MIN_ROWS": IPM_MIN_ROWS, "PRIMAL_MAX_ROWS": PRIMAL_MAX_ROWS},
        "grid": grid,
        "policy_n1000": policy,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(policy, indent=2))
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
