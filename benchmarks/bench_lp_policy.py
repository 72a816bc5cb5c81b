"""LP solver-policy grid — writes BENCH_lp.json.

Times every backend mode of :func:`repro.engine.highs.solve_packing_lp_fast`
(``simplex`` = HiGHS's default dual simplex, the seed-parity path;
``primal`` = primal simplex; ``ipm`` = interior point + crossover), each
with HiGHS presolve on and off, on the LP (1)/(4) of metro disk-model
auctions (k=6, 4 bids per bidder) over a grid of n, and records what the
``solver="auto"`` policy (:func:`repro.engine.highs.choose_solver`) picks
at each point.  The LP is the one every solve runs: the rows that can
bind (``CompiledAuction.matrices_csc``).  The band edges in
``engine/highs.py`` are in those kept rows and are read off this grid,
as is whether a mode runs with presolve off (only if "off" is no slower
at every point of the mode's band).  A metro protocol-model family at
n ∈ {300, 1000} is recorded beside it, to show whether the edges carry
over off the disk model.

Per grid point the mode/presolve variants run interleaved (one solve of
each per repeat, so drift on a shared box hits every variant alike) and
each variant's median wall time is recorded: a cold model load + run on
one instance per variant, configured as the backend configures that mode
(the shape of the backend's cold path).  The full and the kept LP's rows
and nnz are recorded too.  ``median_ms`` holds each mode under the
presolve setting the backend uses.  Every variant's objective, and the
full LP's (solved once), must agree to 1e-9 relative.  Dual simplex is
skipped from n=2000 up.

``policy_n1000`` is the self-normalizing figure the CI gate
(``check_regression.py``) re-measures: fastest median over the chosen
mode's median at n=1000, so 1.0 means the policy picked the fastest mode.
It also carries the kept-row count of that LP, which the gate pins
exactly: losing the row pruning fails CI.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_lp_policy.py             # ~5 min
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
    highs_core,
    new_highs_instance,
    pass_colwise_model,
    solve_packing_lp_fast,
)
from repro.experiments.workloads import metro_disk_auction, metro_protocol_auction

OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_lp.json"

GRID = (300, 400, 500, 1000, 2000, 2500, 3000, 4000, 5000)
PROTOCOL_GRID = (300, 1000)
FAMILIES = {"metro_disk": metro_disk_auction, "metro_protocol": metro_protocol_auction}
DUAL_MAX_N = 1000  # dual simplex is skipped above this n
K = 6
SCENE_SEED = 42
POLICY_N = 1000
OBJECTIVE_RTOL = 1e-9
PRESOLVE = ("on", "off")


def backend_presolve(mode: str) -> str:
    """The presolve setting the backend runs ``mode`` with."""
    _status, value = new_highs_instance(mode).getOptionValue("presolve")
    return "off" if value == "off" else "on"


def variant_instance(mode: str, presolve: str):
    """A ``Highs`` instance configured as the backend configures ``mode``,
    with ``presolve`` forced."""
    highs = new_highs_instance(mode)
    highs.setOptionValue("presolve", presolve)
    return highs


def timed_solve(highs, a, b, c) -> tuple[float, float]:
    """Seconds for one cold model load + run of ``max c·x, a x ≤ b`` on
    ``highs`` (as the backend's cold path does), and the optimum."""
    core = highs_core()
    m, ncol = a.shape
    zeros, inf, neginf = np.zeros(ncol), np.full(ncol, np.inf), np.full(m, -np.inf)
    t0 = time.perf_counter()
    pass_colwise_model(highs, a, -c, zeros, inf, neginf, b)
    highs.run()
    seconds = time.perf_counter() - t0
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise AssertionError(f"LP solve failed: {highs.modelStatusToString(status)}")
    return seconds, -highs.getInfo().objective_function_value


def measure_point(
    n: int, repeats: int = 3, seed: int = SCENE_SEED, family: str = "metro_disk"
) -> dict:
    """Median solve time per mode and presolve setting on one LP, interleaved."""
    compiled = CompiledAuction(FAMILIES[family](n, K, seed=seed))
    a, b, c = compiled.matrices_csc()
    a_full, b_full, _ = compiled.build()
    rows, cols = a.shape
    modes = [m for m in SOLVER_MODES if m != "simplex" or n <= DUAL_MAX_N]
    seconds: dict[str, dict[str, list[float]]] = {
        mode: {p: [] for p in PRESOLVE} for mode in modes
    }
    instances = {(mode, p): variant_instance(mode, p) for mode in modes for p in PRESOLVE}
    objective: dict[str, float] = {}
    for _ in range(repeats):
        for mode in modes:
            for presolve in PRESOLVE:
                dt, value = timed_solve(instances[mode, presolve], a, b, c)
                seconds[mode][presolve].append(dt)
                objective[f"{mode}/presolve-{presolve}"] = value
    full_value = solve_packing_lp_fast(c, a_full, b_full).value
    presolve_ms = {
        mode: {p: 1e3 * statistics.median(t) for p, t in by.items()}
        for mode, by in seconds.items()
    }
    median_ms = {mode: presolve_ms[mode][backend_presolve(mode)] for mode in modes}
    rel_diff = max(
        abs(value - full_value) / max(1.0, abs(full_value)) for value in objective.values()
    )
    if rel_diff > OBJECTIVE_RTOL:
        raise AssertionError(
            f"{family} n={n}: pruned optima {objective} differ from the full LP's {full_value}"
        )
    chosen = choose_solver(rows, cols)
    fastest = min(median_ms, key=median_ms.__getitem__)
    return {
        "family": family,
        "n": n,
        "full_rows": int(a_full.shape[0]),
        "full_nnz": int(a_full.nnz),
        "rows": rows,
        "cols": cols,
        "nnz": int(a.nnz),
        "median_ms": median_ms,
        "presolve_ms": presolve_ms,
        "objective": objective,
        "full_objective": full_value,
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
        "kept_rows": point["rows"],
        "full_rows": point["full_rows"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="solves per mode (median)")
    args = parser.parse_args(argv)
    if not fast_backend_available():
        print("persistent HiGHS backend unavailable: nothing to measure")
        return 1

    grid = []
    points = [("metro_disk", n) for n in GRID] + [("metro_protocol", n) for n in PROTOCOL_GRID]
    for family, n in points:
        point = measure_point(n, repeats=max(1, args.repeats), family=family)
        grid.append(point)
        times = ", ".join(
            f"{m} {ms['on']:.0f}/{ms['off']:.0f}ms" for m, ms in point["presolve_ms"].items()
        )
        print(
            f"{family} n={n} ({point['full_rows']} -> {point['rows']} rows, "
            f"{point['nnz']} nnz): presolve on/off {times}; "
            f"auto -> {point['chosen']}, fastest {point['fastest']}",
            flush=True,
        )
    policy = policy_entry(
        next(p for p in grid if p["family"] == "metro_disk" and p["n"] == POLICY_N)
    )
    results = {
        "config": {
            "workload": (
                f"metro disk (and protocol) auctions, k={K}, 4 bids per bidder, "
                f"seed {SCENE_SEED}; LP on the rows that can bind"
            ),
            "repeats": max(1, args.repeats),
            "highs_threads": 1,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "band_edges": {"IPM_MIN_ROWS": IPM_MIN_ROWS, "PRIMAL_MAX_ROWS": PRIMAL_MAX_ROWS},
        "backend_presolve": {mode: backend_presolve(mode) for mode in SOLVER_MODES},
        "grid": grid,
        "policy_n1000": policy,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(policy, indent=2))
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
