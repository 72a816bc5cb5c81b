"""LP solver-policy grid — writes BENCH_lp.json.

Times every backend mode of :func:`repro.engine.highs.solve_packing_lp_fast`
(``simplex`` = HiGHS's default dual simplex, the seed-parity path;
``primal`` = primal simplex from the greedy basis, row-generated from
``ROWGEN_MIN_ROWS`` kept rows up; ``ipm`` = interior point + crossover) as
the backend runs it, on the LP (1)/(4) of
metro disk-model auctions (k=6, 4 bids per bidder) over a grid of n, and
records what the ``solver="auto"`` policy
(:func:`repro.engine.highs.choose_solver`) picks at each point.  Dual
simplex and IPM are timed as a cold
:class:`~repro.engine.highs.ResidentLP` load + solve, with HiGHS presolve
on and off.  Primal runs both of the engine's paths at every point: row
generation through ``solve_packing_lp_fast`` itself, with its edge set to
0 for the call (``primal_row_generated_ms``: solve on the seed rows, add
the rows the solution breaks, re-solve with dual simplex, until every row
holds; its seed rows, final rows and rounds are in ``row_generation``),
and the full-row primal model (``primal_full_rows_ms``: a ``ResidentLP``
load + solve from the greedy basis on every kept row, the VCG probe
model's cold solve).  ``median_ms["primal"]`` is the one the engine runs
at that size (``primal_path``), and ``primal_rows`` the rows its model
ends on.  One raw primal instance from HiGHS's own all-slack basis
(``primal_slack_ms``) is the reference for the greedy start;
``primal_iterations`` holds the simplex iterations of all three.  The LP
is the one every solve runs: the rows that can bind
(``CompiledAuction.matrices_csc``).  Both edges in ``engine/highs.py``
(``PRIMAL_MIN_ROWS``, ``ROWGEN_MIN_ROWS``) are in those kept rows and are
read off this grid, as is whether a mode runs with presolve off (only if
"off" is no slower at every point).  A
metro protocol-model family at n ∈ {300, 1000} and a fixed-power
physical-model (weighted) family at n ∈ {100, 200} are recorded beside
it, to show whether the edge and the row generation carry over off the
disk model.

Per grid point the variants run interleaved (one solve of each per
repeat, so drift on a shared box hits every variant alike) and each
variant's median wall time is recorded, on one model per variant.  The
full and the kept LP's rows and nnz are recorded too.  ``median_ms``
holds each mode as the backend runs it.  Every variant's objective, and
the full LP's (solved once), must agree to 1e-9 relative.  Dual simplex
is skipped from n=2000 up.

``policy_n1000`` is what the CI gate (``check_regression.py``)
re-measures at n=1000: the fastest median over the chosen mode's, so 1.0
means the policy picked the fastest mode; the kept-row count, which the
gate pins exactly (losing the row pruning fails CI); the greedy start's
primal iterations over the slack start's, a ratio of deterministic
counts that the gate pins too (losing the start fails CI); and the rows
the engine's primal model ends on over the kept rows, also deterministic
and pinned (a seed rule or loop that loads many more rows, or an edge
that stops row generation at n=1000, fails CI).

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_lp_policy.py             # ~3 min
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

from repro.engine import highs
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import (
    PRIMAL_MIN_ROWS,
    ROWGEN_MIN_ROWS,
    SOLVER_MODES,
    ResidentLP,
    choose_solver,
    fast_backend_available,
    highs_core,
    new_highs_instance,
    pass_colwise_model,
    solve_packing_lp_fast,
    warm_start_stats,
)
from repro.experiments.workloads import (
    metro_disk_auction,
    metro_protocol_auction,
    physical_auction,
)

OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_lp.json"

GRID = (300, 400, 500, 1000, 2000, 2500, 3000, 4000, 5000)
PROTOCOL_GRID = (300, 1000)
PHYSICAL_GRID = (100, 200)  # at n=300 the physical structure build hit its B&B node limit
FAMILIES = {
    "metro_disk": metro_disk_auction,
    "metro_protocol": metro_protocol_auction,
    "physical": physical_auction,
}
DUAL_MAX_N = 1000  # dual simplex is skipped above this n
K = 6
SCENE_SEED = 42
POLICY_N = 1000
OBJECTIVE_RTOL = 1e-9
PRESOLVE = ("on", "off")


def backend_presolve(mode: str) -> str:
    """The presolve setting the backend runs ``mode`` with: ``"n/a"`` for
    primal, whose models start from the greedy basis (HiGHS skips presolve
    once a basis is set)."""
    if mode == "primal":
        return "n/a"
    _status, value = new_highs_instance(mode).getOptionValue("presolve")
    return "off" if value == "off" else "on"


def presolve_settings(mode: str) -> tuple[str, ...]:
    """The presolve settings timed for a ``ResidentLP`` in ``mode`` (one
    for primal, where the axis does not apply)."""
    return ("on",) if mode == "primal" else PRESOLVE


def variant_model(mode: str, presolve: str) -> ResidentLP:
    """A backend model for ``mode``: as the backend configures it for
    ``"on"`` (HiGHS's default, presolve runs), with presolve off for
    ``"off"``."""
    lp = ResidentLP(mode)
    if presolve == "off":
        lp._highs.setOptionValue("presolve", "off")  # the grid's one extra knob
    return lp


def timed_solve(lp: ResidentLP, a, b, c) -> tuple[float, float, int]:
    """Seconds for one cold load + solve of ``max c·x, a x ≤ b`` through
    the backend's model (greedy start included for primal), the optimum,
    and the simplex iterations."""
    row_lower = np.full(a.shape[0], -np.inf)
    t0 = time.perf_counter()
    lp.load(a, -c, row_lower, b)
    report = lp.solve()
    return time.perf_counter() - t0, -report.objective, report.simplex_iterations


def timed_row_generated_solve(a, b, c) -> tuple[float, float, dict, int]:
    """:func:`timed_solve` for the engine's row-generated primal path,
    ``solve_packing_lp_fast(..., solver="primal")`` (cold, no warm key)
    with ``ROWGEN_MIN_ROWS`` set to 0 for the call, so it row-generates at
    any size; with its counters' change (simplex iterations, rounds, rows
    added) and the rows its model ends on."""
    edge = highs.ROWGEN_MIN_ROWS
    highs.ROWGEN_MIN_ROWS = 0
    try:
        before = warm_start_stats()
        t0 = time.perf_counter()
        value = solve_packing_lp_fast(c, a, b, solver="primal").value
        seconds = time.perf_counter() - t0
        after = warm_start_stats()
    finally:
        highs.ROWGEN_MIN_ROWS = edge
    final_rows = int(highs._thread_model("primal").rows.size)
    return seconds, value, {key: after[key] - before[key] for key in after}, final_rows


def timed_slack_solve(highs, a, b, c) -> tuple[float, float, int]:
    """:func:`timed_solve` for a raw primal instance started, as HiGHS
    starts it, from the all-slack basis: the reference the greedy start
    is measured against."""
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
    info = highs.getInfo()
    return seconds, -info.objective_function_value, info.simplex_iteration_count


def measure_point(
    n: int, repeats: int = 3, seed: int = SCENE_SEED, family: str = "metro_disk"
) -> dict:
    """Median solve time per mode (and presolve setting) on one LP, plus the
    full-row primal model and the all-slack primal reference, interleaved."""
    compiled = CompiledAuction(FAMILIES[family](n, K, seed=seed))
    a, b, c = compiled.matrices_csc()
    a_full, b_full, _ = compiled.build()
    rows, cols = a.shape
    modes = [m for m in SOLVER_MODES if m != "simplex" or n <= DUAL_MAX_N]
    # the ResidentLP variants: dual simplex and IPM per presolve setting,
    # and the full-row primal model
    variants = [(mode, p) for mode in modes for p in presolve_settings(mode)]
    models = {variant: variant_model(*variant) for variant in variants}
    slack = new_highs_instance("primal")
    seconds: dict[tuple[str, str], list[float]] = {variant: [] for variant in variants}
    rowgen_seconds: list[float] = []
    slack_seconds: list[float] = []
    objective: dict[str, float] = {}
    iterations: dict[str, int] = {}
    for _ in range(repeats):
        for mode, presolve in variants:
            dt, value, its = timed_solve(models[mode, presolve], a, b, c)
            seconds[mode, presolve].append(dt)
            objective[f"{mode}/presolve-{presolve}"] = value
            if mode == "primal":
                iterations["greedy"] = its
        dt, value, counters, final_rows = timed_row_generated_solve(a, b, c)
        rowgen_seconds.append(dt)
        objective["primal_row_generated"] = value
        iterations["row_generated"] = counters["simplex_iterations"]
        dt, value, its = timed_slack_solve(slack, a, b, c)
        slack_seconds.append(dt)
        objective["primal_slack"] = value
        iterations["slack"] = its
    full_value = solve_packing_lp_fast(c, a_full, b_full).value
    ms = {variant: 1e3 * statistics.median(t) for variant, t in seconds.items()}
    presolve_ms = {
        mode: {p: ms[mode, p] for p in PRESOLVE} for mode in modes if mode != "primal"
    }
    median_ms = {mode: ms[mode, "on"] for mode in modes}
    rowgen_ms = 1e3 * statistics.median(rowgen_seconds)
    row_generated = rows >= ROWGEN_MIN_ROWS
    median_ms["primal"] = rowgen_ms if row_generated else ms["primal", "on"]  # the engine's
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
        "primal_path": "row_generated" if row_generated else "full_rows",
        "primal_rows": final_rows if row_generated else rows,
        "primal_row_generated_ms": rowgen_ms,
        "primal_full_rows_ms": ms["primal", "on"],
        "primal_slack_ms": 1e3 * statistics.median(slack_seconds),
        "primal_iterations": iterations,
        "row_generation": {
            "seed_rows": final_rows - counters["rows_added"],
            "final_rows": final_rows,
            "rounds": counters["row_rounds"],
            "rows_added": counters["rows_added"],
        },
        "objective": objective,
        "full_objective": full_value,
        "objective_max_rel_diff": rel_diff,
        "chosen": chosen,
        "fastest": fastest,
    }


def policy_entry(point: dict) -> dict:
    """How close the policy's pick at one grid point is to the fastest
    mode, how many primal iterations the greedy start leaves of the
    all-slack start's, how many of the kept rows the engine's primal model
    ends on, and how much faster row generation is there than the full-row
    primal model."""
    chosen, fastest = point["chosen"], point["fastest"]
    its = point["primal_iterations"]
    rowgen = point["row_generation"]
    return {
        "n": point["n"],
        "chosen": chosen,
        "fastest": fastest,
        "fastest_over_chosen": point["median_ms"][fastest] / point["median_ms"][chosen],
        "greedy_iteration_ratio": its["greedy"] / its["slack"],
        "rowgen_row_ratio": point["primal_rows"] / point["rows"],
        "rowgen_rounds": rowgen["rounds"],
        "rowgen_speedup": point["primal_full_rows_ms"] / point["primal_row_generated_ms"],
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
    points = (
        [("metro_disk", n) for n in GRID]
        + [("metro_protocol", n) for n in PROTOCOL_GRID]
        + [("physical", n) for n in PHYSICAL_GRID]
    )
    for family, n in points:
        point = measure_point(n, repeats=max(1, args.repeats), family=family)
        grid.append(point)
        times = ", ".join(
            f"{m} {ms['on']:.0f}/{ms['off']:.0f}ms" for m, ms in point["presolve_ms"].items()
        )
        its = point["primal_iterations"]
        rowgen = point["row_generation"]
        print(
            f"{family} n={n} ({point['full_rows']} -> {point['rows']} rows, "
            f"{point['nnz']} nnz): presolve on/off {times}; row-generated primal "
            f"{point['primal_row_generated_ms']:.0f}ms/{its['row_generated']} it on "
            f"{rowgen['seed_rows']} -> {rowgen['final_rows']} rows in "
            f"{rowgen['rounds']} rounds (full rows {point['primal_full_rows_ms']:.0f}ms/"
            f"{its['greedy']} it, slack start {point['primal_slack_ms']:.0f}ms/"
            f"{its['slack']} it); auto -> {point['chosen']} "
            f"({point['primal_path']} primal), fastest {point['fastest']}",
            flush=True,
        )
    policy = policy_entry(
        next(p for p in grid if p["family"] == "metro_disk" and p["n"] == POLICY_N)
    )
    results = {
        "config": {
            "workload": (
                f"metro disk, metro protocol and physical-model auctions, k={K}, "
                f"4 bids per bidder, seed {SCENE_SEED}; LP on the rows that can bind"
            ),
            "repeats": max(1, args.repeats),
            "highs_threads": 1,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "band_edges": {"PRIMAL_MIN_ROWS": PRIMAL_MIN_ROWS, "ROWGEN_MIN_ROWS": ROWGEN_MIN_ROWS},
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
