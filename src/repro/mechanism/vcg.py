"""Scaled fractional VCG payments (Section 5 / Lavi–Swamy).

The allocation rule of the mechanism is "sample from the decomposition of
x*/α", whose expected bidder-v value is exactly ``v's LP share / α``.
Charging 1/α times the *fractional* VCG payments then makes the mechanism
truthful in expectation:

    pay_v = ( LPopt(without v) − (LPopt − v's LP contribution) ) / α.

Both terms are LP solves of the same relaxation, so payments inherit the
LP's polynomial solvability.  Payments are clipped at 0 from below (they
are provably ≥ 0 for packing problems; the clip only guards numerics) and
never exceed v's expected value (individual rationality), which tests
verify.

Two evaluation strategies for the n "LP without bidder v" terms:

* ``method="warm"`` (the default when the persistent HiGHS bindings are
  available) — one model load, then warm re-solves.  Removing bidder v's
  columns changes the optimal *value* exactly as zeroing their objective
  coefficients does (zero-cost columns never help and never hurt a packing
  LP), so each probe is ``changeColsCost(v's columns → 0)`` + a dual-
  simplex restart from the previous optimal basis + a cost restore —
  instead of rebuilding an ``AuctionLP`` and cold-solving ``linprog`` per
  bidder.  Optimal LP *values* are unique, so unlike warm-started
  *pricing* this reuse is safe wherever payments are consumed; the floats
  can differ from the cold path only within solver tolerance.  The model
  holds only the rows that can bind for the full column set
  (``CompiledAuction.matrices_csc``); zeroing a bidder's costs removes no
  column, so those rows stay exactly the ones every probe needs.

  Before probing, bidders are screened with the dual bound: dropping v
  keeps ``(y, z without z_v)`` feasible for the reduced dual, so
  ``LPopt(without v) ≤ LPopt − z_v`` and the externality is at most
  ``contribution_v − z_v`` — when that is ≤ 0 the payment is provably
  zero and the probe is skipped (typically a third of all bidders on the
  metro workloads).  ``lp_without`` records the dual upper bound for
  screened bidders.
* ``method="reference"`` — the seed-era per-bidder rebuild, kept as the
  benchmark baseline and binding-free fallback.  Each rebuild solves
  through :meth:`AuctionLP.solve`, on the rows that can bind for its own
  column set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution

__all__ = ["FractionalVCG", "vcg_payments"]

VCG_METHODS = ("auto", "warm", "reference")


@dataclass
class FractionalVCG:
    payments: np.ndarray  # per bidder, already scaled by 1/α
    lp_value: float
    lp_without: np.ndarray  # LPopt with each bidder removed
    contributions: np.ndarray  # each bidder's share of the LP optimum


def _lp_value_without(problem: AuctionProblem, lp: AuctionLP, vertex: int) -> float:
    """LP optimum with ``vertex``'s columns removed (valuation zeroed)."""
    cols = [c for c in lp.columns if c.vertex != vertex]
    if not cols:
        return 0.0
    sub = AuctionLP(problem, columns=cols)
    return sub.solve().value


def _warm_values_without(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    probe_vertices: list[int],
    compiled_structure=None,
) -> dict[int, float] | None:
    """All "LP without v" optima via cost-zeroing warm re-solves.

    Returns ``None`` when the persistent backend is unavailable (callers
    fall back to the reference per-bidder rebuild).
    """
    from repro.engine.compiled import CompiledAuction, compile_structure
    from repro.engine.highs import highs_core, new_highs_instance, pass_colwise_model

    core = highs_core()
    if core is None:  # pragma: no cover - binding-dependent
        return None
    if not probe_vertices:  # everything screened: no model to build
        return {}
    highs = new_highs_instance()
    compiled = CompiledAuction(
        problem,
        structure=compiled_structure or compile_structure(problem.structure),
        columns=list(solution.columns),
    )
    a, b, c = compiled.matrices_csc()
    m, ncol = a.shape
    cost = -c  # HiGHS minimizes
    pass_colwise_model(
        highs,
        a,
        cost,
        np.zeros(ncol),
        np.full(ncol, np.inf),
        np.full(m, -np.inf),
        b,
    )
    highs.run()  # establish the full-LP optimal basis once
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        raise RuntimeError("VCG base LP solve failed")

    verts = np.fromiter(
        (col.vertex for col in solution.columns), dtype=np.intp, count=ncol
    )
    out: dict[int, float] = {}
    for v in probe_vertices:
        idx = np.flatnonzero(verts == v).astype(np.int32)
        if idx.size == 0:
            out[v] = float(solution.value)
            continue
        highs.changeColsCost(idx.size, idx, np.zeros(idx.size))
        highs.run()
        status = highs.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            raise RuntimeError(
                f"VCG probe for bidder {v} failed: "
                f"{highs.modelStatusToString(status)}"
            )
        out[v] = float(-highs.getInfo().objective_function_value)
        highs.changeColsCost(idx.size, idx, cost[idx])
    return out


def vcg_payments(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float,
    method: str = "auto",
    compiled_structure=None,
) -> FractionalVCG:
    """Compute scaled fractional VCG payments for every bidder.

    ``method="auto"`` uses the warm-started probe loop when the persistent
    HiGHS backend is available and the reference rebuild otherwise;
    ``"warm"`` / ``"reference"`` force one path.  ``compiled_structure``
    forwards an existing engine compilation to the warm path.
    """
    if method not in VCG_METHODS:
        raise ValueError(f"method must be one of {VCG_METHODS}, got {method!r}")
    n = problem.n
    contributions = np.zeros(n)
    for col, x in solution.support():
        contributions[col.vertex] += col.value * x
    probes = [v for v in range(n) if contributions[v] > 0]
    lp_without = np.full(n, float(solution.value))
    payments = np.zeros(n)

    warm_values: dict[int, float] | None = None
    screened: set[int] = set()
    if method in ("auto", "warm"):
        # dual screening: externality ≤ contribution_v − z_v, so bidders at
        # or below zero provably pay nothing — skip the solve, record the
        # dual bound in lp_without
        screened = {
            v for v in probes if contributions[v] - float(solution.z[v]) <= 1e-9
        }
        to_probe = [v for v in probes if v not in screened]
        warm_values = _warm_values_without(
            problem, solution, to_probe, compiled_structure=compiled_structure
        )
        if warm_values is None and method == "warm":  # pragma: no cover
            raise RuntimeError(
                "persistent HiGHS backend unavailable; use method='reference'"
            )
    if warm_values is None:
        screened = set()
        lp = AuctionLP(problem, columns=list(solution.columns))
        warm_values = {v: _lp_value_without(problem, lp, v) for v in probes}

    for v in probes:
        if v in screened:
            lp_without[v] = float(solution.value) - float(solution.z[v])
            payments[v] = 0.0  # provably zero: externality ≤ contribution − z_v
            continue
        lp_without[v] = warm_values[v]
        externality = lp_without[v] - (solution.value - contributions[v])
        payments[v] = max(0.0, externality) / alpha
    return FractionalVCG(
        payments=payments,
        lp_value=solution.value,
        lp_without=lp_without,
        contributions=contributions,
    )
