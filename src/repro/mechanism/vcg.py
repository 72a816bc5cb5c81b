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

* ``method="auto"`` (the default) — one resident model
  (:class:`~repro.engine.highs.ResidentLP`), then warm re-solves.
  Removing bidder v's columns changes the optimal *value* exactly as
  zeroing their objective coefficients does (zero-cost columns never help
  and never hurt a packing LP), so each probe is ``set_costs(v's columns
  → 0)`` + a re-solve + a cost restore — instead of rebuilding an
  ``AuctionLP`` and cold-solving ``linprog`` per bidder.  The model always
  runs primal simplex: a cost-only change leaves the full LP's optimal
  basis primal feasible, so primal restarts from it, whatever the LP's
  size (no probe re-runs IPM).  The full LP is solved once and its basis
  saved; every probe restores that base basis first
  (:meth:`~repro.engine.highs.ResidentLP.restore`), so its value depends
  only on the model and the base basis — never on which probe ran before
  it — and every probe passes the resident model's certificate check.
  Optimal LP *values* are unique, so unlike a warm-started *vertex* this
  reuse is safe wherever payments are consumed; the floats can differ
  from the cold path only within solver tolerance.  The model holds only
  the rows that can bind for the full column set
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
  benchmark baseline and parity anchor.  Each rebuild solves through
  :meth:`AuctionLP.solve`, on the rows that can bind for its own column
  set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution
from repro.engine.highs import ResidentLP

__all__ = ["FractionalVCG", "vcg_payments"]

VCG_METHODS = ("auto", "reference")


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
) -> dict[int, float]:
    """All "LP without v" optima via cost-zeroing primal re-solves, each
    restarted from the full LP's optimal basis."""
    from repro.engine.compiled import CompiledAuction, compile_structure

    if not probe_vertices:  # everything screened: no model to build
        return {}
    compiled = CompiledAuction(
        problem,
        structure=compiled_structure or compile_structure(problem.structure),
        columns=list(solution.columns),
    )
    a, b, c = compiled.matrices_csc()
    m = a.shape[0]
    cost = -c  # HiGHS minimizes
    lp = ResidentLP("primal")
    lp.load(a, cost, np.full(m, -np.inf), b)
    lp.solve()  # the full LP's optimal basis, every probe's restart point
    base = lp.basis()

    # column indices grouped by vertex (ascending within each group)
    verts = compiled.cols.vertex
    by_vertex = np.argsort(verts, kind="stable").astype(np.int32)
    offsets = np.zeros(problem.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(verts, minlength=problem.n), out=offsets[1:])
    out: dict[int, float] = {}
    for v in probe_vertices:
        idx = by_vertex[offsets[v] : offsets[v + 1]]
        if idx.size == 0:
            out[v] = float(solution.value)
            continue
        lp.restore(base)
        lp.set_costs(idx, np.zeros(idx.size))
        out[v] = -lp.solve().objective
        lp.set_costs(idx, cost[idx])
    return out


def vcg_payments(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float,
    method: str = "auto",
    compiled_structure=None,
) -> FractionalVCG:
    """Compute scaled fractional VCG payments for every bidder.

    ``method="auto"`` runs the warm-started probe loop, ``"reference"``
    the per-bidder rebuild.  ``compiled_structure`` forwards an existing
    engine compilation to the warm path.
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

    if method == "reference":
        screened: set[int] = set()
        lp = AuctionLP(problem, columns=list(solution.columns))
        values = {v: _lp_value_without(problem, lp, v) for v in probes}
    else:
        # dual screening: externality ≤ contribution_v − z_v, so bidders at
        # or below zero provably pay nothing — skip the solve, record the
        # dual bound in lp_without
        screened = {
            v for v in probes if contributions[v] - float(solution.z[v]) <= 1e-9
        }
        values = _warm_values_without(
            problem,
            solution,
            [v for v in probes if v not in screened],
            compiled_structure=compiled_structure,
        )

    for v in probes:
        if v in screened:
            lp_without[v] = float(solution.value) - float(solution.z[v])
            payments[v] = 0.0  # provably zero: externality ≤ contribution − z_v
            continue
        lp_without[v] = values[v]
        externality = lp_without[v] - (solution.value - contributions[v])
        payments[v] = max(0.0, externality) / alpha
    return FractionalVCG(
        payments=payments,
        lp_value=solution.value,
        lp_without=lp_without,
        contributions=contributions,
    )
