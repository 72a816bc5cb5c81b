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
  column, so those rows stay exactly the ones every probe needs.  When
  the caller passes the ``CompiledAuction`` the LP was solved on
  (``compiled``), the model loads its cached matrices.

  The probes run in :func:`~repro.engine.highs.zeroed_cost_optima`, on
  :func:`~repro.engine.highs.probe_threads` threads with one resident
  model each: HiGHS releases the GIL while it solves, and since every
  probe restarts from the same base basis the payments are the same
  floats on one thread or many.  The budget is this process's share of
  the cores (a pool worker's cores divided by the pool's size), and a
  small auction (fewer than 24 probes, twice
  :data:`~repro.engine.highs.MIN_PROBES_PER_THREAD`) stays on one thread.
  :class:`FractionalVCG` records the probes run, the bidders screened
  and the threads used.

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

import operator
from dataclasses import dataclass

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution
from repro.engine.highs import zeroed_cost_optima

__all__ = ["FractionalVCG", "vcg_payments"]

VCG_METHODS = ("auto", "reference")


@dataclass
class FractionalVCG:
    payments: np.ndarray  # per bidder, already scaled by 1/α
    lp_value: float
    lp_without: np.ndarray  # LPopt with each bidder removed
    contributions: np.ndarray  # each bidder's share of the LP optimum
    probes: int  # "LP without v" solves run
    screened: int  # bidders the dual bound proved to pay 0, not probed
    threads: int  # threads the probes ran on (0 when none ran)


def _lp_value_without(problem: AuctionProblem, lp: AuctionLP, vertex: int) -> float:
    """LP optimum with ``vertex``'s columns removed (valuation zeroed)."""
    cols = [c for c in lp.columns if c.vertex != vertex]
    if not cols:
        return 0.0
    sub = AuctionLP(problem, columns=cols)
    return sub.solve().value


class _ProbeValues(dict):
    """"LP without v" optima by bidder, and the ``threads`` the probes ran
    on (0 when none ran)."""

    def __init__(self, values=(), threads: int = 0):
        super().__init__(values)
        self.threads = threads


def _warm_values_without(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    probe_vertices: list[int],
    compiled_structure=None,
    compiled=None,
) -> _ProbeValues:
    """All "LP without v" optima via cost-zeroing primal re-solves, each
    restarted from the full LP's optimal basis
    (:func:`~repro.engine.highs.zeroed_cost_optima`, on its thread
    budget).  ``compiled`` is used when it holds ``solution.columns``."""
    from repro.engine.compiled import CompiledAuction, compile_structure

    if not probe_vertices:  # everything screened: no model to build
        return _ProbeValues()
    if not _holds_columns(compiled, problem, solution):
        compiled = CompiledAuction(
            problem,
            structure=compiled_structure or compile_structure(problem.structure),
            columns=list(solution.columns),
        )
    a, b, c = compiled.matrices_csc()
    # column indices grouped by vertex (ascending within each group)
    verts = compiled.cols.vertex
    by_vertex = np.argsort(verts, kind="stable").astype(np.int32)
    offsets = np.zeros(problem.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(verts, minlength=problem.n), out=offsets[1:])
    groups = [by_vertex[offsets[v] : offsets[v + 1]] for v in probe_vertices]
    values, threads = zeroed_cost_optima(c, a, b, groups)
    return _ProbeValues(zip(probe_vertices, values.tolist()), threads)


def _holds_columns(compiled, problem: AuctionProblem, solution: AuctionLPSolution) -> bool:
    """Is ``compiled`` an engine compilation of ``problem`` whose columns
    are ``solution.columns`` (the same objects, in order)?"""
    if compiled is None or compiled.problem is not problem:
        return False
    columns = compiled.columns
    return len(columns) == len(solution.columns) and all(
        map(operator.is_, columns, solution.columns)
    )


def vcg_payments(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float,
    method: str = "auto",
    compiled_structure=None,
    compiled=None,
) -> FractionalVCG:
    """Compute scaled fractional VCG payments for every bidder.

    ``method="auto"`` runs the warm-started probe loop, ``"reference"``
    the per-bidder rebuild.  ``compiled_structure`` forwards an existing
    engine compilation to the warm path, and ``compiled`` the
    :class:`~repro.engine.compiled.CompiledAuction` the LP was solved on
    (``solution.columns`` are its columns), whose matrices the probe model
    then loads instead of assembling its own; any other ``compiled`` is
    ignored.
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
        threads = 1 if probes else 0
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
            compiled=compiled,
        )
        threads = values.threads

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
        probes=len(values),
        screened=len(screened),
        threads=threads,
    )
