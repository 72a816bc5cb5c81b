"""Persistent HiGHS backend: :class:`ResidentLP` and the engine's solver.

``scipy.optimize.linprog`` rebuilds a ``Highs`` object, re-parses every
option string, and re-validates the model on each call — for the small LPs
of a single auction that overhead is larger than the solve itself.  This
module owns every HiGHS model in the package through one class,
:class:`ResidentLP`: one ``Highs`` instance with one parsed options object
and the model loaded into it, its costs mutated in place (``set_costs``)
and re-solved from the previous basis or a saved one (``basis`` /
``restore``).  Its consumers are the engine's packing solver below and
the VCG probe models (:func:`zeroed_cost_optima`).  No other module
touches the bindings (reprolint's ``highs-owner`` rule).

Every :meth:`ResidentLP.solve` raises on a non-optimal status and checks
HiGHS's own certificate — max primal and dual infeasibility within
:data:`MAX_INFEASIBILITY` and a valid basis — except on a *cold* dual-
simplex solve: that is the seed's ``linprog`` path, whose primal/dual
solutions the equivalence tests pin bit for bit against
:func:`repro.core.lp.solve_packing_lp`.

A ``"primal"`` model is always a packing LP (``a ≥ 0``, ``a x ≤ b``,
``b ≥ 0``), so every feasible integral allocation is a primal-feasible
point of it.  Its cold solve therefore starts from the basis of one such
allocation, :func:`greedy_start` (the Lehmann–O'Callaghan–Shoham greedy,
triangular and so nonsingular by construction), instead of HiGHS's
all-slack basis: on the metro n=1000 LP that halves the primal simplex
iterations.  A set basis also makes HiGHS skip presolve.

:func:`solve_packing_lp_fast` keeps one resident model per thread and per
solver mode.  Which HiGHS algorithm runs is the ``solver="auto"`` policy
(:func:`choose_solver`), measured on metro LPs in BENCH_lp.json: the
seed's dual simplex below :data:`PRIMAL_MIN_ROWS` rows (bit-identical to
the seed), primal simplex from there up; IPM with crossover stays an
explicit mode.  The row count is that of the LP as solved: callers pass
the rows that can bind (``CompiledAuction.matrices_csc``).

Its ``"primal"`` mode is **row-generated** from :data:`ROWGEN_MIN_ROWS`
rows up — the dual of the column generation in
:mod:`repro.core.column_generation`.  Most rows are slack at the optimum
(about 1,400 of the 3,874 kept rows of an n=1000 metro LP are tight), so
the model is first loaded on its seed rows only: the rows the greedy
allocation leaves with no room, and every set-packing row (LP (1)'s
one-bundle-per-bidder rows).  Both come from ``(c, a, b)`` alone, so
every caller of the same LP runs the same path.  The greedy's basis is a
basis of those rows, and primal simplex starts from it.  Then one sparse
matvec checks every row; the rows the solution breaks are added
(:meth:`ResidentLP.add_rows`) and the model re-solved with dual simplex,
whose basis stays dual feasible, until no row breaks.  The result is a
proof, not a heuristic: ``x`` meets every row within
:data:`MAX_INFEASIBILITY`, and HiGHS certifies the loaded rows' duals,
which (with 0 on every other row) are dual feasible for the whole LP — so
``x`` is optimal for it.  The duals returned are full length, 0 on the
rows never added.  On the n=1000 metro LP the model ends on ~46% of the
kept rows after 3–4 rounds (BENCH_lp.json).  Each round costs a fixed few
milliseconds, so below the edge the primal model loads every row, as the
VCG probe model (``ResidentLP("primal")`` loaded on every kept row) does
at every size.

On top of the persistent models sits an opt-in **warm-start** path for
re-solve sequences (``warm_key``): when consecutive solves under the same
key share the constraint matrix and RHS — auctions compiled on one
:class:`~repro.engine.compiled.CompiledStructure` with unchanged bundle
patterns, e.g. re-auctions with updated bids or mechanism misreport probes
— only the objective of the resident model is mutated and HiGHS re-solves
from the previous optimal basis (a row-generated model keeps the rows it
has gained, and runs the same loop).  That skips model ingestion, presolve,
and most simplex iterations (2–3x on the BENCH_engine re-auction trace).
Warm solves return *an* optimal solution with the same objective value,
but on degenerate LPs possibly a different vertex than a cold solve —
which is why the path is opt-in (``BatchAuctionEngine(lp_warm_start=True)``)
and never used where bit-parity with the seed pipeline is pinned.

:func:`zeroed_cost_optima` runs the VCG probes: one base solve, then one
optimum per column group with that group's costs zeroed, each restarted
from the base basis.  HiGHS's ``run()`` releases the GIL, so the probes
fan out over a ``ThreadPoolExecutor`` (the one executor in the package
outside the service's process pool; reprolint's ``pool-owner`` rule),
one resident model per thread, on :func:`probe_threads` threads: this
solver's share of the cores (:func:`core_share`), where each lane of a
pool worker records the pool's ``num_workers × lanes`` at spawn in its
thread's backend state (:func:`set_solver_processes`).
A probe's value depends only on the model and the base basis, so the
values are the same floats on any number of threads.

The backend relies on the private ``scipy.optimize._highspy`` bindings
that scipy's own ``linprog(method="highs")`` is built on.  When the import
fails (future scipy reshuffles), :func:`solve_packing_lp_fast` falls back
to :func:`repro.core.lp.solve_packing_lp` — slower, never wrong — and
constructing a :class:`ResidentLP` raises.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Hashable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.lp import LPSolution, solve_packing_lp
from repro.util.mp import register_fork_reset

__all__ = [
    "ResidentLP",
    "SolveReport",
    "greedy_start",
    "solve_packing_lp_fast",
    "fast_backend_available",
    "warm_start_stats",
    "reset_backend",
    "release_models",
    "choose_solver",
    "highs_core",
    "new_highs_instance",
    "PRIMAL_MIN_ROWS",
    "ROWGEN_MIN_ROWS",
    "SOLVER_MODES",
    "LP_COUNTERS",
    "MIN_PROBES_PER_THREAD",
    "core_share",
    "probe_threads",
    "set_solver_processes",
    "zeroed_cost_optima",
]

# The backend's solver modes.  "simplex" runs HiGHS's default options (dual
# simplex) — the seed pipeline's linprog path, bit for bit; "primal" forces
# primal simplex; "ipm" runs interior point with crossover.  All three
# return an optimal *basic* solution.
SOLVER_MODES = ("simplex", "primal", "ipm")

# The "auto" policy's one band edge, in the rows an LP is solved with —
# the rows that can bind (CompiledAuction.matrices_csc; a metro k=6 LP
# keeps about half of its 7n rows) — read off BENCH_lp.json
# (benchmarks/bench_lp_policy.py).  Below PRIMAL_MIN_ROWS every LP keeps
# the seed-parity dual simplex, although primal is faster there too; the
# edge sits between n=300 (1106 rows) and n=400 (1562 rows), where the
# earlier rules left the parity band.  From there up primal simplex from
# the greedy basis beats IPM at every grid point, to n=5000 (20k rows), so
# no size picks IPM.
# Dual simplex and IPM run with HiGHS presolve on (the grid also times
# "off", which was not faster at every point); primal skips presolve, as
# HiGHS does for any model with a basis set (DESIGN.md, LP policy).
PRIMAL_MIN_ROWS = 1500

# The primal mode's row-generation edge, in the same kept rows, read off
# BENCH_lp.json's primal_row_generated_ms against primal_full_rows_ms:
# below it the model loads every row, from it up only the seed rows.  The
# rounds' fixed cost (add_rows and a dual re-solve, ~5-10 ms each) made
# row generation slower than the full-row model at n=400 (1562 rows) and
# faster from n=500 (1837 rows) up; the edge sits between them.
ROWGEN_MIN_ROWS = 1700

# zeroed_cost_optima gives each thread at least this many probes: below it
# a thread's own model load and start cost about what the probes it takes
# over save, so a small auction's probes stay on one thread.  Two threads
# against one on metro k=4 truthful LPs (2 vCPUs, median of 15): 0.62x at
# 9 probes, 0.97-1.10x at 19-23, 1.05-1.29x at 26-29, 1.08-1.39x at 31-37,
# 1.5x from 43 up.
MIN_PROBES_PER_THREAD = 12

# Optimality evidence for every solve but a cold dual-simplex one: the
# unscaled model's largest primal/dual infeasibility must stay within this.
MAX_INFEASIBILITY = 1e-7

# The keys of warm_start_stats(): warm/cold model loads and solves per mode
# (one each per solve_packing_lp_fast call), HiGHS's simplex / IPM
# iteration totals (crossover's not included; every round of a
# row-generated solve counted), and the row generation's rounds (one per
# add_rows + dual re-solve) and rows added.
LP_COUNTERS = (
    "warm",
    "cold",
    *SOLVER_MODES,
    "simplex_iterations",
    "ipm_iterations",
    "row_rounds",
    "rows_added",
)

try:  # pragma: no cover - exercised indirectly by every engine test
    import scipy.optimize._highspy._core as _hcore
except ImportError:  # pragma: no cover - environment-dependent
    _hcore = None

_local = threading.local()


def fast_backend_available() -> bool:
    """True when the persistent-HiGHS fast path can be used."""
    return _hcore is not None


def highs_core() -> Any:
    """The private HiGHS binding module, or ``None`` when unavailable."""
    return _hcore


def new_highs_instance(solver: str = "simplex") -> Any:
    """A raw ``Highs`` instance with the backend's options for one of
    :data:`SOLVER_MODES` (silent, single-threaded).  The default
    ``"simplex"`` runs HiGHS's own defaults, the seed pipeline's
    ``linprog`` path.  Raises ``RuntimeError`` when the bindings are
    missing."""
    if _hcore is None:
        raise RuntimeError("scipy's HiGHS bindings are unavailable")
    highs = _hcore._Highs()
    options = _hcore.HighsOptions()
    options.output_flag = False
    # single-threaded: the small LPs sit far below HiGHS's parallel
    # thresholds, so the only effect of the default is per-run
    # thread-pool setup; the solve path (and the solution) is unchanged
    options.threads = 1
    if solver == "primal":
        options.simplex_strategy = 4  # primal; default pricing
    elif solver == "ipm":
        options.solver = "ipm"  # crossover stays on: basic solutions
    elif solver != "simplex":
        raise ValueError(f"solver must be one of {SOLVER_MODES}, got {solver!r}")
    highs.passOptions(options)
    return highs


def pass_colwise_model(
    highs: Any,
    a: sp.csc_matrix,
    cost: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
) -> None:
    """Load a column-major LP into ``highs`` (minimization; bounds as given).

    The one place a model is passed, so a binding quirk is fixed once for
    every model.  It uses the binding's array overload of ``passModel``,
    which takes the NumPy buffers as they are: filling a ``HighsLp``
    field by field converts every entry through a Python object (0.17 ms
    against 0.01 ms for the 342-row, 293-column pricing LP of an n=300
    truthful auction).  The overload rejects an empty integrality array,
    so every column is passed as continuous, which is what an empty one
    means.
    """
    m, n = a.shape
    status = highs.passModel(
        n,
        m,
        a.nnz,
        int(_hcore.MatrixFormat.kColwise),
        int(_hcore.ObjSense.kMinimize),
        0.0,
        cost,
        col_lower,
        col_upper,
        row_lower,
        row_upper,
        a.indptr[:-1],
        a.indices,
        a.data,
        np.zeros(n, dtype=np.int32),  # HighsVarType.kContinuous
    )
    if status == _hcore.HighsStatus.kError:
        raise RuntimeError(f"HiGHS rejected the model ({m} rows, {n} columns)")


def _greedy(
    a: sp.csc_matrix, value: np.ndarray, row_upper: np.ndarray
) -> tuple[list[int], list[int], list[float]]:
    """:func:`greedy_start`'s basic columns and pivot rows, plus every
    row's room left after the greedy allocation (0 on a full row)."""
    indptr = a.indptr
    nnz = np.diff(indptr)
    value = np.asarray(value, dtype=float)
    candidates = np.flatnonzero((value > 0) & (nnz > 0))
    key = value[candidates] / np.sqrt(nnz[candidates])
    order = candidates[np.argsort(-key, kind="stable")]
    # plain lists: per-entry Python arithmetic beats per-column numpy calls
    starts, indices, data = indptr.tolist(), a.indices.tolist(), a.data.tolist()
    room = np.asarray(row_upper, dtype=float).tolist()
    cols: list[int] = []
    rows: list[int] = []
    for j in order.tolist():
        begin, end = starts[j], starts[j + 1]
        if room[indices[end - 1]] <= 0 and data[end - 1] > 0:
            continue  # blocked by its last row (LP (1): the bidder's own row)
        step, pivot = math.inf, -1
        for p in range(begin, end):
            if data[p] > 0:
                ratio = room[indices[p]] / data[p]
                if ratio < step:
                    step, pivot = ratio, indices[p]
                    if ratio <= 0:
                        break
        if not step > 0 or pivot < 0:
            continue  # blocked by a tight row (or no positive entry)
        for p in range(begin, end):
            if data[p] > 0:
                left = room[indices[p]] - step * data[p]
                room[indices[p]] = left if left > 0 else 0.0
        room[pivot] = 0.0
        cols.append(j)
        rows.append(pivot)
    return cols, rows, room


def greedy_start(
    a: sp.csc_matrix, value: np.ndarray, row_upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A primal-feasible starting basis for ``max value·x s.t. a x ≤
    row_upper, x ≥ 0`` with ``a ≥ 0`` and ``row_upper ≥ 0``: the basic
    columns and, pairwise, the row each one makes tight (nonbasic at its
    upper bound); every other column sits at 0 and every other row's slack
    stays basic.

    The columns with ``value > 0`` are visited in descending
    ``value / sqrt(nnz)`` order, ties in column order — the ranking of the
    Lehmann–O'Callaghan–Shoham greedy (JACM 2002).  Each is raised as far
    as its rows' remaining room allows (a ratio test over its positive
    entries); a positive step makes it basic and its blocking row tight.
    A row whose room reaches zero then rejects every later column that
    touches it, so no later basic column has an entry in an earlier pivot
    row: the basic columns are lower triangular on their pivot rows, with
    positive diagonal.  The basis is therefore nonsingular, and its
    solution is the greedy's ``x``, which satisfies ``a x ≤ row_upper``.
    """
    cols, rows, _room = _greedy(a, value, row_upper)
    return np.array(cols, dtype=np.intp), np.array(rows, dtype=np.intp)


def _seed_rows(
    a: sp.csc_matrix, value: np.ndarray, row_upper: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The rows a row-generated primal solve of ``max value·x s.t. a x ≤
    row_upper, x ≥ 0`` loads first, ascending — the rows
    :func:`greedy_start`'s allocation leaves with no room, and every
    set-packing row (``row_upper`` 1, every entry 1: LP (1)'s
    one-bundle-per-bidder rows) — and the greedy's start on them: its basic
    columns and their pivot rows' positions among the seed rows.  Every
    pivot row is full, so a seed row, and the basis restricted to the seed
    rows is still triangular and feasible."""
    cols, pivots, room = _greedy(a, value, row_upper)
    m = a.shape[0]
    entries = np.bincount(a.indices, minlength=m)
    ones = np.bincount(a.indices[a.data == 1], minlength=m)
    packing = (np.asarray(row_upper) == 1) & (entries == ones) & (entries > 0)
    rows = np.flatnonzero(packing | (np.asarray(room) <= 0))
    position = np.empty(m, dtype=np.intp)
    position[rows] = np.arange(rows.size)
    return rows, (np.array(cols, dtype=np.intp), position[pivots])


def _greedy_basis(m: int, n: int, cols: np.ndarray, rows: np.ndarray) -> Any:
    """A greedy start (basic columns, their pivot rows) on an ``m × n``
    model as HiGHS's ``HighsBasis``: basic columns ``kBasic``, their pivot
    rows ``kUpper``, every other column ``kLower`` (at 0) and every other
    row ``kBasic`` (its slack)."""
    status = _hcore.HighsBasisStatus
    col_status = [status.kLower] * n
    row_status = [status.kBasic] * m
    for j in np.asarray(cols).tolist():
        col_status[j] = status.kBasic
    for i in np.asarray(rows).tolist():
        row_status[i] = status.kUpper
    basis = _hcore.HighsBasis()
    basis.col_status = col_status
    basis.row_status = row_status
    basis.valid = True
    basis.alien = False  # nonsingular by construction: HiGHS needs no rank check
    return basis


def _check_packing(a: sp.spmatrix, row_lower: np.ndarray, row_upper: np.ndarray) -> None:
    """``ValueError`` unless the rows are in packing form: ``a ≥ 0``, no
    finite lower bound, ``row_upper ≥ 0``."""
    if not (np.all(a.data >= 0) and np.all(row_lower == -np.inf) and np.all(row_upper >= 0)):
        raise ValueError(
            "a primal model must be a packing LP: a ≥ 0, rows -inf ≤ a x ≤ b, b ≥ 0"
        )


@dataclass(frozen=True)
class SolveReport:
    """What one :meth:`ResidentLP.solve` did.  ``objective`` is HiGHS's
    (minimization) objective value; ``warm`` says the solve restarted from
    a basis: the previous solve's, or one put back by
    :meth:`ResidentLP.restore`."""

    mode: str
    warm: bool
    simplex_iterations: int
    ipm_iterations: int
    max_primal_infeasibility: float
    max_dual_infeasibility: float
    basis_valid: bool
    objective: float


class ResidentLP:
    """One ``Highs`` instance and the model loaded into it.

    :meth:`load` passes a column-major model (minimization over ``x ≥ 0``,
    row bounds as given); :meth:`set_costs` mutates it in place, so the
    next :meth:`solve` restarts from the previous optimal basis.
    :meth:`basis` saves a solve's basis and :meth:`restore` puts it back,
    so a sequence of changes can each restart from one saved basis.
    :meth:`add_rows` grows the model; the solve after it runs dual simplex.
    ``rows`` maps the model's rows to the caller's LP: the caller's index
    of each loaded row, in model order (the model's own positions unless
    :meth:`load` and :meth:`add_rows` were told otherwise).
    The first solve after a load is *cold* unless a basis was restored,
    every later one *warm*.  A cold ``"primal"`` solve starts from
    :func:`greedy_start`'s basis: the packing LP's greedy allocation is a
    feasible vertex, and the basis is triangular on its tight rows.
    ``key`` is the caller's name for the loaded model (the engine's
    warm-start record); a failed load, solve or row addition clears it,
    so nothing warm-starts off a model or basis it does not name.
    """

    def __init__(self, mode: str = "simplex") -> None:
        self.mode = mode
        self.key: Hashable | None = None
        self.rows = np.zeros(0, dtype=np.intp)
        self._highs = new_highs_instance(mode)
        self._warm = False  # the next solve restarts from a basis
        self._rows_added = False  # the next solve runs dual simplex

    def load(
        self,
        a: sp.csc_matrix,
        cost: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        key: Hashable | None = None,
        start: tuple[np.ndarray, np.ndarray] | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        """Load ``min cost·x s.t. row_lower ≤ a x ≤ row_upper, x ≥ 0``.

        A ``"primal"`` model must be a packing LP (``a ≥ 0``, no finite
        row lower bound, ``row_upper ≥ 0``; ``ValueError`` otherwise), and
        its first solve starts from :func:`greedy_start`'s basis — or from
        ``start``, that basis (basic columns, their pivot rows) when the
        caller has already run the greedy on this model.  ``rows`` names
        the loaded rows in the caller's LP when they are a subset of it
        (kept in :attr:`rows`).  The old key is dropped before the model is
        passed, so a load that fails leaves no key naming a model it did
        not load."""
        m, n = a.shape
        if self.mode == "primal":
            _check_packing(a, row_lower, row_upper)
        self.key = None
        pass_colwise_model(
            self._highs, a, cost, np.zeros(n), np.full(n, np.inf), row_lower, row_upper
        )
        if self.mode == "primal":
            if start is None:
                start = greedy_start(a, -np.asarray(cost, dtype=float), row_upper)
            status = self._highs.setBasis(_greedy_basis(m, n, *start))
            if status != _hcore.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected the greedy basis (status {status})")
        self.key = key
        self.rows = np.arange(m) if rows is None else np.asarray(rows, dtype=np.intp)
        self._warm = False
        self._rows_added = False

    def add_rows(
        self,
        a_rows: sp.csr_matrix,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Append the rows ``row_lower ≤ a_rows x ≤ row_upper`` (one per row
        of ``a_rows``, over the model's columns), named ``rows`` in the
        caller's LP (default: their positions in the model).  The basis
        keeps every old status and makes the new rows' slacks basic, so the
        next solve is warm, and runs dual simplex; a primal model's rows
        must stay in packing form."""
        if self.mode == "primal":
            _check_packing(a_rows, row_lower, row_upper)
        status = self._highs.addRows(
            a_rows.shape[0],
            np.asarray(row_lower, dtype=float),
            np.asarray(row_upper, dtype=float),
            a_rows.nnz,
            a_rows.indptr[:-1].astype(np.int32),
            a_rows.indices.astype(np.int32),
            np.asarray(a_rows.data, dtype=float),
        )
        if status != _hcore.HighsStatus.kOk:
            self.key = None
            raise RuntimeError(f"HiGHS rejected the rows (status {status})")
        if rows is None:
            rows = np.arange(self.rows.size, self.rows.size + a_rows.shape[0])
        self.rows = np.concatenate([self.rows, np.asarray(rows, dtype=np.intp)])
        self._rows_added = True

    def set_costs(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Set the costs of columns ``idx`` (int32) to ``values``."""
        self._highs.changeColsCost(idx.size, idx, values)

    def basis(self) -> Any:
        """A copy of the current basis (HiGHS's ``HighsBasis``), to hand
        back to :meth:`restore` later."""
        return self._highs.getBasis()

    def restore(self, basis: Any) -> None:
        """Make ``basis`` (from :meth:`basis`) the basis the next solve
        starts from.  The loaded model must have the basis's shape; HiGHS
        rejects any other and this raises ``RuntimeError``.

        The solver's other state (factorization, edge weights) is dropped
        first, so the next solve depends only on the model and ``basis``,
        never on what ran before it.  That solve counts as warm, so it
        runs the certificate check."""
        self._highs.clearSolver()
        status = self._highs.setBasis(basis)
        if status != _hcore.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected the basis (status {status})")
        self._warm = True

    def solve(self) -> SolveReport:
        """Run HiGHS on the model.  Raises ``RuntimeError`` on a non-optimal
        status, and — on every solve but a cold dual-simplex one, the seed's
        bit-pinned ``linprog`` path — when the certificate fails: max primal
        or dual infeasibility above :data:`MAX_INFEASIBILITY`, or no valid
        basis.

        The first solve after :meth:`add_rows` runs dual simplex whatever
        the mode's strategy: the added rows break the old basis's primal
        feasibility but not its dual feasibility.  The mode's strategy is
        restored even if that solve fails."""
        highs = self._highs
        if self._rows_added:
            self._rows_added = False
            _status, strategy = highs.getOptionValue("simplex_strategy")
            highs.setOptionValue("simplex_strategy", 1)  # dual simplex
            try:
                highs.run()
            finally:
                highs.setOptionValue("simplex_strategy", strategy)
        else:
            highs.run()
        info = highs.getInfo()
        report = SolveReport(
            mode=self.mode,
            warm=self._warm,
            simplex_iterations=info.simplex_iteration_count,
            ipm_iterations=info.ipm_iteration_count,
            max_primal_infeasibility=info.max_primal_infeasibility,
            max_dual_infeasibility=info.max_dual_infeasibility,
            basis_valid=info.basis_validity == _hcore.kBasisValidityValid,
            objective=float(info.objective_function_value),
        )
        status = highs.getModelStatus()
        if status != _hcore.HighsModelStatus.kOptimal:
            self.key = None
            raise RuntimeError(
                f"LP solve failed (status {status}): {highs.modelStatusToString(status)}"
            )
        if (report.warm or self.mode != "simplex") and not (
            report.max_primal_infeasibility <= MAX_INFEASIBILITY
            and report.max_dual_infeasibility <= MAX_INFEASIBILITY
            and report.basis_valid
        ):
            self.key = None
            raise RuntimeError(
                f"LP solve ({self.mode}, {'warm' if report.warm else 'cold'}) "
                "returned no certified optimal basis: max primal infeasibility "
                f"{report.max_primal_infeasibility:.3g}, max dual infeasibility "
                f"{report.max_dual_infeasibility:.3g}, basis valid {report.basis_valid}"
            )
        self._warm = True
        return report

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """The last solve's column values and row duals, in HiGHS's
        (minimization) signs."""
        solution = self._highs.getSolution()
        return (
            np.asarray(solution.col_value, dtype=float),
            np.asarray(solution.row_dual, dtype=float),
        )


def choose_solver(m: int, n: int) -> str:
    """The ``solver="auto"`` policy, on the LP's row count ``m`` alone:
    simplex below :data:`PRIMAL_MIN_ROWS` (bit-compatible with the seed
    pipeline's linprog), primal simplex from there up.  ``n`` (columns)
    is accepted for the call shape; the measured edge did not depend on
    it."""
    return "simplex" if m < PRIMAL_MIN_ROWS else "primal"


def _thread_state() -> dict[str, ResidentLP]:
    """This thread's resident models by mode, creating the thread's backend
    state (models, counters) on first use."""
    models = getattr(_local, "models", None)
    if models is None:
        models = _local.models = {}
        _local.stats = dict.fromkeys(LP_COUNTERS, 0)
    return models


def _thread_model(solver: str) -> ResidentLP:
    """One resident model per thread *and solver mode* (HiGHS objects are
    not thread-safe, and keeping modes separate avoids option churn)."""
    models = _thread_state()
    lp = models.get(solver)
    if lp is None:
        lp = models[solver] = ResidentLP(solver)
    return lp


def warm_start_stats() -> dict[str, int]:
    """This thread's LP counters, keyed by :data:`LP_COUNTERS` (for the
    service's accounting, tests, and benchmarks)."""
    _thread_state()
    return dict(_local.stats)


def release_models() -> None:
    """Drop this thread's resident models, keeping its counters and its
    recorded solver count.  A process-pool lane calls this after every
    batch: pool solves are cold, so nothing would reuse the model, and
    each lane's idle model added ~5 MB of peak RSS to its worker (n=1000
    k=6, 24 requests on two threads: 137 MB peak kept, 131 MB dropped; a
    fresh model costs ~0.2 ms to construct)."""
    _thread_state().clear()


def reset_backend() -> None:
    """Drop this thread's whole backend state (resident models and their
    warm-start keys, counters, the recorded solver-process count).

    Process-pool workers call this once at startup: under a fork-based
    start method the child's main thread inherits the forking thread's
    ``threading.local`` slot, including the identity-keyed warm-start
    record of a model loaded in the *parent's* lifetime.  Fork preserves
    addresses, so those stale identity checks could spuriously match and
    warm-start a fresh worker off a basis it never computed — a fresh
    process must start cold.
    """
    vars(_local).clear()


# every thread-local holding native state must be resettable at worker
# spawn; repro.util.mp.run_fork_resets(require=...) asserts this hook
# exists before a pool worker takes its first solve
register_fork_reset("repro.engine.highs", reset_backend)


def _same_model(
    loaded: tuple[Hashable, sp.csc_matrix, np.ndarray] | None,
    warm_key: Hashable,
    a: sp.csc_matrix,
    b: np.ndarray,
) -> bool:
    """Is the loaded model this key's matrix/RHS (so only costs changed)?

    Identity checks first (re-solves of one compiled instance hand over the
    same cached arrays); the equality fallback catches distinct compiled
    auctions sharing one structure whose enumerated bundle patterns match.
    """
    if loaded is None or loaded[0] != warm_key:
        return False
    a_prev, b_prev = loaded[1], loaded[2]
    if a_prev is a and b_prev is b:
        return True
    return (
        a_prev.shape == a.shape
        and a_prev.nnz == a.nnz
        and np.array_equal(a_prev.indptr, a.indptr)
        and np.array_equal(a_prev.indices, a.indices)
        and np.array_equal(a_prev.data, a.data)
        and np.array_equal(b_prev, b)
    )


def solve_packing_lp_fast(
    c: np.ndarray,
    a_ub: sp.spmatrix,
    b_ub: np.ndarray,
    warm_key: Hashable | None = None,
    solver: str = "auto",
) -> LPSolution:
    """Solve ``max c·x s.t. a_ub x ≤ b_ub, x ≥ 0`` via the persistent backend.

    Same contract as :func:`repro.core.lp.solve_packing_lp` (maximization,
    duals ``y ≥ 0`` of the packing rows); raises ``RuntimeError`` on
    non-optimal status or a failed certificate (:meth:`ResidentLP.solve`).

    ``solver`` is one of :data:`SOLVER_MODES` or ``"auto"`` (the
    :func:`choose_solver` size policy).  Every mode returns an optimal basic
    solution (IPM runs crossover); small LPs always take simplex, keeping
    bit-parity with the seed pipeline.  ``"primal"`` is row-generated from
    :data:`ROWGEN_MIN_ROWS` rows up (see the module docstring): its
    solution is basic for the rows it loaded, and its duals are 0 on the
    rows it never added.

    ``warm_key`` (hashable, typically the compiled structure's identity plus
    the LP dimensions) opts into the warm-start path: if the mode's resident
    model carries the same key, matrix, and RHS, only the objective is
    mutated and HiGHS starts from the previous basis.  Callers must accept
    any optimal vertex when passing a key (see module docstring).  Warm
    starts apply to the simplex-family modes, each with its own resident
    model (IPM has no basis to reuse).
    """
    if _hcore is None:
        return solve_packing_lp(c, a_ub, b_ub)
    a = a_ub if isinstance(a_ub, sp.csc_matrix) else sp.csc_matrix(a_ub)
    c = np.asarray(c, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if (m, n) != (b_ub.shape[0], c.shape[0]):
        raise ValueError(f"A has shape {a.shape}, expected ({b_ub.shape[0]}, {c.shape[0]})")
    if solver == "auto":
        solver = choose_solver(m, n)
    elif solver not in SOLVER_MODES:
        raise ValueError(f"solver must be 'auto' or one of {SOLVER_MODES}, got {solver!r}")

    lp = _thread_model(solver)
    stats = _local.stats
    if solver == "ipm":
        warm_key = None  # no basis to restart from
    if warm_key is not None and _same_model(lp.key, warm_key, a, b_ub):
        stats["warm"] += 1
        lp.set_costs(np.arange(n, dtype=np.int32), -c)  # basis survives
    else:
        stats["cold"] += 1
        key = None if warm_key is None else (warm_key, a, b_ub)
        if solver == "primal" and m >= ROWGEN_MIN_ROWS:
            rows, start = _seed_rows(a, c, b_ub)
            bounds = (np.full(rows.size, -np.inf), b_ub[rows])
            lp.load(a[rows], -c, *bounds, key=key, start=start, rows=rows)
        else:
            lp.load(a, -c, np.full(m, -np.inf), b_ub, key=key)  # -c: HiGHS minimizes
    stats[solver] += 1
    if solver == "primal":
        report, x, row_dual = _generate_rows(lp, a, b_ub)
        duals = np.zeros(m)
        duals[lp.rows] = -row_dual  # rows never added keep dual 0
    else:
        report = lp.solve()
        _count(report)
        x, row_dual = lp.solution()
        duals = -row_dual
    duals[duals < 0] = 0.0  # clip numerical noise, as in solve_packing_lp
    return LPSolution(
        x=x,
        value=float(-report.objective),
        duals=duals,
        status=0,
        message="Optimal",
    )


def _count(report: SolveReport) -> None:
    stats = _local.stats
    stats["simplex_iterations"] += report.simplex_iterations
    stats["ipm_iterations"] += report.ipm_iterations


def _generate_rows(  # repro: mutates[lp]
    lp: ResidentLP, a: sp.csc_matrix, b: np.ndarray
) -> tuple[SolveReport, np.ndarray, np.ndarray]:
    """Solve the loaded rows (``lp.rows`` of ``a x ≤ b``), then add
    every row the solution breaks and re-solve with dual simplex, until
    ``x`` meets all of ``a x ≤ b`` within :data:`MAX_INFEASIBILITY`.  The
    last report, ``x`` and the loaded rows' duals.

    Each solve passes :meth:`ResidentLP.solve`'s certificate on the loaded
    rows, so its duals (0 on every other row) are dual feasible for the
    whole LP; with ``x`` feasible on every row, the two prove ``x``
    optimal for the whole LP."""
    stats = _local.stats
    report = lp.solve()
    while True:
        _count(report)
        x, row_dual = lp.solution()
        broken = a @ x - b > MAX_INFEASIBILITY
        if not broken.any():
            return report, x, row_dual
        if broken[lp.rows].any():
            lp.key = None
            raise RuntimeError("LP solve (primal) broke a loaded row: no certified optimum")
        added = np.flatnonzero(broken)
        lp.add_rows(a[added].tocsr(), np.full(added.size, -np.inf), b[added], added)
        stats["row_rounds"] += 1
        stats["rows_added"] += added.size
        report = lp.solve()  # dual simplex: see ResidentLP.solve


def set_solver_processes(count: int) -> int:
    """Record in this thread's backend state that ``count`` solvers
    share the machine's cores, and return the count it held before.  A
    :class:`~repro.service.pool.ProcessShardPool` worker is handed its
    pool's ``num_workers × lanes`` at spawn and records it on each lane's
    thread; a thread that never recorded one counts 1 (an in-process
    solver).  :func:`probe_threads` divides the cores by it."""
    previous = getattr(_local, "solver_processes", 1)
    _local.solver_processes = count
    return previous


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def core_share(solver_processes: int, cores: int | None = None) -> int:
    """One solver's share of the cores when ``solver_processes`` share
    them: ``cores // solver_processes`` (default: the cores this process
    may run on), at least 1.  A process-pool worker serves this many
    lanes; a VCG probe loop runs on at most this many threads."""
    cores = _cores() if cores is None else cores
    return max(1, cores // solver_processes)


def probe_threads(
    probes: int, solver_processes: int | None = None, cores: int | None = None
) -> int:
    """How many threads :func:`zeroed_cost_optima` runs ``probes`` probes
    on: this solver's :func:`core_share` (``solver_processes`` defaults to
    what :func:`set_solver_processes` recorded on this thread) — so a pool
    whose lanes fill the cores runs each probe loop on one thread — and
    at most one thread per :data:`MIN_PROBES_PER_THREAD` probes, so a
    small auction stays on one thread."""
    if solver_processes is None:
        solver_processes = getattr(_local, "solver_processes", 1)
    return min(
        core_share(solver_processes, cores), max(1, probes // MIN_PROBES_PER_THREAD)
    )


def zeroed_cost_optima(
    c: np.ndarray, a: sp.csc_matrix, b: np.ndarray, groups: Sequence[np.ndarray]
) -> tuple[np.ndarray, int]:
    """``max c·x s.t. a x ≤ b, x ≥ 0`` (a packing LP) with each group's
    columns' values set to 0: one optimum per group (int32 column
    indices), and the number of threads the probes ran on.

    The LP is solved once on a resident primal model and its optimal basis
    saved.  Every probe restores that basis, zeroes its group's costs,
    solves (certified, :meth:`ResidentLP.solve`) and puts the costs back,
    so its value depends only on the model and the saved basis — not on
    which probe ran before it, nor on which model runs it.  That lets the
    probes run on :func:`probe_threads` threads, each with its own model:
    the caller's thread uses the base model, and every other thread loads
    the same matrix (from the base model's greedy start, not a greedy of
    its own) and restores the base basis.  HiGHS's ``run()`` releases the
    GIL.  Threads take the next probe from one shared counter, since a
    probe takes from 0 to a few dozen iterations.  The values are the
    same floats on any number of threads.  The first exception any thread
    raises stops the others' loops and is re-raised here once every
    thread has stopped."""
    cost = -np.asarray(c, dtype=float)  # HiGHS minimizes
    lower = np.full(a.shape[0], -np.inf)
    start = greedy_start(a, c, b)
    base_model = ResidentLP("primal")
    base_model.load(a, cost, lower, b, start=start)
    base_model.solve()
    base = base_model.basis()
    values = np.empty(len(groups))
    threads = probe_threads(len(groups))
    lock = threading.Lock()
    order = iter(range(len(groups)))  # the shared counter
    failed: list[BaseException] = []

    def run(lp: ResidentLP | None) -> None:
        try:
            if lp is None:
                lp = ResidentLP("primal")
                lp.load(a, cost, lower, b, start=start)
            while True:
                with lock:
                    i = None if failed else next(order, None)
                if i is None:
                    return
                idx = groups[i]
                lp.restore(base)
                lp.set_costs(idx, np.zeros(idx.size))
                values[i] = -lp.solve().objective
                lp.set_costs(idx, cost[idx])
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            with lock:
                failed.append(exc)

    # an executor starts no thread until a submit, so one thread costs none
    with ThreadPoolExecutor(max(1, threads - 1), thread_name_prefix="vcg-probe") as pool:
        for _ in range(threads - 1):
            pool.submit(run, None)
        run(base_model)
    if failed:
        raise failed[0]
    return values, threads
