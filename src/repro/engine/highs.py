"""Persistent HiGHS backend: :class:`ResidentLP` and the engine's solver.

``scipy.optimize.linprog`` rebuilds a ``Highs`` object, re-parses every
option string, and re-validates the model on each call — for the small LPs
of a single auction that overhead is larger than the solve itself.  This
module owns every HiGHS model in the package through one class,
:class:`ResidentLP`: one ``Highs`` instance with one parsed options object
and the model loaded into it, its costs mutated in place (``set_costs``)
and re-solved from the previous basis or a saved one (``basis`` /
``restore``).  Its consumers are the engine's packing solver below and
the VCG probe model.  No other module touches the bindings (reprolint's
``highs-owner`` rule).

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

On top of the persistent models sits an opt-in **warm-start** path for
re-solve sequences (``warm_key``): when consecutive solves under the same
key share the constraint matrix and RHS — auctions compiled on one
:class:`~repro.engine.compiled.CompiledStructure` with unchanged bundle
patterns, e.g. re-auctions with updated bids or mechanism misreport probes
— only the objective of the resident model is mutated and HiGHS re-solves
from the previous optimal basis.  That skips model ingestion, presolve,
and most simplex iterations (2–3x on the BENCH_engine re-auction trace).
Warm solves return *an* optimal solution with the same objective value,
but on degenerate LPs possibly a different vertex than a cold solve —
which is why the path is opt-in (``BatchAuctionEngine(lp_warm_start=True)``)
and never used where bit-parity with the seed pipeline is pinned.

The backend relies on the private ``scipy.optimize._highspy`` bindings
that scipy's own ``linprog(method="highs")`` is built on.  When the import
fails (future scipy reshuffles), :func:`solve_packing_lp_fast` falls back
to :func:`repro.core.lp.solve_packing_lp` — slower, never wrong — and
constructing a :class:`ResidentLP` raises.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Hashable
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
    "choose_solver",
    "highs_core",
    "new_highs_instance",
    "PRIMAL_MIN_ROWS",
    "SOLVER_MODES",
    "LP_COUNTERS",
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

# Optimality evidence for every solve but a cold dual-simplex one: the
# unscaled model's largest primal/dual infeasibility must stay within this.
MAX_INFEASIBILITY = 1e-7

# The keys of warm_start_stats(): warm/cold model loads, solves per mode,
# and HiGHS's simplex / IPM iteration totals (crossover's not included).
LP_COUNTERS = (
    "warm",
    "cold",
    *SOLVER_MODES,
    "simplex_iterations",
    "ipm_iterations",
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

    The one place the ``HighsLp`` field-by-field construction lives, so a
    binding quirk is fixed once for every model.
    """
    m, n = a.shape
    lp = _hcore.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _hcore.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_ = cost
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    highs.passModel(lp)


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
    return np.array(cols, dtype=np.intp), np.array(rows, dtype=np.intp)


def _greedy_basis(a: sp.csc_matrix, cost: np.ndarray, row_upper: np.ndarray) -> Any:
    """:func:`greedy_start` for ``min cost·x`` as HiGHS's ``HighsBasis``:
    basic columns ``kBasic``, their pivot rows ``kUpper``, every other
    column ``kLower`` (at 0) and every other row ``kBasic`` (its slack)."""
    m, n = a.shape
    cols, rows = greedy_start(a, -np.asarray(cost, dtype=float), row_upper)
    status = _hcore.HighsBasisStatus
    col_status = [status.kLower] * n
    row_status = [status.kBasic] * m
    for j in cols.tolist():
        col_status[j] = status.kBasic
    for i in rows.tolist():
        row_status[i] = status.kUpper
    basis = _hcore.HighsBasis()
    basis.col_status = col_status
    basis.row_status = row_status
    basis.valid = True
    basis.alien = False  # nonsingular by construction: HiGHS needs no rank check
    return basis


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
    The first solve after a load is *cold* unless a basis was restored,
    every later one *warm*.  A cold ``"primal"`` solve starts from
    :func:`greedy_start`'s basis: the packing LP's greedy allocation is a
    feasible vertex, and the basis is triangular on its tight rows.
    ``key`` is the caller's name for the loaded model (the engine's
    warm-start record); a failed solve clears it, so nothing warm-starts
    off a failed basis.
    """

    def __init__(self, mode: str = "simplex") -> None:
        self.mode = mode
        self.key: Hashable | None = None
        self._highs = new_highs_instance(mode)
        self._warm = False  # the next solve restarts from a basis

    def load(
        self,
        a: sp.csc_matrix,
        cost: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        key: Hashable | None = None,
    ) -> None:
        """Load ``min cost·x s.t. row_lower ≤ a x ≤ row_upper, x ≥ 0``.

        A ``"primal"`` model must be a packing LP (``a ≥ 0``, no finite
        row lower bound, ``row_upper ≥ 0``; ``ValueError`` otherwise), and
        its first solve starts from :func:`greedy_start`'s basis."""
        n = a.shape[1]
        if self.mode == "primal" and not (
            np.all(a.data >= 0) and np.all(row_lower == -np.inf) and np.all(row_upper >= 0)
        ):
            raise ValueError(
                "a primal model must be a packing LP: a ≥ 0, rows -inf ≤ a x ≤ b, b ≥ 0"
            )
        pass_colwise_model(
            self._highs, a, cost, np.zeros(n), np.full(n, np.inf), row_lower, row_upper
        )
        if self.mode == "primal":
            status = self._highs.setBasis(_greedy_basis(a, cost, row_upper))
            if status != _hcore.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected the greedy basis (status {status})")
        self.key = key
        self._warm = False

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
        basis."""
        highs = self._highs
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


def reset_backend() -> None:
    """Drop this thread's whole backend state (resident models and their
    warm-start keys, counters).

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
    bit-parity with the seed pipeline.

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
        lp.load(a, -c, np.full(m, -np.inf), b_ub, key=key)  # -c: HiGHS minimizes
    stats[solver] += 1
    report = lp.solve()
    stats["simplex_iterations"] += report.simplex_iterations
    stats["ipm_iterations"] += report.ipm_iterations
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
