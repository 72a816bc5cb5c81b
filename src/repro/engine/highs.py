"""Persistent HiGHS backend for the compile-once/solve-many engine.

``scipy.optimize.linprog`` rebuilds a ``Highs`` object, re-parses every
option string, and re-validates the model on each call — for the small LPs
of a single auction that overhead is larger than the solve itself.  This
module keeps one ``Highs`` instance (and one parsed options object) per
thread and only swaps the model in, which roughly triples LP throughput on
batch workloads while returning *bit-identical* primal/dual solutions (the
model and option values passed to HiGHS are the same; the equivalence tests
pin this against :func:`repro.core.lp.solve_packing_lp`).

Which HiGHS algorithm runs is the ``solver="auto"`` policy
(:func:`choose_solver`), measured on metro LPs in BENCH_lp.json: the
seed's dual simplex below :data:`IPM_MIN_ROWS` rows (bit-identical to the
seed), primal simplex up to :data:`PRIMAL_MAX_ROWS`, IPM with crossover
above.  The row count is that of the LP as solved: callers pass the rows
that can bind (``CompiledAuction.matrices_csc``).  The two upper bands are
not pinned to the seed's vertex, so each of their solves is checked
against HiGHS's own infeasibility report.

On top of the persistent instance sits an opt-in **warm-start** path for
re-solve sequences (``warm_key``): when consecutive solves under the same
key share the constraint matrix and RHS — auctions compiled on one
:class:`~repro.engine.compiled.CompiledStructure` with unchanged bundle
patterns, e.g. re-auctions with updated bids or mechanism misreport probes
— only the objective is mutated in the loaded model
(``changeColsCost``) and HiGHS re-solves from the previous optimal basis.
That skips model ingestion, presolve, and most simplex iterations (2–3x on
the BENCH_engine re-auction trace).  Warm solves return *an* optimal
solution with the same objective value, but on degenerate LPs possibly a
different vertex than a cold solve — which is why the path is opt-in
(``BatchAuctionEngine(lp_warm_start=True)``) and never used where
bit-parity with the seed pipeline is pinned.

The fast path relies on the private ``scipy.optimize._highspy`` bindings
that scipy's own ``linprog(method="highs")`` is built on.  When the import
fails (future scipy reshuffles), everything transparently falls back to
:func:`repro.core.lp.solve_packing_lp` — slower, never wrong.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.lp import LPSolution, solve_packing_lp
from repro.util.mp import register_fork_reset

__all__ = [
    "solve_packing_lp_fast",
    "fast_backend_available",
    "warm_start_stats",
    "reset_backend",
    "choose_solver",
    "highs_core",
    "new_highs_instance",
    "IPM_MIN_ROWS",
    "PRIMAL_MAX_ROWS",
    "SOLVER_MODES",
    "LP_COUNTERS",
]

# The backend's solver modes.  "simplex" runs HiGHS's default options (dual
# simplex) — the seed pipeline's linprog path, bit for bit; "primal" forces
# primal simplex; "ipm" runs interior point with crossover.  All three
# return an optimal *basic* solution.
SOLVER_MODES = ("simplex", "primal", "ipm")

# The "auto" policy's band edges, in the rows an LP is solved with — the
# rows that can bind (CompiledAuction.matrices_csc; a metro k=6 LP keeps
# about half of its 7n rows) — read off BENCH_lp.json
# (benchmarks/bench_lp_policy.py).  Below IPM_MIN_ROWS every LP keeps the
# seed-parity dual simplex; the edge sits where IPM starts to beat dual
# simplex (n=300, 1106 rows, to n=400, 1562 rows), as in the two-band rule
# that named it.  From there up to PRIMAL_MAX_ROWS primal simplex wins: a
# packing LP's slack basis is primal feasible, so primal starts at a
# vertex.  The two tie at n=3000 (11.8k rows), and IPM's near-linear
# growth wins above it.  Every mode runs with HiGHS presolve on: the
# grid also times "off", which across repeated grid runs was not faster
# at every point of either fast band (DESIGN.md, LP policy).
IPM_MIN_ROWS = 1500
PRIMAL_MAX_ROWS = 11000

# Optimality evidence on the non-parity bands: the unscaled model's
# largest primal/dual infeasibility after a solve must stay within this.
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
    """The private HiGHS binding module, or ``None`` when unavailable.

    Callers building their own incremental models (the Lavi–Swamy master,
    the warm-started VCG re-solves) go through this accessor so the import
    fallback lives in exactly one place.
    """
    return _hcore


def new_highs_instance(solver: str = "simplex") -> Any:
    """A dedicated ``Highs`` instance with the engine's options for one of
    :data:`SOLVER_MODES` (silent, single-threaded), or ``None`` when the
    bindings are missing.

    Unlike :func:`solve_packing_lp_fast`'s per-thread instance, a dedicated
    instance owns its loaded model for its whole lifetime — the shape the
    incremental-column master and the cost-mutating VCG loop need, without
    clobbering the shared warm-start state.  The default ``"simplex"`` runs
    HiGHS's own defaults, the seed pipeline's ``linprog`` path.
    """
    if _hcore is None:
        return None
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

    The one place the ``HighsLp`` field-by-field construction lives —
    shared by the packing solver's cold path, the VCG probe loop, and the
    decomposition master, so a binding quirk is fixed once for all three.
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


def choose_solver(m: int, n: int) -> str:
    """The ``solver="auto"`` policy, on the LP's row count ``m`` alone:
    simplex below :data:`IPM_MIN_ROWS` (bit-compatible with the seed
    pipeline's linprog), primal simplex below :data:`PRIMAL_MAX_ROWS`,
    interior point with crossover above.  ``n`` (columns) is accepted for
    the call shape; the measured edges did not depend on it."""
    if m < IPM_MIN_ROWS:
        return "simplex"
    return "primal" if m < PRIMAL_MAX_ROWS else "ipm"


def _thread_state() -> dict[str, Any]:
    """This thread's ``Highs`` instances by mode, creating the thread's
    backend state (warm-start records, counters, bound arrays) on first use."""
    instances = getattr(_local, "instances", None)
    if instances is None:
        instances = _local.instances = {}
        _local.loaded = {}  # mode -> (warm_key, a, b) of its loaded model
        _local.stats = dict.fromkeys(LP_COUNTERS, 0)
        _local.aux = {}
    return instances


def _thread_highs(solver: str) -> Any:
    """One ``Highs`` instance per thread *and solver mode* (HiGHS objects are
    not thread-safe, and keeping modes separate avoids option churn)."""
    instances = _thread_state()
    highs = instances.get(solver)
    if highs is None:
        highs = instances[solver] = new_highs_instance(solver)
    return highs


def warm_start_stats() -> dict[str, int]:
    """This thread's LP counters, keyed by :data:`LP_COUNTERS` (for the
    service's accounting, tests, and benchmarks)."""
    _thread_state()
    return dict(_local.stats)


def reset_backend() -> None:
    """Drop this thread's persistent backend state (instances, loaded
    warm-start model, counters, cached bound arrays).

    Process-pool workers call this once at startup: under a fork-based
    start method the child's main thread inherits the forking thread's
    ``threading.local`` slot, including the identity-keyed warm-start
    record of a model loaded in the *parent's* lifetime.  Fork preserves
    addresses, so those stale identity checks could spuriously match and
    warm-start a fresh worker off a basis it never computed — a fresh
    process must start cold.
    """
    for attr in ("instances", "loaded", "stats", "aux"):
        try:
            delattr(_local, attr)
        except AttributeError:
            pass


# every thread-local holding native state must be resettable at worker
# spawn; repro.util.mp.run_fork_resets(require=...) asserts this hook
# exists before a pool worker takes its first solve
register_fork_reset("repro.engine.highs", reset_backend)


def _aux_arrays(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached (zeros_n, inf_n, neginf_m) bound arrays per dimension pair."""
    aux = _local.aux
    hit = aux.get((m, n))
    if hit is None:
        hit = (np.zeros(n), np.full(n, np.inf), np.full(m, -np.inf))
        if len(aux) >= 32:
            aux.pop(next(iter(aux)))
        aux[(m, n)] = hit
    return hit


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
    non-optimal status.

    ``solver`` is one of :data:`SOLVER_MODES` or ``"auto"`` (the
    :func:`choose_solver` size policy).  Every mode returns an optimal basic
    solution (IPM runs crossover); small LPs always take simplex, keeping
    bit-parity with the seed pipeline.  The primal and IPM modes are not
    vertex-pinned to the seed, so their solves are checked after the run:
    unscaled primal and dual infeasibilities within
    :data:`MAX_INFEASIBILITY` and a valid basis, else ``RuntimeError``.

    ``warm_key`` (hashable, typically the compiled structure's identity plus
    the LP dimensions) opts into the warm-start path: if the mode's loaded
    model carries the same key, matrix, and RHS, only the objective is
    mutated and HiGHS starts from the previous basis.  Callers must accept
    any optimal vertex when passing a key (see module docstring).  Warm
    starts apply to the simplex-family modes, each tracking its own loaded
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

    highs = _thread_highs(solver)
    stats, loaded = _local.stats, _local.loaded
    if solver == "ipm":
        warm_key = None  # no basis to restart from
    if warm_key is not None and _same_model(loaded.get(solver), warm_key, a, b_ub):
        stats["warm"] += 1
        idx = np.arange(n, dtype=np.int32)
        highs.changeColsCost(n, idx, -c)  # basis survives: warm re-solve
    else:
        stats["cold"] += 1
        zeros_n, inf_n, neginf_m = _aux_arrays(m, n)
        # -c: HiGHS minimizes
        pass_colwise_model(highs, a, -c, zeros_n, inf_n, neginf_m, b_ub)
        if warm_key is not None:
            loaded[solver] = (warm_key, a, b_ub)
        else:
            loaded.pop(solver, None)
    highs.run()
    stats[solver] += 1
    info = highs.getInfo()
    stats["simplex_iterations"] += info.simplex_iteration_count
    stats["ipm_iterations"] += info.ipm_iteration_count
    status = highs.getModelStatus()
    if status != _hcore.HighsModelStatus.kOptimal:
        loaded.pop(solver, None)  # do not warm-start off a failed solve
        raise RuntimeError(
            f"LP solve failed (status {status}): {highs.modelStatusToString(status)}"
        )
    if solver != "simplex" and (
        info.max_primal_infeasibility > MAX_INFEASIBILITY
        or info.max_dual_infeasibility > MAX_INFEASIBILITY
        or info.basis_validity != _hcore.kBasisValidityValid
    ):
        loaded.pop(solver, None)
        raise RuntimeError(
            f"LP solve ({solver}) returned no certified optimal basis: "
            f"max primal infeasibility {info.max_primal_infeasibility:.3g}, "
            f"max dual infeasibility {info.max_dual_infeasibility:.3g}, "
            f"basis validity {info.basis_validity}"
        )
    solution = highs.getSolution()
    duals = -np.asarray(solution.row_dual, dtype=float)
    duals[duals < 0] = 0.0  # clip numerical noise, as in solve_packing_lp
    return LPSolution(
        x=np.asarray(solution.col_value, dtype=float),
        value=float(-info.objective_function_value),
        duals=duals,
        status=0,
        message="Optimal",
    )
