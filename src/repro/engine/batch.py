"""Batch auction engine: many instances, one compilation pass, stage-batched solves.

:class:`BatchAuctionEngine` accepts a list (or generator) of
:class:`~repro.core.auction.AuctionProblem`\\ s — or zero-argument callables
producing them — compiles each distinct problem once (structures shared via
the keyed cache), solves them stage by stage in the calling thread, and
returns per-instance :class:`SolverResult`\\ s plus aggregate stats.  The
engine runs no pool of its own: parallelism across requests is the
service's :class:`~repro.service.pool.ProcessShardPool`, whose workers
each run several engine calls at once on threads (the LP solve releases
the GIL; at n=1000, k=6 two lanes served 1.55–1.85x the requests of
one).  Concurrent callers of one :class:`CompiledAuction` share its
single LP solve.

Determinism: one root :class:`numpy.random.SeedSequence` is spawned into
per-instance children *by position*, so results are identical for the same
seed to solving each instance alone (pinned by the engine tests).
Repeated occurrences of the same problem object share one
:class:`CompiledAuction` — and therefore one LP solve — which is exactly
the E7 / mechanism-sampling workload the engine exists for.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.auction import AuctionProblem
from repro.core.result import SolverResult
from repro.engine.compiled import CompiledAuction, compile_auction, compile_structure
from repro.util.lru import LRUCache
from repro.util.rng import SeedLike

__all__ = ["BatchAuctionEngine", "BatchResult"]


@dataclass
class BatchResult:
    """Results plus aggregate accounting for one engine batch."""

    results: list[SolverResult]
    wall_time: float
    unique_problems: int
    lp_solves: int
    summary: dict[str, Any] = field(default_factory=dict)

    @property
    def n_instances(self) -> int:
        return len(self.results)

    @property
    def total_welfare(self) -> float:
        return float(sum(r.welfare for r in self.results))

    @property
    def total_lp_value(self) -> float:
        return float(sum(r.lp_value for r in self.results))

    @property
    def guarantee_met_fraction(self) -> float:
        if not self.results:
            return 1.0
        return sum(r.meets_guarantee() for r in self.results) / len(self.results)


def _materialize(
    problems: Iterable[AuctionProblem | Callable[[], AuctionProblem]],
) -> list[AuctionProblem]:
    out: list[AuctionProblem] = []
    for item in problems:
        problem = item() if callable(item) else item
        if not isinstance(problem, AuctionProblem):
            raise TypeError(f"expected AuctionProblem or spec callable, got {type(item)}")
        out.append(problem)
    return out


class BatchAuctionEngine:
    """Compile-once/solve-many driver for fleets of auction problems."""

    def __init__(
        self,
        *,
        rounding_attempts: int = 1,
        derandomize: bool | str = False,
        verify_power_control: bool = True,
        lp_warm_start: bool = False,
        structure_cache: LRUCache | None = None,
        auction_cache: LRUCache | None = None,
    ) -> None:
        """``lp_warm_start=True`` lets instances sharing a compiled structure
        (and bundle pattern) re-solve the LP by mutating the loaded HiGHS
        model's objective from the previous optimal basis.  Every LP value is
        still optimal, but on degenerate LPs the returned vertex — and hence
        the rounded allocation — may differ from a cold solve, so the flag
        defaults to off where bit-parity with the seed pipeline matters.

        ``structure_cache`` / ``auction_cache`` inject caller-owned
        :class:`~repro.util.lru.LRUCache` instances for the compilation
        layers (``None`` keeps the process-wide defaults); the auction
        service uses this to bound and account its caches per service.
        """
        self.solve_kwargs: dict[str, Any] = {
            "rounding_attempts": rounding_attempts,
            "derandomize": derandomize,
            "verify_power_control": verify_power_control,
            "lp_warm_start": lp_warm_start,
        }
        self.structure_cache = structure_cache
        self.auction_cache = auction_cache

    # ------------------------------------------------------------------
    def compile(
        self, problems: Iterable[AuctionProblem]
    ) -> dict[int, CompiledAuction]:
        """Compile every distinct problem (by identity), sharing structures."""
        compiled: dict[int, CompiledAuction] = {}
        for problem in problems:
            if id(problem) not in compiled:
                compiled[id(problem)] = compile_auction(
                    problem,
                    structure=compile_structure(
                        problem.structure, cache=self.structure_cache
                    ),
                    cache=self.auction_cache,
                )
        return compiled

    def solve_compiled(
        self, tasks: list[tuple[CompiledAuction, SeedLike]]
    ) -> list[SolverResult]:
        """Stage-batched solve of ``(compiled auction, seed)`` pairs.

        Runs each pipeline layer across all tasks before the next (columns
        → assembly → LP → plans → rounding).  Results are identical to
        calling ``compiled.solve(seed=...)`` per task — every stage is
        cached per compiled auction — but keeping one kernel hot across the
        batch is measurably faster (BENCH_engine.json).  This is the entry
        point the auction service's coalesced batches go through: unlike
        :meth:`solve_many` it takes explicit per-task seeds, so a request's
        result does not depend on which batch it was coalesced into.
        """
        warm = self.solve_kwargs.get("lp_warm_start", False)
        distinct: dict[int, CompiledAuction] = {}
        for ca, _ in tasks:
            distinct.setdefault(id(ca), ca)
        for ca in distinct.values():
            ca.cols
            ca._build_csc()
        for ca in distinct.values():
            ca._solve_raw(warm_start=warm)
        if not self.solve_kwargs.get("derandomize"):
            for ca in distinct.values():
                ca._default_plan()
        return [ca.solve(seed=seed, **self.solve_kwargs) for ca, seed in tasks]

    # ------------------------------------------------------------------
    def solve_many(
        self,
        problems: Iterable[AuctionProblem | Callable[[], AuctionProblem]],
        seed: int | None = None,
    ) -> BatchResult:
        """Solve every instance; deterministic from ``seed``."""
        start = time.perf_counter()
        instances = _materialize(problems)
        seeds = np.random.SeedSequence(seed).spawn(len(instances)) if instances else []
        compiled = self.compile(instances)
        solves_before = sum(ca.lp_solve_count for ca in compiled.values())
        results = self.solve_compiled(
            [(compiled[id(problem)], child) for problem, child in zip(instances, seeds)]
        )
        # only LP solves performed by *this* batch (compiled instances may
        # arrive from the global cache with their LP already solved)
        lp_solves = sum(ca.lp_solve_count for ca in compiled.values()) - solves_before
        batch = BatchResult(
            results=results,
            wall_time=time.perf_counter() - start,
            unique_problems=len({id(p) for p in instances}),
            lp_solves=lp_solves,
        )
        batch.summary = {
            "n_instances": batch.n_instances,
            "unique_problems": batch.unique_problems,
            "lp_solves": batch.lp_solves,
            "total_welfare": batch.total_welfare,
            "total_lp_value": batch.total_lp_value,
            "guarantee_met_fraction": batch.guarantee_met_fraction,
            "wall_time": batch.wall_time,
        }
        return batch
