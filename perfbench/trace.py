"""The traced run: spans recorded from outside, around calls into each layer.

Each traced request is first sent alone through the real stack (its root
span), then replayed through the public functions of every layer it
crossed, each call a child span of the root with the same request id.
The replay mirrors the stack's caching: for a renewed profile the engine
columns, assembly, LP and plan run only the first time the profile is
seen, exactly as the worker's problem cache does.  The replayed result
must equal the stack's, or the trace does not describe the stack.
"""

from __future__ import annotations

import json
import pickle
import time
from collections.abc import Callable
from typing import Any

import numpy as np

from perfbench.stats import Span
from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.engine.compiled import CompiledAuction, compile_structure
from repro.engine.highs import solve_packing_lp_fast
from repro.engine.vectorized import build_plan_from_arrays, round_batch
from repro.mechanism.lavi_swamy import decompose_lp_solution, default_alpha
from repro.mechanism.vcg import vcg_payments
from repro.service.wire import (
    AuctionRequest,
    AuctionResponse,
    default_idempotency_key,
    request_from_wire,
    request_to_wire,
)
from repro.util.rng import ensure_rng


class TraceMismatch(Exception):
    """The replay's result differs from what the stack returned."""


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def record(
        self, name: str, start: float, end: float, parent: int | None, request_id: int
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    def call(
        self, name: str, parent: int, request_id: int, fn: Callable[..., Any], *args: Any
    ) -> Any:
        start = time.perf_counter()
        result = fn(*args)
        self.record(name, start, time.perf_counter(), parent, request_id)
        return result

    def dump(self) -> list[dict[str, Any]]:
        return [
            {
                "id": s.span_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request_id,
            }
            for s in self.spans
        ]


def _roundtrip_pickle(message: tuple[Any, ...]) -> Any:
    """One pool hop: the parent pickles, the other side unpickles."""
    return pickle.loads(pickle.dumps(message))


class AllocateReplay:
    """Replays an allocate request through client, wire, pool and engine."""

    def __init__(self, scene: Any, tracer: Tracer) -> None:
        self.scene = scene
        self.structure = compile_structure(scene)
        self.tracer = tracer
        self.profiles: dict[str, tuple[AuctionProblem, CompiledAuction, Any, float]] = {}
        self.request_bytes: list[int] = []
        self.response_bytes: list[int] = []

    def _engine(
        self, request: AuctionRequest, call: Callable[..., Any]
    ) -> tuple[AuctionProblem, CompiledAuction, Any, float]:
        cached = self.profiles.get(request.profile_key or "")
        if cached is not None:
            return cached

        def columns() -> tuple[AuctionProblem, CompiledAuction]:
            problem = AuctionProblem(self.scene, request.k, list(request.valuations))
            compiled = CompiledAuction(problem, structure=self.structure)
            compiled.cols
            return problem, compiled

        problem, compiled = call("engine.columns", columns)
        if problem.is_weighted:
            raise TraceMismatch("the replay models unweighted rounding only")
        a, b, c = call("engine.assembly", compiled.matrices_csc)
        solution = call("engine.lp", solve_packing_lp_fast, c, a, b)
        plan = call("engine.plan", build_plan_from_arrays, problem, solution.x, compiled.cols)
        if plan is None:
            raise TraceMismatch("columns not vertex-grouped; the replay has no generic plan")
        entry = (problem, compiled, plan, solution.value)
        if request.profile_key is not None:
            self.profiles[request.profile_key] = entry
        return entry

    def prime(self, request: AuctionRequest) -> None:
        """Solve a warm-up request's profile untraced, as the worker did."""
        self._engine(request, lambda _name, fn, *args: fn(*args))

    def run(
        self, root: int, request_id: int, request: AuctionRequest, response: AuctionResponse
    ) -> None:
        def call(name: str, fn: Callable[..., Any], *args: Any) -> Any:
            return self.tracer.call(name, root, request_id, fn, *args)

        # client side: the key is derived before the envelope is encoded
        key = call("wire.key", default_idempotency_key, request)

        def encode() -> bytes:
            wire = request_to_wire(request)
            wire["idempotency_key"] = key
            return json.dumps(wire).encode()

        body = call("client.encode", encode)
        decoded = call("wire.decode", lambda: request_from_wire(json.loads(body)))
        _tag, _job, (shipped,) = call("pool.pickle", _roundtrip_pickle, ("solve", 1, [decoded]))
        problem, compiled, plan, lp_value = self._engine(shipped, call)

        def round_once() -> tuple[dict, float]:
            draws = ensure_rng(shipped.seed).random((1, plan.width))
            outcome = round_batch(compiled, plan, draws)
            allocation = outcome.allocations[int(np.argmax(outcome.welfares))]
            return allocation, problem.welfare(allocation)

        allocation, welfare = call("engine.round", round_once)
        feasible = call("core.feasible", problem.is_feasible, allocation)
        call("pool.pickle", _roundtrip_pickle, ("done", 1, [response], {}))
        payload = call("wire.encode", lambda: json.dumps(response.to_wire()).encode())
        call("client.decode", lambda: AuctionResponse.from_wire(json.loads(payload)))
        self.request_bytes.append(len(body))
        self.response_bytes.append(len(payload))
        if (
            allocation != response.allocation
            or max(welfare, 0.0) != response.welfare
            or lp_value != response.lp_value
            or feasible != response.feasible
        ):
            raise TraceMismatch(f"allocate replay of request {request_id} differs")


class TruthfulReplay:
    """Replays a truthful request through the pool hop, LP and mechanism."""

    def __init__(self, scene: Any, tracer: Tracer) -> None:
        self.scene = scene
        self.structure = compile_structure(scene)
        self.tracer = tracer

    def run(self, root: int, request_id: int, request: AuctionRequest, outcome: Any) -> None:
        def call(name: str, fn: Callable[..., Any], *args: Any) -> Any:
            return self.tracer.call(name, root, request_id, fn, *args)

        _tag, _job, (shipped,) = call("pool.pickle", _roundtrip_pickle, ("solve", 1, [request]))

        def columns() -> tuple[AuctionProblem, CompiledAuction]:
            problem = AuctionProblem(self.scene, shipped.k, list(shipped.valuations))
            compiled = CompiledAuction(problem, structure=self.structure)
            compiled.cols
            return problem, compiled

        problem, compiled = call("engine.columns", columns)
        call("engine.assembly", compiled.matrices_csc)
        solver = SpectrumAuctionSolver(problem, compiled=compiled)
        solution = call("engine.lp", solver.solve_lp)
        alpha = default_alpha(problem)
        # the service prepares outcomes with a fixed seed; see
        # AuctionService._mechanism_outcome
        decomposition = call(
            "mechanism.decompose",
            lambda: decompose_lp_solution(
                problem,
                solution,
                alpha=alpha,
                seed=ensure_rng(0),
                pricing="approx",
                compiled_structure=self.structure,
            ),
        )
        vcg = call(
            "mechanism.vcg",
            lambda: vcg_payments(
                problem, solution, alpha, method="auto", compiled_structure=self.structure
            ),
        )
        sample = call("mechanism.sample", decomposition.sample, ensure_rng(shipped.seed))
        call("core.feasible", problem.is_feasible, sample)
        call("pool.pickle", _roundtrip_pickle, ("done", 1, [outcome], {}))
        if (
            sample != outcome.sampled_allocation
            or not np.array_equal(vcg.payments, outcome.payments)
            or solution.value != outcome.lp_value
        ):
            raise TraceMismatch(f"truthful replay of request {request_id} differs")
