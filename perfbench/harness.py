"""Load generation, verification and process hygiene for the benchmark."""

from __future__ import annotations

import heapq
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.auction import AuctionProblem
from repro.service.wire import AuctionRequest, AuctionResponse
from repro.util.rng import ensure_rng

REQUEST_TIMEOUT = 60.0  # no response for this long fails the run
LOTTERY_DRAWS = 2000  # draws a truthful response's realised welfare averages


class RunError(Exception):
    """The run cannot produce a result (set-up failed, a request wedged)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# the serving process
# ----------------------------------------------------------------------
class ServerProcess:
    """``perfbench.server`` in its own session, so that teardown can reach
    the pool's forkserver and workers through the process group even when
    the server itself died first."""

    def __init__(self, root: Path, shards: int, lifetime: float, env: dict[str, str]):
        self.root = root
        self.shards = shards
        self.lifetime = lifetime
        self.env = env
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0
        self.pid = 0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "perfbench.server",
                "--shards",
                str(self.shards),
                "--lifetime",
                str(self.lifetime),
            ],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0:
                raise RunError(f"server not listening after {timeout:.0f}s")
            readable, _, _ = select.select([self.proc.stdout], [], [], left)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RunError(f"server exited during start (code {self.proc.poll()})")
                line += chunk
        ready = json.loads(line)
        self.port, self.pid = int(ready["port"]), int(ready["pid"])
        return self

    def stop(self) -> None:
        """Close the server's stdin (its stop signal), wait, then make sure
        nothing of its process group is left."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.stdin is not None:
                proc.stdin.close()
            proc.wait(timeout=30)
        except (subprocess.TimeoutExpired, OSError):
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
            _signal_group(proc.pid, signal.SIGKILL)
            _wait_group_gone(proc.pid, timeout=15)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RunError(f"processes of group {pgid} still running after SIGKILL")


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' peak resident sets (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
            else:
                raise RunError(f"no VmHWM for pid {pid}")
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
class Mismatch(Exception):
    """A response failed an independent check."""


@dataclass(frozen=True)
class Verified:
    welfare: float
    bound: float
    solve_seconds: float | None


def make_check(scene: Any, scene_id: str, mode: str) -> Callable[[AuctionRequest, Any], Verified]:
    """The per-response verdict: feasibility re-checked against the scene,
    welfare recomputed from the allocation, welfare within the LP bound."""

    def check(request: AuctionRequest, result: Any) -> Verified:
        problem = AuctionProblem(scene, request.k, list(request.valuations))
        if mode == "allocate":
            if not isinstance(result, AuctionResponse):
                raise Mismatch(f"expected an AuctionResponse, got {type(result).__name__}")
            if result.scene_id != scene_id or result.seed != request.seed:
                raise Mismatch("response names another scene or seed")
            allocation, welfare, bound = result.allocation, result.welfare, result.lp_value
            if not result.feasible:
                raise Mismatch("response says its allocation is infeasible")
            if welfare != problem.welfare(allocation):
                raise Mismatch("welfare differs from problem.welfare(allocation)")
            solve_seconds = result.timing.get("solve_seconds")
        else:
            allocation, bound = result.sampled_allocation, result.lp_value
            welfare = realised_welfare(problem, result.decomposition, request.seed, allocation)
            payments = np.asarray(result.payments, dtype=float)
            if payments.shape != (problem.n,) or not np.all(np.isfinite(payments)):
                raise Mismatch("payments are not one finite number per bidder")
            solve_seconds = None
        if not problem.is_feasible(allocation):
            raise Mismatch("allocation is infeasible on the scene")
        if not (bound > 0 and welfare <= bound * (1 + 1e-9)):
            raise Mismatch(f"welfare {welfare} outside the LP bound {bound}")
        return Verified(welfare, bound, solve_seconds)

    return check


def realised_welfare(problem: AuctionProblem, decomposition: Any, seed: int, served: Any) -> float:
    """Mean welfare of ``LOTTERY_DRAWS`` allocations drawn from the
    response's lottery with the request's seed.

    One draw's welfare varies about threefold its mean (most draws keep
    few bundles), so a single sampled allocation per request is far too
    noisy to compare; the mean of many draws is steady to about 1 % over a
    run.  The first draw is the one the service sampled, so it must equal
    ``served``.
    """
    rng = ensure_rng(seed)
    draws = [decomposition.sample(rng) for _ in range(LOTTERY_DRAWS)]
    if draws[0] != served:
        raise Mismatch("sampled allocation is not the lottery's draw for the request seed")
    return sum(problem.welfare(draw) for draw in draws) / LOTTERY_DRAWS


def same_result(mode: str, reference: Any, served: Any) -> bool:
    """Bit-for-bit agreement of a served result with a serial replay."""
    if mode == "allocate":
        return bool(reference == served)  # AuctionResponse equality ignores timing
    return (
        reference.sampled_allocation == served.sampled_allocation
        and np.array_equal(reference.payments, served.payments)
        and reference.lp_value == served.lp_value
    )


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    request: AuctionRequest
    latency: float | None  # None: failed
    result: Any = None
    verified: Verified | None = None
    in_window: bool = False
    error: str | None = None


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    window_seconds: float = 0.0

    @property
    def failed(self) -> int:
        return sum(o.latency is None for o in self.outcomes)


def mark_failed(outcome: Outcome, error: str) -> None:
    """Count a request as failed: it leaves the latency sample and throughput."""
    outcome.latency = outcome.verified = None
    outcome.in_window = False
    outcome.error = error


def closed_loop(
    submit: Callable[[AuctionRequest], Future],
    requests: Sequence[AuctionRequest],
    callers: int,
    seconds: float,
    think: Callable[[], float] = lambda: 0.0,
) -> LoopResult:
    """``callers`` callers, each sending its next request ``think()``
    seconds after the response to its previous one arrived, until
    ``seconds`` pass.

    A latency ends when the response arrives; responses are kept, not
    checked, so that the benchmark's own verification (``verify``, after
    the loop) stays out of every latency and out of the load.  The
    measured window ends at the first completion after ``seconds`` (or
    when the requests run out); requests still in flight then are drained
    and counted, but not toward throughput.  A request without a response
    after ``REQUEST_TIMEOUT`` seconds fails the whole run.
    """
    result = LoopResult()
    pending: dict[Future, tuple[Outcome, float]] = {}
    queue = iter(requests)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    window_end: float | None = None
    idle = [t0] * callers  # heap: when each idle caller sends next
    while True:
        now = time.perf_counter()
        while window_end is None and idle and idle[0] <= now:
            request = next(queue, None)
            if request is None:
                window_end = now if not pending else None
                idle.clear()
                break
            heapq.heappop(idle)
            outcome = Outcome(request, None)
            result.outcomes.append(outcome)
            start = time.perf_counter()
            try:
                pending[submit(request)] = (outcome, start)
            except Exception as exc:  # noqa: BLE001 - a refused request is a failed one
                mark_failed(outcome, f"submit: {exc!r}")
                heapq.heappush(idle, start + think())
        if not pending:
            if window_end is not None or not idle:
                break
            time.sleep(max(0.0, idle[0] - time.perf_counter()))
            continue
        oldest = min(start for _, start in pending.values())
        if now - oldest > REQUEST_TIMEOUT:
            raise RunError(f"no response within {REQUEST_TIMEOUT:.0f}s")
        timeout = oldest + REQUEST_TIMEOUT - now
        if window_end is None and idle:
            timeout = min(timeout, idle[0] - now)
        done, _ = wait(pending, timeout=max(0.0, timeout), return_when=FIRST_COMPLETED)
        finished = time.perf_counter()
        for future in done:
            outcome, start = pending.pop(future)
            try:
                outcome.result = future.result()
            except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
                mark_failed(outcome, repr(exc))
            else:
                outcome.latency = finished - start
                outcome.in_window = window_end is None
            if window_end is None:
                heapq.heappush(idle, finished + think())
        if done and window_end is None and (finished >= deadline or not idle and not pending):
            window_end = finished
    result.window_seconds = (window_end or time.perf_counter()) - t0
    return result


def verify(outcomes: Sequence[Outcome], check: Callable[[AuctionRequest, Any], Verified]) -> None:
    """Check every served response; one that fails its check is a failed
    request (out of the latency sample and throughput)."""
    for outcome in outcomes:
        if outcome.latency is None:
            continue
        try:
            outcome.verified = check(outcome.request, outcome.result)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            mark_failed(outcome, repr(exc))


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def environment(lp_rows: int, lp_cols: int) -> dict[str, Any]:
    import scipy

    from repro.engine.highs import choose_solver, fast_backend_available
    from repro.util.mp import default_start_method

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fast_backend": fast_backend_available(),
        "start_method": default_start_method(),
        "lp_shape": [lp_rows, lp_cols],
        "lp_mode": choose_solver(lp_rows, lp_cols),
    }


# env keys that must match before two runs may be compared
COMPARABLE_ENV = ("host", "machine", "nproc", "python", "numpy", "scipy",
                  "fast_backend", "start_method", "lp_mode")


def cpu_probe_ms() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs Python
    right now, for telling a slower host apart from a slower program."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return round(1e3 * (time.perf_counter() - start), 2)


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def finite_or_none(value: float) -> float | None:
    """JSON has no infinity: a metric a failure made infinite prints as null."""
    return value if math.isfinite(value) else None
