"""Serving benchmark of the auction stack: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

drives ``service.gateway`` -> ``service.service`` -> ``service.pool`` ->
``engine`` / ``mechanism`` from this one load-generator process, in a
closed loop with ``nproc`` requests outstanding, and verifies every
response.  With ``--trace 0`` the last line of output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run: half the time a closed loop read through the
program's own counters, half one request at a time, each replayed through
the layers' public functions (spans go to ``.perfbench_runs/``).  The
line before it is a summary: environment, set-up times, the tail
percentile and its sample count, and the correctness checks.  The exit
code is 0 only when every check passed.

    python3 perfbench/run.py --steady 10 --workload NAME [--seconds S]
        [--seed FIRST] [--trace 0|1] [--save FILE] [--against FILE]

is the steadiness mode (``perfbench/steady.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3  # setup_s is the median of this many launches
RUN_LIMIT = 170  # seconds: past this the run aborts, tears down and fails
MIN_TRACED = 3  # requests the traced phase replays at least
REPLAY_SAMPLE = 2  # served requests re-solved serially in-process and compared
# callers pause a seeded 0..THINK_MAX_S after each response; with
# none, the two renewal callers lock into whichever relative phase they
# start in, and runs split into a fast and a slow mode (6.5 vs 8.5 rps)
THINK_MAX_S = 0.04
# what a mechanism outcome's latency spends solving (it carries no timing)
TRUTHFUL_SOLVE_SPANS = {
    "engine.columns", "engine.assembly", "engine.lp",
    "mechanism.decompose", "mechanism.vcg", "mechanism.sample",
}


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable, or fail."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _private_tmpdir() -> str:
    """Keep the pool's forkserver socket inside the checkout when its path
    fits a unix socket address; fall back to the system default if not."""
    tmp = OUT_DIR / "tmp"
    if len(str(tmp)) > 60:
        return tempfile.gettempdir()
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    return str(tmp)


def _raise_on_signal(signum: int, _frame: Any) -> None:
    if signum == signal.SIGALRM:
        raise TimeoutError(f"run passed its {RUN_LIMIT}s limit")
    raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    from perfbench import harness, stacks, stats, workloads
    from perfbench.trace import AllocateReplay, Tracer, TruthfulReplay

    workload = workloads.WORKLOADS[name]
    env = {"loadavg_before": harness.loadavg(), "cpu_probe_ms_before": harness.cpu_probe_ms()}
    tmpdir = _private_tmpdir()
    inputs = workloads.make_inputs(workload, seed, seconds)
    # the pre-generated requests live for the whole run: keep them out of
    # the collector's full passes, which would otherwise stall the generator
    gc.collect()
    gc.freeze()
    env.update(harness.environment(inputs.lp_rows, inputs.lp_cols))
    check = harness.make_check(inputs.scene, inputs.scene_id, workload.mode)

    def new_stack() -> Any:
        # wire schema v1 serializes allocate results only: truthful
        # requests cannot cross HTTP, so they are submitted in-process
        if workload.mode == "allocate":
            return stacks.GatewayStack(ROOT, stacks.server_env(ROOT, tmpdir))
        return stacks.InProcessStack()

    setups: list[stacks.SetupTimes] = []
    tracer = Tracer()
    traced: list[harness.Outcome] = []
    stack = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if stack is not None:
                stack.close()
            stack = new_stack()
            setups.append(stack.setup(inputs.scene, inputs.scene_id, inputs.warmup))
        if trace:
            replay_type = AllocateReplay if workload.mode == "allocate" else TruthfulReplay
            replay = replay_type(inputs.scene, tracer)
            for request in inputs.warmup:
                if request.profile_key is not None:
                    replay.prime(request)  # the worker solved these at warm-up
            before = stack.metrics()
        think = np.random.default_rng([seed, 11])
        loop = harness.closed_loop(
            stack.submit, inputs.requests, harness.nproc(),
            seconds / 2 if trace else seconds,
            think=lambda: think.uniform(0.0, THINK_MAX_S),
        )
        snapshot = stack.metrics()
        rss_mb = harness.peak_rss_mb(stack.serving_pids(snapshot))
        if trace:
            rest = inputs.requests[len(loop.outcomes):]
            traced = _traced_phase(stack, replay, tracer, rest, seconds / 2)
    finally:
        if stack is not None:
            stack.close()

    # every check runs here, after the measured phases and off the clock
    for setup in setups:
        harness.verify(setup.warmup, check)
        errors = [o.error for o in setup.warmup if o.error]
        if errors:
            raise harness.RunError(f"warm-up response failed its check: {errors[:3]}")
    outcomes = loop.outcomes + traced
    harness.verify(outcomes, check)
    replayed, mismatches = _replay_sample(workload, inputs.scene, outcomes, seed)
    ok = [o for o in outcomes if o.latency is not None]
    attempted, failed = len(outcomes), len(outcomes) - len(ok)
    summary: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "callers": harness.nproc(),
        "think_max_s": THINK_MAX_S,
        "setup_s": [round(s.total_s, 4) for s in setups],
        "requests": {"attempted": attempted, "failed": failed,
                     "in_window": sum(o.in_window for o in ok)},
        "window_s": round(loop.window_seconds, 4),
        "replayed": replayed,
        "replay_mismatches": mismatches,
        "errors": [o.error for o in outcomes if o.error][:5],
    }
    if trace:
        metrics = _layer_metrics(workload, inputs, setups[0], before, snapshot, loop,
                                 traced, tracer, replay)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"summary": summary, "spans": tracer.dump()}))
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
        table = stats.PER_LAYER
    else:
        latency = stats.latency_summary([o.latency for o in ok], failed)
        if latency is None:
            raise harness.RunError(f"only {attempted} requests: too few for a tail latency")
        metrics = {
            "throughput_rps": sum(o.in_window for o in ok) / loop.window_seconds,
            "latency_p50_ms": 1e3 * latency.p50,
            "latency_tail_ms": 1e3 * latency.tail,
            "succeeded_frac": stats.succeeded_frac(attempted, failed),
            "welfare_ratio": (sum(o.verified.welfare for o in ok)
                              / sum(o.verified.bound for o in ok)),
            "setup_s": statistics.median(s.total_s for s in setups),
            "peak_rss_mb": rss_mb,
        }
        summary["latency_tail"] = {"percentile": round(latency.tail_percentile, 2),
                                   "samples": latency.samples}
        table = stats.END_TO_END
    env.update(loadavg_after=harness.loadavg(), cpu_probe_ms_after=harness.cpu_probe_ms())
    summary["claim"] = None
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": harness.finite_or_none(metrics[key]), "unit": unit}
            for key, (unit, _better) in table.items()
        },
    }))
    return 0 if failed == 0 else 1


def _replay_sample(workload: Any, scene: Any, outcomes: list, seed: int) -> tuple[int, int]:
    """Re-solve a seeded sample of served requests through a serial
    in-process service and compare bit for bit; a mismatch fails that
    request.  Returns (replayed, mismatches)."""
    import numpy as np

    from perfbench.harness import mark_failed, same_result
    from repro.service import AuctionService

    served = [o for o in outcomes if o.latency is not None]
    size = min(REPLAY_SAMPLE, len(served))
    picked = sorted(np.random.default_rng([seed, 7]).choice(len(served), size, replace=False))
    reference = AuctionService(executor="serial")
    reference.register_scene(scene)
    mismatches = 0
    try:
        for i in picked:
            (expected,) = reference.solve_batch([served[i].request])
            if not same_result(workload.mode, expected, served[i].result):
                mismatches += 1
                mark_failed(served[i], "differs from the serial in-process replay")
    finally:
        reference.close()
    return size, mismatches


def _traced_phase(stack, replay, tracer, requests, seconds):
    """One request at a time: the real stack (root span), then the replay.
    A request whose replay differs is a failure; the caller checks the
    responses afterwards, as for the closed loop."""
    from perfbench.harness import REQUEST_TIMEOUT, Outcome, RunError

    traced = []
    deadline = time.perf_counter() + seconds
    for request in requests:
        if len(traced) >= MIN_TRACED and time.perf_counter() >= deadline:
            break
        outcome = Outcome(request, None)
        traced.append(outcome)
        start = time.perf_counter()
        try:
            result = stack.submit(request).result(timeout=REQUEST_TIMEOUT)
            end = time.perf_counter()
            root = tracer.record("request", start, end, None, len(traced))
            replay.run(root, len(traced), request, result)
        except TimeoutError:
            raise
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            outcome.error = repr(exc)
            continue
        outcome.latency, outcome.result = end - start, result
    if len(traced) < MIN_TRACED:
        raise RunError("ran out of requests before the traced phase")
    return traced


def _layer_metrics(workload, inputs, setup, before, after, loop, traced, tracer, replay):
    from perfbench import stacks, stats
    from perfbench.harness import RunError
    from repro.engine.compiled import compile_structure
    from repro.util.lru import LRUCache

    metrics = stats.layer_means_ms(tracer.spans, len(traced))
    metrics.update(stacks.counter_metrics(before, after, over_http=workload.mode == "allocate"))
    if workload.mode == "allocate" and not workload.renewal_profiles and (
        metrics["engine.lp_solves_per_req"] <= 0
    ):
        raise RunError("the workers counted no LP solve, yet every request has a fresh profile")
    if workload.mode == "allocate":
        overheads = stacks.overhead_ms(loop.outcomes)
        metrics["wire.request_kb"] = statistics.mean(replay.request_bytes) / 1024
        metrics["wire.response_kb"] = statistics.mean(replay.response_bytes) / 1024
    else:
        # no solve_seconds on a mechanism outcome: subtract the replayed
        # solve instead; and the worker counts no mechanism LP solves
        overheads = [
            1e3 * (root.duration - sum(s.duration for s in tracer.spans
                                       if s.parent == root.span_id
                                       and s.name in TRUTHFUL_SOLVE_SPANS))
            for root in tracer.spans if root.parent is None
        ]
        metrics["engine.lp_solves_per_req"] = (
            sum(s.name == "engine.lp" for s in tracer.spans) / len(traced)
        )
        metrics["wire.request_kb"] = metrics["wire.response_kb"] = 0.0
    metrics["service.overhead_ms"] = stats.median(overheads)
    metrics["engine.lp_rows"] = float(inputs.lp_rows)
    metrics["engine.lp_nnz"] = float(inputs.lp_nnz)
    t0 = time.perf_counter()
    compile_structure(inputs.scene, cache=LRUCache(1))
    metrics["setup.compile_structure_ms"] = 1e3 * (time.perf_counter() - t0)
    metrics["setup.register_ms"] = setup.register_ms
    metrics["setup.warmup_s"] = setup.warmup_s
    metrics["setup.pool_spawn_s"] = stacks.pool_spawn_seconds()
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Serving benchmark of the auction stack.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: run N seeds and report spreads")
    parser.add_argument("--save", help="steadiness mode: write the values here")
    parser.add_argument("--against", help="steadiness mode: compare with a saved set")
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.steady:
        from perfbench.steady import steady

        return steady(args, Path(__file__).resolve(), ROOT)
    from perfbench.harness import RunError
    from perfbench.stacks import stop_mp_helpers

    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, _raise_on_signal)
    signal.alarm(RUN_LIMIT)
    try:
        return run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, TimeoutError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        stop_mp_helpers()


if __name__ == "__main__":
    sys.exit(main())
