"""The benchmark's own arithmetic: metric tables, percentiles, spans, spreads.

Nothing here imports the program under test, so the tests in
``perfbench/test_stats.py`` pin these rules on their own.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# BENCHMARK.json, the benchmark's contract, is the one list of metrics and
# bounds; here: name -> (unit, better), for each kind
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END: dict[str, tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
}
PER_LAYER: dict[str, tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
}

# span name -> the per-layer metric its mean self time per request feeds
SPAN_METRICS: dict[str, str] = {
    "client.encode": "client.encode_ms",
    "client.decode": "client.decode_ms",
    "wire.decode": "wire.decode_ms",
    "wire.key": "wire.key_ms",
    "wire.encode": "wire.encode_ms",
    "pool.pickle": "pool.pickle_ms",
    "engine.columns": "engine.columns_ms",
    "engine.assembly": "engine.assembly_ms",
    "engine.lp": "engine.lp_ms",
    "engine.plan": "engine.plan_ms",
    "engine.round": "engine.round_ms",
    "core.feasible": "core.feasible_ms",
    "mechanism.decompose": "mechanism.decompose_ms",
    "mechanism.vcg": "mechanism.vcg_ms",
    "mechanism.sample": "mechanism.sample_ms",
}

TAIL_BEYOND = 10  # samples a tail percentile must have beyond it


def tail_percentile(
    latencies: Sequence[float], beyond: int = TAIL_BEYOND
) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the order statistic of rank
    ``N - beyond`` (1-based) of the ``N`` samples, which has exactly
    ``beyond`` samples ranked above it, and the percentile that rank
    stands for, ``100 * (N - beyond) / N``.  ``None`` when ``N <= beyond``:
    then no sample has that many beyond it.
    """
    n = len(latencies)
    if n <= beyond:
        return None
    ordered = sorted(latencies)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def median(values: Sequence[float]) -> float:
    """Order-statistic median (the lower middle for even counts), so the
    value reported is a latency some request actually had."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


@dataclass(frozen=True)
class LatencySummary:
    p50: float
    tail: float
    tail_percentile: float
    samples: int


def latency_summary(
    ok_latencies: Sequence[float], failed: int
) -> LatencySummary | None:
    """p50 and tail over every attempted request.

    A failed or refused request counts as missing every latency target, so
    it enters the sample as an infinite latency.  ``None`` when there are
    too few samples for a tail.
    """
    sample = list(ok_latencies) + [math.inf] * failed
    tail = tail_percentile(sample)
    if tail is None:
        return None
    return LatencySummary(median(sample), tail[0], tail[1], len(sample))


def succeeded_frac(attempted: int, failed: int) -> float:
    """Verified responses over requests attempted."""
    if attempted < 1:
        raise ValueError("no request was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return (attempted - failed) / attempted


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    The replayed layer calls are children of the request's root span but
    run after it, not inside it, so a child's share is its duration, not
    its overlap; the root's self time is what the replay did not account
    for (HTTP framing, queueing, hand-offs between threads and processes).
    """
    spans = list(spans)
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            if s.parent not in out:
                raise ValueError(f"span {s.span_id} has unknown parent {s.parent}")
            out[s.parent] -= s.duration
    return out


def layer_means_ms(spans: Sequence[Span], requests: int) -> dict[str, float]:
    """Per-layer metrics from a trace: mean self time per traced request.

    A layer absent from a request (say, the LP of a cached profile)
    contributes zero to that request.  ``trace.layer_sum_ms`` is the mean
    total of the root spans' children, ``trace.unaccounted_ms`` the mean
    root self time.
    """
    if requests < 1:
        raise ValueError("no traced request")
    own = self_times(spans)
    totals = {metric: 0.0 for metric in SPAN_METRICS.values()}
    layer_sum = unaccounted = 0.0
    roots = {s.span_id for s in spans if s.parent is None}
    for s in spans:
        if s.parent is None:
            unaccounted += own[s.span_id]
            continue
        if s.parent in roots:
            layer_sum += s.duration
        metric = SPAN_METRICS.get(s.name)
        if metric is None:
            raise ValueError(f"span {s.name!r} feeds no per-layer metric")
        totals[metric] += own[s.span_id]
    out = {metric: 1e3 * total / requests for metric, total in totals.items()}
    out["trace.layer_sum_ms"] = 1e3 * layer_sum / requests
    out["trace.unaccounted_ms"] = 1e3 * unaccounted / requests
    return out


# ----------------------------------------------------------------------
# run-to-run spread (steadiness mode)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Spread:
    median: float
    q1: float
    q3: float

    @property
    def relative(self) -> float:
        """(Q3 - Q1) / median, the share compared to a metric's bound."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else math.inf
        return (self.q3 - self.q1) / abs(self.median)


def spread(values: Sequence[float]) -> Spread:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return Spread(q2, q1, q3)


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``
    (negative when it is better)."""
    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change
