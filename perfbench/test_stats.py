"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import stats  # noqa: E402
from perfbench.harness import Verified, closed_loop, mark_failed, verify  # noqa: E402
from perfbench.stats import Span  # noqa: E402


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
def test_tail_is_the_rank_with_exactly_ten_samples_beyond_it():
    latencies = [float(i) for i in range(1, 101)]  # 1..100
    value, percentile = stats.tail_percentile(latencies)
    assert value == 90.0
    assert sum(x > value for x in latencies) == 10
    assert percentile == 90.0


def test_tail_needs_more_than_ten_samples():
    assert stats.tail_percentile([1.0] * 10) is None
    value, percentile = stats.tail_percentile([5.0, 1.0, 3.0] + [9.0] * 8 + [2.0])
    assert (value, percentile) == (2.0, pytest.approx(100 * 2 / 12))


def test_tail_ignores_input_order():
    data = [3.0, 1.0, 2.0] * 7
    assert stats.tail_percentile(data) == stats.tail_percentile(sorted(data))


def test_latency_summary_reports_the_sample_count_and_percentile():
    summary = stats.latency_summary([float(i) for i in range(40)], failed=0)
    assert summary.samples == 40
    assert summary.tail_percentile == 75.0
    assert summary.tail == 29.0
    assert summary.p50 == 19.0  # lower middle: a latency some request had


# ----------------------------------------------------------------------
# failures count against success and every latency target
# ----------------------------------------------------------------------
def test_failed_requests_count_as_infinite_latency():
    ok = [1.0] * 20
    clean = stats.latency_summary(ok, failed=0)
    assert clean.tail == 1.0 and clean.samples == 20
    hurt = stats.latency_summary(ok, failed=11)
    assert hurt.samples == 31
    assert math.isinf(hurt.tail)  # 11 failures: the tail lands on one of them
    assert hurt.p50 == 1.0
    broken = stats.latency_summary(ok, failed=21)
    assert math.isinf(broken.p50)


def test_succeeded_frac():
    assert stats.succeeded_frac(10, 0) == 1.0
    assert stats.succeeded_frac(10, 2) == 0.8
    with pytest.raises(ValueError):
        stats.succeeded_frac(0, 0)
    with pytest.raises(ValueError):
        stats.succeeded_frac(3, 4)


def _resolved(value=None, error=None) -> Future:
    future: Future = Future()
    if error is None:
        future.set_result(value)
    else:
        future.set_exception(error)
    return future


def test_closed_loop_counts_failures_against_success_not_throughput():
    def submit(request):
        if request == "refused":
            raise RuntimeError("shed")
        if request == "error":
            return _resolved(error=RuntimeError("worker crashed"))
        return _resolved(request)

    def check(request, result):
        if result == "wrong":
            raise ValueError("infeasible")
        return Verified(welfare=1.0, bound=2.0, solve_seconds=None)

    requests = ["ok", "refused", "error", "wrong", "ok", "ok"]
    loop = closed_loop(submit, requests, callers=2, seconds=60.0)
    assert loop.failed == 2  # the refused and the errored request
    assert sum(o.in_window for o in loop.outcomes) == 4
    verify(loop.outcomes, check)
    assert len(loop.outcomes) == 6
    assert loop.failed == 3
    assert [o.latency is None for o in loop.outcomes] == [
        False, True, True, True, False, False
    ]
    assert sum(o.in_window for o in loop.outcomes) == 3  # verified only
    assert {o.error.split(":")[0] for o in loop.outcomes if o.error} >= {"submit"}
    mark_failed(loop.outcomes[0], "replay mismatch")
    assert loop.failed == 4
    assert sum(o.in_window for o in loop.outcomes) == 2
    assert stats.succeeded_frac(len(loop.outcomes), loop.failed) == pytest.approx(2 / 6)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "request", 0.0, 10.0, None, 1),
        Span(1, "engine.lp", 10.0, 13.0, 0, 1),  # replayed after the root
        Span(2, "engine.columns", 13.0, 15.0, 0, 1),
        Span(3, "engine.plan", 13.5, 14.0, 2, 1),  # nested in columns
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)  # the unaccounted remainder
    assert own[2] == pytest.approx(2.0 - 0.5)
    assert own[3] == pytest.approx(0.5)


def test_unknown_parent_is_an_error():
    with pytest.raises(ValueError):
        stats.self_times([Span(0, "engine.lp", 0.0, 1.0, 7, 1)])


def test_layer_means_per_traced_request():
    spans = [
        Span(0, "request", 0.0, 1.0, None, 1),
        Span(1, "engine.lp", 1.0, 1.6, 0, 1),
        Span(2, "pool.pickle", 1.6, 1.7, 0, 1),
        Span(3, "request", 2.0, 2.5, None, 2),  # renewed profile: no LP
        Span(4, "pool.pickle", 2.5, 2.6, 3, 2),
        Span(5, "pool.pickle", 2.6, 2.7, 3, 2),  # two hops per request
    ]
    means = stats.layer_means_ms(spans, requests=2)
    assert means["engine.lp_ms"] == pytest.approx(300.0)
    assert means["pool.pickle_ms"] == pytest.approx(150.0)
    assert means["trace.layer_sum_ms"] == pytest.approx(450.0)
    assert means["trace.unaccounted_ms"] == pytest.approx((0.3 + 0.3) / 2 * 1e3)
    assert means["mechanism.vcg_ms"] == 0.0
    assert set(means) <= set(stats.PER_LAYER)


def test_every_span_name_feeds_a_declared_metric():
    assert set(stats.SPAN_METRICS.values()) <= set(stats.PER_LAYER)
    with pytest.raises(ValueError):
        stats.layer_means_ms(
            [Span(0, "request", 0, 1, None, 1), Span(1, "mystery", 1, 2, 0, 1)], 1
        )


# ----------------------------------------------------------------------
# names, units and BENCHMARK.json
# ----------------------------------------------------------------------
def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    from perfbench.workloads import WORKLOADS

    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = list(stats.END_TO_END) + list(stats.PER_LAYER) + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert stats.NAME_RE.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_bounds_are_within_the_contract():
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# spreads
# ----------------------------------------------------------------------
def test_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    sp = stats.spread(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (sp.q1, sp.median, sp.q3) == (q1, q2, q3)
    assert sp.median == statistics.median(values)
    assert sp.relative == pytest.approx((q3 - q1) / q2)


def test_worsening_respects_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)


# ----------------------------------------------------------------------
# the command outside a checkout
# ----------------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distinct_alloc_n1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""



# ----------------------------------------------------------------------
# truthful welfare
# ----------------------------------------------------------------------
class _Lottery:
    """Half the draws are empty, half give bidder 0 one channel."""

    def sample(self, rng):
        return {0: frozenset({0})} if rng.random() < 0.5 else {}


class _Problem:
    def welfare(self, allocation):
        return 2.0 * len(allocation)


def test_realised_welfare_averages_seeded_draws():
    from perfbench.harness import LOTTERY_DRAWS, Mismatch, realised_welfare
    from repro.util.rng import ensure_rng

    served = _Lottery().sample(ensure_rng(5))
    mean = realised_welfare(_Problem(), _Lottery(), 5, served)
    assert mean == realised_welfare(_Problem(), _Lottery(), 5, served)  # seeded
    assert mean * LOTTERY_DRAWS % 2 == 0 and 0.9 < mean < 1.1
    with pytest.raises(Mismatch):
        realised_welfare(_Problem(), _Lottery(), 5, {1: frozenset({0})})
