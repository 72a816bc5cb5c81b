"""Resilient edge: bounded retries with idempotent replay.

Every test drives a real localhost gateway.  The contracts pinned here
(DESIGN.md → "Resilient edge"):

* a lost response is recovered by a retry that replays from the
  gateway's idempotency journal — never by a second solve;
* retries are bounded, status-selective (never 400/404, never after a
  504 deadline), and deterministic: same trace + same fault plan means
  identical retry counts and bit-identical responses across runs;
* concurrent deliveries of one idempotency key coalesce onto a single
  in-flight solve;
* an exchange that outlives the request timeout fails as a retryable
  transport error.
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import time

import pytest

from repro.experiments.workloads import metro_disk_scene
from repro.service import client as client_module
from repro.service import (
    AuctionRequest,
    AuctionResponse,
    AuctionService,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    GatewayServer,
    RetryPolicy,
    SyncGatewayClient,
    run_scenario,
    scenario_library,
)
from repro.valuations.generators import random_xor_valuations

N = 16
K = 3


@pytest.fixture(scope="module")
def scene():
    return metro_disk_scene(N, seed=601)


def make_request(scene_id, seed=1, **kwargs):
    vals = kwargs.pop("valuations", None)
    if vals is None:
        vals = random_xor_valuations(N, K, seed=seed)
    return AuctionRequest(scene_id, K, vals, seed=seed, **kwargs)


def serve(scene, *, fault_plan=None, **service_kwargs):
    service = AuctionService(
        executor="serial", coalesce_window=0.0, fault_plan=fault_plan, **service_kwargs
    )
    scene_id = service.register_scene(scene)
    return service, scene_id


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(TypeError):
            RetryPolicy(jitter=1.5)  # a module constant, not a policy field

    def test_default_makes_no_retries(self):
        assert RetryPolicy().max_attempts == 1

    def test_backoff_is_deterministic_and_bounded(self):
        # base 0.2 doubles past the 0.5 s cap from retry 3 on
        policy = RetryPolicy(max_attempts=5, backoff_base=0.2)
        delays = [policy.delay_before(i, token=99) for i in (1, 2, 3, 4)]
        assert delays == [policy.delay_before(i, token=99) for i in (1, 2, 3, 4)]
        assert all(0 < d <= client_module.BACKOFF_CAP for d in delays)
        # jitter only scales down, by at most JITTER of the capped base
        floor = client_module.BACKOFF_CAP * (1 - client_module.JITTER)
        assert all(floor <= d for d in delays[2:])
        # a different token jitters differently, same token replays
        assert delays != [policy.delay_before(i, token=100) for i in (1, 2, 3, 4)]


class TestRetryRecovery:
    def test_dropped_response_is_replayed_from_journal(self, scene):
        """The at-least-once case: response lost after the solve — the
        retry is a journal hit, not a second solve."""
        plan = FaultPlan(
            [
                FaultSpec(
                    site="gateway.response",
                    kind="drop",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=3,
        )
        service, scene_id = serve(scene, fault_plan=plan)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
                    fault_plan=plan,
                ) as client:
                    response = client.solve(make_request(scene_id, seed=7))
                    assert isinstance(response, AuctionResponse)
                    assert response.seed == 7
                    stats = client.stats()
                    counters = server.gateway.counters()
            assert stats["retries"] == 1
            assert counters["dropped_responses"] == 1
            assert counters["journal_hits"] == 1
            assert counters["journal_misses"] == 1
            assert counters["duplicate_solves"] == 0
        finally:
            service.close()

    def test_truncated_response_is_retried(self, scene):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="gateway.response",
                    kind="truncate",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=4,
        )
        service, scene_id = serve(scene, fault_plan=plan)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
                    fault_plan=plan,
                ) as client:
                    response = client.solve(make_request(scene_id, seed=8))
                    assert response.seed == 8
                    counters = server.gateway.counters()
            assert counters["dropped_responses"] == 1
            assert counters["duplicate_solves"] == 0
        finally:
            service.close()

    def test_404_is_never_retried(self, scene):
        service, _scene_id = serve(scene)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=5, backoff_base=0.001),
                ) as client:
                    with pytest.raises(KeyError):
                        client.solve(make_request("f" * 16, seed=9))
                    stats = client.stats()
            assert stats["attempts"] == 1
            assert stats["retries"] == 0
        finally:
            service.close()

    def test_504_deadline_is_never_retried(self, scene):
        """The budget is spent either way — a retry cannot help.  A slow
        solve blocks the queue so the second request's deadline expires
        before dispatch (the test_gateway.py 504 recipe), and the client
        must surface the typed failure after exactly one attempt."""
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="slow", delay=0.4)]
        )
        service, scene_id = serve(scene, fault_plan=plan, degrade_headroom=0.0)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=5, backoff_base=0.001),
                ) as client:
                    blocker = client.submit(make_request(scene_id, seed=41))
                    with pytest.raises(DeadlineExceeded):
                        client.solve(
                            make_request(scene_id, seed=10, deadline=0.05)
                        )
                    assert blocker.result(timeout=60).feasible
                    stats = client.stats()
            assert stats["attempts"] == 2  # blocker + doomed, no retries
            assert stats["retries"] == 0
        finally:
            service.close()


class TestIdempotentReplay:
    def test_duplicate_submit_is_a_journal_hit_without_a_second_solve(
        self, scene
    ):
        service, scene_id = serve(scene)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(port=server.port) as client:
                    first = client.solve(make_request(scene_id, seed=9))
                    second = client.solve(make_request(scene_id, seed=9))
                    counters = server.gateway.counters()
            assert first == second  # byte-identical replay of the payload
            assert counters["journal_misses"] == 1  # exactly one solve begun
            assert counters["journal_hits"] == 1
            assert counters["duplicate_solves"] == 0
        finally:
            service.close()

    def test_capacity_zero_disables_the_journal_and_counts_duplicates(
        self, scene
    ):
        service, scene_id = serve(scene)
        try:
            with GatewayServer(service, journal_capacity=0) as server:
                with SyncGatewayClient(port=server.port) as client:
                    first = client.solve(make_request(scene_id, seed=9))
                    second = client.solve(make_request(scene_id, seed=9))
                    counters = server.gateway.counters()
            assert first == second  # deterministic solver: same result anyway
            assert counters["journal_hits"] == 0
            assert counters["journal_misses"] == 2
            assert counters["duplicate_solves"] == 1  # the journal would have saved this
        finally:
            service.close()

    def test_explicit_idempotency_key_travels_and_dedupes(self, scene):
        """Two *different* requests under one explicit key: the second is
        served the first's journaled payload — the key is the identity."""
        service, scene_id = serve(scene)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(port=server.port) as client:
                    first = client.solve(
                        make_request(scene_id, seed=11, idempotency_key="pin-1")
                    )
                    second = client.solve(
                        make_request(scene_id, seed=12, idempotency_key="pin-1")
                    )
                    counters = server.gateway.counters()
            assert second == first
            assert second.seed == 11  # the journaled payload, verbatim
            assert counters["journal_hits"] == 1
        finally:
            service.close()


class TestRetryDeterminism:
    def tiny(self, name, n=30):
        return dataclasses.replace(
            scenario_library()[name], num_requests=n, scene_size=12, num_scenes=1
        )

    @pytest.mark.parametrize("name", ["flaky_network", "gateway_partition"])
    def test_two_runs_are_bit_identical(self, name):
        """Same trace + same fault plan ⇒ identical fault firings, retry
        counts, journal traffic, and bit-identical responses."""
        first = run_scenario(self.tiny(name), transport="gateway")
        second = run_scenario(self.tiny(name), transport="gateway")
        for report in (first, second):
            assert report.ok(), report.invariants
            assert report.completed == report.accepted
        assert first.fired == second.fired
        assert first.client == second.client
        assert first.client["retries"] > 0  # the plan actually bit
        # connection counts depend on pool reuse timing; everything the
        # resilience contract speaks about must match exactly
        for key in (
            "refused_connections",
            "dropped_responses",
            "journal_hits",
            "journal_misses",
            "duplicate_solves",
        ):
            assert first.gateway[key] == second.gateway[key], key


class TestCoalescing:
    def test_concurrent_deliveries_of_one_key_share_one_solve(self, scene):
        """Two overlapping solves under one explicit key: the second waits
        on the first's in-flight solve instead of starting its own."""
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="slow", delay=0.4)], seed=5
        )
        service, scene_id = serve(scene, fault_plan=plan)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(port=server.port) as client:
                    futures = [
                        client.submit(
                            make_request(scene_id, seed=21, idempotency_key="twin")
                        )
                        for _ in range(2)
                    ]
                    first, second = (f.result(timeout=60) for f in futures)
                    counters = server.gateway.counters()
            assert first == second
            assert counters["journal_coalesced"] == 1
            assert counters["journal_misses"] == 1
            assert counters["duplicate_solves"] == 0
            assert service.metrics_snapshot()["requests_completed"] == 1
        finally:
            service.close()


class TestRequestTimeout:
    def test_stalled_exchange_fails_as_a_retryable_transport_error(
        self, monkeypatch
    ):
        """A peer that accepts connections and never answers: each attempt
        times out as a transport error, and the retry loop makes another."""
        monkeypatch.setattr(client_module, "REQUEST_TIMEOUT", 0.2)
        with socket.socket() as mute:  # the kernel accepts; nobody reads
            mute.bind(("127.0.0.1", 0))
            mute.listen(8)
            with SyncGatewayClient(
                port=mute.getsockname()[1],
                retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
            ) as client:
                t0 = time.perf_counter()
                with pytest.raises(asyncio.TimeoutError) as caught:
                    client.solve(make_request("f" * 16, seed=5))
                elapsed = time.perf_counter() - t0
                stats = client.stats()
        assert isinstance(caught.value, client_module._TRANSPORT_ERRORS)
        assert elapsed < 2.0  # two 0.2 s exchanges, not the 60 s default
        assert stats["attempts"] == 2
        assert stats["retries"] == 1


class TestRemovedSurface:
    """The client serves one endpoint and never hedges; these pins keep
    the deleted knobs from coming back as silently ignored keywords."""

    def test_removed_keywords_raise(self):
        with pytest.raises(TypeError):
            SyncGatewayClient(replicas=[("127.0.0.1", 1)])
        with pytest.raises(TypeError):
            client_module.GatewayClient(replicas=[("127.0.0.1", 1)])
        with pytest.raises(TypeError):
            RetryPolicy(hedge=True)
        assert not hasattr(GatewayServer, "kill")

    def test_stats_hold_only_the_retry_counters(self, scene):
        service, scene_id = serve(scene)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(port=server.port) as client:
                    client.solve(make_request(scene_id, seed=3))
                    stats = client.stats()
            assert set(stats) == {"attempts", "retries", "connect_faults"}
            assert stats["attempts"] == 1
        finally:
            service.close()
