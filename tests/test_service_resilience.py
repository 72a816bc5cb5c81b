"""Resilient edge: retries with idempotent replay, hedging, failover.

Every test drives a real localhost gateway.  The contracts pinned here
(DESIGN.md → "Resilient edge"):

* a lost response is recovered by a retry that replays from the
  gateway's idempotency journal — never by a second solve;
* retries are bounded, status-selective (never 400/404, never after a
  504 deadline), and deterministic: same trace + same fault plan means
  identical retry counts and bit-identical responses across runs;
* a hedged request races its primary under the same idempotency key,
  so hedging buys tail latency without duplicate work;
* killing one of two gateway replicas mid-trace loses no accepted
  request — the client evicts the dead endpoint and drains onto the
  survivor while the backing service stays healthy;
* an evicted endpoint is re-admitted passively, by the first request
  after its cooldown, with no background traffic while the client idles.
"""

from __future__ import annotations

import dataclasses
import socket
import time

import pytest

from repro.experiments.workloads import metro_disk_scene
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
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_default_makes_no_retries(self):
        assert RetryPolicy().max_attempts == 1

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=0.01, backoff_factor=2.0, backoff_cap=0.05
        )
        delays = [policy.delay_before(i, token=99) for i in (1, 2, 3, 4)]
        assert delays == [policy.delay_before(i, token=99) for i in (1, 2, 3, 4)]
        assert all(0 < d <= 0.05 for d in delays)
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


class TestHedging:
    def test_hedge_wins_over_a_slow_path_without_duplicate_solves(self, scene):
        spec = FaultSpec(
            site="client.connect", kind="latency", probability=0.5, delay=1.0
        )
        # pick seeds deterministically from a probe copy of the plan:
        # warm-up seeds must not fire, the target must fire on attempt 1
        # (so its primary sleeps) and not on the hedge ordinal
        probe = FaultPlan([spec], seed=2)
        fires = {
            s: probe.fires("client.connect", key=(s, 1)) is not None
            for s in range(64)
        }
        slow_seed = next(
            s
            for s, fired in fires.items()
            if fired and probe.fires("client.connect", key=(s, 2)) is None
        )
        fast_seeds = [s for s, fired in fires.items() if not fired][:6]
        assert len(fast_seeds) == 6

        service, scene_id = serve(scene)
        policy = RetryPolicy(
            max_attempts=1, hedge=True, hedge_min_delay=0.02, hedge_after_samples=4
        )
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(
                    port=server.port,
                    retry=policy,
                    fault_plan=FaultPlan([spec], seed=2),
                ) as client:
                    for s in fast_seeds:  # build the p99 window
                        client.solve(make_request(scene_id, seed=s))
                    t0 = time.perf_counter()
                    response = client.solve(make_request(scene_id, seed=slow_seed))
                    elapsed = time.perf_counter() - t0
                    stats = client.stats()
                    counters = server.gateway.counters()
            assert response.seed == slow_seed
            assert stats["hedges_launched"] == 1
            assert stats["hedges_won"] == 1
            assert elapsed < 1.0  # did not wait out the injected second
            assert counters["duplicate_solves"] == 0
        finally:
            service.close()


class TestReplicaFailover:
    def test_killing_one_of_two_replicas_loses_no_accepted_request(self, scene):
        service = AuctionService(executor="serial", coalesce_window=0.002)
        scene_id = service.register_scene(scene)
        server_a = GatewayServer(service).start()
        server_b = GatewayServer(service).start()
        client = SyncGatewayClient(
            port=server_a.port,
            replicas=[("127.0.0.1", server_b.port)],
            retry=RetryPolicy(max_attempts=2, backoff_base=0.002),
            failure_threshold=2,
            cooldown=30.0,  # the dead replica must stay out for this test
            request_timeout=10.0,
        )
        try:
            futures = []
            for i in range(40):
                futures.append(client.submit(make_request(scene_id, seed=100 + i)))
                if i == 10:
                    server_a.kill()
                time.sleep(0.005)
            results = [future.result(timeout=60) for future in futures]
            assert all(isinstance(r, AuctionResponse) for r in results)

            stats = client.stats()
            dead = [r for r in stats["endpoints"] if not r["live"]]
            assert len(dead) == 1
            assert dead[0]["endpoint"].endswith(f":{server_a.port}")
            assert stats["evictions"] == 1
            assert service.healthy()  # the pool-side service never flinched

            # accepted requests are bit-identical to fault-free replay
            expected = service.solve_batch(
                [make_request(scene_id, seed=100 + i) for i in range(40)]
            )
            assert results == expected
        finally:
            client.close()
            server_b.close()
            server_a.close()
            service.close()

    def test_evicted_endpoint_is_readmitted_by_traffic_not_probes(self, scene):
        service = AuctionService(executor="serial", coalesce_window=0.0)
        scene_id = service.register_scene(scene)
        server_b = GatewayServer(service).start()
        reserved = socket.socket()  # bound, never listening: connects are refused
        reserved.bind(("127.0.0.1", 0))
        port_a = reserved.getsockname()[1]
        client = SyncGatewayClient(
            port=port_a,
            replicas=[("127.0.0.1", server_b.port)],
            retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
            failure_threshold=2,
            cooldown=0.3,
        )
        server_a = None
        try:
            for seed in (1, 2):  # each tries A first, is refused, lands on B
                assert client.solve(make_request(scene_id, seed=seed)).seed == seed
            stats = client.stats()
            assert stats["evictions"] == 1
            assert [e["live"] for e in stats["endpoints"]] == [False, True]

            reserved.close()
            server_a = GatewayServer(service, port=port_a).start()
            time.sleep(0.5)  # idle past the cooldown: nothing may reach A
            assert server_a.gateway.counters()["requests"] == 0

            response = client.solve(make_request(scene_id, seed=3))
            stats = client.stats()
            assert response.seed == 3
            assert stats["readmissions"] == 1
            assert [e["live"] for e in stats["endpoints"]] == [True, True]
            assert server_a.gateway.counters()["requests"] == 1  # the half-open trial
        finally:
            client.close()
            reserved.close()
            if server_a is not None:
                server_a.close()
            server_b.close()
            service.close()
