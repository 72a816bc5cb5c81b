"""Auction service behavior: scenes, determinism, coalescing, caches, drain."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.workloads import metro_disk_scene, metro_protocol_scene
from repro.service import (
    AuctionRequest,
    AuctionService,
    SceneRegistry,
    TrafficTrace,
    burst_trace,
    poisson_trace,
    request_from_wire,
    request_to_wire,
    scene_fingerprint,
)
from repro.valuations.generators import random_xor_valuations

N = 24
K = 3


@pytest.fixture(scope="module")
def scene():
    return metro_disk_scene(N, seed=501)


def make_service(scene, **overrides):
    options = {"executor": "serial", "coalesce_window": 0.01, "max_batch": 8}
    options.update(overrides)
    service = AuctionService(**options)
    service.register_scene(scene)
    return service


def make_trace(service, num_requests=14, repeat_fraction=0.7, seed=77, **kwargs):
    [scene_id] = service.registry.ids()
    return poisson_trace(
        service.registry,
        [scene_id],
        k=K,
        rate=500.0,
        num_requests=num_requests,
        seed=seed,
        repeat_fraction=repeat_fraction,
        unique_profiles=kwargs.pop("unique_profiles", 3),
        **kwargs,
    )


def allocations(results):
    return [r.allocation for r in results]


def over_the_wire(request):
    """``request`` as the gateway receives it: its wire form, through JSON."""
    return request_from_wire(json.loads(json.dumps(request_to_wire(request))))


class TestSceneRegistry:
    def test_fingerprint_is_content_addressed(self):
        a = metro_disk_scene(N, seed=601)
        b = metro_disk_scene(N, seed=601)  # identical generation, new object
        c = metro_disk_scene(N, seed=602)
        assert a is not b
        assert scene_fingerprint(a) == scene_fingerprint(b)
        assert scene_fingerprint(a) != scene_fingerprint(c)

    def test_fingerprint_covers_weighted_scenes(self):
        from repro.experiments.workloads import physical_auction

        a = physical_auction(10, 2, seed=603).structure
        b = physical_auction(10, 2, seed=603).structure
        c = physical_auction(10, 2, seed=604).structure
        assert scene_fingerprint(a) == scene_fingerprint(b)
        assert scene_fingerprint(a) != scene_fingerprint(c)

    def test_reregistration_keeps_canonical_object(self, scene):
        registry = SceneRegistry()
        first = registry.register(scene)
        clone = metro_disk_scene(N, seed=501)
        second = registry.register(clone)
        assert first == second
        assert registry.get(first) is scene  # first registrant wins
        assert len(registry) == 1

    def test_unknown_scene_rejected(self, scene):
        service = make_service(scene)
        request = AuctionRequest(
            scene_id="feedfacefeedface",
            k=K,
            valuations=random_xor_valuations(N, K, seed=1),
        )
        with pytest.raises(KeyError):
            service.submit(request)


class TestDeterminism:
    def test_same_trace_same_seed_identical_allocations(self, scene):
        first = make_service(scene)
        second = make_service(scene)
        trace = make_trace(first)
        res_a = first.run_trace(trace)
        res_b = second.run_trace(trace)
        assert allocations(res_a) == allocations(res_b)
        assert all(r.feasible for r in res_a)

    def test_queued_serial_matches_sync_path(self, scene):
        sync = make_service(scene)
        queued = make_service(scene)
        trace = make_trace(sync, num_requests=10)
        expected = sync.run_trace(trace)
        futures = [queued.submit(item.request) for item in trace]
        got = [f.result(timeout=60) for f in futures]
        assert queued.close(timeout=60)
        assert allocations(expected) == allocations(got)


class TestCoalescing:
    def test_batched_equals_one_by_one(self, scene):
        batched = make_service(scene, coalesce_window=10.0, max_batch=64)
        single = make_service(scene, coalesce_window=0.0, max_batch=1)
        trace = make_trace(batched, num_requests=12)
        res_batched = batched.run_trace(trace)
        res_single = single.run_trace(trace)
        assert allocations(res_batched) == allocations(res_single)
        # and the two really took different batching paths
        assert batched.metrics_snapshot()["max_batch_size"] > 1
        assert single.metrics_snapshot()["max_batch_size"] == 1

    def test_window_zero_never_batches(self, scene):
        service = make_service(scene, coalesce_window=0.0)
        trace = make_trace(service, num_requests=6)
        service.run_trace(trace)
        assert service.metrics_snapshot()["max_batch_size"] == 1

    def test_serial_dispatcher_holds_the_window_and_stamps_the_wait(self, scene):
        """The serial executor forms batches only through the window, so a
        lone profiled request waits it out, and the metrics say so."""
        service = make_service(scene, coalesce_window=0.3)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=920)
        request = AuctionRequest(scene_id, K, vals, seed=1, profile_key="renewal")
        service.solve_batch([request])
        assert service.metrics_snapshot()["dispatch_wait_seconds"] == 0.0
        service.submit(request).result(timeout=60)
        assert service.close(timeout=60)
        assert service.metrics_snapshot()["dispatch_wait_seconds"] >= 0.25

    def test_batch_groups_respect_scene_boundaries(self, scene):
        service = make_service(scene, coalesce_window=10.0, max_batch=64)
        other_id = service.register_scene(metro_protocol_scene(N, seed=502))
        [disk_id] = [s for s in service.registry.ids() if s != other_id]
        requests = [
            AuctionRequest(
                scene_id=sid,
                k=K,
                valuations=random_xor_valuations(N, K, seed=900 + i),
                seed=i,
            )
            for i, sid in enumerate([disk_id, other_id, disk_id, other_id])
        ]
        results = service.solve_batch(requests)
        assert len(results) == 4
        assert all(r.feasible for r in results)


class TestCacheAccounting:
    def test_repeat_profiles_hit_problem_cache(self, scene):
        service = make_service(scene)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=910)
        requests = [
            AuctionRequest(scene_id, K, vals, seed=i, profile_key="renewal")
            for i in range(5)
        ]
        service.solve_batch(requests)
        stats = service.cache_stats()
        assert stats["problems"]["misses"] == 1
        assert stats["problems"]["hits"] == 4
        # one compiled auction ⇒ exactly one LP solve for all five requests
        warm = stats["lp_warm_solves"]
        assert warm["warm"] + warm["cold"] == 1

    def test_distinct_requests_bypass_problem_cache(self, scene):
        service = make_service(scene)
        [scene_id] = service.registry.ids()
        requests = [
            AuctionRequest(
                scene_id, K, random_xor_valuations(N, K, seed=920 + i), seed=i
            )
            for i in range(3)
        ]
        service.solve_batch(requests)
        stats = service.cache_stats()
        assert stats["problems"]["hits"] == stats["problems"]["misses"] == 0
        warm = stats["lp_warm_solves"]
        assert warm["warm"] + warm["cold"] == 3
        # small LPs: all three on the seed-parity simplex band
        assert (warm["simplex"], warm["primal"]) == (3, 0)
        assert warm["simplex_iterations"] > 0

    def test_problem_cache_eviction_accounted(self, scene):
        service = make_service(scene, problem_cache_size=2)
        [scene_id] = service.registry.ids()
        for i in range(4):
            service.solve_batch(
                [
                    AuctionRequest(
                        scene_id,
                        K,
                        random_xor_valuations(N, K, seed=930 + i),
                        seed=i,
                        profile_key=f"profile-{i}",
                    )
                ]
            )
        stats = service.cache_stats()["problems"]
        assert stats["evictions"] == 2
        assert stats["size"] == 2

    def test_structure_compiled_once_per_scene(self, scene):
        service = make_service(scene)
        trace = make_trace(service, num_requests=8)
        service.run_trace(trace)
        stats = service.cache_stats()["structures"]
        assert stats["misses"] == 1
        assert stats["hits"] >= 7

    def test_disabled_caches_recompile_everything(self, scene):
        service = make_service(
            scene, structure_cache_size=0, problem_cache_size=0
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=940)
        requests = [
            AuctionRequest(scene_id, K, vals, seed=i, profile_key="renewal")
            for i in range(3)
        ]
        service.solve_batch(requests)
        stats = service.cache_stats()
        assert stats["problems"]["hits"] == 0
        warm = stats["lp_warm_solves"]
        assert warm["warm"] + warm["cold"] == 3  # one LP per request


class TestLifecycle:
    def test_graceful_drain_on_close(self, scene):
        service = make_service(scene, executor="serial")
        trace = make_trace(service, num_requests=8)
        futures = [service.submit(item.request) for item in trace]
        assert service.close(timeout=60)
        assert all(f.done() for f in futures)
        assert all(f.result().feasible for f in futures)
        snap = service.metrics_snapshot()
        assert snap["requests_completed"] == len(futures)
        assert snap["requests_failed"] == 0

    def test_submit_after_close_rejected(self, scene):
        service = make_service(scene)
        trace = make_trace(service, num_requests=2)
        service.submit(trace[0].request)
        assert service.close(timeout=60)
        with pytest.raises(RuntimeError):
            service.submit(trace[1].request)

    def test_close_idempotent_and_context_manager(self, scene):
        with make_service(scene) as service:
            trace = make_trace(service, num_requests=2)
            future = service.submit(trace[0].request)
        assert future.done()
        assert service.close()  # second close is a no-op

    def test_drain_without_starting(self, scene):
        service = make_service(scene)
        assert service.drain(timeout=1)
        assert service.close()


class TestTraffic:
    def test_poisson_trace_deterministic(self, scene):
        service = make_service(scene)
        a = make_trace(service, seed=88)
        b = make_trace(service, seed=88)
        assert [i.arrival for i in a] == [i.arrival for i in b]
        assert [i.request.seed for i in a] == [i.request.seed for i in b]
        assert a.duration > 0 and len(a) == 14

    def test_repeat_fraction_extremes(self, scene):
        service = make_service(scene)
        repeat = make_trace(service, repeat_fraction=1.0, seed=89)
        distinct = make_trace(
            service, repeat_fraction=0.0, unique_profiles=0, seed=89
        )
        assert all(i.request.profile_key is not None for i in repeat)
        assert all(i.request.profile_key is None for i in distinct)

    def test_burst_trace_shape(self, scene):
        service = make_service(scene)
        [scene_id] = service.registry.ids()
        trace = burst_trace(
            service.registry,
            [scene_id],
            k=K,
            burst_size=3,
            bursts=2,
            gap=0.5,
            seed=90,
        )
        assert len(trace) == 6
        assert [i.arrival for i in trace] == [0.0] * 3 + [0.5] * 3

    def test_invalid_parameters_rejected(self, scene):
        service = make_service(scene)
        [scene_id] = service.registry.ids()
        with pytest.raises(ValueError):
            poisson_trace(
                service.registry, [scene_id], k=K, rate=0.0, num_requests=1, seed=1
            )
        with pytest.raises(ValueError):
            burst_trace(
                service.registry,
                [scene_id],
                k=K,
                burst_size=0,
                bursts=1,
                gap=0.1,
                seed=1,
            )

    def test_encode_valuation_preserves_bid_order(self):
        # a request's wire form keeps every bidder's bid order (LP column
        # order follows it)
        from repro.valuations.additive import AdditiveValuation
        from repro.valuations.explicit import (
            ExplicitValuation,
            SingleMindedValuation,
            XORValuation,
        )

        bids = {frozenset({2}): 5.0, frozenset({0, 1}): 3.0}  # not sorted
        valuations = [
            XORValuation(3, bids),
            ExplicitValuation(3, bids),
            SingleMindedValuation(3, frozenset({1, 2}), 4.0),
        ]
        loaded = over_the_wire(AuctionRequest("s" * 16, 3, valuations))
        for original, decoded in zip(valuations, loaded.valuations):
            assert type(decoded) is type(original)
            assert list(decoded.bids.items()) == list(original.bids.items())
        # the additive family has no wire form
        additive = AuctionRequest("s" * 16, 3, [AdditiveValuation([1.0, 2.0, 3.0])])
        with pytest.raises(TypeError):
            request_to_wire(additive)

    def test_trace_keeps_metadata_and_idempotency_key(self):
        request = AuctionRequest(
            "s" * 16,
            K,
            random_xor_valuations(4, K, seed=5, bids_per_bidder=2),
            seed=3,
            metadata={"tenant": "metro-east"},
            idempotency_key="renewal:42:3",
        )
        loaded = over_the_wire(request)
        assert loaded.metadata == {"tenant": "metro-east"}
        assert loaded.idempotency_key == "renewal:42:3"

    def test_wire_form_replay_bit_identical(self, scene):
        recorder = make_service(scene)
        trace = make_trace(recorder, num_requests=10)
        expected = recorder.run_trace(trace)
        loaded = TrafficTrace(
            requests=[replace(item, request=over_the_wire(item.request)) for item in trace]
        )
        replayer = make_service(scene)
        got = replayer.run_trace(loaded)
        assert allocations(expected) == allocations(got)


class TestServiceValidation:
    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            AuctionService(executor="fpga")
        with pytest.raises(ValueError):
            AuctionService(executor="thread")
        with pytest.raises(ValueError):
            AuctionService(num_shards=0)
        with pytest.raises(ValueError):
            AuctionService(coalesce_window=-1.0)
        with pytest.raises(ValueError):
            AuctionService(max_batch=0)

    def test_metrics_snapshot_shape(self, scene):
        service = make_service(scene)
        trace = make_trace(service, num_requests=4)
        service.run_trace(trace)
        snap = service.metrics_snapshot()
        assert snap["requests_completed"] == 4
        assert snap["throughput_rps"] > 0
        for key in ("p50", "p95", "p99"):
            assert snap["latency_seconds"][key] >= 0
        assert snap["config"]["executor"] == "serial"
        assert snap["caches"]["structures"]["capacity"] == 32


class TestTruthfulRequests:
    """Mechanism-as-workload: truthful requests through the service."""

    def _trace(self, service, **kwargs):
        return make_trace(service, mode="truthful", **kwargs)

    def test_truthful_request_resolves_to_outcome(self, scene):
        from repro.mechanism.truthful import MechanismOutcome

        service = make_service(scene)
        trace = self._trace(service, num_requests=3)
        results = service.run_trace(trace)
        assert all(isinstance(r, MechanismOutcome) for r in results)
        structure = service.registry.get(next(iter(service.registry.ids())))
        for item, outcome in zip(trace, results):
            problem_feasible = all(
                structure.graph.is_independent(
                    [v for v, s in outcome.sampled_allocation.items() if j in s]
                )
                for j in range(item.request.k)
            )
            assert problem_feasible
            assert outcome.payments.shape == (structure.n,)

    def test_sampling_deterministic_from_request_seed(self, scene):
        service = make_service(scene)
        trace = self._trace(service, num_requests=6)
        a = service.run_trace(trace)
        b = service.run_trace(trace)
        for x, y in zip(a, b):
            assert x.sampled_allocation == y.sampled_allocation
            assert (x.payments == y.payments).all()

    def test_batching_invariance(self, scene):
        service_batched = make_service(scene, coalesce_window=0.05, max_batch=8)
        service_single = make_service(scene, coalesce_window=0.0, max_batch=1)
        trace = self._trace(service_batched, num_requests=6)
        a = service_batched.run_trace(trace)
        b = service_single.run_trace(trace)
        for x, y in zip(a, b):
            assert x.sampled_allocation == y.sampled_allocation

    def test_repeat_profiles_hit_mechanism_cache(self, scene):
        service = make_service(scene)
        trace = self._trace(
            service, num_requests=8, repeat_fraction=1.0, unique_profiles=2
        )
        service.run_trace(trace)
        stats = service.cache_stats()["mechanisms"]
        assert stats["misses"] == 2
        assert stats["hits"] == 6

    def test_disabled_mechanism_cache_recomputes(self, scene):
        service = make_service(scene, mechanism_cache_size=0)
        trace = self._trace(
            service, num_requests=4, repeat_fraction=1.0, unique_profiles=1
        )
        results = service.run_trace(trace)
        stats = service.cache_stats()["mechanisms"]
        assert stats["hits"] == 0
        assert len(results) == 4

    def test_mixed_mode_batch(self, scene):
        from repro.core.result import SolverResult
        from repro.mechanism.truthful import MechanismOutcome

        service = make_service(scene)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=900, bids_per_bidder=2)
        requests = [
            AuctionRequest(scene_id, K, vals, seed=1, mode="allocate"),
            AuctionRequest(scene_id, K, vals, seed=2, mode="truthful"),
        ]
        results = service.solve_batch(requests)
        assert isinstance(results[0], SolverResult)
        assert isinstance(results[1], MechanismOutcome)

    def test_queued_path_serves_truthful(self, scene):
        from repro.mechanism.truthful import MechanismOutcome

        service = make_service(scene)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=901, bids_per_bidder=2)
        with service:
            future = service.submit(
                AuctionRequest(scene_id, K, vals, seed=5, mode="truthful")
            )
            outcome = future.result(timeout=30)
        assert isinstance(outcome, MechanismOutcome)

    def test_unknown_mode_rejected(self, scene):
        service = make_service(scene)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=902, bids_per_bidder=2)
        bad = AuctionRequest(scene_id, K, vals, mode="clairvoyant")
        with pytest.raises(ValueError):
            service.submit(bad)
        # the synchronous path must reject too, not return silent Nones
        with pytest.raises(ValueError):
            service.solve_batch([bad])
        service.close()

    def test_mode_aware_cache_bypass(self, scene):
        # disabling only the cache relevant to the head's mode triggers the
        # coalescing bypass for that mode, and not for the other
        service = make_service(scene, mechanism_cache_size=0)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=903, bids_per_bidder=2)
        truthful = AuctionRequest(
            scene_id, K, vals, profile_key="p", mode="truthful"
        )
        allocate = AuctionRequest(
            scene_id, K, vals, profile_key="p", mode="allocate"
        )
        assert service._bypass_window(truthful) is True
        assert service._bypass_window(allocate) is False
        other = make_service(scene, problem_cache_size=0)
        assert other._bypass_window(truthful) is False
        assert other._bypass_window(allocate) is True

    def test_invalid_mechanism_pricing_rejected(self):
        with pytest.raises(ValueError):
            AuctionService(mechanism_pricing="psychic")
        with pytest.raises(ValueError):
            AuctionService(mechanism_pricing="warm")

    def test_trace_mode_round_trips_through_json(self, scene):
        service = make_service(scene)
        trace = self._trace(service, num_requests=3)
        assert [over_the_wire(i.request).mode for i in trace] == ["truthful"] * 3
        assert trace.meta["mode"] == "truthful"


class TestSmallSamplePercentiles:
    """p99 of a handful of requests must be an observed latency, not an
    interpolated fiction between the two slowest ones."""

    def _metrics_with(self, latencies):
        from repro.service import ServiceMetrics

        metrics = ServiceMetrics()
        for latency in latencies:
            metrics.record_submit()
            metrics.record_done(latency)
        return metrics

    def test_percentiles_are_exact_order_statistics(self):
        latencies = [0.010 * i for i in range(1, 11)]  # 10 samples
        snap = self._metrics_with(latencies).snapshot()
        lat = snap["latency_seconds"]
        # inverted CDF on 10 samples: p50 -> 5th, p95 -> 10th, p99 -> 10th
        assert lat["p50"] == pytest.approx(0.050)
        assert lat["p95"] == pytest.approx(0.100)
        assert lat["p99"] == pytest.approx(0.100)
        assert lat["p99"] == lat["max"]
        assert lat["samples"] == 10
        for key in ("p50", "p95", "p99"):
            assert lat[key] in latencies  # every percentile was observed

    def test_single_sample_reports_itself_everywhere(self):
        lat = self._metrics_with([0.123]).snapshot()["latency_seconds"]
        assert lat["p50"] == lat["p95"] == lat["p99"] == lat["max"] == 0.123
        assert lat["samples"] == 1

    def test_counts_accessor_is_consistent_with_snapshot(self):
        metrics = self._metrics_with([0.01, 0.02])
        metrics.record_submit()
        metrics.record_done(0.03, failed=True)
        counts = metrics.counts()
        assert counts == {
            "submitted": 3,
            "completed": 2,
            "failed": 1,
            "shed": 0,
            "timeouts": 0,
            "degraded": 0,
        }
        snap = metrics.snapshot()
        assert snap["requests_completed"] == counts["completed"]
        assert snap["requests_failed"] == counts["failed"]


class TestAdaptiveCoalescing:
    def test_disabled_caches_bypass_window(self, scene):
        service = make_service(
            scene, problem_cache_size=0, mechanism_cache_size=0
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=904, bids_per_bidder=2)
        for mode in ("allocate", "truthful"):
            # a repeat-profile head: only the disabled caches call for bypass
            head = AuctionRequest(scene_id, K, vals, profile_key="p", mode=mode)
            assert service._bypass_window(head) is True

    def test_distinct_stream_bypasses_window(self, scene):
        service = make_service(scene, coalesce_window=0.05, max_batch=8)
        trace = make_trace(
            service, num_requests=8, repeat_fraction=0.0, unique_profiles=0
        )
        service.run_trace(trace)
        # every request dispatched alone: the head request has no profile
        assert service.metrics_snapshot()["mean_batch_size"] == 1.0

    def test_repeat_stream_keeps_coalescing(self, scene):
        service = make_service(scene, coalesce_window=10.0, max_batch=4)
        trace = make_trace(
            service, num_requests=8, repeat_fraction=1.0, unique_profiles=2
        )
        service.run_trace(trace)
        assert service.metrics_snapshot()["mean_batch_size"] > 1.0

    def test_results_unchanged_by_bypass(self, scene):
        adaptive = make_service(scene, coalesce_window=0.05, max_batch=8)
        fixed = make_service(scene, coalesce_window=0.05, max_batch=1)
        trace = make_trace(
            adaptive, num_requests=8, repeat_fraction=0.0, unique_profiles=0
        )
        a = adaptive.run_trace(trace)
        b = fixed.run_trace(trace)
        assert allocations(a) == allocations(b)
