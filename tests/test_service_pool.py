"""Process shard pool: placement invariance, crash recovery, accounting.

These tests spawn real worker processes (forkserver/spawn), so they keep
scenes tiny (n=24) and worker counts small — what they pin is behavior,
not throughput; the scaling numbers live in benchmarks/bench_service.py.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import choose_solver
from repro.experiments.workloads import metro_disk_scene, metro_protocol_scene
from repro.service import (
    AuctionRequest,
    AuctionService,
    FaultPlan,
    FaultSpec,
    WorkerCrashError,
    poisson_trace,
)
from repro.valuations.generators import random_xor_valuations

N = 24
K = 3


@pytest.fixture(scope="module")
def scene():
    return metro_disk_scene(N, seed=501)


def make_service(scene, executor="process", **overrides):
    options = {
        "executor": executor,
        "num_shards": 2,
        "coalesce_window": 0.002,
        "max_batch": 8,
    }
    options.update(overrides)
    service = AuctionService(**options)
    service.register_scene(scene)
    return service


def make_trace(service, num_requests=10, seed=77, **kwargs):
    [scene_id] = service.registry.ids()
    return poisson_trace(
        service.registry,
        [scene_id],
        k=K,
        rate=500.0,
        num_requests=num_requests,
        seed=seed,
        repeat_fraction=kwargs.pop("repeat_fraction", 0.5),
        unique_profiles=kwargs.pop("unique_profiles", 3),
        **kwargs,
    )


def drive(service, trace, timeout=180):
    """Max-rate open-loop drive through the queue (arrival stamps ignored)."""
    futures = [service.submit(item.request) for item in trace]
    results = [f.result(timeout=timeout) for f in futures]
    assert service.close(timeout=timeout)
    return results


class TestPlacementInvariance:
    def test_serial_thread_process_bit_identical(self, scene):
        """The satellite pin: one trace, three placements, one answer.

        Per-request seeds drive every rounding RNG and the LP solves are
        cold (deterministic), so where a request lands — dispatcher
        thread, one of 4 shard threads, one of 4 worker processes — must
        not change a single allocation.
        """
        serial = make_service(scene, executor="serial", num_shards=1)
        trace = make_trace(serial, num_requests=12)
        threaded = make_service(scene, executor="thread", num_shards=4)
        pooled = make_service(scene, executor="process", num_shards=4)
        expected = drive(serial, trace)
        got_threads = drive(threaded, trace)
        got_pool = drive(pooled, trace)
        assert [r.allocation for r in expected] == [r.allocation for r in got_threads]
        assert [r.allocation for r in expected] == [r.allocation for r in got_pool]
        assert [r.welfare for r in expected] == [r.welfare for r in got_pool]
        assert all(r.feasible for r in got_pool)

    @pytest.mark.parametrize(
        "repeat_fraction", [0.0, 1.0], ids=["distinct", "renewal"]
    )
    def test_serial_lists_and_pool_profiles_bit_identical(self, scene, repeat_fraction):
        """The serial queueless path solves the caller's valuation lists;
        the pool path converts each request to a columnar Profile on
        submit, pickles the arrays and enumerates columns from them.  On a
        distinct trace and a renewal (profile_key) trace both must agree
        bit for bit."""
        from repro.valuations.profile import Profile

        serial = make_service(scene, executor="serial", num_shards=1)
        trace = make_trace(
            serial, num_requests=10, seed=78, repeat_fraction=repeat_fraction
        )
        assert not any(isinstance(item.request.valuations, Profile) for item in trace)
        if repeat_fraction:
            assert all(item.request.profile_key is not None for item in trace)
        expected = serial.solve_batch([item.request for item in trace])
        serial.close()
        pooled = make_service(scene, executor="process", num_shards=2)
        got = drive(pooled, trace)
        assert [r.allocation for r in got] == [r.allocation for r in expected]
        assert [r.welfare for r in got] == [r.welfare for r in expected]
        assert [r.lp_value for r in got] == [r.lp_value for r in expected]
        assert all(r.feasible for r in got)

    def test_primal_band_bit_identical_across_pool(self):
        """Placement invariance on the primal-simplex band of the LP
        policy: each request's LP has 3500 rows, of which about 1900 can
        bind and are solved — inside the primal band — and the serial
        service (one reused primal instance) and the pool (fresh instances
        per worker) must agree bit for bit."""
        n, k = 500, 6
        big = metro_disk_scene(n, seed=502)
        serial = make_service(big, executor="serial", num_shards=1)
        pooled = make_service(big, executor="process", num_shards=2)
        [scene_id] = serial.registry.ids()
        requests = [
            AuctionRequest(scene_id, k, random_xor_valuations(n, k, seed=600 + i), seed=i)
            for i in range(3)
        ]
        for r in requests:
            compiled = CompiledAuction(AuctionProblem(big, k, list(r.valuations)))
            assert choose_solver(*compiled.matrices_csc()[0].shape) == "primal"
        expected = [serial.submit(r).result(timeout=180) for r in requests]
        got = [f.result(timeout=180) for f in [pooled.submit(r) for r in requests]]
        assert serial.cache_stats()["lp_warm_solves"]["primal"] == len(requests)
        workers = pooled.metrics_snapshot()["pool"]["workers"]
        solves = [w["worker_stats"]["caches"]["lp_warm_solves"] for w in workers if w["jobs"]]
        assert sum(s["primal"] for s in solves) == len(requests)
        assert sum(s["simplex_iterations"] for s in solves) > 0
        assert serial.close(timeout=180) and pooled.close(timeout=180)
        assert [r.allocation for r in expected] == [r.allocation for r in got]
        assert [r.lp_value for r in expected] == [r.lp_value for r in got]
        assert [r.welfare for r in expected] == [r.welfare for r in got]
        assert all(r.feasible for r in got)

    def test_truthful_payments_bit_identical_across_pool(self, scene):
        serial = make_service(scene, executor="serial", num_shards=1)
        trace = make_trace(serial, num_requests=4, mode="truthful")
        pooled = make_service(scene, executor="process", num_shards=2)
        expected = drive(serial, trace)
        got = drive(pooled, trace)
        for x, y in zip(expected, got):
            assert x.sampled_allocation == y.sampled_allocation
            assert np.array_equal(x.payments, y.payments)


class TestCrashRecovery:
    def test_crashed_worker_respawns_and_batch_retries(self, scene):
        """A worker killed mid-batch must not hang the queue: the pool
        respawns it and the respawned incarnation serves the retry."""
        plan = FaultPlan(
            # incarnation 0 dies on its first batch, incarnation 1 solves
            [FaultSpec(site="pool.worker.batch", kind="crash", generations=(0,))]
        )
        service = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            fault_plan=plan,
            pool_config={"respawn_backoff": 0.01},
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=5)
        reference = make_service(scene, executor="serial")
        expected = reference.solve_batch(
            [AuctionRequest(scene_id, K, vals, seed=9)]
        )[0]
        future = service.submit(AuctionRequest(scene_id, K, vals, seed=9))
        assert future.result(timeout=180).allocation == expected.allocation
        stats = service._pool.stats()
        assert stats["restarts"] == 1
        assert stats["retried_batches"] == 1
        assert stats["failed_batches"] == 0
        assert stats["breaker_trips"] == 0
        assert stats["healthy"]
        assert service.close(timeout=180)
        assert not any(w["alive"] for w in service._pool.stats()["workers"])
        assert service.metrics.counts()["failed"] == 0
        reference.close()

    def test_crash_worker_metadata_is_inert(self, scene):
        """The old ``metadata["_crash_worker"]`` hook and its shim are
        gone: the key is plain metadata now and crashes nothing — crash
        faults come from a FaultPlan only."""
        import repro.service.faults as faults

        assert not hasattr(faults, "legacy_crash_fires")
        service = make_service(scene, num_shards=1, coalesce_window=0.0)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=5)
        flagged = AuctionRequest(
            scene_id, K, vals, seed=9, metadata={"_crash_worker": 0}
        )
        assert service.submit(flagged).result(timeout=180).feasible
        stats = service._pool.stats()
        assert stats["restarts"] == 0
        assert stats["retried_batches"] == 0
        assert service.close(timeout=180)

    def test_killed_idle_worker_recovers_on_next_batch(self, scene):
        service = make_service(scene, num_shards=1, coalesce_window=0.0)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=6)
        first = service.submit(AuctionRequest(scene_id, K, vals, seed=1))
        first.result(timeout=180)
        service._pool._workers[0].process.kill()
        second = service.submit(AuctionRequest(scene_id, K, vals, seed=1))
        assert second.result(timeout=180).allocation == first.result().allocation
        assert service._pool.stats()["restarts"] == 1
        assert service.close(timeout=180)

    def test_exhausted_retries_fail_future_but_not_service(self, scene):
        plan = FaultPlan(
            # incarnations 0 and 1 both crash: the attempt and its single
            # retry die, so the batch fails typed; incarnation 2 is clean
            [FaultSpec(site="pool.worker.batch", kind="crash", generations=(0, 1))]
        )
        service = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            worker_retries=1,
            fault_plan=plan,
            pool_config={"respawn_backoff": 0.01},
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=7)
        with pytest.raises(WorkerCrashError):
            service.submit(AuctionRequest(scene_id, K, vals, seed=2)).result(
                timeout=180
            )
        stats = service._pool.stats()
        assert stats["failed_batches"] == 1
        assert stats["restarts"] == 2  # initial attempt + one retry
        # the pool is healthy again: the next request is served normally
        ok = service.submit(AuctionRequest(scene_id, K, vals, seed=2))
        assert ok.result(timeout=180).feasible
        assert service.close(timeout=180)
        counts = service.metrics.counts()
        assert counts["failed"] == 1
        assert counts["completed"] == 1


class TestCircuitBreaker:
    def test_exhausted_respawn_budget_trips_breaker(self, scene):
        """Consecutive crashes beyond respawn_limit stop the respawn loop:
        the slot's breaker opens, further jobs fail typed (no routable
        worker left), and the pool reports itself unhealthy."""
        plan = FaultPlan(
            [FaultSpec(site="pool.worker.batch", kind="crash")]  # every batch
        )
        service = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            worker_retries=0,
            fault_plan=plan,
            pool_config={
                "respawn_limit": 1,
                "respawn_backoff": 0.01,
                "breaker_cooldown": 60.0,
            },
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=11)
        for i in range(3):
            with pytest.raises(WorkerCrashError):
                service.submit(AuctionRequest(scene_id, K, vals, seed=i)).result(
                    timeout=180
                )
        stats = service._pool.stats()
        assert stats["breaker_trips"] == 1
        assert stats["restarts"] == 1  # one respawn, then the trip
        assert stats["failed_batches"] == 3
        assert stats["workers"][0]["breaker_open"]
        assert not stats["healthy"]
        assert not service.healthy()
        assert service.metrics.counts()["failed"] == 3
        assert service.close(timeout=180)  # a tripped slot closes cleanly

    def test_half_open_probe_recovers_after_cooldown(self, scene):
        """Once the cooldown elapses, one probe incarnation is allowed;
        a clean batch closes the breaker and resets the crash streak."""
        plan = FaultPlan(
            # only incarnation 0 crashes: the probe (incarnation 1) is clean
            [FaultSpec(site="pool.worker.batch", kind="crash", generations=(0,))]
        )
        service = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            worker_retries=1,
            fault_plan=plan,
            pool_config={
                "respawn_limit": 0,  # first crash trips immediately
                "respawn_backoff": 0.01,
                "breaker_cooldown": 0.3,
            },
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=12)
        with pytest.raises(WorkerCrashError):
            service.submit(AuctionRequest(scene_id, K, vals, seed=1)).result(
                timeout=180
            )
        assert service._pool.stats()["workers"][0]["breaker_open"]
        time.sleep(0.4)  # past the cooldown: the next job probes the slot
        ok = service.submit(AuctionRequest(scene_id, K, vals, seed=2))
        assert ok.result(timeout=180).feasible
        stats = service._pool.stats()
        assert stats["breaker_trips"] == 1
        assert not stats["workers"][0]["breaker_open"]
        assert stats["workers"][0]["consecutive_failures"] == 0
        assert stats["healthy"]
        assert service.healthy()
        assert service.close(timeout=180)

    def test_open_breaker_routes_batches_to_surviving_worker(self, scene):
        """Routing skips breaker-open slots: a scene whose home shard is
        tripped is served by the surviving worker, not queued forever."""
        service = make_service(scene, num_shards=2, coalesce_window=0.0)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=13)
        service.submit(AuctionRequest(scene_id, K, vals, seed=1)).result(timeout=180)
        pool = service._pool
        home = pool.home_of(scene_id)
        handle = pool._workers[home]
        with pool._lock:  # trip the home shard's breaker by hand
            handle.process.terminate()
            handle.process.join(5.0)
            handle.process = None
            handle.conn = None
            handle.breaker_trips += 1
            handle.breaker_until = time.monotonic() + 60.0
        ok = service.submit(AuctionRequest(scene_id, K, vals, seed=2))
        assert ok.result(timeout=180).feasible
        stats = pool.stats()
        assert stats["workers"][home]["breaker_open"]
        assert stats["workers"][1 - home]["jobs"] >= 1
        assert not stats["healthy"]
        assert service.close(timeout=180)

    def test_injected_spawn_failure_is_absorbed_by_retry(self, scene):
        """A worker that dies *at spawn* (the respawn-storm case) is
        detected on first contact; the backoff respawn brings up a clean
        incarnation that serves the retried batch."""
        plan = FaultPlan(
            [FaultSpec(site="pool.worker.spawn", kind="crash", generations=(0,))]
        )
        service = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            worker_retries=1,
            fault_plan=plan,
            pool_config={"respawn_backoff": 0.01},
        )
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=14)
        reference = make_service(scene, executor="serial")
        expected = reference.solve_batch(
            [AuctionRequest(scene_id, K, vals, seed=3)]
        )[0]
        future = service.submit(AuctionRequest(scene_id, K, vals, seed=3))
        assert future.result(timeout=180).allocation == expected.allocation
        stats = service._pool.stats()
        assert stats["restarts"] == 1
        assert stats["retried_batches"] == 1
        assert stats["failed_batches"] == 0
        assert stats["healthy"]
        assert service.close(timeout=180)
        reference.close()


class TestSceneShippingAndStats:
    def test_spawn_snapshot_never_reships_and_new_scenes_ship_once(self, scene):
        service = make_service(scene, num_shards=2, coalesce_window=0.0)
        [scene_id] = service.registry.ids()
        vals = random_xor_valuations(N, K, seed=8)
        # registered before start: in every worker's spawn snapshot
        service.submit(AuctionRequest(scene_id, K, vals, seed=1)).result(timeout=180)
        assert service._pool.stats()["scenes_shipped"] == 0
        # registered after start: pickled across at most once per worker
        late = service.register_scene(metro_protocol_scene(N, seed=502))
        for i in range(3):
            service.submit(
                AuctionRequest(
                    late, K, random_xor_valuations(N, K, seed=30 + i), seed=i
                )
            ).result(timeout=180)
        shipped = service._pool.stats()["scenes_shipped"]
        assert 1 <= shipped <= service.num_shards
        # re-submitting the same scene ships nothing further
        service.submit(
            AuctionRequest(late, K, random_xor_valuations(N, K, seed=40), seed=9)
        ).result(timeout=180)
        assert service._pool.stats()["scenes_shipped"] == shipped
        assert service.close(timeout=180)

    def test_pool_accounting_in_metrics_snapshot(self, scene):
        service = make_service(scene, num_shards=2)
        trace = make_trace(service, num_requests=6)
        drive(service, trace)
        snap = service.metrics_snapshot()
        pool = snap["pool"]
        assert pool["num_workers"] == 2
        assert pool["start_method"] in ("forkserver", "spawn", "fork")
        assert pool["cores"] >= 1
        assert pool["ipc_bytes_sent"] > 0
        assert pool["ipc_bytes_received"] > 0
        assert pool["ipc_seconds"] >= 0.0
        assert len(pool["workers"]) == 2
        assert sum(w["jobs"] for w in pool["workers"]) >= 1
        # worker-side cache/warm accounting rides back on the replies
        worked = [w for w in pool["workers"] if w["jobs"]]
        assert all("caches" in w["worker_stats"] for w in worked)
        assert snap["config"]["executor"] == "process"
        assert snap["config"]["num_shards"] == 2
        assert snap["requests_completed"] == 6

    def test_routing_spills_away_from_busy_home(self, scene):
        """One hot scene must not serialize behind its home worker."""
        service = make_service(scene, num_shards=2)
        trace = make_trace(
            service, num_requests=8, repeat_fraction=0.0, unique_profiles=0
        )
        drive(service, trace)
        jobs = [w["jobs"] for w in service.metrics_snapshot()["pool"]["workers"]]
        assert sum(jobs) >= 2
        assert all(j > 0 for j in jobs), f"one worker sat idle: {jobs}"


class TestValidation:
    def test_bad_pool_options_rejected(self):
        with pytest.raises(ValueError):
            AuctionService(executor="process", worker_retries=-1)
        from repro.service.pool import ProcessShardPool
        from repro.service.scenes import SceneRegistry

        with pytest.raises(ValueError):
            ProcessShardPool(SceneRegistry(), 0)
        with pytest.raises(ValueError):
            ProcessShardPool(SceneRegistry(), 1, max_retries=-1)
        with pytest.raises(ValueError):
            ProcessShardPool(SceneRegistry(), 1, start_method="hologram")
        with pytest.raises(ValueError):
            ProcessShardPool(SceneRegistry(), 1, respawn_limit=-1)
        with pytest.raises(ValueError):
            ProcessShardPool(SceneRegistry(), 1, respawn_backoff=-0.1)
        with pytest.raises(ValueError):
            ProcessShardPool(SceneRegistry(), 1, breaker_cooldown=-1.0)

    def test_submit_requires_started_pool(self, scene):
        from repro.service.pool import ProcessShardPool
        from repro.service.scenes import SceneRegistry

        registry = SceneRegistry()
        registry.register(scene)
        pool = ProcessShardPool(registry, 1)
        with pytest.raises(RuntimeError):
            pool.submit("00", [])
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit("00", [])
