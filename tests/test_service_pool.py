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
from repro.engine import highs
from repro.engine.highs import choose_solver, core_share
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
        """The satellite pin: one trace, two placements, one answer.

        Per-request seeds drive every rounding RNG and the LP solves are
        cold (deterministic), so where a request lands — the dispatcher
        thread or one of 4 worker processes — must not change a single
        allocation.
        """
        serial = make_service(scene, executor="serial", num_shards=1)
        trace = make_trace(serial, num_requests=12)
        pooled = make_service(scene, executor="process", num_shards=4)
        expected = drive(serial, trace)
        got_pool = drive(pooled, trace)
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
        # the row generation runs the same rounds wherever a request lands
        serial_lp = serial.cache_stats()["lp_warm_solves"]
        for counter in ("row_rounds", "rows_added"):
            assert sum(s[counter] for s in solves) == serial_lp[counter] > 0
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
        # lanes: each worker's share of the cores, and how many it used
        assert pool["lanes"] == core_share(2)
        assert all(w["lanes"] == pool["lanes"] for w in pool["workers"])
        assert all(1 <= w["max_in_flight"] <= w["lanes"] for w in worked)
        assert pool["queue_wait_seconds"] >= 0.0
        assert snap["config"]["executor"] == "process"
        assert snap["config"]["num_shards"] == 2
        assert snap["requests_completed"] == 6

    def test_routing_spills_away_from_busy_home(self, scene, monkeypatch):
        """One hot scene must not serialize behind its home worker.  Four
        cores give each of the two workers two lanes, so the home is busy
        from its third job on, whatever the host's core count."""
        monkeypatch.setattr(highs, "_cores", lambda: 4)
        service = make_service(scene, num_shards=2)
        trace = make_trace(
            service, num_requests=8, repeat_fraction=0.0, unique_profiles=0
        )
        drive(service, trace)
        jobs = [w["jobs"] for w in service.metrics_snapshot()["pool"]["workers"]]
        assert sum(jobs) >= 2
        assert all(j > 0 for j in jobs), f"one worker sat idle: {jobs}"


@pytest.fixture
def two_cores(monkeypatch):
    """The parent sees two cores: a one-worker pool serves two lanes."""
    monkeypatch.setattr(highs, "_cores", lambda: 2)


def slow_batches(delay):
    """Every worker batch first sleeps ``delay`` seconds on its own lane,
    so jobs submitted together are in flight together."""
    return FaultPlan([FaultSpec(site="pool.worker.batch", kind="slow", delay=delay)])


def distinct_requests(scene_id, count, mode="allocate", profile_key=None, seed=60):
    return [
        AuctionRequest(
            scene_id,
            K,
            random_xor_valuations(N, K, seed=seed if profile_key else seed + i),
            seed=i,
            mode=mode,
            profile_key=profile_key,
        )
        for i in range(count)
    ]


def submit_together(service, requests, timeout=180):
    futures = [service.submit(r) for r in requests]
    return [f.result(timeout=timeout) for f in futures]


def wait_in_flight(pool, count, timeout=60.0):
    """Poll until worker 0's lanes hold ``count`` jobs."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with pool._lock:
            if pool._workers[0].in_flight == count:
                return
        time.sleep(0.01)
    raise AssertionError(f"worker 0 never held {count} jobs in flight")


class TestLanes:
    """One worker, two lanes: a second job solves beside the first."""

    def test_overlapping_allocate_jobs_equal_serial(self, scene, two_cores):
        serial = make_service(scene, executor="serial")
        [scene_id] = serial.registry.ids()
        requests = distinct_requests(scene_id, 2)
        expected = serial.solve_batch(requests)
        delay = 1.0
        pooled = make_service(
            scene, num_shards=1, coalesce_window=0.0, fault_plan=slow_batches(delay)
        )
        [warm] = distinct_requests(scene_id, 1, seed=90)
        pooled.submit(warm).result(timeout=180)  # spawned before the clock
        t0 = time.perf_counter()
        got = submit_together(pooled, requests)
        elapsed = time.perf_counter() - t0
        assert got == expected
        stats = pooled._pool.stats()
        assert stats["lanes"] == 2
        assert stats["workers"][0]["max_in_flight"] == 2
        # each slow fault slept on its own lane, not one after the other
        assert elapsed < 1.9 * delay
        assert pooled.close(timeout=180)
        serial.close()

    def test_overlapping_truthful_payments_equal_one_lane(self, scene, monkeypatch):
        monkeypatch.setattr(highs, "_cores", lambda: 1)
        one_lane = make_service(scene, num_shards=1, coalesce_window=0.0)
        [scene_id] = one_lane.registry.ids()
        requests = distinct_requests(scene_id, 2, mode="truthful")
        expected = submit_together(one_lane, requests)
        assert one_lane._pool.stats()["lanes"] == 1
        assert one_lane.close(timeout=180)
        monkeypatch.setattr(highs, "_cores", lambda: 2)
        two_lanes = make_service(
            scene, num_shards=1, coalesce_window=0.0, fault_plan=slow_batches(0.5)
        )
        got = submit_together(two_lanes, requests)
        assert two_lanes._pool.stats()["workers"][0]["max_in_flight"] == 2
        for x, y in zip(expected, got):
            assert x.sampled_allocation == y.sampled_allocation
            assert np.array_equal(x.payments, y.payments)
        assert two_lanes.close(timeout=180)

    def test_two_lanes_on_one_cached_profile_solve_its_lp_once(self, scene, two_cores):
        pooled = make_service(
            scene, num_shards=1, coalesce_window=0.0, fault_plan=slow_batches(0.5)
        )
        [scene_id] = pooled.registry.ids()
        requests = distinct_requests(scene_id, 2, profile_key="shared")
        first, second = submit_together(pooled, requests)
        assert first.lp_value == second.lp_value
        worker = pooled._pool.stats()["workers"][0]
        assert worker["max_in_flight"] == 2
        solves = worker["worker_stats"]["caches"]["lp_warm_solves"]
        assert solves["cold"] + solves["warm"] == 1
        assert pooled.close(timeout=180)

    def test_two_lanes_on_one_truthful_profile_prepare_it_once(self, scene, two_cores):
        pooled = make_service(
            scene, num_shards=1, coalesce_window=0.0, fault_plan=slow_batches(0.5)
        )
        [scene_id] = pooled.registry.ids()
        requests = distinct_requests(
            scene_id, 2, mode="truthful", profile_key="shared"
        )
        first, second = submit_together(pooled, requests)
        assert np.array_equal(first.payments, second.payments)
        # a third request's reply carries counters taken after both lanes
        third = pooled.submit(requests[0]).result(timeout=180)
        assert np.array_equal(first.payments, third.payments)
        worker = pooled._pool.stats()["workers"][0]
        assert worker["max_in_flight"] == 2
        mechanisms = worker["worker_stats"]["caches"]["mechanisms"]
        assert (mechanisms["misses"], mechanisms["hits"]) == (1, 2)
        assert pooled.close(timeout=180)

    def test_worker_killed_with_two_jobs_in_flight(self, scene, two_cores):
        """Both lanes see the crash; one respawn serves both retries, and
        a scene registered late still crosses the pipe once per process."""
        serial = make_service(scene, executor="serial")
        late = serial.register_scene(metro_protocol_scene(N, seed=503))
        requests = distinct_requests(late, 2)
        expected = serial.solve_batch(requests)
        pooled = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            worker_retries=1,
            fault_plan=slow_batches(0.5),
            pool_config={"respawn_backoff": 0.01},
        )
        [warm] = distinct_requests(pooled.registry.ids()[0], 1)
        pooled.submit(warm).result(timeout=180)  # pool up before the scene
        assert pooled.register_scene(metro_protocol_scene(N, seed=503)) == late
        futures = [pooled.submit(r) for r in requests]
        pool = pooled._pool
        wait_in_flight(pool, 2)
        time.sleep(0.25)  # both batches are asleep in the worker's lanes
        with pool._lock:
            process = pool._workers[0].process
        process.kill()
        assert [f.result(timeout=180) for f in futures] == expected
        stats = pool.stats()
        assert stats["restarts"] == 1
        assert stats["retried_batches"] == 2
        assert stats["failed_batches"] == 0
        assert stats["scenes_shipped"] == 1  # the respawn's snapshot holds it
        assert stats["healthy"]
        assert pooled.close(timeout=180)
        serial.close()

    def test_each_job_spends_its_own_retry_budget(self, scene, two_cores):
        """Incarnations 0 and 1 crash on their first batch: each of two
        jobs gets its one retry, both fail typed, and each crash costs one
        respawn however many lanes saw it."""
        plan = FaultPlan(
            [
                FaultSpec(site="pool.worker.batch", kind="slow", delay=0.5),
                FaultSpec(site="pool.worker.batch", kind="crash", generations=(0, 1)),
            ]
        )
        pooled = make_service(
            scene,
            num_shards=1,
            coalesce_window=0.0,
            worker_retries=1,
            fault_plan=plan,
            pool_config={"respawn_backoff": 0.01},
        )
        [scene_id] = pooled.registry.ids()
        futures = [pooled.submit(r) for r in distinct_requests(scene_id, 2)]
        for future in futures:
            with pytest.raises(WorkerCrashError):
                future.result(timeout=180)
        stats = pooled._pool.stats()
        assert stats["failed_batches"] == 2
        assert stats["retried_batches"] == 2
        assert stats["restarts"] == 2
        ok = pooled.submit(distinct_requests(scene_id, 1, seed=90)[0])
        assert ok.result(timeout=180).feasible
        assert pooled.close(timeout=180)


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


class TestTruthfulReplies:
    """A truthful pool reply ships the decomposition without its problem
    (the scene is most of its bytes); the parent re-attaches it."""

    def test_pool_outcome_equals_serial_and_reply_is_small(self, scene):
        import pickle

        from repro.service.pool import _shipped

        serial = make_service(scene, executor="serial", num_shards=1)
        trace = make_trace(serial, num_requests=4, mode="truthful", repeat_fraction=0.0)
        pooled = make_service(scene, executor="process", num_shards=2)
        expected = drive(serial, trace)
        got = drive(pooled, trace)
        for x, y in zip(expected, got):
            a, b = x.decomposition, y.decomposition
            assert a.target == b.target
            assert a.allocations == b.allocations
            assert np.array_equal(a.weights, b.weights)
            assert a.keep_probability == b.keep_probability
            assert a.expected_welfare() == b.expected_welfare()
            assert b.problem.structure is pooled.registry.get(trace[0].request.scene_id)
            for seed in range(5):
                assert a.sample(np.random.default_rng(seed)) == b.sample(
                    np.random.default_rng(seed)
                )
            assert x.sampled_allocation == y.sampled_allocation
            assert np.array_equal(x.payments, y.payments)
        # the reply a worker pickles for one request, at workload scale
        big = metro_disk_scene(300, seed=2011)
        service = make_service(big, executor="serial", num_shards=1)
        [scene_id] = service.registry.ids()
        request = AuctionRequest(
            scene_id,
            4,
            random_xor_valuations(300, 4, seed=3, bids_per_bidder=2),
            seed=1,
            mode="truthful",
        )
        [outcome] = service.solve_batch([request])
        assert service.close(timeout=60)
        reply = pickle.dumps(("done", 1, [_shipped(outcome, request)], {}))
        assert len(reply) < 40 * 1024
        assert len(pickle.dumps(outcome)) > 100 * 1024  # the scene it left behind
