"""Multi-process shard pool: long-lived solver processes, several lanes each.

:class:`ProcessShardPool` is the parallel executor of
:class:`~repro.service.AuctionService` (``executor="process"``): a pool
of **long-lived worker processes**, each owning the full per-shard solver
state:

* its own LRU caches of compiled structures / compiled auctions /
  prepared mechanism outcomes,
* its own worker-side :class:`~repro.service.AuctionService` running the
  *identical* synchronous ``solve_batch`` code path the serial executor
  uses — which is what makes pool results bit-identical to the
  serial path for seeded requests (pinned by the placement-invariance
  tests),
* ``lanes`` serving threads (see **Lanes** below).

**Lanes.**  HiGHS's ``run()`` releases the GIL, and at metro scale the LP
solve is most of a request, so threads in one process do add request
throughput there: on seed-3 ``distinct_alloc_n1000`` requests (n=1000,
k=6) from two callers, a one-worker pool served 12.5–13.9 rps with two
lanes against 7.2–8.1 rps with one (2 vCPUs, three alternating runs
each, every result identical), and a job's wait for a free lane fell
from 106–119 ms to 0.1–0.2 ms — where a second worker process would
hold a second copy of the interpreter, the scenes and the caches.  So
every worker holds up to ``lanes = cores // num_workers`` (at least 1)
jobs in flight: the core share :func:`repro.engine.highs.core_share`
gives each process.  Each lane is one worker thread with its own pipe,
its own parent feeder thread and its own thread-local HiGHS backend,
which it empties after every batch
(:func:`repro.engine.highs.release_models`).  A lane records
``num_workers × lanes`` solvers
(:func:`repro.engine.highs.set_solver_processes`), so the VCG probe
threads of all lanes together stay within the cores.  Lanes share the
worker's service and caches: two lanes on one cached profile solve its
LP once (``CompiledAuction`` solves single-flight).

Design points, mirroring the request-stream framing of the paper's
secondary-spectrum setting (scenes are stable, valuations churn):

**Pickle-once scene shipping.**  Workers are spawned with a snapshot of
the registry, and any scene registered later crosses the pipe at most
once per worker process — the parent tracks a per-worker ``shipped`` set
and sends ``("scene", id, structure)`` on one lane's pipe on first use,
waiting for the worker's acknowledgement before any lane sends a batch
on that scene.  Requests
themselves carry only a seed and their valuations as one columnar
:class:`~repro.valuations.profile.Profile` (flat arrays, a few bytes per
bid; the service converts bid-list sequences before queueing).  Replies
do not carry the scene back: a truthful outcome crosses without its
decomposition's problem, which the parent rebuilds from the registered
scene and the request.

**Affinity routing with spill.**  A scene's *home* worker is
``hash(scene_id) % workers``, so repeat traffic keeps hitting the worker
whose compiled-structure, compiled-auction and mechanism caches already
hold that scene (LP bases do not survive a batch: every lane releases
its models after each one).  When the home worker is busier than the
least-loaded one (a worker with a free lane counts as idle), the batch
spills to the least-loaded worker instead
(deterministic scan from the home index):
distinct-heavy traffic on one hot scene — the workload this pool exists
for — then spreads across all workers instead of serializing behind the
scene's home shard.  Spilling never changes results, only which process
computes them.

**Crash recovery.**  Each lane's conversation is strictly
send-batch/receive-results, so a dead worker surfaces as ``EOFError`` on
every lane's pipe.  The first lane to see it respawns the worker (fresh
generation, fresh registry snapshot); the other lanes find the
incarnation already replaced and only retry.  Each in-flight batch is
retried up to ``max_retries`` times before its futures fail with
:class:`WorkerCrashError`; later batches queued behind it are unaffected.
Respawns back off exponentially (``respawn_backoff`` doubling per
consecutive crash, capped at ``backoff_cap``), and a slot that crashes
more than ``respawn_limit`` times in a row trips a per-worker **circuit
breaker**: the slot is abandoned, routing and queued jobs move to the
remaining workers, and after ``breaker_cooldown`` seconds a single
half-open probe incarnation may close the breaker again.  Fault
injection at the worker sites (crash, slow batch, spawn failure) is
driven by the parent service's :class:`~repro.service.faults.FaultPlan`,
shipped in ``worker_config``.

**Stray-process guard.**  Workers are daemonic *and* every started pool
registers its ``close`` with :mod:`atexit`, so examples and tests that
forget to close a service still terminate their workers at interpreter
exit.  ``close`` drains queued jobs, asks each worker to exit, and
escalates to ``terminate``/``kill`` on a bounded timeout.

IPC accounting (bytes each way, serialization seconds, scenes shipped,
restarts, retries), the lanes and the most jobs a worker held in flight,
and the time jobs waited on a worker's queue for a free lane are exposed
through :meth:`ProcessShardPool.stats` and land in the service's metrics
snapshot under ``"pool"``.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.auction import AuctionProblem
from repro.engine.highs import core_share, release_models, set_solver_processes
from repro.util.mp import mp_context

if TYPE_CHECKING:
    from repro.core.result import SolverResult
    from repro.service.scenes import AnyStructure, SceneRegistry
    from repro.service.service import AuctionService
    from repro.service.wire import AuctionRequest

__all__ = ["ProcessShardPool", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A worker process died while (or before) computing a batch."""


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
def _pool_worker_main(  # pragma: no cover - runs in worker processes
    conns: list[Any],
    scenes: dict[str, AnyStructure],
    config: dict[str, Any],
    generation: int,
    solver_processes: int,
) -> None:
    """Entry point of one worker process: one serving thread per lane.

    ``conns`` holds one pipe per lane.  ``scenes`` is the registry
    snapshot taken at spawn; ``config`` holds the cache/pricing
    configuration of the parent service so the worker's private
    :class:`AuctionService`, shared by its lanes, solves exactly as the
    in-process path would — including an armed copy of the parent's
    :class:`~repro.service.faults.FaultPlan`, whose worker sites
    (``"pool.worker.spawn"``, ``"pool.worker.batch"``) the lanes
    evaluate themselves.  ``generation`` counts respawns of this worker
    slot — generation-scoped crash faults compare against it so a plan
    can crash incarnation 0 and let incarnation 1 serve the retry.
    ``solver_processes`` is the pool's ``num_workers × lanes``: the VCG
    probe loop divides the cores by it
    (:func:`repro.engine.highs.probe_threads`).
    """
    from repro.service.service import AuctionService
    from repro.util.mp import run_fork_resets

    # under a fork-based start method the child inherits the forking
    # thread's persistent native-handle state (HiGHS loaded model,
    # warm-start key); warm-starting against a model loaded in another
    # process's life would be wrong, so every registered thread-local is
    # reset before the first solve — and the HiGHS hook is *required*:
    # a missing registration fails here, at spawn, not as a wrong solve
    run_fork_resets(require=("repro.engine.highs",))
    plan = config.get("fault_plan")
    if plan is not None and plan.fires("pool.worker.spawn", generation=generation):
        os._exit(4)  # injected spawn failure: die before serving anything
    service = AuctionService(executor="serial", coalesce_window=0.0, **config)
    for structure in scenes.values():
        service.registry.register(structure)
    lanes = [
        threading.Thread(
            target=_serve_lane,
            args=(conn, service, generation, solver_processes),
            name=f"auction-pool-lane-{i}",
            daemon=True,
        )
        for i, conn in enumerate(conns)
    ]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join()


def _serve_lane(  # pragma: no cover - runs in worker processes
    conn: Any, service: AuctionService, generation: int, solver_processes: int
) -> None:
    """One lane: answer this pipe's messages until the parent closes it.

    A lane that fails outside a solve takes the whole process down, so
    the parent sees a crash on every lane instead of one silent pipe.
    """
    # thread-local backend state: this lane's thread serves its requests
    set_solver_processes(solver_processes)
    plan = service.fault_plan
    try:
        while True:
            message = pickle.loads(conn.recv_bytes())
            kind = message[0]
            if kind == "close":
                conn.send_bytes(pickle.dumps(("closed",)))
                return
            if kind == "scene":
                # content-hash ids are stable across pickling, so the
                # worker-side id equals the parent's (asserted cheaply)
                scene_id = service.registry.register(message[2])
                if scene_id != message[1]:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"scene {message[1]} re-hashed to {scene_id} in worker"
                    )
                # the parent lets other lanes use the scene only after this
                conn.send_bytes(pickle.dumps(("scene", scene_id)))
                continue
            _, job_id, requests = message
            crash = False
            slow = 0.0
            if plan is not None:
                key = requests[0].seed if requests else None
                for spec in plan.actions(
                    "pool.worker.batch", generation=generation, key=key
                ):
                    if spec.kind == "crash":
                        crash = True
                    else:
                        slow += spec.delay
            if crash:
                os._exit(3)
            if slow > 0:  # slow-worker brownout: the parent just sees latency
                time.sleep(slow)
            try:
                solved = service.solve_batch(requests)
                results = [_shipped(r, q) for r, q in zip(solved, requests)]
                reply = ("done", job_id, results, _worker_stats(service, generation))
            except BaseException as exc:  # noqa: BLE001  # repro: allow[silent-except] -- shipped to the parent as an error reply
                reply = ("error", job_id, f"{type(exc).__name__}: {exc}")
            finally:
                release_models()
            conn.send_bytes(pickle.dumps(reply))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # repro: allow[silent-except] -- parent went away; nothing left to tell
        pass
    except BaseException:  # noqa: BLE001  # repro: allow[silent-except] -- the exit is the report: every lane's pipe breaks
        os._exit(5)


def _shipped(result: Any, request: AuctionRequest) -> Any:
    """A worker's result as it crosses the pipe.  A truthful outcome
    leaves its decomposition's problem behind: the problem holds the whole
    scene (most of the reply's bytes), and the parent already has the
    scene and the request's valuations (:func:`_reattached`).  Other
    results pass as they are, without importing the mechanism."""
    if request.mode != "truthful":
        return result
    return replace(result, decomposition=replace(result.decomposition, problem=None))


def _reattached(
    result: Any, request: AuctionRequest, structure: AnyStructure
) -> Any:
    """The parent's half of :func:`_shipped`: a truthful outcome gets back
    the problem the worker solved — the registered scene, the request's
    ``k`` and its valuations — equal to the one the serial path keeps."""
    if request.mode != "truthful":
        return result
    from repro.service.service import _valuations_of

    problem = AuctionProblem(structure, request.k, _valuations_of(request))
    return replace(result, decomposition=replace(result.decomposition, problem=problem))


def _worker_stats(
    service: AuctionService, generation: int
) -> dict[str, Any]:  # pragma: no cover - worker side
    """The per-worker accounting piggybacked on every ``done`` reply."""
    return {
        "pid": os.getpid(),
        "generation": generation,
        "requests": service.metrics.counts()["completed"],
        "caches": service.cache_stats(),
    }


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
_CLOSE = object()  # sentinel on a worker's job queue


@dataclass
class _Job:
    scene_id: str
    requests: list[AuctionRequest]
    future: Future[list[SolverResult]]
    attempts: int = 0
    queued_at: float = field(default_factory=time.perf_counter)


@dataclass
class _WorkerHandle:
    """Parent-side state of one worker slot (process + its lane feeders).

    ``process``/``conns`` change only under ``_lock`` (spawn, respawn,
    breaker trip); a lane reads its own pipe from ``conns`` under the lock
    and then owns that connection until its round trip ends.  Everything
    a concurrent ``stats()`` reads is guarded by the pool's ``_lock``.
    """

    index: int
    process: Any = None  #: guarded-by: _lock
    conns: list[Any] = field(default_factory=list)  #: guarded-by: _lock
    generation: int = 0  #: guarded-by: _lock
    shipped: set[str] = field(default_factory=set)  #: guarded-by: _lock
    jobs: queue.SimpleQueue[Any] = field(default_factory=queue.SimpleQueue)
    outstanding: int = 0  #: guarded-by: _lock
    in_flight: int = 0  #: guarded-by: _lock
    job_counter: int = 0  #: guarded-by: _lock
    # one lane ships a new scene (and waits for its ack) at a time; one
    # lane replaces a dead incarnation, the others see it replaced
    ship_lock: threading.Lock = field(default_factory=threading.Lock)
    respawn_lock: threading.Lock = field(default_factory=threading.Lock)
    # accounting
    jobs_done: int = 0  #: guarded-by: _lock
    max_in_flight: int = 0  #: guarded-by: _lock
    scenes_shipped: int = 0  #: guarded-by: _lock
    bytes_sent: int = 0  #: guarded-by: _lock
    bytes_received: int = 0  #: guarded-by: _lock
    ipc_seconds: float = 0.0  #: guarded-by: _lock
    restarts: int = 0  #: guarded-by: _lock
    # circuit breaker: crashes since the last success; when it exceeds the
    # respawn limit the slot trips (process = None, breaker_until set) and
    # jobs route around it until the cooldown elapses (half-open probe)
    consecutive_failures: int = 0  #: guarded-by: _lock
    breaker_until: float | None = None  #: guarded-by: _lock
    breaker_trips: int = 0  #: guarded-by: _lock
    last_stats: dict[str, Any] = field(default_factory=dict)  #: guarded-by: _lock


class ProcessShardPool:
    """A pool of long-lived solver processes with scene affinity.

    ``registry`` is shared with the owning service: scenes are snapshotted
    into workers at spawn and shipped lazily afterwards.  ``worker_config``
    is forwarded to each worker's private ``AuctionService`` (cache sizes,
    pricing, rounding attempts, warm-start flag), so the pool solves with
    exactly the configuration of the in-process path.  Each worker serves
    ``lanes`` jobs at once, its share of the cores.
    """

    def __init__(
        self,
        registry: SceneRegistry,
        num_workers: int,
        *,
        worker_config: dict[str, Any] | None = None,
        max_retries: int = 1,
        spill: bool = True,
        close_timeout: float = 5.0,
        respawn_limit: int = 5,
        respawn_backoff: float = 0.05,
        backoff_cap: float = 2.0,
        breaker_cooldown: float = 30.0,
    ) -> None:
        """``respawn_limit`` bounds *consecutive* crashes of one worker
        slot (the counter resets on any successful batch); beyond it the
        slot's circuit breaker trips: no further respawns, jobs route
        around it, and after ``breaker_cooldown`` seconds one half-open
        probe incarnation is allowed (a single failure re-trips).  Each
        respawn waits ``respawn_backoff * 2**(failures-1)`` seconds,
        capped at ``backoff_cap`` — a worker crashing at spawn burns
        through its budget in bounded time instead of respawn-storming."""
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if respawn_limit < 0:
            raise ValueError("respawn_limit must be non-negative")
        if respawn_backoff < 0 or backoff_cap < 0 or breaker_cooldown < 0:
            raise ValueError("backoff/cooldown settings must be non-negative")
        self.registry = registry
        self.num_workers = num_workers
        self.lanes = core_share(num_workers)
        self.worker_config = dict(worker_config or {})
        self.max_retries = max_retries
        self.spill = spill
        self.close_timeout = close_timeout
        self.respawn_limit = respawn_limit
        self.respawn_backoff = respawn_backoff
        self.backoff_cap = backoff_cap
        self.breaker_cooldown = breaker_cooldown
        self._ctx = mp_context()
        self._lock = threading.Lock()
        self._workers = [_WorkerHandle(index=i) for i in range(num_workers)]
        self._threads: list[threading.Thread] = []
        self._started = False  #: guarded-by: _lock
        self._closed = False  #: guarded-by: _lock
        self._restarts = 0  #: guarded-by: _lock
        self._retried_batches = 0  #: guarded-by: _lock
        self._failed_batches = 0  #: guarded-by: _lock
        self._rerouted_batches = 0  #: guarded-by: _lock
        self._queue_wait_seconds = 0.0  #: guarded-by: _lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcessShardPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
            for handle in self._workers:
                self._spawn_locked(handle)
            self._threads = [
                threading.Thread(
                    target=self._serve,
                    args=(handle, lane),
                    name=f"auction-pool-feeder-{handle.index}-{lane}",
                    daemon=True,
                )
                for handle in self._workers
                for lane in range(self.lanes)
            ]
            for thread in self._threads:
                thread.start()
        # stray-process guard: a leaked pool still reaps its workers at exit
        atexit.register(self.close)
        return self

    def _spawn_locked(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker slot, one pipe per lane; caller holds
        ``_lock``."""
        scenes = self.registry.snapshot()
        pipes = [self._ctx.Pipe() for _ in range(self.lanes)]
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                [child for _, child in pipes],
                scenes,
                self.worker_config,
                handle.generation,
                self.num_workers * self.lanes,
            ),
            name=f"auction-pool-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        for _, child in pipes:
            child.close()
        handle.process = process
        # a lane still holding the old incarnation's pipe closes it itself;
        # the others close when the list drops them
        handle.conns = [parent for parent, _ in pipes]
        handle.shipped = set(scenes)  # the spawn snapshot never re-ships

    def close(self) -> None:
        """Drain queued jobs, join the feeder threads, stop every worker.

        Idempotent and registered with :mod:`atexit`.  Jobs already queued
        are completed (the close sentinels sit behind them); submitting
        after close raises.
        """
        with self._lock:
            if self._closed or not self._started:
                self._closed = True
                return
            self._closed = True
        for handle in self._workers:
            for _ in range(self.lanes):
                handle.jobs.put(_CLOSE)
        for thread in self._threads:
            thread.join()
        for handle in self._workers:
            self._shutdown_worker(handle)
        atexit.unregister(self.close)

    def __enter__(self) -> "ProcessShardPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission and routing
    # ------------------------------------------------------------------
    def home_of(self, scene_id: str) -> int:
        return int(scene_id, 16) % self.num_workers

    def _breaker_open_locked(self, handle: _WorkerHandle) -> bool:
        """Is this slot's circuit breaker open right now (not routable)?

        A tripped slot holds no process; once its cooldown elapses the
        breaker reads closed again, routing resumes, and the slot's feeder
        revives it as a half-open probe on the next job.
        """
        return (
            handle.process is None
            and handle.breaker_until is not None
            and time.monotonic() < handle.breaker_until
        )

    def _load_locked(self, handle: _WorkerHandle) -> int:
        """Jobs a new job would wait behind: 0 while a lane is free."""
        return max(0, handle.outstanding - self.lanes + 1)

    def _route_locked(self, scene_id: str) -> _WorkerHandle:
        """Home worker unless it is strictly busier than the idlest one or
        its breaker is open (load reads require the caller to hold
        ``_lock``)."""
        home = self.home_of(scene_id)
        open_ = [self._breaker_open_locked(w) for w in self._workers]
        if all(open_):
            # nothing routable: queue on home anyway — its feeder fails
            # the job typed (or revives the slot if the cooldown elapsed)
            return self._workers[home]
        if (not self.spill or self.num_workers == 1) and not open_[home]:
            return self._workers[home]
        loads = [
            float("inf") if open_[i] else self._load_locked(w)
            for i, w in enumerate(self._workers)
        ]
        if loads[home] <= min(loads):
            return self._workers[home]
        # deterministic scan from the home index keeps ties stable
        best = min(
            range(self.num_workers),
            key=lambda i: (loads[(home + i) % self.num_workers], i),
        )
        return self._workers[(home + best) % self.num_workers]

    def submit(
        self, scene_id: str, requests: list[AuctionRequest]
    ) -> Future[list[SolverResult]]:
        """Queue one scene-group batch; resolves to its result list."""
        future: Future[list[SolverResult]] = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("process pool is closed")
            if not self._started:
                raise RuntimeError("process pool is not started")
            handle = self._route_locked(scene_id)
            handle.outstanding += 1
        handle.jobs.put(_Job(scene_id, requests, future))
        return future

    # ------------------------------------------------------------------
    # per-lane feeder threads
    # ------------------------------------------------------------------
    def _serve(self, handle: _WorkerHandle, lane: int) -> None:
        while True:
            job = handle.jobs.get()
            if job is _CLOSE:
                return
            with self._lock:
                self._queue_wait_seconds += time.perf_counter() - job.queued_at
                handle.in_flight += 1
                handle.max_in_flight = max(handle.max_in_flight, handle.in_flight)
            try:
                self._run_job(handle, lane, job)
            except BaseException as exc:  # noqa: BLE001 - never kill the feeder
                job.future.set_exception(exc)
            finally:
                with self._lock:
                    handle.in_flight -= 1
                    handle.outstanding -= 1

    def _lane_pipe(self, handle: _WorkerHandle, lane: int) -> tuple[Any, Any] | None:
        """The slot's process and this lane's pipe, or ``None`` while the
        breaker is open; revives a tripped breaker whose cooldown elapsed
        (half-open probe).

        The probe incarnation starts with its failure budget spent down to
        the limit, so a single crash re-trips the breaker immediately.
        """
        with self._lock:
            if handle.process is None:
                if self._breaker_open_locked(handle):
                    return None
                handle.consecutive_failures = self.respawn_limit
                handle.breaker_until = None
                handle.generation += 1
                handle.restarts += 1
                self._restarts += 1
                self._spawn_locked(handle)
            return handle.process, handle.conns[lane]

    def _reroute_or_fail(self, handle: _WorkerHandle, job: _Job) -> None:
        """Hand a job on a broken slot to the idlest routable worker, or
        fail it typed when every other slot's breaker is open too."""
        with self._lock:
            candidates = [
                w
                for w in self._workers
                if w is not handle and not self._breaker_open_locked(w)
            ]
            target = (
                min(candidates, key=lambda w: (self._load_locked(w), w.index))
                if candidates
                else None
            )
            if target is not None:
                target.outstanding += 1
                self._rerouted_batches += 1
            else:
                self._failed_batches += 1
        if target is None:
            job.future.set_exception(
                WorkerCrashError(
                    f"worker {handle.index} circuit breaker open and no "
                    f"routable worker left"
                )
            )
            return
        job.queued_at = time.perf_counter()
        target.jobs.put(job)

    def _run_job(self, handle: _WorkerHandle, lane: int, job: _Job) -> None:
        while True:
            pipe = self._lane_pipe(handle, lane)
            if pipe is None:
                self._reroute_or_fail(handle, job)
                return
            process, conn = pipe
            try:
                results, stats = self._roundtrip(handle, process, conn, job)
            except WorkerCrashError as exc:
                conn.close()
                respawned = self._respawn(handle, process)
                if job.attempts < self.max_retries:
                    job.attempts += 1
                    with self._lock:
                        self._retried_batches += 1
                    if respawned:
                        continue  # retry the batch on the fresh worker
                    self._reroute_or_fail(handle, job)
                    return
                with self._lock:
                    self._failed_batches += 1
                job.future.set_exception(exc)
                return
            with self._lock:
                handle.jobs_done += 1
                handle.last_stats = stats
                # any completed batch closes the crash streak
                handle.consecutive_failures = 0
                handle.breaker_until = None
            job.future.set_result(results)
            return

    def _roundtrip(
        self, handle: _WorkerHandle, process: Any, conn: Any, job: _Job
    ) -> tuple[list[SolverResult], dict[str, Any]]:
        """Ship (scene if new +) batch on one lane's pipe, block for the
        reply, account IPC."""
        try:
            self._ship_scene(handle, conn, job.scene_id)
            with self._lock:
                handle.job_counter += 1
                sent_job_id = handle.job_counter
            self._send(handle, conn, ("solve", sent_job_id, job.requests))
            payload = conn.recv_bytes()  # blocks while the worker solves
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            with self._lock:
                generation = handle.generation
            raise WorkerCrashError(
                f"worker {handle.index} (pid {getattr(process, 'pid', '?')}, "
                f"generation {generation}) died mid-batch"
            ) from exc
        t0 = time.perf_counter()
        reply = pickle.loads(payload)
        decode_seconds = time.perf_counter() - t0
        with self._lock:
            handle.bytes_received += len(payload)
            handle.ipc_seconds += decode_seconds
        if reply[0] == "error":
            raise RuntimeError(f"worker {handle.index}: {reply[2]}")
        kind, job_id, results, stats = reply
        if job_id != sent_job_id:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"worker {handle.index} answered job {job_id}, "
                f"expected {sent_job_id}"
            )
        structure = self.registry.get(job.scene_id)
        results = [_reattached(r, q, structure) for r, q in zip(results, job.requests)]
        return results, stats

    def _ship_scene(self, handle: _WorkerHandle, conn: Any, scene_id: str) -> None:
        """Send a scene the worker does not hold yet and wait until it has
        registered it, so no other lane's batch can reach it first."""
        with handle.ship_lock:
            with self._lock:
                if scene_id in handle.shipped:
                    return
            self._send(handle, conn, ("scene", scene_id, self.registry.get(scene_id)))
            ack = conn.recv_bytes()
            with self._lock:
                handle.bytes_received += len(ack)
                handle.shipped.add(scene_id)
                handle.scenes_shipped += 1

    def _send(self, handle: _WorkerHandle, conn: Any, message: tuple[Any, ...]) -> None:
        t0 = time.perf_counter()
        payload = pickle.dumps(message)
        conn.send_bytes(payload)
        pipe_seconds = time.perf_counter() - t0
        with self._lock:
            handle.bytes_sent += len(payload)
            handle.ipc_seconds += pipe_seconds

    def _respawn(self, handle: _WorkerHandle, process: Any) -> bool:
        """Replace the dead incarnation ``process``; its pickle-once state
        starts over.  Returns whether the slot holds a live incarnation
        to retry on.

        Every lane of a dead worker sees the crash; the first one here
        replaces it, and the others find ``process`` already gone and
        only retry on the new incarnation.  Returns ``False`` when the
        slot's consecutive-crash budget is exhausted: the circuit breaker
        trips instead of respawning, and the slot stays empty until its
        cooldown elapses.  Successful respawns back off exponentially
        (outside ``_lock`` — other slots keep serving) so a crash-at-spawn
        worker cannot respawn-storm.
        """
        with handle.respawn_lock:
            with self._lock:
                if handle.process is not process:
                    return handle.process is not None
            if process.is_alive():  # crashed pipe, live process: reap it
                process.terminate()
            process.join(self.close_timeout)
            with self._lock:
                handle.consecutive_failures += 1
                failures = handle.consecutive_failures
                if failures > self.respawn_limit:
                    handle.breaker_trips += 1
                    handle.breaker_until = time.monotonic() + self.breaker_cooldown
                    handle.process = None
                    handle.conns = []
                    return False
            delay = min(self.respawn_backoff * 2 ** (failures - 1), self.backoff_cap)
            if delay > 0:
                time.sleep(delay)
            with self._lock:
                handle.generation += 1
                handle.restarts += 1
                handle.job_counter = 0
                self._restarts += 1
                self._spawn_locked(handle)
            return True

    def _shutdown_worker(self, handle: _WorkerHandle) -> None:
        """Ask every lane of an idle worker to exit, then join it."""
        with self._lock:
            process, conns = handle.process, handle.conns
        if process is None:  # breaker-tripped slot: nothing to stop
            return
        for conn in conns:
            try:
                self._send(handle, conn, ("close",))
                if conn.poll(self.close_timeout):
                    conn.recv_bytes()  # ("closed",) acknowledgement
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):  # repro: allow[silent-except] -- already dead; joining below is all that is left
                pass
        process.join(self.close_timeout)
        if process.is_alive():  # pragma: no cover - stuck worker escalation
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        for conn in conns:
            conn.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def alive(self) -> list[bool]:
        with self._lock:
            processes = [w.process for w in self._workers]
        return [p is not None and p.is_alive() for p in processes]

    def healthy(self) -> bool:
        """Every worker slot holds a live process (no tripped breakers,
        no undetected deaths) — the chaos runner's end-state invariant."""
        return all(self.alive())

    def stats(self) -> dict[str, Any]:
        """Pool-level + per-worker accounting for the metrics snapshot."""
        with self._lock:
            workers = [
                {
                    "index": w.index,
                    "pid": getattr(w.process, "pid", None),
                    "lanes": self.lanes,
                    "max_in_flight": w.max_in_flight,
                    "alive": w.process is not None and w.process.is_alive(),
                    "generation": w.generation,
                    "restarts": w.restarts,
                    "consecutive_failures": w.consecutive_failures,
                    "breaker_open": self._breaker_open_locked(w),
                    "breaker_trips": w.breaker_trips,
                    "jobs": w.jobs_done,
                    "outstanding": w.outstanding,
                    "scenes_held": len(w.shipped),
                    "scenes_shipped": w.scenes_shipped,
                    "ipc_bytes_sent": w.bytes_sent,
                    "ipc_bytes_received": w.bytes_received,
                    "ipc_seconds": w.ipc_seconds,
                    "worker_stats": w.last_stats,
                }
                for w in self._workers
            ]
            return {
                "num_workers": self.num_workers,
                "start_method": self._ctx.get_start_method(),
                "cores": os.cpu_count(),
                "lanes": self.lanes,
                "queue_wait_seconds": self._queue_wait_seconds,
                "restarts": self._restarts,
                "retried_batches": self._retried_batches,
                "failed_batches": self._failed_batches,
                "rerouted_batches": self._rerouted_batches,
                "breaker_trips": sum(w["breaker_trips"] for w in workers),
                "healthy": all(w["alive"] for w in workers),
                "ipc_bytes_sent": sum(w["ipc_bytes_sent"] for w in workers),
                "ipc_bytes_received": sum(w["ipc_bytes_received"] for w in workers),
                "ipc_seconds": sum(w["ipc_seconds"] for w in workers),
                "scenes_shipped": sum(w["scenes_shipped"] for w in workers),
                "workers": workers,
            }
