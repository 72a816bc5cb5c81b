"""Service metrics: throughput, latency percentiles, cache accounting.

One :class:`ServiceMetrics` instance lives per
:class:`~repro.service.AuctionService`.  Workers record each completed
request's latency (submit → result set) and each dispatched batch's
size and summed dispatch wait (submit → handed to a solver);
:meth:`snapshot` folds in the cache counters the service injects and
returns a plain dict of JSON types, which
``AuctionService.metrics_snapshot`` extends with the service
configuration and the gateway serves at ``/v1/metrics``.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

__all__ = ["ServiceMetrics"]

_PERCENTILES = (50.0, 95.0, 99.0)


class ServiceMetrics:
    """Thread-safe counters and latency reservoir for one service.

    ``max_samples`` bounds the latency reservoir; once full, further
    samples update only the counters (sustained benchmarks stay far below
    the default).  Wall-clock span runs from the first recorded submit to
    the last recorded completion, so throughput is measured over the
    service's active window rather than its idle lifetime.
    """

    def __init__(self, max_samples: int = 1_000_000) -> None:
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._latencies: list[float] = []  #: guarded-by: _lock
        self._batch_sizes: list[int] = []  #: guarded-by: _lock
        self._dispatch_wait = 0.0  #: guarded-by: _lock
        self._submitted = 0  #: guarded-by: _lock
        self._completed = 0  #: guarded-by: _lock
        self._failed = 0  #: guarded-by: _lock
        self._shed = 0  #: guarded-by: _lock
        self._timeouts = 0  #: guarded-by: _lock
        self._degraded = 0  #: guarded-by: _lock
        self._first_submit: float | None = None  #: guarded-by: _lock
        self._last_done: float | None = None  #: guarded-by: _lock

    # ------------------------------------------------------------------
    def record_submit(self, now: float | None = None) -> float:
        """Mark one request submitted; returns the timestamp used."""
        now = time.perf_counter() if now is None else now
        with self._lock:
            self._submitted += 1
            if self._first_submit is None:
                self._first_submit = now
        return now

    def record_batch(self, size: int, dispatch_wait: float = 0.0) -> None:
        """Mark one batch of ``size`` requests dispatched; ``dispatch_wait``
        sums its members' seconds from submit to dispatch (0 on the
        queueless path)."""
        with self._lock:
            self._dispatch_wait += dispatch_wait
            if len(self._batch_sizes) < self.max_samples:
                self._batch_sizes.append(size)

    def record_shed(self) -> None:
        """Mark one request rejected at admission (bounded queue full).

        Shed requests were never accepted, so they count in neither
        ``submitted`` nor ``failed`` — the completion-rate denominator
        stays "accepted requests", the chaos invariant's population.
        """
        with self._lock:
            self._shed += 1

    def record_done(
        self,
        latency: float,
        failed: bool = False,
        *,
        timed_out: bool = False,
        degraded: bool = False,
    ) -> None:
        """Mark one request finished ``latency`` seconds after its submit.

        ``timed_out`` marks a typed :class:`DeadlineExceeded` failure
        (implies ``failed``); ``degraded`` marks a *completed* request
        served by the greedy fallback instead of LP + rounding.
        """
        now = time.perf_counter()
        with self._lock:
            if timed_out:
                self._timeouts += 1
                self._failed += 1
            elif failed:
                self._failed += 1
            else:
                self._completed += 1
                if degraded:
                    self._degraded += 1
            if len(self._latencies) < self.max_samples:
                self._latencies.append(latency)
            self._last_done = now

    def counts(self) -> dict[str, int]:
        """Request counters only — cheap enough to poll per batch (the
        process-pool workers piggyback this on every reply, where a full
        :meth:`snapshot` would re-rank the latency reservoir each time)."""
        with self._lock:
            return {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "shed": self._shed,
                "timeouts": self._timeouts,
                "degraded": self._degraded,
            }

    # ------------------------------------------------------------------
    def snapshot(self, caches: dict[str, Any] | None = None) -> dict[str, Any]:
        """All metrics as a JSON-ready dict.

        ``caches`` maps cache names to stats dicts (the service passes its
        LRU caches' counters plus the structure-compile and warm-start
        stats) and is embedded verbatim under ``"caches"``.
        """
        with self._lock:
            latencies = np.asarray(self._latencies)
            batch_sizes = self._batch_sizes[:]
            span = None
            if self._first_submit is not None and self._last_done is not None:
                span = max(self._last_done - self._first_submit, 1e-12)
            out = {
                "requests_submitted": self._submitted,
                "requests_completed": self._completed,
                "requests_failed": self._failed,
                "requests_shed": self._shed,
                "requests_timed_out": self._timeouts,
                "requests_degraded": self._degraded,
                "wall_seconds": span,
                "throughput_rps": (self._completed / span) if span else None,
                "batches": len(batch_sizes),
                "mean_batch_size": (
                    float(np.mean(batch_sizes)) if batch_sizes else None
                ),
                "max_batch_size": max(batch_sizes) if batch_sizes else None,
                "dispatch_wait_seconds": self._dispatch_wait,
            }
        if latencies.size:
            # exact order statistics (inverted CDF), not interpolation: with
            # fewer than 100 samples an interpolated "p99" manufactures a
            # value between the two slowest requests that nobody observed —
            # misleadingly below the true tail.  Every percentile reported
            # here is a latency that actually occurred, and ``samples`` says
            # how much data backs it (p99 of 20 samples is just the max).
            quantiles = np.percentile(latencies, _PERCENTILES, method="inverted_cdf")
            out["latency_seconds"] = {
                "mean": float(latencies.mean()),
                "p50": float(quantiles[0]),
                "p95": float(quantiles[1]),
                "p99": float(quantiles[2]),
                "max": float(latencies.max()),
                "samples": int(latencies.size),
            }
        else:
            out["latency_seconds"] = None
        if caches is not None:
            out["caches"] = caches
        return out

    def reset(self) -> None:
        with self._lock:
            self._latencies.clear()
            self._batch_sizes.clear()
            self._dispatch_wait = 0.0
            self._submitted = self._completed = self._failed = 0
            self._shed = self._timeouts = self._degraded = 0
            self._first_submit = self._last_done = None
