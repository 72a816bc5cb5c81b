"""Structured fault injection: named sites, declarative plans, seeded RNG.

Crash recovery and every other serving fault are driven by one
first-class subsystem: a :class:`FaultPlan` is a declarative list of
:class:`FaultSpec`\\ s naming *where* (an injection site), *what* (crash,
slow-solve latency, backend error, spawn failure), and *when* (worker
incarnation, Bernoulli probability, activation cap) a fault fires.  The
service and pool evaluate the plan at the registered sites; production
configurations simply carry no plan, so every hook is a cheap
``plan is None`` check.

**Site registry** (:data:`FAULT_SITES` — site name → kinds it supports):

* ``"service.solve"`` — evaluated in ``AuctionService._solve_scene_group``
  just before the engine runs, wherever that happens to be (the
  dispatcher thread, a ``solve_batch`` caller, or a pool worker's
  private service).  ``"slow"`` sleeps ``delay`` seconds per fired request —
  a browning-out solver; ``"error"`` raises
  :class:`~repro.service.errors.InjectedFaultError` — a native backend
  failure, which (like a real one) fails the whole coalesced scene
  group, typed.
* ``"pool.worker.batch"`` — evaluated in the pool worker's receive loop
  before solving a batch.  ``"crash"`` hard-exits the worker process
  (the parent sees a dead pipe and runs crash recovery); ``"slow"``
  sleeps in the worker — a slow-worker brownout the parent cannot
  distinguish from a long solve.
* ``"pool.worker.spawn"`` — evaluated once at worker startup, before the
  worker's service is built.  ``"crash"`` exits immediately: a worker
  that *fails to spawn*, the respawn-storm scenario the pool's backoff
  cap and circuit breaker exist for.
* ``"gateway.accept"`` — evaluated in the gateway before a ``/v1/solve``
  request is admitted.  ``"refuse"`` closes the connection without a
  response — a partitioned or overloaded edge refusing whole
  connections, which only a retrying client survives.
* ``"gateway.response"`` — evaluated in the gateway *after* the solve
  completed and was journaled.  ``"drop"`` closes the connection before
  any response byte; ``"truncate"`` writes a header promising the full
  body and then cuts it mid-body.  Either way the client saw the
  request accepted and the response lost — the at-least-once delivery
  case the idempotency journal exists for.
* ``"client.connect"`` — evaluated in the client per solve attempt.
  ``"latency"`` sleeps ``delay`` before the exchange (a congested
  path); ``"reset"`` raises :class:`ConnectionResetError` — the
  connection died under the request.

**Determinism.**  Chaos runs must replay bit-identically, so every
probabilistic decision is drawn from RNG streams derived from the plan's
seed.  Sites evaluated with a ``key`` (the request seed at solve sites,
the batch head's seed at worker sites) draw *statelessly* from
``SeedSequence([seed, site, spec, key])`` — the decision depends only on
the plan and the request, never on batching, thread interleaving, or
which worker got the batch.  Network sites pass a *tuple* key
``(request seed, attempt ordinal)``: each entry extends the
``SeedSequence`` entropy, so a fault that fired on attempt 1 draws
fresh on attempt 2 — without the attempt in the key, a deterministic
drop would refire on every retry and the request could never be
served.  Sites evaluated without a key fall back to a per-spec counter
stream (deterministic per plan instance).  Plans pickle cleanly — each
pool worker arms its own copy — and serialize to plain dicts for the
metrics snapshot's config and the chaos report.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

__all__ = ["FAULT_SITES", "FaultKey", "FaultSpec", "FaultPlan"]

# the registry of named injection sites and the fault kinds each supports
FAULT_SITES: dict[str, tuple[str, ...]] = {
    "service.solve": ("slow", "error"),
    "pool.worker.batch": ("crash", "slow"),
    "pool.worker.spawn": ("crash",),
    "gateway.accept": ("refuse",),
    "gateway.response": ("drop", "truncate"),
    "client.connect": ("latency", "reset"),
}

#: a ``key`` passed to :meth:`FaultPlan.actions` — a single request seed
#: or a (seed, attempt, ...) tuple for per-attempt network-site draws
FaultKey = int | tuple[int, ...]

_KEY_MASK = (1 << 63) - 1


def _site_token(site: str) -> int:
    """A stable 63-bit integer for a site name (feeds SeedSequence)."""
    digest = hashlib.sha256(site.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _KEY_MASK


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: site, kind, and its firing conditions.

    ``generations`` restricts worker-site faults to specific worker
    incarnations (``None`` = every incarnation) — the mechanism that lets
    a plan crash incarnation 0 and let the respawned incarnation 1 serve
    the retry.  ``probability`` is a seeded Bernoulli per evaluation;
    ``max_fires`` caps activations per armed plan instance (a worker's
    copy re-arms at respawn, so caps are per incarnation on worker
    sites).  ``delay`` is the injected latency of ``kind="slow"``.
    """

    site: str
    kind: str
    probability: float = 1.0
    delay: float = 0.0
    generations: tuple[int, ...] | None = None
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )
        if self.kind not in FAULT_SITES[self.site]:
            raise ValueError(
                f"site {self.site!r} supports kinds {FAULT_SITES[self.site]}, "
                f"got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be non-negative, got {self.max_fires}")
        if self.generations is not None:
            object.__setattr__(self, "generations", tuple(self.generations))

    def matches_generation(self, generation: int | None) -> bool:
        if self.generations is None or generation is None:
            return True
        return generation in self.generations

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "delay": self.delay,
            "generations": (
                None if self.generations is None else list(self.generations)
            ),
            "max_fires": self.max_fires,
        }


class FaultPlan:
    """An armed set of :class:`FaultSpec`\\ s evaluated at named sites.

    Evaluation is thread-safe (the service's solve sites run on its
    dispatcher and on ``solve_batch`` callers' threads) and deterministic from ``seed``: keyed evaluations are
    stateless, unkeyed ones consume per-spec counter streams.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._fired: dict[int, int] = {}  #: guarded-by: _lock
        self._streams: dict[int, np.random.Generator] = {}  #: guarded-by: _lock

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def actions(
        self, site: str, *, generation: int | None = None, key: FaultKey | None = None
    ) -> list[FaultSpec]:
        """Every spec that fires at ``site`` for this evaluation.

        ``generation`` filters worker-incarnation-scoped specs; ``key``
        (a request seed, or a ``(seed, attempt)`` tuple at network
        sites) selects the stateless draw so the decision is independent
        of batching and placement.
        """
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        fired: list[FaultSpec] = []
        for index, spec in enumerate(self.specs):
            if spec.site != site or not spec.matches_generation(generation):
                continue
            if spec.probability < 1.0 and self._draw(index, site, key) >= spec.probability:
                continue
            if not self._consume_fire(index, spec):
                continue
            fired.append(spec)
        return fired

    def fires(
        self, site: str, *, generation: int | None = None, key: FaultKey | None = None
    ) -> FaultSpec | None:
        """The first spec firing at ``site``, or ``None``."""
        actions = self.actions(site, generation=generation, key=key)
        return actions[0] if actions else None

    def _draw(self, index: int, site: str, key: FaultKey | None) -> float:
        if key is not None:
            # a tuple key extends the entropy list entry-by-entry, so the
            # single-int form keeps its historical stream unchanged
            parts = key if isinstance(key, tuple) else (key,)
            seq = np.random.SeedSequence(
                [self.seed, _site_token(site), index]
                + [int(part) & _KEY_MASK for part in parts]
            )
            return float(np.random.default_rng(seq).random())
        with self._lock:
            stream = self._streams.get(index)
            if stream is None:
                seq = np.random.SeedSequence([self.seed, _site_token(site), index])
                stream = self._streams[index] = np.random.default_rng(seq)
            return float(stream.random())

    def _consume_fire(self, index: int, spec: FaultSpec) -> bool:
        with self._lock:
            count = self._fired.get(index, 0)
            if spec.max_fires is not None and count >= spec.max_fires:
                return False
            self._fired[index] = count + 1
            return True

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    def fired_counts(self) -> dict[str, int]:
        """Activations per ``site:kind`` since arming (for reports/tests)."""
        with self._lock:
            fired = dict(self._fired)
        out: dict[str, int] = {}
        for index, count in sorted(fired.items()):
            spec = self.specs[index]
            label = f"{spec.site}:{spec.kind}"
            out[label] = out.get(label, 0) + count
        return out

    def reset(self) -> None:
        """Re-arm: clear fire counts and counter streams."""
        with self._lock:
            self._fired.clear()
            self._streams.clear()

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    # ------------------------------------------------------------------
    # serialization (pickle for worker shipping, dicts for config reports)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        # runtime state (lock, streams, fire counts) stays behind: a
        # shipped copy arms fresh, which is what per-incarnation caps mean
        return {"specs": self.specs, "seed": self.seed}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["specs"], seed=state["seed"])  # type: ignore[misc]

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "specs": [spec.to_dict() for spec in self.specs]}

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, specs={list(self.specs)!r})"
