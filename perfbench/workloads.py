"""The three workloads and their seeded inputs.

Every workload runs on one fixed ``metro_disk_scene`` (the deployment's
geography does not change between runs); ``--seed`` draws the requests.
Profiles are drawn from a bank of ``BANK_FACTOR * n`` XOR bidders made by
the repo's own ``random_xor_valuations``: each request places a random
choice of ``n`` bank bidders on the scene's ``n`` vertices.  Two requests
therefore never share a profile (their LP columns differ), yet a request
costs a permutation to draw, so the benchmark can pre-generate far more
requests than any run can serve before a timer starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.auction import AuctionProblem
from repro.engine.compiled import CompiledAuction, compile_structure
from repro.experiments.workloads import metro_disk_scene
from repro.service.scenes import scene_fingerprint
from repro.service.wire import AuctionRequest
from repro.valuations.generators import random_xor_valuations

SCENE_SEED = 2011
BANK_FACTOR = 4
# requests drawn per measured second; a run that exhausts them ends early
REQUESTS_PER_SECOND_CAP = 40


# warm-up requests of a fresh-profile workload (a renewal workload warms
# up by renewing each of its profiles once)
FRESH_WARMUP = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    bids_per_bidder: int
    mode: str  # "allocate" (over HTTP) | "truthful" (in-process)
    renewal_profiles: int  # 0: every request draws a fresh profile


# why each workload exists is written once, in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("distinct_alloc_n1000", n=1000, k=6, bids_per_bidder=4,
                 mode="allocate", renewal_profiles=0),
        Workload("renewal_alloc_n1000", n=1000, k=6, bids_per_bidder=4,
                 mode="allocate", renewal_profiles=8),
        Workload("truthful_distinct_n300", n=300, k=4, bids_per_bidder=2,
                 mode="truthful", renewal_profiles=0),
    )
}


@dataclass
class Inputs:
    scene: object
    scene_id: str
    warmup: list[AuctionRequest]
    requests: list[AuctionRequest]
    lp_rows: int
    lp_cols: int
    lp_nnz: int


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """All of a run's requests, deterministic from ``seed``."""
    scene = metro_disk_scene(workload.n, seed=SCENE_SEED)
    scene_id = scene_fingerprint(scene)
    rng = np.random.default_rng([SCENE_SEED, seed])
    bank = random_xor_valuations(
        BANK_FACTOR * workload.n,
        workload.k,
        bids_per_bidder=workload.bids_per_bidder,
        seed=rng,
    )

    def draw_profile() -> list:
        picked = rng.choice(len(bank), size=workload.n, replace=False)
        return [bank[i] for i in picked]

    def request(valuations: list, profile_key: str | None) -> AuctionRequest:
        return AuctionRequest(
            scene_id=scene_id,
            k=workload.k,
            valuations=valuations,
            seed=int(rng.integers(2**31)),
            profile_key=profile_key,
            mode=workload.mode,
        )

    count = max(64, int(REQUESTS_PER_SECOND_CAP * seconds))
    if workload.renewal_profiles:
        profiles = [
            (f"renewal-{i}", draw_profile()) for i in range(workload.renewal_profiles)
        ]
        # warm-up renews every profile once, so measured requests find
        # each LP already solved
        warmup = [request(vals, key) for key, vals in profiles]
        picks = rng.integers(len(profiles), size=count)
        requests = [request(profiles[i][1], profiles[i][0]) for i in picks]
    else:
        warmup = [request(draw_profile(), None) for _ in range(FRESH_WARMUP)]
        requests = [request(draw_profile(), None) for _ in range(count)]
    first = requests[0]
    a, _b, _c = CompiledAuction(
        AuctionProblem(scene, workload.k, list(first.valuations)),
        structure=compile_structure(scene),
    ).matrices_csc()
    return Inputs(
        scene=scene,
        scene_id=scene_id,
        warmup=warmup,
        requests=requests,
        lp_rows=int(a.shape[0]),
        lp_cols=int(a.shape[1]),
        lp_nnz=int(a.nnz),
    )
