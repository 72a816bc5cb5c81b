"""Batch engine: serve a fleet of auctions with one compilation pass.

A secondary-spectrum operator runs one auction per region and epoch: the
region's interference structure is fixed for the day, bidders re-bid each
epoch.  The :class:`BatchAuctionEngine` compiles each region's conflict
structure once, assembles and solves every epoch's LP with vectorized
kernels stage by stage, and spawns deterministic per-instance seeds —
same results as calling ``SpectrumAuctionSolver`` per auction, only
faster.

Run:  python examples/batch_engine.py
"""

import time

from repro import BatchAuctionEngine, SpectrumAuctionSolver
from repro.engine import structure_cache_stats
from repro.experiments.workloads import protocol_auction_fleet


def main() -> None:
    # 4 regions x 6 epochs = 24 auctions; each region's structure object is
    # shared by its epochs, so the engine compiles 4 structures, not 24.
    fleet = protocol_auction_fleet(regions=4, epochs=6, n=30, k=4, seed=2024)
    print(f"fleet: {len(fleet)} auctions over 4 regions")

    engine = BatchAuctionEngine(rounding_attempts=5)
    start = time.perf_counter()
    batch = engine.solve_many(fleet, seed=99)
    elapsed = time.perf_counter() - start

    print(f"\nsolved {batch.n_instances} auctions in {elapsed * 1e3:.0f} ms "
          f"({batch.lp_solves} LP solves)")
    print(f"total welfare:   {batch.total_welfare:.1f}")
    print(f"total LP bound:  {batch.total_lp_value:.1f}")
    stats = structure_cache_stats()
    print(f"structure cache: {stats['hits']} hits, {stats['misses']} misses")

    # Identical to solving each auction with the one-off facade.
    import numpy as np

    child = np.random.SeedSequence(99).spawn(len(fleet))[0]
    solo = SpectrumAuctionSolver(fleet[0]).solve(seed=child, rounding_attempts=5)
    assert solo.allocation == batch.results[0].allocation
    print("facade per-auction result identical: True")

    best = max(batch.results, key=lambda r: r.welfare)
    winners = sum(1 for s in best.allocation.values() if s)
    print(f"\nbest epoch: welfare {best.welfare:.1f} with {winners} winners "
          f"(LP bound {best.lp_value:.1f})")


if __name__ == "__main__":
    main()
