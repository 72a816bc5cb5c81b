"""The serving process the gateway workloads drive.

``python -m perfbench.server --shards N --lifetime S`` runs
``GatewayServer`` over ``AuctionService(executor="process",
num_shards=N)`` with every other option at its default, prints one JSON
line ``{"port": ..., "pid": ...}`` once it listens, and serves until its
standard input closes — the benchmark closes it to stop the server, and
it also closes if the benchmark dies — or until ``--lifetime`` seconds
have passed, so a server can never outlive a wedged benchmark for long.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import threading
import time


def _serve(shards: int, lifetime: float) -> None:
    from repro.service import AuctionService, GatewayServer

    started = time.monotonic()
    service = AuctionService(executor="process", num_shards=shards)
    server = GatewayServer(service).start()
    try:
        print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
        stdin = sys.stdin.fileno()
        while True:
            left = lifetime - (time.monotonic() - started)
            if left <= 0:
                print("perfbench.server: lifetime over, stopping", file=sys.stderr)
                break
            readable, _, _ = select.select([stdin], [], [], left)
            if readable and not os.read(stdin, 4096):
                break  # EOF: the benchmark is done (or gone)
    finally:
        # a close that hangs must not keep the process (and its pool) alive
        killer = threading.Timer(20.0, os._exit, args=(3,))
        killer.daemon = True
        killer.start()
        server.close()
        service.close(timeout=10)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--lifetime", type=float, required=True)
    args = parser.parse_args(argv)
    _serve(args.shards, args.lifetime)
    return 0


if __name__ == "__main__":
    sys.exit(main())
