"""An asyncio event loop on a daemon thread: the one bridge through which
:class:`~repro.service.gateway.GatewayServer` and the synchronous clients
(:mod:`repro.service.client`) drive their async objects."""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Callable, Coroutine
from concurrent.futures import Future
from typing import Any, TypeVar

__all__ = ["LoopThread"]

T = TypeVar("T")


class LoopThread:
    """An event loop running forever on a named daemon thread."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    @classmethod
    def start(
        cls,
        name: str,
        setup: Callable[[], Coroutine[Any, Any, T]],
        timeout: float = 30,
    ) -> tuple[LoopThread, T]:
        """A running loop thread plus the result of ``setup()`` run on it.

        If ``setup`` raises or times out, the loop is stopped, joined and
        closed before the error propagates: no loop thread outlives a
        failed start.
        """
        runner = cls(name)
        try:
            return runner, runner.run(setup(), timeout=timeout)
        except BaseException:
            runner.stop()
            raise

    def submit(self, coro: Coroutine[Any, Any, T]) -> Future[T]:
        """Schedule ``coro`` on the loop; returns a thread-safe future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro: Coroutine[Any, Any, T], timeout: float | None = None) -> T:
        """Run ``coro`` on the loop and block for its result."""
        return self.submit(coro).result(timeout=timeout)

    def stop(self) -> None:
        """Stop the loop, join its thread and close it (idempotent)."""
        if self.loop.is_closed():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()
