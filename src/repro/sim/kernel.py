"""The discrete-event simulation kernel.

The kernel owns the event queue, the simulated clock (in rtd units),
the RNG registry, the trace, and the metric set.  Protocol drivers
schedule callbacks on it; the kernel runs them in deterministic order
until the queue drains, a time horizon is reached, or a stop condition
fires.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import KernelStoppedError
from ..obs.metrics import MetricSet
from ..types import Time
from .events import PRIORITY_DEFAULT, Event, EventQueue
from .rng import RngRegistry
from .trace import Trace

__all__ = ["Kernel"]


class Kernel:
    """Deterministic discrete-event simulator core.

    Parameters
    ----------
    seed:
        Root seed for every random stream in the simulation.
    trace:
        Record a structured trace (disable for large parameter sweeps
        where only metrics are needed).
    """

    def __init__(self, *, seed: int = 0, trace: bool = True) -> None:
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = Trace(enabled=trace)
        self.metrics = MetricSet()
        self._running = False
        self._stopped = False
        self._stop_reason: str | None = None

    @property
    def now(self) -> Time:
        """Current simulated time in rtd units."""
        return self.queue.now

    @property
    def stop_reason(self) -> str | None:
        """Why the last run ended (``None`` if it drained the queue)."""
        return self._stop_reason

    def schedule(
        self,
        delay: Time,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` ``delay`` rtd units from now."""
        return self.queue.push(self.now + delay, action, priority=priority, label=label)

    def schedule_at(
        self,
        time: Time,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute time ``time``."""
        return self.queue.push(time, action, priority=priority, label=label)

    def stop(self, reason: str = "stopped") -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True
        self._stop_reason = reason

    def run(
        self,
        *,
        until: Time | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> int:
        """Run events until the queue drains or a limit is hit.

        Parameters
        ----------
        until:
            Exclusive time horizon; events at ``time > until`` stay queued.
        max_events:
            Safety valve against runaway simulations.
        stop_when:
            Checked after every event; the run stops when it is true.

        Returns the number of events executed.
        """
        if self._running:
            raise KernelStoppedError("kernel.run() is not reentrant")
        self._running = True
        self._stopped = False
        self._stop_reason = None
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    self._stop_reason = "max_events"
                    break
                next_time = self.queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._stop_reason = "horizon"
                    break
                event = self.queue.pop()
                assert event is not None
                event.action()
                executed += 1
                if stop_when is not None and stop_when():
                    self._stop_reason = "condition"
                    break
        finally:
            self._running = False
        return executed
