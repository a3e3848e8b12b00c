"""Discrete-event simulation kernel.

Deterministic event queue, rtd-denominated clock, seeded RNG streams,
structured tracing, and round scheduling — the substrate every
experiment in the paper's evaluation runs on.  The kernel records its
metrics into a :class:`repro.obs.Registry` (``Kernel.metrics``).
"""

from .events import PRIORITY_DEFAULT, PRIORITY_NETWORK, PRIORITY_ROUND, Event, EventQueue
from .kernel import Kernel
from .rng import RngRegistry
from .rounds import RoundScheduler
from .trace import Trace, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "PRIORITY_DEFAULT",
    "PRIORITY_NETWORK",
    "PRIORITY_ROUND",
    "Kernel",
    "RngRegistry",
    "RoundScheduler",
    "Trace",
    "TraceRecord",
]
