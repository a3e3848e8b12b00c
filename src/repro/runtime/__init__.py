"""asyncio runtime: the paper's promised LAN prototype, in-process.

The same sans-IO engines as the simulator, driven by wall-clock
asyncio tasks over an in-memory datagram fabric (with loss injection),
over genuine loopback UDP sockets, or over either wrapped in the
fault-injecting :class:`ChaosFabric`.  Rounds can be sized from a live
RTT estimate ("assuming the subrun as long as the round trip delay").
"""

from ..detect.rtt import AdaptiveRoundTimer, RttEstimator
from .chaos import ChaosFabric
from .lan import AsyncEndpoint, AsyncLan, Datagram
from .node import AsyncGroup, AsyncNode
from .udp import UdpEndpoint, UdpFabric

__all__ = [
    "AsyncEndpoint",
    "ChaosFabric",
    "AsyncLan",
    "Datagram",
    "AsyncGroup",
    "AsyncNode",
    "AdaptiveRoundTimer",
    "RttEstimator",
    "UdpEndpoint",
    "UdpFabric",
]
