"""Network substrate: datagram LAN, multicast transport, fault injection.

Implements the paper's Section 5 architecture from the transport
service down: binary wire codecs (so control-message sizes are measured
in real bytes, as Table 1 requires), an n-unicast multicast transport
with the ``(m, h, v, d)`` Request semantics, and a general-omission
fault plan covering crashes, send/receive omissions, and subnet loss.
"""

from .addressing import BROADCAST_GROUP, Address, GroupAddress, UnicastAddress
from .faults import CrashSchedule, DropDecision, FaultPlan, OmissionModel, PartitionMap
from .fragmentation import FRAGMENT_HEADER_BYTES, Fragmenter, Reassembler
from .network import DEFAULT_ONE_WAY_DELAY, ETHERNET_MTU, DatagramNetwork
from .packet import HEADER_OVERHEAD_BYTES, Packet
from .stats import KindStats, NetworkStats
from .topology import EthernetBus, FixedDelay, JitteredDelay
from .transport import MulticastTransport, Transfer, TransferStatus
from .wire import (
    CodecRegistry,
    Reader,
    Writer,
    decode_message,
    encode_message,
    global_registry,
)

__all__ = [
    "Address",
    "BROADCAST_GROUP",
    "GroupAddress",
    "UnicastAddress",
    "CrashSchedule",
    "DropDecision",
    "FaultPlan",
    "OmissionModel",
    "PartitionMap",
    "FRAGMENT_HEADER_BYTES",
    "Fragmenter",
    "Reassembler",
    "DEFAULT_ONE_WAY_DELAY",
    "DatagramNetwork",
    "ETHERNET_MTU",
    "HEADER_OVERHEAD_BYTES",
    "Packet",
    "KindStats",
    "NetworkStats",
    "EthernetBus",
    "FixedDelay",
    "JitteredDelay",
    "MulticastTransport",
    "Transfer",
    "TransferStatus",
    "CodecRegistry",
    "Reader",
    "Writer",
    "decode_message",
    "encode_message",
    "global_registry",
]
