"""The client/service tier: non-member users over sharded URCGC groups.

URCGC keeps every guarantee *inside* the group — n members, n² wire
cost, n-sized vectors.  The service tier (PROTOCOL §14) is how those
guarantees reach a population the group could never admit: clients
hold constant-size sessions against member *frontends*, topics shard
across many independent groups by consistent hashing, and multi-shard
publishes stay causally consistent through a Generic-Multicast bridge
that exchanges timestamps only among destination shards.

Layers, bottom-up:

* :mod:`repro.svc.wire` — the client PDUs (HELLO / PUB / DELIVER / ACK).
* :mod:`repro.svc.envelope` — the in-group envelope carrying client
  publishes as opaque group payloads.
* :mod:`repro.svc.session` — the client-side state machine.
* :mod:`repro.svc.frontend` — the member-side state machine.
* :mod:`repro.svc.router` / :mod:`repro.svc.bridge` — topic→shard
  placement and the cross-shard intersection rule.
* :mod:`repro.svc.tier` — the assembly: ``S`` simulated groups behind
  one publish/subscribe API.
* :mod:`repro.svc.serve` — the ``python -m repro serve`` demo harness.
* :mod:`repro.svc.chaos` — the failover/rebalance scenario family
  (frontend kills, ring changes) graded per guarantee (§14.7-14.8).
"""

from .bridge import CausalBridge
from .chaos import SVC_SCENARIOS, run_svc_scenario
from .envelope import ENVELOPE_MAGIC, Envelope
from .frontend import DeliveryStream, Frontend, HomeSession
from .router import ShardRouter
from .session import ClientSession, SessionState
from .tier import ShardedService
from .wire import (
    ACK_DELIVER,
    ACK_PUBLISH,
    MAX_TOPIC_LEN,
    MAX_TOPICS,
    ClientAck,
    ClientDeliver,
    ClientHello,
    ClientPublish,
)

__all__ = [
    "ACK_DELIVER",
    "ACK_PUBLISH",
    "CausalBridge",
    "ClientAck",
    "ClientDeliver",
    "ClientHello",
    "ClientPublish",
    "ClientSession",
    "DeliveryStream",
    "ENVELOPE_MAGIC",
    "Envelope",
    "Frontend",
    "HomeSession",
    "MAX_TOPICS",
    "MAX_TOPIC_LEN",
    "SVC_SCENARIOS",
    "SessionState",
    "ShardRouter",
    "ShardedService",
    "run_svc_scenario",
]
