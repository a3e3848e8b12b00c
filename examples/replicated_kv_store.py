#!/usr/bin/env python3
"""Client-server group: a replicated key-value store with voting.

Section 3 of the paper: "the algorithm we present may apply to client
server groups, through a proper management of the reply messages".
Here two server processes replicate a key-value store; two client
processes issue writes and quorum reads.  Because every request is a
urcgc message, both replicas apply every write in the same causal
order — so a read quorum always returns a single, consistent value,
which the (h, v) reply machinery of Section 5 (h replies folded by a
voting function) verifies at the client.

:class:`ClientServerGroup` is that request/reply structure: clients
issue calls, every server processes each call in the same causal order
and replies, and the caller resolves after ``h`` replies through a
voting function ``v``.  It layers on
:class:`~repro.core.service.UrcgcService` without touching the
protocol, and registers via ``add_indication_handler`` so it composes
with other consumers of the same member.  Diffusion groups — servers
publishing to every server and client — are the single-topic case of
the sharded service tier (:class:`~repro.svc.tier.ShardedService`).

Run:  python examples/replicated_kv_store.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Callable

from repro import SimCluster, UrcgcConfig
from repro.core.message import UserMessage
from repro.core.service import UrcgcService
from repro.errors import ConfigError, ProtocolError
from repro.net.wire import Reader, Writer
from repro.types import ProcessId

_TAG_REQUEST = 2
_TAG_REPLY = 3

_call_ids = count(1)

VotingFunction = Callable[[list[bytes]], bytes]
RequestHandler = Callable[[ProcessId, bytes], bytes]


class Role(Enum):
    SERVER = "server"
    CLIENT = "client"


def majority_vote(replies: list[bytes]) -> bytes:
    """Voting function: the most frequent reply wins (ties: smallest)."""
    if not replies:
        raise ProtocolError("cannot vote over zero replies")
    counts: dict[bytes, int] = {}
    for reply in replies:
        counts[reply] = counts.get(reply, 0) + 1
    best = max(counts.items(), key=lambda item: (item[1], item[0]))
    return best[0]


def first_reply(replies: list[bytes]) -> bytes:
    """Voting function: take the first reply received."""
    if not replies:
        raise ProtocolError("cannot vote over zero replies")
    return replies[0]


@dataclass
class CallHandle:
    """Tracks one client call until ``h`` replies arrive."""

    call_id: int
    required_replies: int
    voting: VotingFunction
    replies: list[bytes] = field(default_factory=list)
    responders: list[ProcessId] = field(default_factory=list)
    result: bytes | None = None

    @property
    def resolved(self) -> bool:
        return self.result is not None

    def on_reply(self, sender: ProcessId, body: bytes) -> bool:
        """Absorb one reply; returns True when this reply resolved the
        call (late replies after resolution are ignored)."""
        if self.resolved:
            return False
        self.replies.append(body)
        self.responders.append(sender)
        if len(self.replies) >= self.required_replies:
            self.result = self.voting(self.replies)
            return True
        return False


def _encode(tag: int, call_id: int, sender: int, body: bytes) -> bytes:
    writer = Writer()
    writer.u8(tag)
    writer.u32(call_id)
    writer.u16(sender)
    writer.bytes_field(body)
    return writer.getvalue()


def _decode(payload: bytes) -> tuple[int, int, int, bytes]:
    reader = Reader(payload)
    tag = reader.u8()
    call_id = reader.u32()
    sender = reader.u16()
    body = reader.bytes_field()
    reader.expect_end()
    return tag, call_id, sender, body


class ClientServerGroup:
    """Request/reply structure over one urcgc group member.

    Parameters
    ----------
    service:
        The member's urcgc SAP.
    role:
        This member's role.
    servers:
        The pids acting as servers (identical at every member).
    handler:
        Server-side request handler ``(client_pid, body) -> reply``;
        required for servers, ignored for clients.
    """

    def __init__(
        self,
        service: UrcgcService,
        role: Role,
        servers: set[ProcessId],
        *,
        handler: RequestHandler | None = None,
    ) -> None:
        if not servers:
            raise ConfigError("a client-server group needs at least one server")
        self.service = service
        self.role = role
        self.servers = frozenset(servers)
        self.pid = service.member.pid
        if role is Role.SERVER and handler is None:
            raise ConfigError("servers must provide a request handler")
        if role is Role.SERVER and self.pid not in self.servers:
            raise ConfigError(f"p{self.pid} is not in the server set")
        self._handler = handler
        self._calls: dict[int, CallHandle] = {}
        self.served_count = 0
        service.add_indication_handler(self._on_indication)

    def call(
        self,
        body: bytes,
        *,
        h: int = 1,
        v: VotingFunction = first_reply,
    ) -> CallHandle:
        """Issue a request to the server set.

        The handle resolves once ``h`` server replies arrived, with
        ``v`` folding them into one result (Section 5's voting
        function).
        """
        if self.role is not Role.CLIENT:
            raise ProtocolError("servers do not issue calls")
        if not 1 <= h <= len(self.servers):
            raise ConfigError(
                f"h must be in [1, {len(self.servers)}], got {h}"
            )
        call_id = next(_call_ids)
        handle = CallHandle(call_id, h, v)
        self._calls[call_id] = handle
        self.service.data_rq(_encode(_TAG_REQUEST, call_id, self.pid, body))
        return handle

    def _on_indication(self, message: UserMessage) -> None:
        if not message.payload or message.payload[0] not in (_TAG_REQUEST, _TAG_REPLY):
            return  # other traffic on this member (handlers compose)
        tag, call_id, sender, body = _decode(message.payload)
        if tag == _TAG_REQUEST:
            if self.role is Role.SERVER and sender != self.pid:
                assert self._handler is not None
                reply = self._handler(ProcessId(sender), body)
                self.served_count += 1
                self.service.data_rq(
                    _encode(_TAG_REPLY, call_id, self.pid, reply)
                )
        elif tag == _TAG_REPLY:
            handle = self._calls.get(call_id)
            if handle is not None:
                handle.on_reply(ProcessId(sender), body)


class KvServer:
    """One replica: applies writes, answers reads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[str, str] = {}
        self.log: list[str] = []

    def handle(self, client: ProcessId, body: bytes) -> bytes:
        op, _, rest = body.decode().partition(" ")
        if op == "put":
            key, _, value = rest.partition("=")
            self.data[key] = value
            self.log.append(f"put {key}={value} (from p{client})")
            return f"ok {key}".encode()
        if op == "get":
            self.log.append(f"get {rest} (from p{client})")
            return self.data.get(rest, "<missing>").encode()
        return b"error: unknown op"


def main() -> None:
    n = 4
    servers = {ProcessId(0), ProcessId(1)}
    cluster = SimCluster(UrcgcConfig(n=n), max_rounds=200)

    replicas = {pid: KvServer(f"replica-{pid}") for pid in servers}
    adapters = []
    for i in range(n):
        pid = ProcessId(i)
        if pid in servers:
            adapters.append(
                ClientServerGroup(
                    cluster.services[i], Role.SERVER, servers,
                    handler=replicas[pid].handle,
                )
            )
        else:
            adapters.append(
                ClientServerGroup(cluster.services[i], Role.CLIENT, servers)
            )

    alice, bob = adapters[2], adapters[3]

    # Two clients race writes to the same key, then quorum-read it.
    w1 = alice.call(b"put color=red")
    w2 = bob.call(b"put color=blue")
    read = alice.call(b"get color", h=2, v=majority_vote)
    cluster.run_until_quiescent(drain_subruns=2)

    print("write acks:", w1.result, "/", w2.result)
    print(f"quorum read resolved={read.resolved} with {len(read.replies)} replies")
    print(f"read result: color = {read.result.decode()!r}")
    # Both replicas answered the read with the SAME value: causal
    # (here: identical) write ordering at every replica.
    assert len(set(read.replies)) == 1

    print("\nreplica logs (identical apply order):")
    for pid in sorted(servers):
        print(f"--- {replicas[pid].name} ---")
        for line in replicas[pid].log:
            print(f"  {line}")
    states = {tuple(sorted(replicas[pid].data.items())) for pid in servers}
    print(f"\nreplica states agree: {len(states) == 1} -> {states.pop()}")


if __name__ == "__main__":
    main()
