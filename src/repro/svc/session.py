"""The client-side session state machine (PROTOCOL §14.2, §14.7).

A :class:`ClientSession` is everything a *non-member* user holds: a
64-bit identity, a publish window, per-shard delivery cursors — all
constant-size in the group cardinality and client count (the
scalability point of the client tier: n-sized state stays inside the
server group).

Lifecycle::

    IDLE --hello()--> CONNECTING --publish-ack--> ACTIVE --close()--> CLOSED
                          ^                          |
                          +------- hello() ----------+   (failover reopen)

A session may re-HELLO from ACTIVE or CLOSED (its home frontend died,
or the client voluntarily reconnects).  The resume handshake is
*negotiated*: the client reports what it sent and what was acked, the
frontend answers with the frontier it actually accepted
(``ClientAck.resume_seq``), and the client replays every retained
unacked publish past that offer — so a frontend that never saw the
session cannot silently void publishes.

The session *produces and consumes wire PDUs* and never touches the
group protocol: drivers (the sharded tier, tests, a real socket loop)
shuttle the encoded bytes between the session and its frontend.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from ..errors import FlowControlBlocked, ProtocolError
from .wire import ACK_DELIVER, ACK_PUBLISH, ClientAck, ClientDeliver, ClientHello, ClientPublish

__all__ = ["SessionState", "ClientSession"]


class SessionState(Enum):
    IDLE = "idle"
    CONNECTING = "connecting"
    ACTIVE = "active"
    CLOSED = "closed"


class ClientSession:
    """Client-side state machine for one session to one frontend.

    Parameters
    ----------
    client_id:
        The 64-bit client identity (the id space is the whole point:
        it is unrelated to group cardinality).
    credit:
        Publish window to request in the HELLO; the frontend's grant
        (carried in every publish-ack) is what actually binds.
    """

    __slots__ = (
        "client_id",
        "state",
        "requested_credit",
        "window",
        "next_seq",
        "acked",
        "_queue",
        "_unacked",
        "delivered",
        "dup_filtered",
        "_deliver_cursor",
        "_epoch",
        "_seen",
    )

    def __init__(self, client_id: int, *, credit: int = 32) -> None:
        self.client_id = client_id
        self.state = SessionState.IDLE
        self.requested_credit = credit
        #: Granted publish window (0 until the hello-ack arrives).
        self.window = 0
        self.next_seq = 1
        #: Highest cumulative publish-ack received.
        self.acked = 0
        self._queue: deque[tuple[tuple[bytes, ...], bytes]] = deque()
        #: Sent-but-unacked publishes, retained for failover replay.
        self._unacked: deque[ClientPublish] = deque()
        #: Every delivery accepted, in arrival order (all streams).
        self.delivered: list[ClientDeliver] = []
        #: Replayed deliveries dropped by the per-shard dedupe.
        self.dup_filtered = 0
        self._deliver_cursor: dict[int, int] = {}
        #: Current stream generation per shard (bumps on re-anchor).
        self._epoch: dict[int, int] = {}
        #: Publish identities accepted per re-anchored shard stream (the
        #: failover dedupe: a re-anchored stream replays history, the
        #: session keeps only what it has not seen on that shard).  Until
        #: its first re-anchor a stream never repeats a publish — a
        #: frontend fans each envelope out once — so a shard's set is
        #: built from :attr:`delivered` by :meth:`reanchor`.
        self._seen: dict[int, set[tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Publishes sent but not yet cumulatively acked."""
        return (self.next_seq - 1) - self.acked

    @property
    def queued(self) -> int:
        """Publishes waiting locally for window."""
        return len(self._queue)

    @property
    def retained(self) -> int:
        """Unacked publishes held for failover replay."""
        return len(self._unacked)

    def deliver_cursor(self, shard: int) -> int:
        """Last delivery sequence accepted on ``shard``'s stream."""
        return self._deliver_cursor.get(shard, 0)

    def stream_epoch(self, shard: int) -> int:
        """Current stream generation for ``shard`` (0 = never moved)."""
        return self._epoch.get(shard, 0)

    def __repr__(self) -> str:
        return (
            f"ClientSession(c{self.client_id}, {self.state.value}, "
            f"seq={self.next_seq - 1}, acked={self.acked}, "
            f"outstanding={self.outstanding}, queued={self.queued})"
        )

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------

    def hello(self) -> ClientHello:
        """IDLE/ACTIVE/CLOSED → CONNECTING; returns the HELLO to send.

        Reopening from ACTIVE or CLOSED is the failover path: the
        client lost (or abandoned) its frontend and re-HELLOs at a
        successor carrying both its sent frontier (``resume_seq``) and
        its acked frontier (``acked_seq``); the replies' resume offer
        decides what gets replayed.  Only a HELLO already in flight
        (CONNECTING) is rejected.
        """
        if self.state is SessionState.CONNECTING:
            raise ProtocolError(f"hello from state {self.state.value}")
        self.state = SessionState.CONNECTING
        return ClientHello(
            self.client_id,
            credit=self.requested_credit,
            resume_seq=self.next_seq - 1,
            acked_seq=self.acked,
        )

    def close(self) -> None:
        self.state = SessionState.CLOSED

    def reanchor(self, shard: int) -> int:
        """Start a new delivery-stream generation on ``shard``.

        Called when the stream moves to a successor frontend: the
        cursor restarts at 0, the epoch bumps (so stragglers from the
        dead frontend's stream are dropped, not mis-sequenced), and
        the per-shard seen-set — built here from :attr:`delivered` on
        the shard's first re-anchor — keeps replayed history from
        re-appearing in :attr:`delivered`.  Returns the new epoch for
        the driver to hand to the successor.
        """
        epoch = self._epoch.get(shard, 0) + 1
        self._epoch[shard] = epoch
        self._deliver_cursor[shard] = 0
        if shard not in self._seen:
            self._seen[shard] = {
                (d.origin, d.origin_seq) for d in self.delivered if d.shard == shard
            }
        return epoch

    # ------------------------------------------------------------------
    # publishing (flow-controlled)
    # ------------------------------------------------------------------

    def publish(self, topics: tuple[bytes, ...], payload: bytes) -> ClientPublish | None:
        """Queue-behind-window publish.

        Returns the PDU to send now, or None when the window is full —
        the publish is then queued locally and released by a later
        :meth:`on_ack` (mirroring ``UrcgcService.data_rq``).
        """
        if self.state is not SessionState.ACTIVE:
            raise ProtocolError(f"publish from state {self.state.value}")
        if self.outstanding < self.window and not self._queue:
            return self._next_publish(topics, payload)
        self._queue.append((tuple(topics), payload))
        return None

    def try_publish(self, topics: tuple[bytes, ...], payload: bytes) -> ClientPublish:
        """Non-queueing variant: raises :class:`FlowControlBlocked`
        instead of building a backlog (mirrors ``try_data_rq``)."""
        if self.state is not SessionState.ACTIVE:
            raise ProtocolError(f"publish from state {self.state.value}")
        if self.outstanding >= self.window or self._queue:
            raise FlowControlBlocked(
                f"c{self.client_id} window full: {self.outstanding}/{self.window} "
                f"outstanding, {self.queued} queued"
            )
        return self._next_publish(topics, payload)

    def _next_publish(self, topics: tuple[bytes, ...], payload: bytes) -> ClientPublish:
        pub = ClientPublish(self.client_id, self.next_seq, tuple(topics), payload)
        self.next_seq += 1
        self._unacked.append(pub)
        return pub

    # ------------------------------------------------------------------
    # inbound PDUs
    # ------------------------------------------------------------------

    def on_ack(self, ack: ClientAck) -> list[ClientPublish]:
        """Absorb a publish-ack; returns the publishes to (re)send.

        In ACTIVE these are queued publishes the restored window now
        admits.  On the hello-ack of a resume they additionally start
        with every retained publish past the frontend's resume offer
        (``ack.resume_seq``) — the replay of the negotiated handshake.
        """
        self._check_inbound(ack.client_id)
        if ack.kind != ACK_PUBLISH:
            raise ProtocolError(f"client received ack kind {ack.kind}")
        resuming = self.state is SessionState.CONNECTING
        if resuming:
            self.state = SessionState.ACTIVE
        elif self.state is not SessionState.ACTIVE:
            raise ProtocolError(f"ack in state {self.state.value}")
        if ack.ack_seq > self.next_seq - 1:
            raise ProtocolError(
                f"c{self.client_id} acked up to {ack.ack_seq} but only "
                f"{self.next_seq - 1} were sent"
            )
        if resuming and ack.resume_seq > self.next_seq - 1:
            raise ProtocolError(
                f"c{self.client_id} resume offer {ack.resume_seq} beyond "
                f"sent frontier {self.next_seq - 1}"
            )
        stale = ack.ack_seq < self.acked
        self.acked = max(self.acked, ack.ack_seq)
        while self._unacked and self._unacked[0].client_seq <= self.acked:
            self._unacked.popleft()
        if ack.credit > self.requested_credit:
            # A frontend never grants more than the HELLO asked for
            # (min(hello.credit, grant_credit)); a larger value is a
            # forged or corrupted ack and must not widen the window.
            raise ProtocolError(
                f"c{self.client_id} granted credit {ack.credit} exceeds "
                f"requested {self.requested_credit}"
            )
        if resuming or not stale:
            # A reordered stale ack must not rebind the window (its
            # credit snapshot is older than what already bound); the
            # hello-ack of a resume always rebinds.
            self.window = ack.credit
        replay: list[ClientPublish] = []
        if resuming:
            replay = [p for p in self._unacked if p.client_seq > ack.resume_seq]
        released = replay
        while self._queue and self.outstanding < self.window:
            topics, payload = self._queue.popleft()
            released.append(self._next_publish(topics, payload))
        return released

    def on_deliver(self, deliver: ClientDeliver) -> None:
        """Absorb one delivery; enforces per-stream contiguity.

        Accepted in CONNECTING too: over a real transport a fan-out
        deliver legitimately races the hello-ack.  Delivers from an
        older stream epoch (a dead frontend's stragglers) are dropped;
        within the current epoch, replayed content the session already
        accepted on this shard is counted in :attr:`dup_filtered`
        instead of re-appearing in :attr:`delivered`.

        The driver acknowledges with :meth:`ack_delivers` — once per
        batch of deliveries it handed over, since the ack is cumulative.
        """
        self._check_inbound(deliver.client_id)
        if self.state not in (SessionState.ACTIVE, SessionState.CONNECTING):
            raise ProtocolError(f"deliver in state {self.state.value}")
        current = self._epoch.get(deliver.shard, 0)
        if deliver.epoch != current:
            if deliver.epoch < current:
                return  # straggler from a previous stream life
            raise ProtocolError(
                f"c{self.client_id} stream s{deliver.shard}: epoch "
                f"{deliver.epoch} from the future (at {current})"
            )
        expected = self._deliver_cursor.get(deliver.shard, 0) + 1
        if deliver.deliver_seq != expected:
            raise ProtocolError(
                f"c{self.client_id} stream s{deliver.shard}: got deliver_seq "
                f"{deliver.deliver_seq}, expected {expected}"
            )
        self._deliver_cursor[deliver.shard] = deliver.deliver_seq
        seen = self._seen.get(deliver.shard)
        if seen is not None:
            key = (deliver.origin, deliver.origin_seq)
            if key in seen:
                self.dup_filtered += 1
                return
            seen.add(key)
        self.delivered.append(deliver)

    def ack_delivers(self, shard: int) -> ClientAck:
        """Cumulative delivery ack for one shard stream."""
        return ClientAck(
            ACK_DELIVER,
            self.client_id,
            shard,
            self._deliver_cursor.get(shard, 0),
            0,
            epoch=self._epoch.get(shard, 0),
        )

    def _check_inbound(self, client_id: int) -> None:
        if client_id != self.client_id:
            raise ProtocolError(
                f"session c{self.client_id} received a PDU for c{client_id}"
            )
