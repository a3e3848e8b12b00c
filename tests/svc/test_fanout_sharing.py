"""The client fan-out keeps one copy per publish, not one per subscriber.

Two shortcuts on the receive side of the fan-out, each pinned to its
slow version (the house rule, cf. ``test_svc_properties``):

* **Drain decoding** — ``ShardedService.pump`` decodes a drained
  outbox through one tail memo: each distinct CLIENT_DELIVER tail
  (everything after ``deliver_seq``) is parsed once and shared.  On any
  batch it returns what ``global_registry.decode`` returns frame by
  frame, and raises the same ``WireFormatError`` on the same frames.
* **Lazy failover dedupe** — a session builds a shard's
  ``(origin, origin_seq)`` set at the shard's first re-anchor instead of
  on every delivery.  Over random stream histories with re-anchors and
  full replays it ends with the same ``delivered`` and ``dup_filtered``
  as a session that keeps the set from the first delivery.

A memory ratchet then checks the saving itself on a small tier run.
"""

import gc
import struct
import tracemalloc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, WireFormatError
from repro.net.wire import Writer, global_registry
from repro.svc import tier as tier_module
from repro.svc.session import ClientSession, SessionState
from repro.svc.tier import ShardedService
from repro.svc.wire import (
    ACK_DELIVER,
    ACK_PUBLISH,
    ClientAck,
    ClientDeliver,
    ClientHello,
    ClientPublish,
    _decode_drained,
)

# tag, client_id, shard, deliver_seq, origin, origin_seq, epoch
_RAW_HEAD = struct.Struct("!BQHIQIH")


def raw_deliver(client_id, shard, deliver_seq, origin, origin_seq, epoch, topic, payload):
    """A CLIENT_DELIVER frame packed field by field, valid or not."""
    body = Writer().bytes_field(topic).bytes_field(payload).getvalue()
    return _RAW_HEAD.pack(
        21, client_id, shard, deliver_seq, origin, origin_seq, epoch
    ) + body


def outcome(decode, frame):
    try:
        return decode(frame)
    except WireFormatError as exc:
        return ("WireFormatError", str(exc))


# ----------------------------------------------------------------------
# drain decoding == registry decoding
# ----------------------------------------------------------------------

_topics = st.one_of(
    st.sampled_from([b"news", b"sports", b"t"]),
    st.binary(min_size=0, max_size=130),  # includes the bad lengths 0, 129, 130
)
_tails = st.tuples(
    st.sampled_from([1, 2**40, 2**64 - 1]),  # origin
    st.sampled_from([0, 1, 7, 2**32 - 1]),  # origin_seq, 0 invalid
    st.sampled_from([0, 1, 65535]),  # epoch
    _topics,
    st.binary(max_size=24),  # payload
)
_heads = st.tuples(
    st.sampled_from([5, 2**33, 2**64 - 1]),  # client_id
    st.integers(0, 65535),  # shard
    st.sampled_from([0, 1, 2, 300, 2**32 - 1]),  # deliver_seq, 0 invalid
)
_other_pdus = st.sampled_from(
    [
        global_registry.encode(ClientAck(ACK_PUBLISH, 5, 0, 3, 8, resume_seq=2)),
        global_registry.encode(ClientAck(ACK_DELIVER, 5, 1, 9, 0, epoch=1)),
        global_registry.encode(ClientHello(5, credit=4, resume_seq=2, acked_seq=1)),
        global_registry.encode(ClientPublish(5, 1, (b"a", b"b"), b"x")),
        b"",
        b"\x15",
        b"\xff\x00",
    ]
)


@st.composite
def drained_batches(draw):
    """``(addressee, frame)`` batches: deliver frames drawn from a small
    pool of tails (so many share one), other client PDUs, and mangled
    frames — truncated, over-long, bad topic lengths, zero seqs."""
    pool = draw(st.lists(_tails, min_size=1, max_size=4))
    batch = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["deliver", "deliver", "deliver", "other", "cut", "long"]))
        if kind == "other":
            frame = draw(_other_pdus)
            addressee = 5
        else:
            client_id, shard, deliver_seq = draw(_heads)
            origin, origin_seq, epoch, topic, payload = draw(st.sampled_from(pool))
            frame = raw_deliver(
                client_id, shard, deliver_seq, origin, origin_seq, epoch, topic, payload
            )
            if kind == "cut":
                frame = frame[: draw(st.integers(0, len(frame) - 1))]
            elif kind == "long":
                frame += draw(st.binary(min_size=1, max_size=4))
            addressee = draw(st.sampled_from([client_id, 5]))
        batch.append((addressee, frame))
    return batch


@given(drained_batches())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_drain_decoder_equals_registry_decode(batch):
    tails: dict = {}
    shared: dict = {}
    for addressee, frame in batch:
        got = outcome(lambda f: _decode_drained(addressee, f, tails), frame)
        want = outcome(global_registry.decode, frame)
        assert type(got) is type(want)
        assert got == want
        if isinstance(got, ClientDeliver):
            # One parse per distinct tail: every delivery built from it
            # holds the same topic and payload objects.
            first = shared.setdefault(frame[15:], got)
            assert got.topic is first.topic and got.payload is first.payload
            if got.client_id == addressee:
                assert got.client_id is addressee


# ----------------------------------------------------------------------
# lazy dedupe == eager dedupe
# ----------------------------------------------------------------------


class EagerDedupeSession(ClientSession):
    """The reference: the per-shard dedupe set kept from the first
    delivery, one key per delivery, as before it was built lazily."""

    def reanchor(self, shard):
        epoch = self._epoch.get(shard, 0) + 1
        self._epoch[shard] = epoch
        self._deliver_cursor[shard] = 0
        return epoch

    def on_deliver(self, deliver):
        self._check_inbound(deliver.client_id)
        if self.state not in (SessionState.ACTIVE, SessionState.CONNECTING):
            raise ProtocolError(f"deliver in state {self.state.value}")
        current = self._epoch.get(deliver.shard, 0)
        if deliver.epoch != current:
            if deliver.epoch < current:
                return
            raise ProtocolError("epoch from the future")
        expected = self._deliver_cursor.get(deliver.shard, 0) + 1
        if deliver.deliver_seq != expected:
            raise ProtocolError("deliver_seq gap")
        self._deliver_cursor[deliver.shard] = deliver.deliver_seq
        seen = self._seen.setdefault(deliver.shard, set())
        key = (deliver.origin, deliver.origin_seq)
        if key in seen:
            self.dup_filtered += 1
        else:
            seen.add(key)
            self.delivered.append(deliver)


_SHARDS = 3


@st.composite
def stream_histories(draw):
    """Operations on one session's streams over ``_SHARDS`` shards:
    ``("process", shard, key)`` — the shard processes a publish;
    ``("deliver", shard, k)`` — its current stream delivers up to ``k``
    more processed publishes in order; ``("reanchor", shard)`` — the
    stream fails over and replays the shard's whole history;
    ``("straggle", shard)`` — a delivery of an older stream life."""
    keys = [(origin, seq) for origin in (11, 2**40) for seq in range(1, 9)]
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        shard = draw(st.integers(0, _SHARDS - 1))
        kind = draw(st.sampled_from(["process", "process", "deliver", "deliver", "reanchor", "straggle"]))
        if kind == "process":
            ops.append((kind, shard, draw(st.sampled_from(keys))))
        elif kind == "deliver":
            ops.append((kind, shard, draw(st.integers(1, 5))))
        else:
            ops.append((kind, shard))
    return ops


def replay(session, ops):
    """Drive ``session`` through ``ops`` the way frontends would: each
    shard processes a publish once (``Frontend.seen``), a stream
    delivers the shard's log in order, and a re-anchored stream starts
    over from the first entry at a new epoch."""
    session.hello()
    session.on_ack(ClientAck(ACK_PUBLISH, session.client_id, 0, 0, 8))
    logs = {shard: [] for shard in range(_SHARDS)}
    sent = dict.fromkeys(range(_SHARDS), 0)
    epoch = dict.fromkeys(range(_SHARDS), 0)

    def deliver(shard, index, at_epoch, seq):
        origin, origin_seq = logs[shard][index]
        session.on_deliver(
            ClientDeliver(
                session.client_id, shard, seq, origin, origin_seq, b"t",
                b"%d" % origin_seq, epoch=at_epoch,
            )
        )

    for op in ops:
        kind, shard = op[0], op[1]
        if kind == "process":
            if op[2] not in logs[shard]:
                logs[shard].append(op[2])
        elif kind == "deliver":
            for _ in range(min(op[2], len(logs[shard]) - sent[shard])):
                sent[shard] += 1
                deliver(shard, sent[shard] - 1, epoch[shard], sent[shard])
        elif kind == "reanchor":
            epoch[shard] = session.reanchor(shard)
            sent[shard] = 0
        elif epoch[shard] and logs[shard]:  # straggle
            deliver(shard, 0, epoch[shard] - 1, 1)
    return session


@given(stream_histories())
@settings(max_examples=300, deadline=None)
def test_lazy_dedupe_equals_eager_dedupe(ops):
    lazy = replay(ClientSession(7, credit=8), ops)
    eager = replay(EagerDedupeSession(7, credit=8), ops)
    assert lazy.delivered == eager.delivered
    assert lazy.dup_filtered == eager.dup_filtered
    never_moved = {shard for shard in range(_SHARDS) if not lazy.stream_epoch(shard)}
    assert never_moved.isdisjoint(lazy._seen)


# ----------------------------------------------------------------------
# the memory ratchet
# ----------------------------------------------------------------------

_CLIENTS = [100_003 + 7919 * i for i in range(48)]


def fanout_run():
    """A small high-fan-out tier: every session subscribes to both
    topics, so each publish is delivered to all 48 sessions."""
    tier = ShardedService(2, 3, seed=4)
    for client_id in _CLIENTS:
        tier.connect(client_id)
        tier.subscribe(client_id, (b"alpha", b"beta"))
    for i in range(24):
        tier.publish(_CLIENTS[i % 7], (b"alpha" if i % 2 else b"beta",), b"payload-%03d" % i)
    tier.run()
    return tier


def retained_per_delivery():
    """Bytes the sessions' delivery state holds per delivery: what
    dropping every ``delivered`` list and dedupe set frees."""
    tracemalloc.start()
    try:
        tier = fanout_run()
        sessions = list(tier.sessions.values())
        deliveries = sum(len(s.delivered) for s in sessions)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for session in sessions:
            session.delivered = []
            session._seen = {}
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return freed / deliveries, tier


def test_fanout_keeps_one_copy_per_publish(monkeypatch):
    per_delivery, tier = retained_per_delivery()

    monkeypatch.setattr(
        tier_module, "_decode_drained", lambda _, frame, __: global_registry.decode(frame)
    )
    monkeypatch.setattr(tier_module, "ClientSession", EagerDedupeSession)
    reference, _ = retained_per_delivery()
    assert per_delivery <= 0.6 * reference, (per_delivery, reference)


def test_deliveries_of_one_publish_share_topic_and_payload():
    tier = fanout_run()
    assert not any(session._seen for session in tier.sessions.values())
    by_publish: dict = {}
    for client_id, session in tier.sessions.items():
        assert len(session.delivered) == 24
        for deliver in session.delivered:
            assert not hasattr(deliver, "__dict__")
            member = tier._stream_member[(client_id, deliver.shard)]
            key = (deliver.origin, deliver.origin_seq, deliver.shard, member)
            by_publish.setdefault(key, []).append(deliver)
    shared = 0
    for delivers in by_publish.values():
        first = delivers[0]
        for deliver in delivers[1:]:
            assert deliver.topic is first.topic
            assert deliver.payload is first.payload
            shared += 1
    assert shared > len(by_publish)  # several sessions per frontend
