"""Service-tier properties: single-shard equivalence, bridge order,
and the fan-out fast path pinned to its slow version.

Two properties anchor the tier to the protocol underneath:

* **Single-shard equivalence** — a one-shard service is just a group
  with extra bookkeeping: what every member processes through the tier
  (client ingress, envelopes, frontends) must equal what the same
  member of a plain group processes when the same payloads are
  submitted through the same ingress pids in the same order.
* **Bridge non-inversion** — however publishes scatter over topics and
  shards, two cross-shard messages sharing a destination shard must
  never appear in opposite orders at two shards (and every shard's
  members must agree internally) — audited by
  :func:`~repro.analysis.checkers.check_bridge_ordering`.

Three more pin the encode-once fan-out (the house rule — no fast path
without an equivalence property, cf. ``test_batching_equivalence``):

* **Frame equivalence** — the frame a frontend packs around a shared
  topic/payload body equals ``encode(ClientDeliver(...))`` byte for
  byte, and is refused for exactly the values the dataclass refuses.
* **Ack-batching equivalence** — a tier acknowledging each stream once
  per drained outbox ends exactly where a reference driver that
  acknowledges every single delivery does: same deliveries in the same
  order at every client, same stream cursors at every frontend, same
  audit verdict — with windows small enough to park, and a frontend
  kill.
* **Truncation** — every strict prefix of every golden vector still
  fails as a ``WireFormatError`` through the offset-based ``Reader``.
"""

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.checkers import check_bridge_ordering, check_uniform_ordering
from repro.core.config import UrcgcConfig
from repro.errors import ProtocolError, WireFormatError
from repro.harness.cluster import SimCluster
from repro.net.wire import global_registry
from repro.svc.bridge import CausalBridge
from repro.svc.envelope import Envelope
from repro.svc.serve import audit_tier
from repro.svc.tier import ShardedService
from repro.svc.wire import ClientDeliver, deliver_body, deliver_frame

from ..net import golden_specimens  # noqa: F401  (registers every tag, baselines included)

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _one_topic_per_shard(tier) -> tuple[bytes, ...]:
    """One topic owned by each shard of ``tier``, in discovery order."""
    spread: dict[int, bytes] = {}
    i = 0
    while len(spread) < tier.shards:
        topic = b"spread-%d" % i
        spread.setdefault(tier.router.shard_for(topic), topic)
        i += 1
    return tuple(spread.values())


@st.composite
def chat_scripts(draw):
    """(seed, [(client, n_topics)]) publish scripts over a small tier."""
    seed = draw(st.integers(0, 1000))
    clients = draw(st.lists(st.integers(0, 2**48), min_size=1, max_size=4, unique=True))
    script = draw(
        st.lists(
            st.tuples(st.sampled_from(clients), st.integers(1, 3)),
            min_size=1,
            max_size=20,
        )
    )
    return seed, clients, script


@given(chat_scripts())
@_SETTINGS
def test_single_shard_tier_equals_plain_group(case):
    """Per-member processed payload sequences through a 1-shard tier
    match a plain SimCluster fed the same payloads at the same pids."""
    seed, clients, script = case
    members = 3
    tier = ShardedService(1, members, seed=seed)
    for client in clients:
        tier.connect(client)
    payloads = []
    for i, (client, _) in enumerate(script):
        payload = b"m%d:c%d" % (i, client)
        payloads.append((tier.router.ingress_member(client, members), payload))
        tier.publish(client, (b"the-topic",), payload)
    tier.run()

    plain = SimCluster(UrcgcConfig(n=members), seed=seed, max_rounds=20_000)
    for pid, payload in payloads:
        # Same ingress pid, same submission order, envelope-wrapped so
        # the only difference is the tier machinery around the group.
        origin = next(
            (c for c in clients
             if tier.router.ingress_member(c, members) == pid), 0
        )
        plain.services[pid].data_rq(
            Envelope(origin, 1, (b"the-topic",), payload).to_bytes()
        )
    plain.run_until_quiescent(drain_subruns=2)

    for pid in range(members):
        via_tier = [
            Envelope.from_bytes(m.payload).payload
            for m in tier.clusters[0].services[pid].delivered
        ]
        via_plain = [
            Envelope.from_bytes(m.payload).payload
            for m in plain.services[pid].delivered
        ]
        assert via_tier == via_plain


@given(chat_scripts())
@_SETTINGS
def test_bridge_never_inverts_cross_shard_messages(case):
    seed, clients, script = case
    shards = 3
    tier = ShardedService(shards, 3, seed=seed)
    # Topics engineered to span all shards so multi-topic publishes
    # regularly cross the bridge.
    topics = _one_topic_per_shard(tier)
    for client in clients:
        tier.connect(client)
    for i, (client, n_topics) in enumerate(script):
        tier.publish(client, tuple(topics[:n_topics]), b"m%d" % i)
        if i % 5 == 4:
            tier.step()
    tier.run()

    assert check_bridge_ordering(tier.bridge_logs()).ok
    for shard in range(shards):
        assert check_uniform_ordering(tier.shard_streams(shard)).ok
    # Every session's publishes fully acknowledged: client-level
    # uniformity of the bridged path.
    for session in tier.sessions.values():
        assert session.outstanding == 0 and session.queued == 0


@given(
    st.lists(
        st.sets(st.integers(0, 4), min_size=2, max_size=4).map(
            lambda s: tuple(sorted(s))
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_bridge_stamps_order_every_intersecting_pair(dest_sets):
    """Pure bridge property: any two stamps whose destination sets
    intersect are strictly ordered (Generic-Multicast agreement)."""
    bridge = CausalBridge(5)
    stamps = [bridge.stamp(dests) for dests in dest_sets]
    for i in range(len(dest_sets)):
        for j in range(i + 1, len(dest_sets)):
            if set(dest_sets[i]) & set(dest_sets[j]):
                assert stamps[i] < stamps[j]


@st.composite
def failover_scripts(draw):
    """(seed, [(client, n_topics)], chaos plan) over a 2-shard/5-member
    tier: publishes interleaved with frontend kills and reconnects."""
    seed = draw(st.integers(0, 1000))
    clients = draw(st.lists(st.integers(0, 2**48), min_size=2, max_size=4, unique=True))
    script = draw(
        st.lists(
            st.tuples(st.sampled_from(clients), st.integers(1, 3)),
            min_size=4,
            max_size=24,
        )
    )
    # Chaos plan: at up to 3 script positions, either kill a frontend
    # (None) or voluntarily reconnect a client.
    chaos = draw(
        st.dictionaries(
            st.integers(0, max(0, len(script) - 1)),
            st.one_of(st.none(), st.sampled_from(clients)),
            max_size=3,
        )
    )
    return seed, clients, script, chaos


@given(failover_scripts())
@_SETTINGS
def test_kill_and_reconnect_preserve_guarantees(case):
    """Under random frontend kills and voluntary re-HELLOs, no acked
    publish is lost, no delivery stream duplicates or inverts, and the
    bridge stays ordered."""
    seed, clients, script, chaos = case
    shards = 2
    tier = ShardedService(shards, 5, seed=seed)
    topics = _one_topic_per_shard(tier)
    subscriber = clients[0]
    for client in clients:
        tier.connect(client)
    tier.subscribe(subscriber, tuple(topics))
    for i, (client, n_topics) in enumerate(script):
        tier.publish(client, tuple(topics[:n_topics]), b"m%d" % i)
        if i in chaos:
            tier.step()
            target = chaos[i]
            if target is None:
                live = tier.live_members(i % shards)
                try:
                    tier.fail_frontend(i % shards, max(live))
                except ProtocolError:
                    pass  # majority guard: the kill would be fatal
            else:
                tier.reconnect(target)
    tier.run()

    # No acked publish lost, nothing stuck.
    for session in tier.sessions.values():
        assert session.acked == session.next_seq - 1
        assert session.retained == 0 and session.queued == 0
    # Streams neither duplicate nor invert; the bridge stays ordered.
    delivered = tier.sessions[subscriber].delivered
    per_shard: dict[int, list[tuple[int, int]]] = {}
    for d in delivered:
        per_shard.setdefault(d.shard, []).append((d.origin, d.origin_seq))
    for ids in per_shard.values():
        assert len(ids) == len(set(ids))
    assert check_bridge_ordering(tier.bridge_logs()).ok


# ---------------------------------------------------------------------------
# The encode-once fan-out is its slow version, byte for byte.
# ---------------------------------------------------------------------------


def _around(lo: int, hi: int):
    """Mostly legal values of ``[lo, hi]``, plus both edges and the
    first value past each."""
    return st.one_of(
        st.integers(lo, hi), st.sampled_from([lo - 1, lo, hi, hi + 1])
    )


@given(
    client_id=_around(0, 2**64 - 1),
    shard=_around(0, 2**16 - 1),
    deliver_seq=_around(1, 2**32 - 1),
    origin=_around(0, 2**64 - 1),
    origin_seq=_around(1, 2**32 - 1),
    topic=st.binary(max_size=130),
    payload=st.one_of(st.binary(max_size=64), st.sampled_from([b"p" * 0x10000])),
    epoch=_around(0, 2**16 - 1),
)
@settings(max_examples=400, deadline=None)
def test_fanout_frame_equals_dataclass_encoding(
    client_id, shard, deliver_seq, origin, origin_seq, topic, payload, epoch
):
    try:
        expected = global_registry.encode(
            ClientDeliver(
                client_id, shard, deliver_seq, origin, origin_seq, topic, payload, epoch
            )
        )
    except WireFormatError:
        expected = None
    try:
        frame = deliver_frame(
            client_id, shard, deliver_seq, origin, origin_seq, epoch,
            deliver_body(topic, payload),
        )
    except WireFormatError:
        frame = None
    assert frame == expected
    if frame is not None:
        assert global_registry.decode(frame) == ClientDeliver(
            client_id, shard, deliver_seq, origin, origin_seq, topic, payload, epoch
        )


class _AckEveryDelivery(ShardedService):
    """The reference driver: the tier as it was before acks were
    batched — one cumulative ACK_DELIVER after every single delivery."""

    def pump(self) -> int:
        moved = 0
        progress = True
        while progress:
            progress = False
            for frontend in list(self._live_frontends()):
                for client_id, frame in frontend.drain_outbox():
                    stream = self._to_client(client_id, global_registry.decode(frame))
                    if stream is not None:
                        self._ack_delivers(*stream)
                    moved += 1
                    progress = True
        self.pdus_moved += moved
        return moved


@st.composite
def fanout_scripts(draw):
    """Bursts of publishes between pumps over a 2-shard/5-member tier
    with a tiny delivery window, and optionally one frontend kill."""
    seed = draw(st.integers(0, 1000))
    window = draw(st.integers(1, 3))
    clients = draw(st.lists(st.integers(0, 2**48), min_size=2, max_size=5, unique=True))
    bursts = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(clients), st.integers(1, 2)),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    kill_after = draw(st.one_of(st.none(), st.integers(0, len(bursts) - 1)))
    return seed, window, clients, bursts, kill_after


def _drive(tier_cls, case):
    seed, window, clients, bursts, kill_after = case
    shards = 2
    tier = tier_cls(shards, 5, seed=seed, deliver_window=window)
    topics = _one_topic_per_shard(tier)
    for client in clients:
        tier.connect(client)
        tier.subscribe(client, topics)
    n = 0
    for index, burst in enumerate(bursts):
        for client, n_topics in burst:
            tier.publish(client, topics[:n_topics], b"m%d" % n)
            n += 1
        tier.step()
        if index == kill_after:
            victim = max(tier._stream_member.values())
            try:
                tier.fail_frontend(index % shards, victim)
            except ProtocolError:
                pass  # majority guard: the kill would be fatal
    tier.run()
    return tier


@given(fanout_scripts())
@_SETTINGS
def test_batched_delivery_acks_equal_per_delivery_acks(case):
    batched = _drive(ShardedService, case)
    reference = _drive(_AckEveryDelivery, case)

    assert batched.sessions.keys() == reference.sessions.keys()
    for client_id, session in batched.sessions.items():
        assert session.delivered == reference.sessions[client_id].delivered
        assert session.acked == reference.sessions[client_id].acked

    def cursors(tier):
        return {
            (frontend.shard, frontend.member, client_id): (
                stream.deliver_seq, stream.acked, stream.epoch, len(stream.parked)
            )
            for row in tier.frontends
            for frontend in row
            for client_id, stream in frontend.streams.items()
        }

    assert cursors(batched) == cursors(reference)
    def parked(tier):
        return [
            int(tier.registry.counter("svc.deliver.parked", shard=shard))
            for shard in range(tier.shards)
        ]

    assert parked(batched) == parked(reference)
    assert audit_tier(batched, quiesced=True) == audit_tier(reference, quiesced=True) == []
    # Frontend -> client traffic is untouched; only the acks thinned out.
    assert batched.pdus_moved == reference.pdus_moved


_VECTORS = sorted((pathlib.Path(__file__).parents[1] / "net" / "vectors").glob("*.bin"))


@pytest.mark.parametrize("path", _VECTORS, ids=lambda p: p.stem)
def test_every_strict_prefix_of_a_golden_vector_is_a_wire_format_error(path):
    data = path.read_bytes()
    assert global_registry.decode(data) is not None
    for cut in range(len(data)):
        with pytest.raises(WireFormatError):
            global_registry.decode(data[:cut])
