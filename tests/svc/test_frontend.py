"""Frontend state machine tests against a stub service (no cluster)."""

import pytest

from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.errors import ConfigError, FlowControlBlocked, ProtocolError
from repro.net.wire import global_registry
from repro.svc.envelope import Envelope
from repro.svc.frontend import Frontend
from repro.svc.wire import (
    ACK_DELIVER,
    ACK_PUBLISH,
    ClientAck,
    ClientDeliver,
    ClientHello,
    ClientPublish,
)
from repro.types import ProcessId, SeqNo


class _StubService:
    class _Member:
        def __init__(self, pid):
            self.pid = pid

    def __init__(self, pid=0):
        self.member = self._Member(ProcessId(pid))
        self.submitted = []
        self.handlers = []

    def data_rq(self, payload):
        self.submitted.append(payload)

    def add_indication_handler(self, handler):
        self.handlers.append(handler)

    def indicate(self, payload, origin=0, seq=1):
        """Simulate a causal indication reaching the member."""
        message = UserMessage(Mid(ProcessId(origin), SeqNo(seq)), (), payload)
        for handler in self.handlers:
            handler(message)


def build(member=1, **kw):
    service = _StubService(pid=member)
    return Frontend(0, member, service, **kw), service


def drain(frontend):
    """The drained outbox as a client sees it: frames decoded."""
    return [
        (client_id, global_registry.decode(frame))
        for client_id, frame in frontend.drain_outbox()
    ]


class TestHomeRole:
    def test_hello_then_contiguous_publishes(self):
        frontend, _ = build()
        ack = frontend.on_hello(ClientHello(9, credit=8))
        assert ack.kind == ACK_PUBLISH and ack.ack_seq == 0
        env = frontend.on_publish(ClientPublish(9, 1, (b"t",), b"x"))
        assert env.msg_id == (9, 1)
        frontend.on_publish(ClientPublish(9, 2, (b"t",), b"y"))

    def test_grant_is_capped(self):
        frontend, _ = build(grant_credit=4)
        ack = frontend.on_hello(ClientHello(9, credit=1000))
        assert ack.credit == 4

    def test_resume_is_negotiated(self):
        frontend, _ = build()
        frontend.on_hello(ClientHello(9, credit=8))
        frontend.on_publish(ClientPublish(9, 1, (b"t",)))
        # A client that lost accepted state cannot resume (it can never
        # replay publishes it no longer remembers sending).
        with pytest.raises(ProtocolError):
            frontend.on_hello(ClientHello(9, credit=8, resume_seq=0))
        # Claiming acks beyond what was granted is a forgery.
        with pytest.raises(ProtocolError):
            frontend.on_hello(ClientHello(9, credit=8, resume_seq=5, acked_seq=2))
        # A client ahead of the frontend (publishes lost on the wire)
        # is legal: the ack answers with the accepted frontier and the
        # client replays the difference.
        ack = frontend.on_hello(ClientHello(9, credit=8, resume_seq=5))
        assert ack.resume_seq == 1 and ack.ack_seq == 0
        # Matching resume re-acks the frontier.
        ack = frontend.on_hello(ClientHello(9, credit=8, resume_seq=1))
        assert ack.resume_seq == 1 and ack.ack_seq == 0

    def test_unknown_session_resume_adopts_acked_not_claimed(self):
        # A successor frontend with no record of the session must not
        # trust the client's sent frontier: it adopts the *acked*
        # frontier (durable by construction) and asks for a replay of
        # everything past it.
        frontend, _ = build()
        ack = frontend.on_hello(ClientHello(9, credit=8, resume_seq=7, acked_seq=3))
        assert ack.resume_seq == 3 and ack.ack_seq == 3
        # The replayed publishes then continue the accepted chain.
        env = frontend.on_publish(ClientPublish(9, 4, (b"t",), b"x"))
        assert env.msg_id == (9, 4)

    def test_gap_and_unknown_session_rejected(self):
        frontend, _ = build()
        with pytest.raises(ProtocolError):
            frontend.on_publish(ClientPublish(9, 1, (b"t",)))
        frontend.on_hello(ClientHello(9, credit=8))
        with pytest.raises(ProtocolError):
            frontend.on_publish(ClientPublish(9, 2, (b"t",)))

    def test_window_overrun_blocked(self):
        frontend, _ = build(grant_credit=2)
        frontend.on_hello(ClientHello(9, credit=2))
        frontend.on_publish(ClientPublish(9, 1, (b"t",)))
        frontend.on_publish(ClientPublish(9, 2, (b"t",)))
        with pytest.raises(FlowControlBlocked):
            frontend.on_publish(ClientPublish(9, 3, (b"t",)))

    def test_cumulative_ack_waits_for_contiguity(self):
        frontend, _ = build()
        frontend.on_hello(ClientHello(9, credit=8))
        for seq in (1, 2, 3):
            frontend.on_publish(ClientPublish(9, seq, (b"t",)))
        # seq 2 processed before seq 1: no ack yet
        frontend.on_processed_elsewhere(Envelope(9, 2, (b"t",)))
        assert frontend.drain_outbox() == []
        frontend.on_processed_elsewhere(Envelope(9, 1, (b"t",)))
        out = drain(frontend)
        assert len(out) == 1
        _, ack = out[0]
        assert ack.ack_seq == 2  # frontier jumped over the gap


class TestInjection:
    def test_inject_submits_envelope_bytes(self):
        frontend, service = build()
        env = Envelope(9, 1, (b"t",), b"x")
        frontend.inject(env)
        assert service.submitted == [env.to_bytes()]

    def test_processed_hook_fires_once(self):
        seen = []
        service = _StubService(pid=1)
        frontend = Frontend(
            0, 1, service, on_processed=lambda env, shard: seen.append((env, shard))
        )
        env = Envelope(9, 1, (b"t",), b"x")
        frontend.inject(env)
        service.indicate(env.to_bytes())
        service.indicate(env.to_bytes())  # not pending anymore
        assert seen == [(env, 0)]

    def test_duplicate_indication_deduped_but_counted_processed(self):
        # A failover re-injection: the pending copy still resolves (the
        # hook fires) but the fan-out must not repeat the delivery.
        seen = []
        service = _StubService(pid=1)
        frontend = Frontend(
            0, 1, service, on_processed=lambda env, shard: seen.append(env)
        )
        frontend.subscribe(5, {b"t"})
        env = Envelope(9, 1, (b"t",), b"x")
        service.indicate(env.to_bytes(), seq=1)  # original copy, not pending here
        frontend.inject(env)  # salvaged re-injection
        service.indicate(env.to_bytes(), seq=2)
        assert seen == [env]  # the re-injection resolved
        out = [d for _, d in drain(frontend)]
        assert len(out) == 1  # but only one delivery went out
        assert frontend.processed_log == [env]

    def test_non_envelope_payloads_ignored(self):
        frontend, service = build()
        service.indicate(b"\x01ordinary traffic")
        assert frontend.drain_outbox() == []

    def test_bridged_envelopes_logged(self):
        frontend, service = build()
        env = Envelope(9, 1, (b"t",), b"x").with_bridge(3, (0, 1))
        service.indicate(env.to_bytes())
        assert frontend.bridge_log == [env]


class TestDeliveryRole:
    def test_fanout_to_matching_streams(self):
        frontend, service = build()
        frontend.subscribe(5, {b"a"})
        frontend.subscribe(6, {b"a", b"b"})
        service.indicate(Envelope(9, 1, (b"a",), b"x").to_bytes())
        out = drain(frontend)
        assert {cid for cid, _ in out} == {5, 6}
        for _, deliver in out:
            assert isinstance(deliver, ClientDeliver)
            assert deliver.deliver_seq == 1 and deliver.topic == b"a"

    def test_window_parks_and_ack_unparks(self):
        frontend, service = build(deliver_window=2)
        frontend.subscribe(5, {b"t"})
        for seq in range(1, 5):
            service.indicate(Envelope(9, seq, (b"t",), b"%d" % seq).to_bytes(), seq=seq)
        out = drain(frontend)
        assert [d.deliver_seq for _, d in out] == [1, 2]  # window = 2
        frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 5, 0, 2, 0))
        out = drain(frontend)
        assert [d.deliver_seq for _, d in out] == [3, 4]

    def test_deliver_ack_validation(self):
        frontend, _ = build()
        frontend.subscribe(5, {b"t"})
        with pytest.raises(ProtocolError):
            frontend.on_deliver_ack(ClientAck(ACK_PUBLISH, 5, 0, 0, 8))
        with pytest.raises(ProtocolError):
            frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 6, 0, 0, 0))
        with pytest.raises(ProtocolError):
            frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 5, 0, 3, 0))

    def test_subscribe_widens_topics(self):
        frontend, service = build()
        frontend.subscribe(5, {b"a"})
        frontend.subscribe(5, {b"b"})
        service.indicate(Envelope(9, 1, (b"b",), b"x").to_bytes())
        assert len(frontend.drain_outbox()) == 1


class TestFailoverSurface:
    def test_subscribe_widen_applies_window(self):
        # Regression: widening an existing stream used to ignore the
        # window argument entirely.
        frontend, _ = build(deliver_window=8)
        frontend.subscribe(5, {b"a"})
        frontend.subscribe(5, {b"b"}, window=2)
        assert frontend.streams[5].window == 2
        assert frontend.streams[5].topics == {b"a", b"b"}

    def test_widening_window_keeps_parked_order(self):
        # Regression: widening set stream.window while deliveries were
        # parked, so the next indication saw room and was emitted ahead
        # of them (deliver_seq 3 carrying origin_seq 5 before 3 and 4).
        frontend, service = build(deliver_window=2)
        frontend.subscribe(5, {b"t"})
        for seq in range(1, 5):
            service.indicate(Envelope(9, seq, (b"t",), b"%d" % seq).to_bytes(), seq=seq)
        assert [d.origin_seq for _, d in drain(frontend)] == [1, 2]
        assert len(frontend.streams[5].parked) == 2
        # Widening un-parks as far as the new window allows...
        frontend.subscribe(5, {b"t"}, window=3)
        assert [d.origin_seq for _, d in drain(frontend)] == [3]
        # ...and a new indication queues behind what is still parked,
        # even once an ack has made room.
        frontend.streams[5].acked = 2
        service.indicate(Envelope(9, 5, (b"t",), b"5").to_bytes(), seq=5)
        assert drain(frontend) == []
        frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 5, 0, 3, 0))
        out = [d for _, d in drain(frontend)]
        assert [d.origin_seq for d in out] == [4, 5]
        assert [d.deliver_seq for d in out] == [4, 5]

    def test_window_below_one_rejected(self):
        # Regression: `window or self.deliver_window` turned 0 into 256.
        frontend, _ = build()
        with pytest.raises(ConfigError):
            frontend.subscribe(5, {b"t"}, window=0)
        frontend.subscribe(5, {b"t"})
        with pytest.raises(ConfigError):
            frontend.subscribe(5, {b"t"}, window=-1)
        assert frontend.streams[5].window == frontend.deliver_window

    def test_subscribe_replay_reanchors_from_processed_log(self):
        frontend, service = build()
        for seq in range(1, 4):
            service.indicate(
                Envelope(9, seq, (b"t",), b"p%d" % seq).to_bytes(), seq=seq
            )
        # A successor re-anchors the stream at epoch 1: the whole log
        # replays through the fresh stream in processing order.
        frontend.subscribe(5, {b"t"}, epoch=1, replay=True)
        out = [d for _, d in drain(frontend)]
        assert [d.deliver_seq for d in out] == [1, 2, 3]
        assert [d.origin_seq for d in out] == [1, 2, 3]
        assert all(d.epoch == 1 for d in out)

    def test_deliver_ack_epoch_guard(self):
        frontend, service = build()
        frontend.subscribe(5, {b"t"}, epoch=2, replay=True)
        service.indicate(Envelope(9, 1, (b"t",), b"x").to_bytes())
        # A straggler ack from the pre-failover stream is ignored...
        frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 5, 0, 1, 0, epoch=1))
        assert frontend.streams[5].acked == 0
        # ...the current epoch's ack lands...
        frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 5, 0, 1, 0, epoch=2))
        assert frontend.streams[5].acked == 1
        # ...and a future epoch is a protocol error.
        with pytest.raises(ProtocolError):
            frontend.on_deliver_ack(ClientAck(ACK_DELIVER, 5, 0, 1, 0, epoch=3))

    def test_unsubscribe_topics_narrows_stream(self):
        frontend, service = build()
        frontend.subscribe(5, {b"a", b"b"})
        frontend.unsubscribe_topics(5, {b"a"})
        service.indicate(Envelope(9, 1, (b"a",), b"x").to_bytes(), seq=1)
        assert frontend.drain_outbox() == []
        service.indicate(Envelope(9, 2, (b"b",), b"y").to_bytes(), seq=2)
        assert len(frontend.drain_outbox()) == 1

    def test_doubted_returns_injection_order_and_forget_clears(self):
        frontend, _ = build()
        envs = [Envelope(9, seq, (b"t",), b"%d" % seq) for seq in (1, 2, 3)]
        for env in envs:
            frontend.inject(env)
        assert frontend.doubted() == envs
        frontend.forget_pending()
        assert frontend.doubted() == []

    def test_processed_elsewhere_idempotent(self):
        frontend, _ = build()
        frontend.on_hello(ClientHello(9, credit=8))
        frontend.on_publish(ClientPublish(9, 1, (b"t",)))
        frontend.on_processed_elsewhere(Envelope(9, 1, (b"t",)))
        assert len(frontend.drain_outbox()) == 1
        # Failover replay can re-announce an already-acked publish.
        frontend.on_processed_elsewhere(Envelope(9, 1, (b"t",)))
        assert frontend.drain_outbox() == []
