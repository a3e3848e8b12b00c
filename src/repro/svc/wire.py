"""Client-tier wire PDUs (PROTOCOL §14.1).

Four PDUs cross the client/frontend boundary, registered in the
:data:`repro.net.wire.global_registry` alongside the group-internal
tags (the client tier shares the LAN, so tags must not collide):

* :class:`ClientHello` (tag 19) — session open / resume.
* :class:`ClientPublish` (tag 20) — a sequence-numbered publish to one
  or more topics.
* :class:`ClientDeliver` (tag 21) — a causal delivery fanned back out
  to a subscribed session; per-``(session, shard)`` streams carry
  their own contiguous ``deliver_seq``.
* :class:`ClientAck` (tag 22) — cumulative acknowledgement, both
  directions: the frontend acks publishes (granting publish credit),
  the client acks deliveries (granting fan-out credit).

All fixed-width headers encode through preallocated ``struct.Struct``
codecs (the wire layer's struct fast path), so the hot client path
does one pack/unpack call per PDU.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import WireFormatError
from ..net.wire import Reader, Writer, global_registry

__all__ = [
    "ACK_PUBLISH",
    "ACK_DELIVER",
    "MAX_TOPICS",
    "ClientHello",
    "ClientPublish",
    "ClientDeliver",
    "ClientAck",
    "KIND_CLIENT",
    "deliver_body",
    "deliver_frame",
]

_TAG_CLIENT_HELLO = 19
_TAG_CLIENT_PUB = 20
_TAG_CLIENT_DELIVER = 21
_TAG_CLIENT_ACK = 22

#: Packet-kind label for traffic accounting (client-tier traffic is
#: neither group data nor control).
KIND_CLIENT = "client"

#: Topics one publish may target (multi-topic publishes cross shards
#: through the bridge; the intersection rule is quadratic in this).
MAX_TOPICS = 8

#: Longest topic name on the wire, in bytes.
MAX_TOPIC_LEN = 128

#: ``ClientAck.kind`` values: a frontend acknowledging publishes, or a
#: client acknowledging deliveries.
ACK_PUBLISH = 0
ACK_DELIVER = 1

_HELLO_HEAD = struct.Struct("!QHII")  # client_id, credit, resume_seq, acked_seq
_PUB_HEAD = struct.Struct("!QI")  # client_id, client_seq
# client_id, shard, deliver_seq, origin, origin_seq, epoch
_DELIVER_HEAD = struct.Struct("!QHIQIH")
# A CLIENT_DELIVER splits after deliver_seq: the stream head differs per
# subscriber; the tail (origin, origin_seq, epoch, then topic and
# payload) is the same for every subscriber of one publish on one
# stream generation.
_DELIVER_STREAM = struct.Struct("!QHI")  # client_id, shard, deliver_seq
_DELIVER_TAIL = struct.Struct("!QIH")  # origin, origin_seq, epoch
#: Offset of the shared tail in a frame: the tag, then the stream head.
_DELIVER_TAIL_AT = 1 + _DELIVER_STREAM.size
# kind, client_id, shard, ack_seq, credit, resume_seq, epoch
_ACK_HEAD = struct.Struct("!BQHIHIH")
# The fan-out's whole fixed prefix in one pack: the tag, then _DELIVER_HEAD.
_DELIVER_FRAME_HEAD = struct.Struct("!B" + _DELIVER_HEAD.format[1:])

_U64_MAX = 0xFFFF_FFFF_FFFF_FFFF
_U32_MAX = 0xFFFF_FFFF
_U16_MAX = 0xFFFF


def _check_client_id(client_id: int) -> None:
    if not 0 <= client_id <= _U64_MAX:
        raise WireFormatError(f"client id {client_id} outside u64")


def _check_topic(topic: bytes) -> None:
    if not 1 <= len(topic) <= MAX_TOPIC_LEN:
        raise WireFormatError(f"topic of {len(topic)} bytes outside [1, {MAX_TOPIC_LEN}]")


def _check_deliver_head(
    client_id: int, shard: int, deliver_seq: int, origin: int, origin_seq: int, epoch: int
) -> None:
    _check_client_id(client_id)
    _check_client_id(origin)
    if not 0 <= shard <= _U16_MAX:
        raise WireFormatError(f"shard {shard} outside u16")
    if not 1 <= deliver_seq <= _U32_MAX:
        raise WireFormatError(f"deliver_seq {deliver_seq} outside [1, u32]")
    if not 1 <= origin_seq <= _U32_MAX:
        raise WireFormatError(f"origin_seq {origin_seq} outside [1, u32]")
    if not 0 <= epoch <= _U16_MAX:
        raise WireFormatError(f"epoch {epoch} outside u16")


@dataclass(frozen=True)
class ClientHello:
    """Open (or resume) a client session at a frontend.

    ``credit`` is the publish window the client *requests*; the
    frontend grants its own value in the hello-ack.  ``resume_seq`` is
    the last publish sequence number the client used in a previous
    life of this session (0 for a fresh session) and ``acked_seq`` the
    highest cumulative publish-ack it received.  A frontend never
    trusts ``resume_seq`` for a session it has no record of — it
    answers with its own accepted frontier in the hello-ack's
    ``resume_seq`` (the negotiated resume handshake, PROTOCOL §14.7),
    and the client replays everything past that offer.
    """

    client_id: int
    credit: int = 32
    resume_seq: int = 0
    acked_seq: int = 0

    def __post_init__(self) -> None:
        _check_client_id(self.client_id)
        if not 1 <= self.credit <= _U16_MAX:
            raise WireFormatError(f"hello credit {self.credit} outside [1, 65535]")
        if not 0 <= self.resume_seq <= _U32_MAX:
            raise WireFormatError(f"resume_seq {self.resume_seq} outside u32")
        if not 0 <= self.acked_seq <= self.resume_seq:
            raise WireFormatError(
                f"acked_seq {self.acked_seq} outside [0, resume_seq={self.resume_seq}]"
            )

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(
            _HELLO_HEAD, self.client_id, self.credit, self.resume_seq, self.acked_seq
        )

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientHello":
        client_id, credit, resume_seq, acked_seq = reader.unpack(_HELLO_HEAD)
        return cls(client_id, credit, resume_seq, acked_seq)


@dataclass(frozen=True)
class ClientPublish:
    """A client's sequence-numbered publish to one or more topics.

    ``client_seq`` starts at 1 and is contiguous per session: the
    frontend rejects gaps and duplicates, which is what makes the
    cumulative :class:`ClientAck` meaningful.
    """

    client_id: int
    client_seq: int
    topics: tuple[bytes, ...]
    payload: bytes = b""

    def __post_init__(self) -> None:
        _check_client_id(self.client_id)
        if not 1 <= self.client_seq <= _U32_MAX:
            raise WireFormatError(f"client_seq {self.client_seq} outside [1, u32]")
        if not 1 <= len(self.topics) <= MAX_TOPICS:
            raise WireFormatError(
                f"publish must target 1..{MAX_TOPICS} topics, got {len(self.topics)}"
            )
        if len(set(self.topics)) != len(self.topics):
            raise WireFormatError("publish topics must be distinct")
        for topic in self.topics:
            _check_topic(topic)

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(_PUB_HEAD, self.client_id, self.client_seq)
        writer.u8(len(self.topics))
        for topic in self.topics:
            writer.bytes_field(topic)
        writer.bytes_field(self.payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientPublish":
        client_id, client_seq = reader.unpack(_PUB_HEAD)
        topics = tuple(reader.bytes_field() for _ in range(reader.u8()))
        payload = reader.bytes_field()
        return cls(client_id, client_seq, topics, payload)


@dataclass(frozen=True, slots=True)
class ClientDeliver:
    """One causal delivery fanned out to a subscribed session.

    Deliveries form per-``(session, shard)`` streams: ``deliver_seq``
    is contiguous within the stream, so the client state machine can
    detect fan-out loss without any n-sized metadata.  ``origin`` /
    ``origin_seq`` identify the publish (globally unique), and
    ``topic`` is the subscribed topic that matched.  ``epoch`` is the
    stream's re-anchor generation: it bumps when the stream fails over
    to a successor frontend, so stragglers from a previous life are
    recognized and dropped instead of corrupting the new cursor.
    """

    client_id: int
    shard: int
    deliver_seq: int
    origin: int
    origin_seq: int
    topic: bytes
    payload: bytes = b""
    epoch: int = 0

    def __post_init__(self) -> None:
        _check_deliver_head(
            self.client_id, self.shard, self.deliver_seq, self.origin,
            self.origin_seq, self.epoch,
        )
        _check_topic(self.topic)

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(
            _DELIVER_HEAD,
            self.client_id,
            self.shard,
            self.deliver_seq,
            self.origin,
            self.origin_seq,
            self.epoch,
        )
        writer.bytes_field(self.topic)
        writer.bytes_field(self.payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientDeliver":
        client_id, shard, deliver_seq = reader.unpack(_DELIVER_STREAM)
        return cls(client_id, shard, deliver_seq, *_read_deliver_tail(reader))


def _read_deliver_tail(reader: Reader) -> tuple[int, int, bytes, bytes, int]:
    """A CLIENT_DELIVER's fields after ``deliver_seq``, in
    :class:`ClientDeliver` field order: ``origin, origin_seq, topic,
    payload, epoch``."""
    origin, origin_seq, epoch = reader.unpack(_DELIVER_TAIL)
    return origin, origin_seq, reader.bytes_field(), reader.bytes_field(), epoch


def _decode_drained(client_id: int, frame: bytes, tails: dict[bytes, tuple]) -> object:
    """Decode one ``(client_id, frame)`` entry of a drained frontend
    outbox; equal to ``global_registry.decode(frame)``.

    ``tails`` is the drain's memo: each distinct CLIENT_DELIVER tail is
    parsed once, and every delivery built from it shares its ``origin``,
    ``topic`` and ``payload`` objects (a publish's fan-out then holds one
    copy per drain, not one per subscriber).  The decoded ``client_id``
    is replaced by the equal addressee object for the same reason.
    ``ClientDeliver.__post_init__`` still validates every frame.  Any
    other PDU, and any frame this path rejects, goes through the
    registry, which decodes it or raises its own error.
    """
    if len(frame) < _DELIVER_TAIL_AT or frame[0] != _TAG_CLIENT_DELIVER:
        return global_registry.decode(frame)
    tail = frame[_DELIVER_TAIL_AT:]
    try:
        fields = tails.get(tail)
        if fields is None:
            reader = Reader(tail)
            fields = _read_deliver_tail(reader)
            reader.expect_end()
            tails[tail] = fields
        head_id, shard, deliver_seq = _DELIVER_STREAM.unpack_from(frame, 1)
        if head_id == client_id:
            head_id = client_id
        return ClientDeliver(head_id, shard, deliver_seq, *fields)
    except WireFormatError:
        return global_registry.decode(frame)


def deliver_body(topic: bytes, payload: bytes) -> bytes:
    """The subscriber-independent tail of a CLIENT_DELIVER frame (the
    ``topic`` and ``payload`` fields): a frontend builds it once per
    (indication, matched topic) and shares it across every stream the
    indication fans out to."""
    _check_topic(topic)
    return Writer().bytes_field(topic).bytes_field(payload).getvalue()


def deliver_frame(
    client_id: int,
    shard: int,
    deliver_seq: int,
    origin: int,
    origin_seq: int,
    epoch: int,
    body: bytes,
) -> bytes:
    """One subscriber's CLIENT_DELIVER frame around a shared
    :func:`deliver_body` — byte-identical to
    ``global_registry.encode(ClientDeliver(...))`` and rejecting exactly
    the values the dataclass rejects, without building the dataclass.

    ``struct`` itself range-checks every field against its width; the
    two sequence numbers' lower bound is the one check it cannot make.
    """
    if deliver_seq >= 1 and origin_seq >= 1:
        try:
            return _DELIVER_FRAME_HEAD.pack(
                _TAG_CLIENT_DELIVER, client_id, shard, deliver_seq, origin,
                origin_seq, epoch,
            ) + body
        except struct.error:
            pass  # out of range or not an integer: named below
    _check_deliver_head(client_id, shard, deliver_seq, origin, origin_seq, epoch)
    raise WireFormatError(
        "malformed deliver head "
        f"{(client_id, shard, deliver_seq, origin, origin_seq, epoch)!r}"
    )


@dataclass(frozen=True)
class ClientAck:
    """Cumulative acknowledgement; direction selected by ``kind``.

    * ``ACK_PUBLISH`` (frontend → client): every publish with
      ``client_seq <= ack_seq`` was processed by the group, and the
      client may keep up to ``credit`` publishes outstanding.  The
      hello-ack is this kind; its ``resume_seq`` carries the
      frontend's *accepted frontier* — the resume offer of the
      negotiated handshake: a resuming client replays every retained
      publish with ``client_seq > resume_seq``.
    * ``ACK_DELIVER`` (client → frontend): every delivery on stream
      ``shard`` with ``deliver_seq <= ack_seq`` reached the client in
      stream generation ``epoch``; the frontend un-parks further
      fan-out for the stream (acks from older epochs are ignored).
    """

    kind: int
    client_id: int
    shard: int
    ack_seq: int
    credit: int
    resume_seq: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (ACK_PUBLISH, ACK_DELIVER):
            raise WireFormatError(f"unknown ack kind {self.kind}")
        _check_client_id(self.client_id)
        if not 0 <= self.shard <= _U16_MAX:
            raise WireFormatError(f"shard {self.shard} outside u16")
        if not 0 <= self.ack_seq <= _U32_MAX:
            raise WireFormatError(f"ack_seq {self.ack_seq} outside u32")
        if not 0 <= self.credit <= _U16_MAX:
            raise WireFormatError(f"credit {self.credit} outside u16")
        if not 0 <= self.resume_seq <= _U32_MAX:
            raise WireFormatError(f"resume_seq {self.resume_seq} outside u32")
        if not 0 <= self.epoch <= _U16_MAX:
            raise WireFormatError(f"epoch {self.epoch} outside u16")

    def encode_fields(self, writer: Writer) -> None:
        writer.pack(
            _ACK_HEAD,
            self.kind,
            self.client_id,
            self.shard,
            self.ack_seq,
            self.credit,
            self.resume_seq,
            self.epoch,
        )

    @classmethod
    def decode_fields(cls, reader: Reader) -> "ClientAck":
        kind, client_id, shard, ack_seq, credit, resume_seq, epoch = reader.unpack(
            _ACK_HEAD
        )
        return cls(kind, client_id, shard, ack_seq, credit, resume_seq, epoch)


global_registry.register(_TAG_CLIENT_HELLO, ClientHello, ClientHello.decode_fields)
global_registry.register(_TAG_CLIENT_PUB, ClientPublish, ClientPublish.decode_fields)
global_registry.register(_TAG_CLIENT_DELIVER, ClientDeliver, ClientDeliver.decode_fields)
global_registry.register(_TAG_CLIENT_ACK, ClientAck, ClientAck.decode_fields)
