"""Protocol data units of the urcgc protocol, with binary codecs.

Five PDUs cross the wire (Section 4 / Figure 1):

* :class:`UserMessage` — an application message: mid, the explicit
  causal-dependency list, payload.
* :class:`RequestMessage` — per-subrun report from each process to the
  coordinator: ``last_processed`` vector, oldest-waiting vector, and
  the most recent decision the sender received (decision circulation).
* :class:`DecisionMessage` — the coordinator's broadcast decision.
* :class:`RecoveryRequest` / :class:`RecoveryResponse` — point-to-point
  recovery from a peer's history.

Everything encodes to real bytes (network byte order) via
:mod:`repro.net.wire`, so Table 1's size accounting measures genuine
wire sizes rather than field counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WireFormatError
from ..net.wire import Reader, Writer, global_registry
from ..types import ProcessId, SeqNo, SubrunNo
from .causality import validate_deps
from .decision import Decision, RequestInfo
from .mid import Mid

__all__ = [
    "UserMessage",
    "GenerateBatch",
    "RequestMessage",
    "DecisionMessage",
    "RecoveryRequest",
    "RecoveryResponse",
    "HeartbeatMessage",
    "KIND_DATA",
    "KIND_BATCH",
    "KIND_REQUEST",
    "KIND_DECISION",
    "KIND_RECOVERY_RQ",
    "KIND_RECOVERY_RSP",
    "KIND_HEARTBEAT",
]

#: Packet-kind labels used for traffic accounting (Table 1 separates
#: data traffic from control traffic).
KIND_DATA = "data"
KIND_BATCH = "batch"
KIND_REQUEST = "ctrl-request"
KIND_DECISION = "ctrl-decision"
KIND_RECOVERY_RQ = "ctrl-recovery-rq"
KIND_RECOVERY_RSP = "ctrl-recovery-rsp"
KIND_HEARTBEAT = "ctrl-heartbeat"

_TAG_USER = 10
_TAG_REQUEST = 11
_TAG_DECISION = 12
_TAG_RECOVERY_RQ = 13
_TAG_RECOVERY_RSP = 14
_TAG_GENERATE_BATCH = 17
_TAG_HEARTBEAT = 18


def _write_mid(writer: Writer, mid: Mid) -> None:
    writer.u16(mid.origin)
    writer.u32(mid.seq)


def _read_mid(reader: Reader) -> Mid:
    origin = reader.u16()
    seq = reader.u32()
    return Mid(ProcessId(origin), SeqNo(seq))


def _write_bitmask(writer: Writer, flags: tuple[bool, ...]) -> None:
    writer.u16(len(flags))
    byte = 0
    for i, flag in enumerate(flags):
        if flag:
            byte |= 1 << (i % 8)
        if i % 8 == 7:
            writer.u8(byte)
            byte = 0
    if len(flags) % 8 != 0:
        writer.u8(byte)


def _read_bitmask(reader: Reader) -> tuple[bool, ...]:
    count = reader.u16()
    flags: list[bool] = []
    byte = 0
    for i in range(count):
        if i % 8 == 0:
            byte = reader.u8()
        flags.append(bool(byte & (1 << (i % 8))))
    return tuple(flags)


@dataclass(frozen=True)
class UserMessage:
    """An application message with explicit causal dependencies."""

    mid: Mid
    deps: tuple[Mid, ...]
    payload: bytes = b""

    def __post_init__(self) -> None:
        validate_deps(self.mid, self.deps)

    def encode_fields(self, writer: Writer) -> None:
        _write_mid(writer, self.mid)
        if len(self.deps) > 0xFF:
            raise WireFormatError(f"{self.mid} has {len(self.deps)} deps (max 255)")
        writer.u8(len(self.deps))
        for dep in self.deps:
            _write_mid(writer, dep)
        writer.bytes_field(self.payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "UserMessage":
        mid = _read_mid(reader)
        deps = tuple(_read_mid(reader) for _ in range(reader.u8()))
        payload = reader.bytes_field()
        return cls(mid, deps, payload)


@dataclass(frozen=True)
class GenerateBatch:
    """Several consecutive own-sequence messages in one GENERATE.

    Messages a member generates back to back within one round share
    their external dependencies (its own processing between them adds
    none), so a burst encodes as: the origin, the first seq, the shared
    external dependency vector once, a per-message flag saying whether
    the message carries it, and the payloads.  :meth:`expand`
    reconstructs the exact :class:`UserMessage` tuple — each message's
    dependency list is its predecessor (seq contiguity) plus the shared
    vector when flagged — so batching is invisible above the wire.
    """

    origin: ProcessId
    first_seq: SeqNo
    shared_deps: tuple[Mid, ...]
    ext_flags: tuple[bool, ...]
    payloads: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.payloads:
            raise WireFormatError("empty GenerateBatch")
        if len(self.ext_flags) != len(self.payloads):
            raise WireFormatError(
                f"GenerateBatch flag/payload mismatch: "
                f"{len(self.ext_flags)} != {len(self.payloads)}"
            )
        if self.first_seq < 1:
            raise WireFormatError(f"bad first_seq {self.first_seq}")
        if self.first_seq + len(self.payloads) - 1 > 0xFFFFFFFF:
            raise WireFormatError(
                f"GenerateBatch seqs {self.first_seq}+{len(self.payloads)} "
                f"overflow u32"
            )
        origins: set[ProcessId] = set()
        for dep in self.shared_deps:
            if dep.origin == self.origin:
                raise WireFormatError(
                    f"shared dependency {dep} names the batch origin "
                    f"{self.origin} (predecessors are implicit)"
                )
            if dep.origin in origins:
                raise WireFormatError(
                    f"shared dependencies name origin {dep.origin} twice"
                )
            origins.add(dep.origin)

    def __len__(self) -> int:
        return len(self.payloads)

    def expand(self) -> tuple[UserMessage, ...]:
        """The batched messages, exactly as generated."""
        messages = []
        for index, payload in enumerate(self.payloads):
            mid = Mid(self.origin, SeqNo(self.first_seq + index))
            predecessor = mid.predecessor
            deps: tuple[Mid, ...] = () if predecessor is None else (predecessor,)
            if self.ext_flags[index]:
                deps += self.shared_deps
            messages.append(UserMessage(mid, deps, payload))
        return tuple(messages)

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.origin)
        writer.u32(self.first_seq)
        if len(self.shared_deps) > 0xFF:
            raise WireFormatError(
                f"GenerateBatch has {len(self.shared_deps)} shared deps (max 255)"
            )
        writer.u8(len(self.shared_deps))
        for dep in self.shared_deps:
            _write_mid(writer, dep)
        _write_bitmask(writer, self.ext_flags)
        for payload in self.payloads:
            writer.bytes_field(payload)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "GenerateBatch":
        origin = ProcessId(reader.u16())
        first_seq = SeqNo(reader.u32())
        shared_deps = tuple(_read_mid(reader) for _ in range(reader.u8()))
        ext_flags = _read_bitmask(reader)
        payloads = tuple(reader.bytes_field() for _ in range(len(ext_flags)))
        return cls(origin, first_seq, shared_deps, ext_flags, payloads)


def _write_seq_vector(writer: Writer, values: tuple[SeqNo, ...]) -> None:
    writer.u32_list(values)


def _read_seq_vector(reader: Reader) -> tuple[SeqNo, ...]:
    return tuple(SeqNo(v) for v in reader.u32_list())


def _write_decision(writer: Writer, decision: Decision) -> None:
    writer.u32(decision.number + 1)  # number starts at -1
    writer.u32(decision.chain)
    writer.u16(decision.coordinator)
    _write_bitmask(writer, decision.alive)
    writer.u16(len(decision.attempts))
    for value in decision.attempts:
        writer.u8(min(value, 0xFF))
    _write_seq_vector(writer, decision.stable)
    _write_bitmask(writer, decision.contributors)
    writer.boolean(decision.full_group)
    _write_seq_vector(writer, decision.max_processed)
    writer.u16(len(decision.most_updated))
    for pid in decision.most_updated:
        writer.u16(pid)
    _write_seq_vector(writer, decision.min_waiting)
    writer.u32(decision.full_group_count)
    # Rejoin extension (all empty without enable_rejoin: 6 bytes).
    writer.u16(len(decision.joiners))
    for pid in decision.joiners:
        writer.u16(pid)
    _write_seq_vector(writer, decision.void_from)
    _write_seq_vector(writer, decision.join_boundary)


def _read_decision(reader: Reader) -> Decision:
    number = SubrunNo(reader.u32() - 1)
    chain = reader.u32()
    coordinator = ProcessId(reader.u16())
    alive = _read_bitmask(reader)
    attempts = tuple(reader.u8() for _ in range(reader.u16()))
    stable = _read_seq_vector(reader)
    contributors = _read_bitmask(reader)
    full_group = reader.boolean()
    max_processed = _read_seq_vector(reader)
    most_updated = tuple(ProcessId(reader.u16()) for _ in range(reader.u16()))
    min_waiting = _read_seq_vector(reader)
    full_group_count = reader.u32()
    joiners = tuple(ProcessId(reader.u16()) for _ in range(reader.u16()))
    void_from = _read_seq_vector(reader)
    join_boundary = _read_seq_vector(reader)
    return Decision(
        number=number,
        chain=chain,
        coordinator=coordinator,
        alive=alive,
        attempts=attempts,
        stable=stable,
        contributors=contributors,
        full_group=full_group,
        max_processed=max_processed,
        most_updated=most_updated,
        min_waiting=min_waiting,
        full_group_count=full_group_count,
        joiners=joiners,
        void_from=void_from,
        join_boundary=join_boundary,
    )


@dataclass(frozen=True)
class RequestMessage:
    """Per-subrun report from ``sender`` to the subrun's coordinator."""

    sender: ProcessId
    subrun: SubrunNo
    info: RequestInfo
    decision: Decision

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u32(self.subrun)
        _write_seq_vector(writer, self.info.last_processed)
        _write_seq_vector(writer, self.info.waiting)
        _write_decision(writer, self.decision)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "RequestMessage":
        sender = ProcessId(reader.u16())
        subrun = SubrunNo(reader.u32())
        last_processed = _read_seq_vector(reader)
        waiting = _read_seq_vector(reader)
        decision = _read_decision(reader)
        return cls(sender, subrun, RequestInfo(last_processed, waiting), decision)


@dataclass(frozen=True)
class DecisionMessage:
    """The coordinator's decision broadcast."""

    decision: Decision

    def encode_fields(self, writer: Writer) -> None:
        _write_decision(writer, self.decision)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "DecisionMessage":
        return cls(_read_decision(reader))


@dataclass(frozen=True)
class RecoveryRequest:
    """Ask a peer for missing seq ranges, one ``(origin, first, last)``
    triple per sequence with a gap."""

    sender: ProcessId
    ranges: tuple[tuple[ProcessId, SeqNo, SeqNo], ...]

    def __post_init__(self) -> None:
        for origin, first, last in self.ranges:
            if first < 1 or last < first:
                raise WireFormatError(
                    f"bad recovery range ({origin}, {first}, {last})"
                )

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u16(len(self.ranges))
        for origin, first, last in self.ranges:
            writer.u16(origin)
            writer.u32(first)
            writer.u32(last)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "RecoveryRequest":
        sender = ProcessId(reader.u16())
        count = reader.u16()
        ranges = tuple(
            (ProcessId(reader.u16()), SeqNo(reader.u32()), SeqNo(reader.u32()))
            for _ in range(count)
        )
        return cls(sender, ranges)


@dataclass(frozen=True)
class RecoveryResponse:
    """Messages retrieved from the responder's history."""

    sender: ProcessId
    messages: tuple[UserMessage, ...] = field(default_factory=tuple)

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u16(len(self.messages))
        for message in self.messages:
            inner = Writer()
            message.encode_fields(inner)
            writer.bytes_field(inner.getvalue())

    @classmethod
    def decode_fields(cls, reader: Reader) -> "RecoveryResponse":
        sender = ProcessId(reader.u16())
        count = reader.u16()
        messages = []
        for _ in range(count):
            inner = Reader(reader.bytes_field())
            messages.append(UserMessage.decode_fields(inner))
            inner.expect_end()
        return cls(sender, tuple(messages))


@dataclass(frozen=True)
class HeartbeatMessage:
    """A liveness beacon for the heartbeat failure detector.

    Broadcast once per ``heartbeat_every`` subruns when
    ``UrcgcConfig.failure_detector`` selects the heartbeat kind
    (PROTOCOL §13).  Carries the sender's incarnation so a detector can
    tell a rejoined slot's beacons from its previous life's stragglers,
    and the sender's round number for diagnostics.
    """

    sender: ProcessId
    incarnation: int
    round_no: int

    def __post_init__(self) -> None:
        if self.sender < 0 or self.incarnation < 0 or self.round_no < 0:
            raise WireFormatError(
                f"bad heartbeat ({self.sender}, {self.incarnation}, {self.round_no})"
            )

    def encode_fields(self, writer: Writer) -> None:
        writer.u16(self.sender)
        writer.u32(self.incarnation)
        writer.u32(self.round_no)

    @classmethod
    def decode_fields(cls, reader: Reader) -> "HeartbeatMessage":
        sender = ProcessId(reader.u16())
        incarnation = reader.u32()
        round_no = reader.u32()
        return cls(sender, incarnation, round_no)


global_registry.register(_TAG_USER, UserMessage, UserMessage.decode_fields)
global_registry.register(
    _TAG_GENERATE_BATCH, GenerateBatch, GenerateBatch.decode_fields
)
global_registry.register(_TAG_REQUEST, RequestMessage, RequestMessage.decode_fields)
global_registry.register(_TAG_DECISION, DecisionMessage, DecisionMessage.decode_fields)
global_registry.register(_TAG_RECOVERY_RQ, RecoveryRequest, RecoveryRequest.decode_fields)
global_registry.register(
    _TAG_RECOVERY_RSP, RecoveryResponse, RecoveryResponse.decode_fields
)
global_registry.register(
    _TAG_HEARTBEAT, HeartbeatMessage, HeartbeatMessage.decode_fields
)
