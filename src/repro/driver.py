"""One urcgc member's driver, whatever schedules it.

The paper's §5 stack is one urcgc entity over a t-SAP.  :class:`NodeDriver`
is that entity's sans-IO driver: it owns one member's engine, service
access point, wire batcher, storage and span recorder, and it is the one
interpreter of the engine's effects.  Scheduling adapters decide *when*
it runs — :class:`~repro.harness.cluster.SimCluster` runs n of them on
the simulated kernel, :class:`~repro.runtime.node.AsyncNode` one on an
asyncio fabric — open datagrams for it (the :data:`Opened` shape), and
supply the send function, clocks and snapshot persistence.

:meth:`NodeDriver.execute` keeps the durability rules of docs/ANALYSIS.md:
*log-before-send* (own messages and adopted decisions are in the WAL
before any datagram of the batch leaves) and *log-before-indicate* (a
peer message's ``processed`` record is in the WAL before urcgc.data.Ind
fires for it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from .core.batcher import Batcher
from .core.effects import (
    Confirm,
    DecisionApplied,
    Deliver,
    Discarded,
    Effect,
    Left,
    Send,
    SuspicionChange,
)
from .core.member import Member
from .core.message import DecisionMessage, RequestMessage, UserMessage
from .core.mid import Mid
from .core.service import UrcgcService
from .net.wire import encode_message
from .obs import NULL_RECORDER, Recorder
from .storage import MemberSnapshot, NodeStorage, snapshot_of
from .types import ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover - the simulator's collaborators
    from .analysis.delay import DeliveryLog
    from .sim.trace import Trace

__all__ = ["NodeDriver", "Opened", "quiescent"]

#: One opened datagram: None when it does not parse, else whether it was
#: batched and every expanded PDU with its ``validate_message`` problem.
Opened = tuple[bool, tuple[tuple[object, str | None], ...]] | None


def quiescent(members: Iterable[Member]) -> bool:
    """``members`` have nothing pending or waiting and agree on what was
    processed (vacuously true for none): a group adapter's quiet point."""
    vectors = set()
    for member in members:
        if member.pending_submissions or member.waiting_length:
            return False
        vectors.add(member.last_processed_vector())
    return len(vectors) <= 1


class NodeDriver:
    """One member's engine, access point and effect interpreter.

    Parameters
    ----------
    member:
        The engine this driver runs.
    send:
        ``send(dst, data, *, kind)`` puts one encoded PDU on the wire.
    round_no, clock:
        The adapter's current round (stamped into snapshots) and time
        (stamped into ``delivery_log`` and ``trace`` records).
    storage, persist:
        The member's durable state, and the sink for a snapshot captured
        on its cadence (saved in place by the simulator, off the event
        loop by the live runtime).  Without ``persist`` it never
        snapshots.
    recorder, perf_clock:
        Span recorder, and the batcher's timing clock when it is on.
    delivery_log, trace, suspicion_events:
        The simulator's cluster-wide collaborators; suspicion events are
        appended as ``(pid, effect)`` pairs to a fresh list by default.
    """

    def __init__(
        self,
        member: Member,
        *,
        send: Callable[..., None],
        round_no: Callable[[], int],
        clock: Callable[[], Time],
        storage: NodeStorage | None = None,
        persist: Callable[[MemberSnapshot], None] | None = None,
        recorder: Recorder = NULL_RECORDER,
        perf_clock: Callable[[], float] | None = None,
        delivery_log: DeliveryLog | None = None,
        trace: Trace | None = None,
        suspicion_events: list[tuple[ProcessId, SuspicionChange]] | None = None,
    ) -> None:
        self.pid = member.pid
        self.member = member
        self.service = UrcgcService(member)
        self.storage = storage
        self.recorder = recorder
        self._obs = recorder.enabled
        if self._obs and storage is not None:
            storage.bind_registry(recorder.registry)
        batching = member.config.batching
        #: Wire batcher (None when batching is off): the bookkeeping
        #: always sees the original sends; only transmission is packed.
        self.batcher = (
            Batcher(
                batching,
                registry=recorder.registry if self._obs else None,
                clock=perf_clock if self._obs else None,
            )
            if batching is not None
            else None
        )
        self._send = send
        self._round_no = round_no
        self._clock = clock
        self._persist = persist
        self.delivery_log = delivery_log
        self.trace = trace
        self.suspicion_events = suspicion_events if suspicion_events is not None else []
        #: Own messages sent (rebroadcasts after a rejoin included).
        self.generated_mids: list[Mid] = []
        self.confirmed_mids: list[Mid] = []
        #: What orphan discard destroyed here: each lost message *and*
        #: its dependents (``service.discarded_mids`` has the latter).
        self.discarded_mids: list[Mid] = []
        #: Datagrams dropped as malformed (``parse``) or out of range.
        self.decode_errors = 0
        #: Batch-expanded duplicates suppressed before the engine.
        self.dup_suppressed = 0

    def restore(self, member: Member, delivered: list[UserMessage]) -> None:
        """Continue as the incarnation :func:`~repro.storage.restore_member`
        rebuilt from durable state."""
        self.member = self.service.member = member
        self.service.delivered = delivered
        self.generated_mids = [m.mid for m in delivered if m.mid.origin == self.pid]

    def tick(self, round_no: int) -> list[Effect]:
        """A round boundary; returns the effects it executed."""
        effects = self.member.on_round(round_no)
        self.execute(effects)
        return effects

    def receive(self, opened: Opened) -> None:
        """Feed one opened datagram's PDUs to the engine, in order."""
        if opened is None:
            # Malformed bytes (bad tag, truncated vector, garbage) are
            # a loss at this endpoint, never a crash of the driver.
            self._count_decode_error("parse")
            return
        batched, pdus = opened
        member = self.member
        for message, problem in pdus:
            if member.has_left:
                break
            if problem is not None:
                # Structurally valid but semantically out of range
                # (forged vector, member index >= n): drop the PDU.
                self._count_decode_error("range")
                continue
            if batched and isinstance(message, UserMessage) and member.already_seen(message.mid):
                # A duplicated batch frame re-expands every sub-message;
                # suppress the copies once here so duplication x
                # batching is not multiply-counted by the engine.
                self.dup_suppressed += 1
                if self._obs:
                    self.recorder.registry.count("batch.dup_suppressed", node=self.pid)
                continue
            self.execute(member.on_message(message))

    def _count_decode_error(self, reason: str) -> None:
        self.decode_errors += 1
        if self._obs:
            self.recorder.registry.count("net.decode_error", node=self.pid, reason=reason)

    def execute(self, effects: list[Effect]) -> None:
        """Carry out one batch of engine effects: the records, in effect
        order; then urcgc.data.Ind / Conf through the service; then the
        sends; then a snapshot if one is due."""
        pid = self.pid
        storage = self.storage
        log = self.delivery_log
        trace = self.trace
        recorder = self.recorder
        obs = self._obs
        now = self._clock()
        for effect in effects:
            if isinstance(effect, Send):
                message = effect.message
                if isinstance(message, UserMessage):
                    if message.mid.origin != pid:
                        continue
                    self.generated_mids.append(message.mid)
                    if log is not None:
                        log.on_generated(message.mid, now)
                    if obs:
                        recorder.generated(message.mid, message.deps, node=pid)
                    if storage is not None:
                        # Log-before-send: a sent message is always in
                        # the WAL, so recovery never reuses its seq.
                        # That ordering is why the append stays inline
                        # (small buffered write, see docs/ANALYSIS.md).
                        storage.log_generated(message)  # lint: disable=I502
                elif isinstance(message, RequestMessage):
                    if obs:
                        recorder.request(int(message.subrun), node=pid)
                elif isinstance(message, DecisionMessage):
                    decision = message.decision
                    if obs:
                        recorder.decision(int(decision.number), node=pid)
                    if trace is not None:
                        trace.emit(
                            now, "decision.broadcast", pid, number=int(decision.number),
                            chain=decision.chain, full_group=decision.full_group,
                            alive=sum(decision.alive),
                        )
            elif isinstance(effect, Deliver):
                message = effect.message
                if storage is not None and message.mid.origin != pid:
                    # Own messages were logged at generation time.
                    # Inline by design: the record must be durable
                    # before the indication fires below
                    # (log-before-indicate, see docs/ANALYSIS.md).
                    storage.log_processed(message)  # lint: disable=I502
                if log is not None:
                    log.on_processed(message.mid, pid, now)
                if obs:
                    recorder.processed(message.mid, node=pid)
            elif isinstance(effect, DecisionApplied):
                if obs:
                    recorder.decision(int(effect.decision.number), node=pid, applied=True)
                if storage is not None:
                    # Inline by design: the decision must hit the WAL
                    # before any send it unblocks leaves this effect
                    # batch (log-before-send, see docs/ANALYSIS.md).
                    storage.log_decision(effect.decision)  # lint: disable=I502
            elif isinstance(effect, Confirm):
                self.confirmed_mids.append(effect.mid)
                if trace is not None:
                    trace.emit(now, "member.confirm", pid, mid=effect.mid)
            elif isinstance(effect, Discarded):
                # The lost message is destroyed along with its
                # dependents: the "or none of them" branch of atomicity.
                destroyed = (effect.lost, *effect.discarded)
                self.discarded_mids.extend(destroyed)
                if log is not None:
                    log.on_discarded(destroyed)
                if obs:
                    recorder.discarded(effect.lost, node=pid, count=len(destroyed))
                if trace is not None:
                    trace.emit(
                        now, "member.discarded", pid,
                        lost=effect.lost, count=len(effect.discarded),
                    )
            elif isinstance(effect, SuspicionChange):
                self.suspicion_events.append((pid, effect))
                if obs:
                    recorder.suspect(
                        effect.pid, suspected=effect.suspected, node=pid, reason=effect.reason
                    )
                    recorder.registry.count(
                        "fd.suspect" if effect.suspected else "fd.unsuspect", node=pid
                    )
                if trace is not None:
                    trace.emit(
                        now, "member.suspect", pid,
                        target=int(effect.pid), suspected=effect.suspected,
                    )
            elif isinstance(effect, Left):
                if trace is not None:
                    trace.emit(now, "member.left", pid, reason=effect.reason)
        sends = self.service.dispatch(effects)
        if sends:
            if self.batcher is not None:
                sends = self.batcher.pack(sends)
            send = self._send
            for out in sends:
                send(out.dst, encode_message(out.message), kind=out.kind)
        if storage is not None and self._persist is not None and storage.should_snapshot():
            self._persist(
                snapshot_of(self.member, self.service.delivered, round_no=self._round_no())
            )
