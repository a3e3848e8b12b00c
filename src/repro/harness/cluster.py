"""The simulation driver: a full urcgc group over the simulated LAN.

:class:`SimCluster` instantiates one :class:`~repro.core.member.Member`
per process, attaches each to the datagram network through its own
:class:`~repro.net.transport.MulticastTransport` entity (the Section 5
stack: urcgc entity over a t-SAP), drives rounds with the
:class:`~repro.sim.rounds.RoundScheduler`, executes engine effects, and
collects every metric the paper's evaluation reports — end-to-end
delays, control traffic, history and waiting-list occupancy.
"""

from __future__ import annotations

import time

from ..analysis.delay import DeliveryLog
from ..core.batcher import Batcher, expand_message
from ..core.config import UrcgcConfig
from ..core.effects import (
    Confirm,
    DecisionApplied,
    Deliver,
    Discarded,
    Effect,
    Left,
    SuspicionChange,
)
from ..core.member import Member
from ..core.message import (
    DecisionMessage,
    GenerateBatch,
    RequestMessage,
    UserMessage,
)
from ..core.service import UrcgcService
from ..core.validate import validate_message
from ..errors import WireFormatError
from ..net.addressing import BROADCAST_GROUP
from ..net.faults import FaultPlan
from ..net.network import DatagramNetwork
from ..net.transport import MulticastTransport
from ..net.wire import BatchFrame, decode_message, encode_message
from ..obs import NULL_RECORDER, Recorder, write_jsonl
from ..sim.kernel import Kernel
from ..sim.rounds import RoundScheduler
from ..storage import GroupStorage, NodeStorage, snapshot_of
from ..types import ProcessId, Time
from ..workloads.generators import NullWorkload, Workload

__all__ = ["SimCluster"]

#: One datagram opened for a group of size ``n``: None when it does not
#: parse, else whether it was batched and every expanded PDU paired with
#: its :func:`validate_message` problem (None when in range).
_Opened = tuple[bool, tuple[tuple[object, str | None], ...]] | None


class SimCluster:
    """One simulated urcgc group.

    Parameters
    ----------
    config:
        Protocol parameters shared by every member.
    workload:
        Submission source queried at every round.
    faults:
        Fault plan (defaults to a reliable network).
    h:
        Transport-level required replies; the paper simulates ``h = 1``
        (raw datagram, recovery handled by urcgc's history).
    mtu:
        Optional transport MTU: frames above it go through the
        fragmentation sublayer.
    max_rounds:
        Hard stop for the round scheduler.
    seed, trace:
        Kernel determinism and tracing controls.
    storage:
        Optional :class:`~repro.storage.GroupStorage`: every member
        then write-ahead-logs its traffic and snapshots on the
        storage's cadence, exactly like the live runtime — the
        deterministic code path the recovery property tests replay.
    """

    def __init__(
        self,
        config: UrcgcConfig,
        *,
        workload: Workload | None = None,
        faults: FaultPlan | None = None,
        h: int = 1,
        mtu: int | None = None,
        max_rounds: int = 200,
        seed: int = 0,
        trace: bool = True,
        one_way_delay: Time = 0.5,
        medium=None,
        storage: GroupStorage | None = None,
    ) -> None:
        self.config = config
        self.kernel = Kernel(seed=seed, trace=trace)
        #: Span recorder (no-op unless ``config.observability``); it
        #: shares the kernel's registry, so `history.*` series and the
        #: network counters land in the same exported state.
        self.recorder: Recorder = (
            Recorder(
                clock=lambda: float(self.kernel.now),
                clock_kind="sim",
                registry=self.kernel.metrics,
            )
            if config.observability
            else NULL_RECORDER
        )
        self._obs = self.recorder.enabled
        self.network = DatagramNetwork(
            self.kernel, faults=faults, one_way_delay=one_way_delay, medium=medium
        )
        if self._obs:
            self.network.stats.bind(self.kernel.metrics)
        self.workload: Workload = workload or NullWorkload()
        self.scheduler = RoundScheduler(self.kernel, max_rounds=max_rounds)
        self.delivery_log = DeliveryLog()
        self.members: list[Member] = []
        self.services: list[UrcgcService] = []
        self.transports: list[MulticastTransport] = []
        self._quiescent_at: Time | None = None
        self.storage = storage
        #: Datagrams dropped by the hardened decode path (malformed or
        #: semantically out-of-range PDUs), cluster-wide.
        self.decode_errors = 0
        #: Batch-expanded duplicates suppressed before the engine.
        self.dup_suppressed = 0
        #: One-entry memo of the last datagram opened (see ``_open``).
        self._opened_key: bytes | None = None
        self._opened: _Opened = None
        #: Suspicion transitions reported by members' failure
        #: detectors, as (pid, effect) pairs in occurrence order.
        self.suspicion_events: list[tuple[ProcessId, SuspicionChange]] = []
        #: Per-member delivery logs, kept only when storage is enabled
        #: (snapshots serialize them).
        self.delivered: list[list[UserMessage]] | None = (
            [[] for _ in range(config.n)] if storage is not None else None
        )

        for i in range(config.n):
            pid = ProcessId(i)
            member = Member(pid, config)
            service = UrcgcService(member)
            transport = MulticastTransport(
                self.kernel,
                self.network,
                pid,
                on_data=lambda src, data, pid=pid: self._on_data(pid, src, data),
                h=h,
                mtu=mtu,
            )
            self.network.join(BROADCAST_GROUP, pid)
            self.members.append(member)
            self.services.append(service)
            self.transports.append(transport)

        #: Per-member wire batchers (None when batching is off): the
        #: bookkeeping in ``_execute`` always sees the original sends;
        #: only the transmission path goes through ``pack``.
        self._batchers: list[Batcher] | None = (
            [
                Batcher(
                    config.batching,
                    registry=self.kernel.metrics if self._obs else None,
                    clock=time.perf_counter if self._obs else None,
                )
                for _ in range(config.n)
            ]
            if config.batching is not None
            else None
        )

        self.scheduler.subscribe(self._on_round)
        self.scheduler.start()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    @property
    def now(self) -> Time:
        return self.kernel.now

    def is_active(self, pid: ProcessId) -> bool:
        """Active = not crashed and not left (the paper's group)."""
        return not self.network.faults.is_crashed(
            pid, self.kernel.now
        ) and not self.members[pid].has_left

    def active_pids(self) -> list[ProcessId]:
        return [ProcessId(i) for i in range(self.config.n) if self.is_active(ProcessId(i))]

    def quiescent(self) -> bool:
        """All active members agree on what was processed, have no
        pending submissions or waiting messages, and the workload has
        nothing more to submit."""
        finished = getattr(self.workload, "finished", None)
        if finished is not None and not finished(self.scheduler.current_round):
            return False
        active = self.active_pids()
        if not active:
            return True
        vectors = set()
        for pid in active:
            member = self.members[pid]
            if member.pending_submissions or member.waiting_length:
                return False
            vectors.add(member.last_processed_vector())
        return len(vectors) == 1

    @property
    def quiescent_at(self) -> Time | None:
        """First time quiescence was observed at a round boundary."""
        return self._quiescent_at

    def delay_report(self):
        """Delay statistics over the final active membership."""
        return self.delivery_log.report(set(self.active_pids()))

    def history_series(self, pid: ProcessId):
        return self.kernel.metrics.series_for(f"history.p{pid}")

    def max_history_series(self):
        """Per-round maximum history length over active members."""
        return self.kernel.metrics.series_for("history.max")

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run(self, *, max_events: int | None = None) -> None:
        """Run to completion (queue drained or max_rounds reached)."""
        self.kernel.run(max_events=max_events)

    def resume_rounds(self) -> None:
        """Un-stop the round scheduler (see
        :meth:`~repro.sim.rounds.RoundScheduler.resume`): the service
        tier keeps a cluster alive across quiescent phases and re-runs
        it for failover salvage and topic handoff."""
        self._quiescent_at = None
        self.scheduler.resume()

    def crash(self, pid: ProcessId, *, partial_deliveries: int | None = None) -> None:
        """Crash ``pid`` *now* (mid-run fault injection).

        Unlike a pre-declared :class:`FaultPlan` crash this needs no
        schedule: the member stops sending and receiving from the
        current instant, and the survivors' loss-declaration machinery
        (K missed turns, orphan discard, eviction) takes over.  The
        service-tier failover path drives this.
        """
        self.network.faults.crashes.crash(
            pid, self.kernel.now, partial_deliveries=partial_deliveries
        )

    def run_until_quiescent(self, *, drain_subruns: int = 0) -> Time | None:
        """Run until the group goes *stably* quiescent, then optionally
        keep running ``drain_subruns`` more subruns (history cleaning
        trails quiescence by up to a subrun under reliable conditions).

        A workload may submit again after a momentarily-quiet round, so
        quiescence is re-checked after the drain window; if new work
        arrived, the run continues until the group is quiet again.
        Returns the (final) quiescence time, or None if max_rounds was
        reached first.
        """
        while True:
            self.kernel.run(stop_when=lambda: self._quiescent_at is not None)
            if self._quiescent_at is None:
                return None  # max_rounds exhausted without quiescence
            if drain_subruns:
                horizon = self._quiescent_at + 2 * drain_subruns
                self.kernel.run(until=horizon)
            if self.quiescent():
                break
            # More submissions landed after the quiet instant: unlatch
            # and keep running.
            self._quiescent_at = None
        self.scheduler.stop()
        self.kernel.run()
        return self._quiescent_at

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def write_trace(self, path: str, **meta: object) -> None:
        """Export the run's JSONL trace (requires observability on)."""
        if not self._obs:
            raise RuntimeError(
                "observability is disabled; construct the cluster with "
                "UrcgcConfig(observability=True)"
            )
        write_jsonl(path, self.recorder, runner="sim", n=self.config.n, **meta)

    def _on_round(self, round_no: int) -> None:
        now = self.kernel.now
        if self._obs and round_no % 2 == 0:
            self.recorder.subrun(round_no // 2, time=now)
        for pid, payload in self.workload.submissions(round_no):
            if self.is_active(pid):
                self.services[pid].data_rq(payload)
        for i in range(self.config.n):
            pid = ProcessId(i)
            if not self.is_active(pid):
                continue
            effects = self.members[i].on_round(round_no)
            self._execute(pid, effects)
        self._sample_metrics(now, round_no)
        if self._quiescent_at is None and round_no > 0 and self.quiescent():
            has_pending = any(
                self.members[pid].pending_submissions for pid in self.active_pids()
            )
            if not has_pending:
                self._quiescent_at = now
                self.kernel.trace.emit(now, "cluster.quiescent", None, round=round_no)

    def _sample_metrics(self, now: Time, round_no: int) -> None:
        metrics = self.kernel.metrics
        max_history = 0
        max_waiting = 0
        for i in range(self.config.n):
            pid = ProcessId(i)
            if not self.is_active(pid):
                continue
            member = self.members[i]
            metrics.sample(f"history.p{pid}", now, member.history_length)
            max_history = max(max_history, member.history_length)
            max_waiting = max(max_waiting, member.waiting_length)
        metrics.sample("history.max", now, max_history)
        metrics.sample("waiting.max", now, max_waiting)

    def _open(self, data: bytes) -> _Opened:
        """:meth:`_decode` ``data``, once per run of equal datagrams.

        ``DatagramNetwork.send`` schedules a broadcast's deliveries back
        to back at one instant, so consecutive receptions carry equal
        bytes and one entry suffices.  Every receiver then shares the
        same PDU objects: they are frozen, hashable values, and nothing
        in the engine keys on their identity.
        """
        if data != self._opened_key:
            self._opened = self._decode(data)
            self._opened_key = data
        return self._opened

    def _decode(self, data: bytes) -> _Opened:
        """decode → expand → validate one datagram, for any receiver."""
        try:
            decoded = decode_message(data)
            expanded = tuple(expand_message(decoded))
        except WireFormatError:
            return None
        n = self.config.n
        return (
            isinstance(decoded, (BatchFrame, GenerateBatch)),
            tuple((message, validate_message(message, n)) for message in expanded),
        )

    def _on_data(self, pid: ProcessId, src: ProcessId, data: bytes) -> None:
        if not self.is_active(pid):
            return
        opened = self._open(data)
        if opened is None:
            # Malformed bytes (bad tag, truncated vector, garbage) are
            # a loss at this endpoint, never a crash of the simulation.
            self._count_decode_error(pid, "parse")
            return
        batched, pdus = opened
        member = self.members[pid]
        for message, problem in pdus:
            if member.has_left:
                break
            if problem is not None:
                # Structurally valid but semantically out of range
                # (forged vector, member index >= n): drop the PDU.
                self._count_decode_error(pid, "range")
                continue
            if (
                batched
                and isinstance(message, UserMessage)
                and member.already_seen(message.mid)
            ):
                # A duplicated batch frame re-expands every sub-message;
                # suppress the copies once here so duplication x
                # batching is not multiply-counted by the engine.
                self.dup_suppressed += 1
                if self._obs:
                    self.kernel.metrics.count("batch.dup_suppressed", node=int(pid))
                continue
            effects = member.on_message(message)
            self._execute(pid, effects)

    def _count_decode_error(self, pid: ProcessId, reason: str) -> None:
        self.decode_errors += 1
        if self._obs:
            self.kernel.metrics.count(
                "net.decode_error", node=int(pid), reason=reason
            )

    def _node_storage(self, pid: ProcessId) -> "NodeStorage | None":
        if self.storage is None:
            return None
        node_storage = self.storage.node(pid)
        if self._obs and node_storage._registry is None:
            node_storage.bind_registry(self.kernel.metrics)
        return node_storage

    def _execute(self, pid: ProcessId, effects: list[Effect]) -> None:
        now = self.kernel.now
        node_storage = self._node_storage(pid)
        sends = self.services[pid].dispatch(effects)
        for effect in effects:
            if isinstance(effect, Deliver):
                self.delivery_log.on_processed(effect.message.mid, pid, now)
                if self._obs:
                    self.recorder.processed(effect.message.mid, node=pid, time=now)
                if self.delivered is not None:
                    self.delivered[pid].append(effect.message)
                if (
                    node_storage is not None
                    and effect.message.mid.origin != pid
                ):
                    node_storage.log_processed(effect.message)
            elif isinstance(effect, DecisionApplied):
                if self._obs:
                    self.recorder.decision(
                        int(effect.decision.number), node=pid, applied=True, time=now
                    )
                if node_storage is not None:
                    node_storage.log_decision(effect.decision)
            elif isinstance(effect, Discarded):
                # The lost message is destroyed along with its
                # dependents: the "or none of them" branch of atomicity.
                self.delivery_log.on_discarded((effect.lost, *effect.discarded))
                if self._obs:
                    self.recorder.discarded(
                        effect.lost, node=pid, count=1 + len(effect.discarded), time=now
                    )
                self.kernel.trace.emit(
                    now, "member.discarded", pid,
                    lost=effect.lost, count=len(effect.discarded),
                )
            elif isinstance(effect, SuspicionChange):
                self.suspicion_events.append((pid, effect))
                if self._obs:
                    self.recorder.suspect(
                        effect.pid,
                        suspected=effect.suspected,
                        node=int(pid),
                        reason=effect.reason,
                        time=now,
                    )
                    self.kernel.metrics.count(
                        "fd.suspect" if effect.suspected else "fd.unsuspect",
                        node=int(pid),
                    )
                self.kernel.trace.emit(
                    now, "member.suspect", pid,
                    target=int(effect.pid), suspected=effect.suspected,
                )
            elif isinstance(effect, Left):
                self.kernel.trace.emit(now, "member.left", pid, reason=effect.reason)
            elif isinstance(effect, Confirm):
                self.kernel.trace.emit(now, "member.confirm", pid, mid=effect.mid)
        for send in sends:
            message = send.message
            if isinstance(message, UserMessage) and message.mid.origin == pid:
                self.delivery_log.on_generated(message.mid, now)
                if self._obs:
                    self.recorder.generated(
                        message.mid, message.deps, node=pid, time=now
                    )
                if node_storage is not None:
                    # Log-before-send, as in the live runtime.
                    node_storage.log_generated(message)
            elif isinstance(message, RequestMessage):
                if self._obs:
                    self.recorder.request(int(message.subrun), node=pid, time=now)
            elif isinstance(message, DecisionMessage):
                decision = message.decision
                if self._obs:
                    self.recorder.decision(int(decision.number), node=pid, time=now)
                self.kernel.trace.emit(
                    now,
                    "decision.broadcast",
                    pid,
                    number=int(decision.number),
                    chain=decision.chain,
                    full_group=decision.full_group,
                    alive=sum(decision.alive),
                )
        wire_sends = (
            self._batchers[pid].pack(sends) if self._batchers is not None else sends
        )
        for send in wire_sends:
            self.transports[pid].t_data_rq(
                send.dst, encode_message(send.message), kind=send.kind
            )
        if node_storage is not None and node_storage.should_snapshot():
            node_storage.save_snapshot(
                snapshot_of(
                    self.members[pid],
                    self.delivered[pid] if self.delivered is not None else (),
                    round_no=self.scheduler.current_round,
                )
            )
