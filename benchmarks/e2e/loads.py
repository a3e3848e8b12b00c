"""The four workloads, driven through the repo's public classes.

Each load builds its topology, offers work in epochs, and observes from
outside: publish/submit instants, the client's publish-ack (or the
origin's ``urcgc.data.Conf``), and the delivery at the last subscriber
(or ``urcgc.data.Ind`` at the last live member).  Nothing under
``src/`` knows it is being measured.

Sizes were tuned on the reference host (README "Sizing") and are
frozen: a given ``(seed, units)`` always offers the same inputs.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

import estimators
from repro.core.config import BatchingConfig, UrcgcConfig
from repro.harness.cluster import SimCluster
from repro.harness.live_torture import audit_group, audit_streams
from repro.net.addressing import UnicastAddress
from repro.net.faults import FaultPlan
from repro.runtime import AsyncGroup, UdpFabric
from repro.storage import FileBackend, GroupStorage, NodeStorage, restore_member
from repro.svc import ShardedService
from repro.svc.serve import audit_tier
from repro.types import ProcessId, Time
from repro.workloads.generators import PoissonWorkload, ZipfTopics

#: The throughput configuration a deployment would run.
GENERATE_BURST = 8
BATCHING = BatchingConfig(max_batch=16, max_bytes=48 * 1024)
PAYLOAD = b"x" * 32

#: K and R where requests can miss their decision round (``group_wide``:
#: 2% request loss; ``live_durable``: four round tickers on one loop).
#: With the default K=3 the coordinators evict a healthy member in ~7%
#: of ``group_wide`` runs and in most 25 s ``live_durable`` runs (README
#: "Findings"), and a run that loses a member is a failed run.  The
#: values are the ones ``repro.harness.ablations.ablate_bus_saturation``
#: uses against the same hazard.
LOADED_K = 8
LOADED_R = 20

#: Work per second of ``--seconds``, measured on the reference host at
#: the commit that added the benchmark and then frozen: a run offers
#: ``rate * seconds`` units of work in equal epochs, so the same (seed,
#: seconds) always gives the same inputs.  svc: ``tier.step()`` calls;
#: group_wide: protocol rounds.  live_durable is timer-paced and
#: measures for ``seconds`` of wall clock.
UNITS_PER_SECOND = {"svc_fanout": 32.0, "svc_bridged": 88.0, "group_wide": 35.0}

#: Seeds the subscription table of the svc workloads.  Who subscribes
#: to what is part of the frozen deployment, like the shard count;
#: ``--seed`` draws the client ids and the traffic.  (Drawn per seed,
#: deliveries per publish — and with it every cost per publish — would
#: differ by 4% between seeds before anything is measured.)
SUBSCRIPTIONS_SEED = 14

_clock = time.perf_counter


def _no_window(opening: bool) -> None:
    """Default ``load.window``: the traced pass installs the tracer's."""


@dataclass
class Epoch:
    """What one epoch measured (latencies in ms, per completed op)."""

    wall_s: float
    cpu_s: float
    agreed: int
    ack_ms: list[float] = field(default_factory=list)
    last_ms: list[float] = field(default_factory=list)


@dataclass
class Totals:
    """Whole-run numbers, read after :meth:`finish`."""

    agreed: int
    wire_bytes: int
    delay_mean_rtd: float
    attempted: int
    failed: int
    inputs_digest: str
    last_delivery_samples: int


# ----------------------------------------------------------------------
# svc_fanout / svc_bridged
# ----------------------------------------------------------------------


class SvcLoad:
    """A ``ShardedService`` under an open loop in sim time: ``per_step``
    publishes, then one ``tier.step()`` (one subrun on every shard)."""

    n = 3  # members per shard

    def __init__(
        self,
        seed: int,
        *,
        shards: int,
        sessions: int,
        topics: int,
        zipf_s: float,
        subscriptions: int,
        multi_ratio: float,
        per_step: int,
    ) -> None:
        self.seed = seed
        self.shards = shards
        self.n_sessions = sessions
        self.n_topics = topics
        self.zipf_s = zipf_s
        self.subscriptions = subscriptions
        self.multi_ratio = multi_ratio
        self.per_step = per_step
        self.sample_layers = False
        self.window = _no_window
        self.parked_max = 0
        self._digest = hashlib.sha1()
        self._issued = 0
        self._published: dict[int, int] = {}
        self._sent_at: dict[tuple[int, int], float] = {}
        self._remaining: dict[tuple[int, int], int] = {}
        self._expected_cache: dict[tuple[bytes, ...], int] = {}
        self._ack_ms: list[float] = []
        self._last_ms: list[float] = []
        self._last_samples = 0
        self._base_agreed = 0
        self._base_bytes = 0

    def build(self) -> None:
        config = UrcgcConfig(
            n=self.n, generate_burst=GENERATE_BURST, batching=BATCHING
        )
        self.tier = ShardedService(
            self.shards, self.n, config=config, seed=self.seed
        )
        rng = self._rng = random.Random(self.seed)
        self._traffic = ZipfTopics(self.n_topics, s=self.zipf_s, rng=rng)
        interests = ZipfTopics(
            self.n_topics, s=self.zipf_s, rng=random.Random(SUBSCRIPTIONS_SEED)
        )
        self._ids = rng.sample(range(1_000_000), self.n_sessions)
        self._topic_subs: dict[bytes, set[int]] = {}
        for client_id in self._ids:
            self.tier.connect(client_id)
            interest = interests.subscription(self.subscriptions)
            self.tier.subscribe(client_id, interest)
            for topic in interest:
                self._topic_subs.setdefault(topic, set()).add(client_id)
            self._digest.update(b"%d:" % client_id + b",".join(interest))
        self._shard_of = {
            topic: self.tier.router.shard_for(topic) for topic in interests.names
        }
        self._acked = dict.fromkeys(self._ids, 0)
        self._cursor = dict.fromkeys(self._ids, 0)

    def _expected(self, topics: tuple[bytes, ...]) -> int:
        """Deliveries one publish must cause: per destination shard, the
        sessions whose stream there matches any of its topics."""
        cached = self._expected_cache.get(topics)
        if cached is None:
            per_shard: dict[int, set[int]] = {}
            for topic in topics:
                per_shard.setdefault(self._shard_of[topic], set()).update(
                    self._topic_subs.get(topic, ())
                )
            cached = sum(len(subs) for subs in per_shard.values())
            self._expected_cache[topics] = cached
        return cached

    def _draw(self) -> tuple[bytes, ...]:
        """One publish's topics: one Zipf draw, or — with probability
        ``multi_ratio`` — 2 or 3 distinct ones (a bridged publish)."""
        if self._rng.random() < self.multi_ratio:
            return self._traffic.draw_set(self._rng.randint(2, 3))
        return (self._traffic.draw(),)

    def _publish(self, topics: tuple[bytes, ...]) -> None:
        client_id = self._ids[self._issued % len(self._ids)]
        self._issued += 1
        self._digest.update(b"%d>" % client_id + b",".join(topics))
        seq = self._published.get(client_id, 0) + 1
        self._published[client_id] = seq
        key = (client_id, seq)
        expected = self._expected(topics)
        if expected:
            self._remaining[key] = expected
        self._sent_at[key] = _clock()
        self.tier.publish(client_id, topics, PAYLOAD)

    def _observe(self) -> int:
        """Read acks and deliveries off the sessions; one timestamp per
        ``tier.step()`` is the latency granularity.  Returns new acks."""
        now = _clock()
        sent_at = self._sent_at
        remaining = self._remaining
        newly_acked = 0
        for client_id, session in self.tier.sessions.items():
            acked = session.acked
            seen = self._acked[client_id]
            if acked > seen:
                for seq in range(seen + 1, acked + 1):
                    self._ack_ms.append((now - sent_at[(client_id, seq)]) * 1e3)
                newly_acked += acked - seen
                self._acked[client_id] = acked
            delivered = session.delivered
            cursor = self._cursor[client_id]
            if len(delivered) > cursor:
                for index in range(cursor, len(delivered)):
                    deliver = delivered[index]
                    key = (deliver.origin, deliver.origin_seq)
                    left = remaining[key] - 1
                    if left:
                        remaining[key] = left
                    else:
                        del remaining[key]
                        self._last_ms.append((now - sent_at[key]) * 1e3)
                self._cursor[client_id] = len(delivered)
        if self.sample_layers:
            for row in self.tier.frontends:
                for frontend in row:
                    for stream in frontend.streams.values():
                        if len(stream.parked) > self.parked_max:
                            self.parked_max = len(stream.parked)
        return newly_acked

    def run_epoch(self, steps: int) -> Epoch:
        self._ack_ms = []
        self._last_ms = []
        agreed = 0
        self.window(True)
        wall, cpu = _clock(), time.process_time()
        for _ in range(steps):
            for _ in range(self.per_step):
                self._publish(self._draw())
            self.tier.step()
            self.tier.refresh_health()
            agreed += self._observe()
        wall, cpu = _clock() - wall, time.process_time() - cpu
        self.window(False)
        self._last_samples += len(self._last_ms)
        return Epoch(wall, cpu, agreed, self._ack_ms, self._last_ms)

    def _wire_bytes(self) -> int:
        return sum(c.network.stats.total().sent_bytes for c in self.tier.clusters)

    def mark(self) -> None:
        """End of warm-up: whole-run totals count from here."""
        self._base_agreed = sum(self._acked.values())
        self._base_bytes = self._wire_bytes()
        self._last_samples = 0

    def finish(self) -> None:
        self._ack_ms, self._last_ms = [], []  # the last epoch keeps its own
        self.tier.run()
        self._observe()
        self._last_samples += len(self._last_ms)

    def totals(self) -> Totals:
        acked = sum(self._acked.values())
        # Fig. 4's D from the user's hand-off: data_rq at the injecting
        # frontend to processing there, in sim rtd, over every shard.
        # (SimCluster.delay_report() starts at generation, after the
        # burst queue, and is the constant 0.5 on a loss-free shard.)
        waited, count = 0.0, 0
        for family, name, _, metric in self.tier.registry.walk():
            if family == "histogram" and name in (
                "svc.publish.latency", "svc.bridge.latency"
            ):
                waited += metric.sum
                count += metric.count
        delay = waited / count if count else float("nan")
        evicted = sum(
            self.n - len(c.active_pids()) for c in self.tier.clusters
        )
        failed = (self._issued - acked) + len(self._remaining) + evicted
        return Totals(
            agreed=acked - self._base_agreed,
            wire_bytes=self._wire_bytes() - self._base_bytes,
            delay_mean_rtd=delay,
            attempted=self._issued,
            failed=failed,
            inputs_digest=self._digest.hexdigest(),
            last_delivery_samples=self._last_samples,
        )

    def audit(self) -> list[str]:
        return audit_tier(self.tier, quiesced=True)

    def layer_state(self) -> dict[str, float]:
        """State-derived per-layer numbers (whole run, warm-up included)."""
        clusters = self.tier.clusters
        stats = [c.network.stats for c in clusters]
        delivered = sum(s.total().delivered for s in stats)
        dropped = sum(s.total().dropped for s in stats)
        return {
            "publishes": self._issued,
            "deliveries": sum(len(s.delivered) for s in self.tier.sessions.values()),
            "pdus_moved": self.tier.pdus_moved,
            "parked_max": self.parked_max,
            "history_len_max": max(c.max_history_series().max() for c in clusters),
            "waiting_len_max": max(
                c.kernel.metrics.series_for("waiting.max").max() for c in clusters
            ),
            "recoveries": sum(s.kind("ctrl-recovery-rq").sent for s in stats),
            "datagrams": sum(s.total().sent for s in stats),
            "data_bytes": sum(s.kind("data").sent_bytes for s in stats),
            "dropped_share": dropped / (delivered + dropped) if delivered + dropped else 0.0,
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# group_wide
# ----------------------------------------------------------------------


class _StampedSource:
    """The Poisson source, plus the wall-clock instant of every
    submission (a :class:`~repro.workloads.generators.Workload`)."""

    def __init__(self, inner: PoissonWorkload, pending, digest) -> None:
        self._inner = inner
        self._pending = pending
        self._digest = digest

    @property
    def offered(self) -> int:
        return self._inner.offered

    def submissions(self, round_no: int):
        out = self._inner.submissions(round_no)
        if out:
            now = _clock()
            for pid, _ in out:
                self._pending[pid].append(now)
            self._digest.update(b"%d:" % round_no + bytes(int(pid) for pid, _ in out))
        return out

    def finished(self, round_no: int) -> bool:
        return self._inner.finished(round_no)


class GroupLoad:
    """A bare ``SimCluster``: Poisson submissions, uniform omission, no
    client tier and no storage.  One unit of work is one round."""

    n = 32
    rate = 0.25
    omission = 0.01

    def __init__(self, seed: int, *, total_rounds: int, observability: bool = False) -> None:
        self.seed = seed
        self.total_rounds = total_rounds
        self.observability = observability
        self.sample_layers = False
        self.window = _no_window
        self._digest = hashlib.sha1()
        self._pending = [deque() for _ in range(self.n)]
        self._start: dict = {}
        self._seen: dict = {}
        self._ack_ms: list[float] = []
        self._last_ms: list[float] = []
        self._agreed = 0
        self._agreed_total = 0
        self._last_samples = 0
        self._base_agreed = 0
        self._base_bytes = 0

    def build(self) -> None:
        pids = [ProcessId(i) for i in range(self.n)]
        config = UrcgcConfig(
            n=self.n,
            K=LOADED_K,
            R=LOADED_R,
            generate_burst=GENERATE_BURST,
            batching=BATCHING,
            observability=self.observability,
        )
        plan = FaultPlan(rng=random.Random(self.seed ^ 0x5EED))
        plan.set_uniform_omission(pids, self.omission)
        self.source = _StampedSource(
            PoissonWorkload(
                pids,
                self.rate,
                rng=random.Random(self.seed),
                payload_size=len(PAYLOAD),
                stop_after_round=self.total_rounds - 1,
            ),
            self._pending,
            self._digest,
        )
        self.cluster = SimCluster(
            config,
            workload=self.source,
            faults=plan,
            max_rounds=self.total_rounds + 2_000,
            seed=self.seed,
            trace=False,
        )
        for pid, service in enumerate(self.cluster.services):
            service.set_confirm_handler(
                lambda handle, pid=pid: self._on_confirm(pid, handle)
            )
            service.add_indication_handler(self._on_indication)

    def _on_confirm(self, pid: int, handle) -> None:
        now = _clock()
        sent = self._pending[pid].popleft()
        self._start[handle.mid] = sent
        self._ack_ms.append((now - sent) * 1e3)

    def _on_indication(self, message) -> None:
        mid = message.mid
        count = self._seen.get(mid, 0) + 1
        if count < self.n:
            self._seen[mid] = count
            return
        del self._seen[mid]
        self._last_ms.append((_clock() - self._start.pop(mid)) * 1e3)
        self._agreed += 1

    def run_epoch(self, rounds: int) -> Epoch:
        self._ack_ms = []
        self._last_ms = []
        self._agreed = 0
        cluster = self.cluster
        self.window(True)
        wall, cpu = _clock(), time.process_time()
        cluster.kernel.run(until=Time(float(cluster.now) + rounds * 0.5))
        wall, cpu = _clock() - wall, time.process_time() - cpu
        self.window(False)
        self._agreed_total += self._agreed
        self._last_samples += len(self._last_ms)
        return Epoch(wall, cpu, self._agreed, self._ack_ms, self._last_ms)

    def mark(self) -> None:
        self._base_agreed = self._agreed_total
        self._base_bytes = self.cluster.network.stats.total().sent_bytes
        self._last_samples = 0

    def finish(self) -> None:
        self._ack_ms, self._last_ms = [], []  # the last epoch keeps its own
        self._agreed = 0
        self.quiesced = self.cluster.run_until_quiescent(drain_subruns=2) is not None
        self._agreed_total += self._agreed
        self._last_samples += len(self._last_ms)

    def totals(self) -> Totals:
        cluster = self.cluster
        report = cluster.delay_report()
        evicted = self.n - len(cluster.active_pids())
        offered = self.source.offered
        failed = (offered - report.complete_messages) + evicted + (not self.quiesced)
        return Totals(
            agreed=self._agreed_total - self._base_agreed,
            wire_bytes=cluster.network.stats.total().sent_bytes - self._base_bytes,
            delay_mean_rtd=report.mean_delay,
            attempted=offered,
            failed=failed,
            inputs_digest=self._digest.hexdigest(),
            last_delivery_samples=self._last_samples,
        )

    def audit(self) -> list[str]:
        cluster = self.cluster
        active = set(cluster.active_pids())
        log = cluster.delivery_log
        return audit_streams(
            {pid: cluster.services[pid].delivered for pid in active},
            log.generated_at,
            log.processed_at,
            active,
            log.discarded,
            converged=self.quiesced,
        )

    def layer_state(self) -> dict[str, float]:
        cluster = self.cluster
        stats = cluster.network.stats
        total = stats.total()
        seen = total.delivered + total.dropped
        return {
            "history_len_max": cluster.max_history_series().max(),
            "waiting_len_max": cluster.kernel.metrics.series_for("waiting.max").max(),
            "recoveries": stats.kind("ctrl-recovery-rq").sent,
            "datagrams": total.sent,
            "data_bytes": stats.kind("data").sent_bytes,
            "dropped_share": total.dropped / seen if seen else 0.0,
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# live_durable
# ----------------------------------------------------------------------


class _CountingFabric:
    """``UdpFabric`` plus a count of what nodes hand to it (the live
    analogue of ``cluster.network.stats``)."""

    def __init__(self, inner: UdpFabric, n: int) -> None:
        self._inner = inner
        self._fanout = n - 1
        self.bytes = 0
        self.datagrams = 0
        self.data_bytes = 0
        self.recoveries = 0

    def sendto(self, src, dst, data: bytes, *, kind: str = "data") -> None:
        self.bytes += len(data)
        self.datagrams += 1 if isinstance(dst, UnicastAddress) else self._fanout
        if kind == "data":
            self.data_bytes += len(data)
        elif kind == "ctrl-recovery-rq":
            self.recoveries += 1
        self._inner.sendto(src, dst, data, kind=kind)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class LiveLoad:
    """``AsyncGroup`` over loopback UDP with durable storage, closed
    loop: each member's producer keeps ``outstanding`` messages
    un-Conf'd.  One unit of work is one second of wall clock.

    Every epoch is a fresh group *session*: bind, start, ramp, measure,
    quiesce, audit, stop.  A group kept alive across epochs has no
    steady operating point to measure: each ticker sleeps
    ``round_interval`` *after* its work, so the members drift against
    each other by whole rounds, and one group's epochs read ack p50 =
    43, 83, 125, 146 and 331 ms (README "Findings").  A fresh group
    starts in phase and stays there for a few seconds.  The last
    session ends with the crash: quiesce, crash one member, the
    survivors move on, the member recovers from its snapshot + WAL and
    rejoins.
    """

    n = 4
    round_interval = 0.02
    outstanding = 8
    snapshot_interval = 400
    ramp_s = 0.3
    victim = ProcessId(3)
    #: Subruns the survivors run on between the crash and the recovery:
    #: long enough that they have removed the member (K subruns), so
    #: it comes back through the JOIN decision, not as a short outage.
    down_subruns = LOADED_K + 4

    def __init__(self, seed: int, *, results_dir: str) -> None:
        self.seed = seed
        self.results_dir = results_dir
        self.sample_layers = False
        self.window = _no_window
        self.config = UrcgcConfig(
            n=self.n,
            K=LOADED_K,
            R=LOADED_R,
            generate_burst=GENERATE_BURST,
            batching=BATCHING,
            enable_rejoin=True,
        )
        rng = random.Random(seed)
        self._payloads = [rng.randbytes(len(PAYLOAD)) for _ in range(256)]
        self._violations: list[str] = []
        self._sessions = 0
        self._submitted = 0
        self._failed = 0
        self._agreed_total = 0
        self._last_samples = 0
        self._epoch_means: list[float] = []
        self.group: AsyncGroup | None = None
        #: Counts over the measured windows so far (``layer_state``).
        self.state: dict[str, float] = dict.fromkeys(
            ("history_len_max", "waiting_len_max", "wire_bytes", "recoveries",
             "udp_datagrams", "data_bytes", "rounds", "snapshots"), 0
        )
        self.recovery: dict[str, float] = {}

    # -- one session ---------------------------------------------------------

    def _submit(self, pid: int) -> None:
        if self._producing:
            payload = self._payloads[self._submitted % len(self._payloads)]
            self._submitted += 1
            self._pending[pid].append(_clock())
            self.group.nodes[pid].submit(payload)

    def _on_indication(self, pid, message) -> None:
        if not self._timing:
            return  # the crash-and-recover tail is audited, not timed
        now = _clock()
        mid = message.mid
        if mid.origin == pid:
            # The origin's own indication is its urcgc.data.Conf.
            sent = self._pending[pid].popleft()
            self._start[mid] = sent
            self._ack_ms.append((now - sent) * 1e3)
            self.loop.call_soon(self._submit, int(pid))
        count = self._seen.get(mid, 0) + 1
        if count < self.n:
            self._seen[mid] = count
            return
        del self._seen[mid]
        self._last_ms.append((now - self._start.pop(mid)) * 1e3)
        self._agreed += 1

    async def _open(self) -> None:
        self._sessions += 1
        self._pending = [deque() for _ in range(self.n)]
        self._start: dict = {}
        self._seen: dict = {}
        self._ack_ms: list[float] = []
        self._last_ms: list[float] = []
        self._agreed = 0
        self._producing = self._timing = True
        self.fabric = _CountingFabric(await UdpFabric.create(self.n), self.n)
        self.directory = os.path.join(self.root, f"session-{self._sessions}")
        self.storage = GroupStorage(
            FileBackend(self.directory), snapshot_interval=self.snapshot_interval
        )
        self.group = AsyncGroup(
            self.config,
            lan=self.fabric,
            round_interval=self.round_interval,
            on_indication=self._on_indication,
            storage=self.storage,
        )
        self.group.start()
        for pid in range(self.n):
            for _ in range(self.outstanding):
                self._submit(pid)
        await asyncio.sleep(self.ramp_s)

    async def _measure(self, seconds: float) -> Epoch:
        if self.group is not None:
            await self._close(recover=False)
        await self._open()
        self._ack_ms = []
        self._last_ms = []
        self._agreed = 0
        before = self._counters()
        self.window(True)
        wall, cpu = _clock(), time.process_time()
        if self.sample_layers:
            deadline = wall + seconds
            while _clock() < deadline:
                await asyncio.sleep(0.05)
                self._sample()
        else:
            await asyncio.sleep(seconds)
        wall, cpu = _clock() - wall, time.process_time() - cpu
        self.window(False)
        epoch = Epoch(wall, cpu, self._agreed, list(self._ack_ms), list(self._last_ms))
        after = self._counters()
        for key in before:
            self.state[key] += after[key] - before[key]
        self._agreed_total += epoch.agreed
        self._last_samples += len(epoch.last_ms)
        if epoch.last_ms:
            self._epoch_means.append(statistics.fmean(epoch.last_ms))
        return epoch

    def _counters(self) -> dict[str, float]:
        """The open session's running counts."""
        fabric, nodes = self.fabric, self.group.nodes
        return {
            "wire_bytes": fabric.bytes,
            "recoveries": fabric.recoveries,
            "udp_datagrams": fabric.datagrams,
            "data_bytes": fabric.data_bytes,
            "rounds": sum(node.current_round for node in nodes) / self.n,
            "snapshots": sum(
                self.storage.node(ProcessId(i)).snapshots_taken for i in range(self.n)
            ),
        }

    def _sample(self) -> None:
        state = self.state
        for node in self.group.nodes:
            member = node.member
            state["history_len_max"] = max(state["history_len_max"], member.history_length)
            state["waiting_len_max"] = max(state["waiting_len_max"], member.waiting_length)

    async def _quiesce(self) -> None:
        try:
            await self.group.wait_until(self.group.quiescent, timeout=15.0)
        except asyncio.TimeoutError:
            self._violations.append("[live] group did not quiesce in 15 s")

    async def _close(self, *, recover: bool) -> None:
        """End the open session: drain, count what failed, (crash and
        recover,) audit, stop."""
        group = self.group
        try:
            self._producing = False
            await self._quiesce()
            self._timing = False
            unacked = sum(len(queue) for queue in self._pending)
            self._failed += unacked + len(self._seen)
            if recover:
                await self._crash_and_recover()
            for node in group.nodes:
                if not node.is_live:
                    self._failed += 1
                    self._violations.append(
                        f"[membership] p{node.pid} is out of the group: "
                        f"{node.member.left_reason or 'crashed'}"
                    )
            self._violations.extend(audit_group(group, converged=True))
        finally:
            self.group = None
            await group.stop()

    async def _crash_and_recover(self) -> None:
        """Crash one member, let the survivors move on, recover it from
        its snapshot + WAL, and wait for the rejoin to be admitted."""
        group, victim = self.group, self.victim
        node = group.nodes[victim]
        before = [message.mid for message in node.delivered]
        await group.crash(victim)
        # The victim's files as the crash left them, for the replay bench.
        self._crash_copy = os.path.join(self.root, "crashed")
        os.makedirs(self._crash_copy)
        for name in os.listdir(self.directory):
            if name.startswith(f"node-{int(victim):05d}.") and not name.endswith(".tmp"):
                shutil.copy(os.path.join(self.directory, name), self._crash_copy)
        survivors = [n for n in group.nodes if n.pid != victim]
        for survivor in survivors:
            for _ in range(self.outstanding):
                survivor.submit(PAYLOAD)
        self._submitted += len(survivors) * self.outstanding
        await asyncio.sleep(self.down_subruns * 2 * self.round_interval)
        began = _clock()
        group.recover(victim)
        try:
            await group.wait_until(
                lambda: not node.member.rejoining or node.member.has_left,
                timeout=15.0,
            )
        except asyncio.TimeoutError:
            self._violations.append("[recovery] rejoin did not complete in 15 s")
        self.recovery["rejoin_ms"] = (_clock() - began) * 1e3
        await self._quiesce()
        after = [message.mid for message in node.delivered]
        if after[: len(before)] != before:
            self._violations.append(
                "[prefix-consistency] recovered log does not extend the pre-crash log"
            )

    def _replay_bench(self, repeats: int = 20) -> None:
        """Median ``load()`` time and WAL replay rate over the crashed
        member's files (traced pass only)."""
        node_storage = NodeStorage(FileBackend(self._crash_copy), self.victim)
        loads, replays, records = [], [], 0
        for _ in range(repeats):
            t0 = _clock()
            snapshot, wal = node_storage.load()
            t1 = _clock()
            restore_member(self.victim, self.config, snapshot, wal)
            t2 = _clock()
            loads.append(t1 - t0)
            replays.append(t2 - t1)
            records = len(wal)
        self.recovery["load_ms"] = statistics.median(loads) * 1e3
        self.recovery["replay_records_per_s"] = records / statistics.median(replays)

    # -- the load protocol ---------------------------------------------------

    def build(self) -> None:
        os.makedirs(self.results_dir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="live-", dir=self.results_dir)
        self.loop = asyncio.new_event_loop()

    def run_epoch(self, seconds: float) -> Epoch:
        return self.loop.run_until_complete(self._measure(seconds))

    def mark(self) -> None:
        self._agreed_total = 0
        self._last_samples = 0
        self._epoch_means = []
        self.state = dict.fromkeys(self.state, 0)

    def finish(self) -> None:
        self.loop.run_until_complete(self._close(recover=True))
        if self.sample_layers:
            self._replay_bench()

    def totals(self) -> Totals:
        # A time: the good (lower) quartile of the per-epoch means.
        means = self._epoch_means
        mean_ms = estimators.best_time(means) if means else float("nan")
        return Totals(
            agreed=self._agreed_total,
            wire_bytes=int(self.state["wire_bytes"]),
            delay_mean_rtd=mean_ms / 1e3 / (2 * self.round_interval),
            attempted=self._submitted,
            failed=self._failed,
            inputs_digest=hashlib.sha1(b"".join(self._payloads)).hexdigest(),
            last_delivery_samples=self._last_samples,
        )

    def audit(self) -> list[str]:
        return list(self._violations)

    def layer_state(self) -> dict[str, float]:
        """Counts over the measured windows, and the recovery numbers."""
        return {**self.state, **self.recovery}

    def close(self) -> None:
        if self.group is not None:  # a failed run: stop what is still up
            self.loop.run_until_complete(self.group.stop())
        # Snapshot persistence ran on the loop's default executor.
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------


#: The frozen topologies, by workload name (the names BENCHMARK.json
#: declares).  ``total_units`` is the whole run's work: only the
#: Poisson source needs it up front.
WORKLOADS = {
    "svc_fanout": lambda seed, total_units, results_dir: SvcLoad(
        seed, shards=4, sessions=200, topics=16, zipf_s=1.1,
        subscriptions=3, multi_ratio=0.0, per_step=16,
    ),
    "svc_bridged": lambda seed, total_units, results_dir: SvcLoad(
        seed, shards=8, sessions=96, topics=128, zipf_s=0.5,
        subscriptions=2, multi_ratio=0.8, per_step=16,
    ),
    "group_wide": lambda seed, total_units, results_dir: GroupLoad(
        seed, total_rounds=total_units
    ),
    "live_durable": lambda seed, total_units, results_dir: LiveLoad(
        seed, results_dir=results_dir
    ),
}
