"""The simulator's observable behaviour, pinned across driver refactors.

Each case runs one seeded ``SimCluster`` under every fault the sim
driver has a code path for — 1% omission, fabric duplication, mutated
datagrams (parse and range errors), one crash — with durable storage
on, wire batching off or on, and the paper's K-consecutive rule or the
heartbeat detector.  The run is reduced to one SHA-256 over:

* every member's processed sequence;
* ``network.stats`` by kind, and the drop reasons;
* the delivery log: generated, processed (with times) and discarded;
* ``decode_errors`` and ``dup_suppressed``;
* the set of suspicion events;
* the ``decision.broadcast`` chain from the kernel trace;
* every member's snapshot blob and its WAL *as a multiset* of records;
* the recorder's span events *as a multiset*.

The expected digests were recorded before the sim driver's effect
interpreter moved into :class:`repro.driver.NodeDriver`, so a change
to any of the above is a behaviour change, not a refactor.  Two orders
are deliberately left out, because the one node driver settles them
differently from the old sim interpreter (DESIGN.md §3): the order of
WAL records written by one effect batch (own ``generated`` records now
sit in effect order among the batch's processed/decision records) and
the order of span events within one batch.  Their contents are pinned.
"""

import hashlib
import random

import pytest

from repro.core.config import BatchingConfig, FailureDetectorConfig, UrcgcConfig
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.harness.cluster import SimCluster
from repro.net.faults import FaultPlan
from repro.net.wire import encode_message
from repro.storage import GroupStorage, MemoryBackend
from repro.types import ProcessId, SeqNo, Time
from repro.workloads.generators import BernoulliWorkload

_N = 6
_VICTIM = ProcessId(_N - 1)
_FRAME_DATA = 0
_FRAME_HEADER = 5

#: (seed, batching, detector) -> digest, recorded before the refactor.
EXPECTED = {
    (1, False, 'k-consecutive'): "84ad397515d13b3bf6988ad2d5a11331b932a67691dc329bc2c696c16fa48c44",
    (1, False, 'heartbeat'): "2cfaa2c6ede0719ed9e26b82157cea51482736b3fe1b99abd9551c9a42f8a4dc",
    (1, True, 'k-consecutive'): "3dc8ec4706e716f1fbdef2fbb8fe08544293c8bf8d1da7881eb19e960475e2cb",
    (1, True, 'heartbeat'): "c9b8b3e547afb665e4bce1fd1002599404675c6f9b9108c23eee041a92343256",
    (2, False, 'k-consecutive'): "f841529075195da80e3deae6fa5e910dcbe07e6f601ed859c7246f90fc051cdb",
    (2, False, 'heartbeat'): "757dc7c49d6db3562050db755def5bc0d1ad925c598781f20a289b85cf2a5fd4",
    (2, True, 'k-consecutive'): "472d6149d8518b1dcd3307054b0e35852a6c23700dac1f8846b6d25e3072438e",
    (2, True, 'heartbeat'): "b546f487feafdcc79d52541f3139abadcfa7771792bc1602a17470fd8102d9da",
    (3, False, 'k-consecutive'): "c9845ed864250ca62655da6f88887d8b6832f55ad25484c9564fc87a2f573192",
    (3, False, 'heartbeat'): "1c3cd67e0c62c6e9d4d02fbbff0e1fafbdd4fabeb900688e6e75132ae2efd99f",
    (3, True, 'k-consecutive'): "74a2fbfec6e0f4bc51d95eaf8cb7457d88e68600fe7c06eea23b13ea72dfd1b5",
    (3, True, 'heartbeat'): "4427a0c6cb017abfa24a2f45710e7435713f80eaa335cb256079ceabb9bde7a3",
}


def _mutator(rng: random.Random):
    """Truncate some data frames (parse errors) or swap in a PDU naming
    an origin outside the group (range errors)."""
    forged = encode_message(
        UserMessage(Mid(ProcessId(1), SeqNo(1)), (Mid(ProcessId(_N), SeqNo(1)),))
    )

    def mutate(packet, dst, now):
        payload = packet.payload
        if payload[0] != _FRAME_DATA or rng.random() >= 0.02:
            return None
        header = payload[:_FRAME_HEADER]
        if rng.random() < 0.5:
            return header + payload[_FRAME_HEADER:-3]
        return header + forged

    return mutate


def _orphaning(packet, now) -> bool:
    """The victim's first broadcasts and every recovery answer it gives
    are lost, so its first message dies with it and the survivors
    discard the dependent tail (Theorem 4.1 case ii)."""
    if packet.src != _VICTIM:
        return False
    if packet.kind == "data" and now < 1.0:
        return True
    return packet.kind == "ctrl-recovery-rsp"


def _duplicate_deliveries(cluster: SimCluster, rng: random.Random) -> None:
    """Hand some packets to their receiver twice, back to back."""
    handlers = cluster.network._handlers
    for pid, handler in list(handlers.items()):

        def twice(packet, handler=handler):
            handler(packet)
            if rng.random() < 0.1:
                handler(packet)

        handlers[pid] = twice


def _run(seed: int, batching: bool, detector: str):
    pids = [ProcessId(i) for i in range(_N)]
    faults = FaultPlan(rng=random.Random(seed))
    faults.set_uniform_omission(pids, 0.01)
    faults.add_mutator(_mutator(random.Random(seed + 1)))
    faults.crashes.crash(_VICTIM, Time(2.2 + seed))
    faults.custom_send_filter = _orphaning
    storage = GroupStorage(MemoryBackend(), snapshot_interval=16)
    heartbeat = detector == "heartbeat"
    cluster = SimCluster(
        UrcgcConfig(
            n=_N,
            K=3,
            R=10,
            generate_burst=2,
            batching=BatchingConfig() if batching else None,
            failure_detector=FailureDetectorConfig() if heartbeat else None,
            observability=heartbeat,
        ),
        workload=BernoulliWorkload(
            pids, 0.6, rng=random.Random(seed), stop_after_round=40
        ),
        faults=faults,
        max_rounds=240,
        seed=seed,
        trace=True,
        storage=storage,
    )
    _duplicate_deliveries(cluster, random.Random(seed + 2))
    cluster.run_until_quiescent(drain_subruns=4)
    return cluster, storage


def _mid(mid: Mid) -> tuple[int, int]:
    return (int(mid.origin), int(mid.seq))


def digest(seed: int, batching: bool, detector: str) -> str:
    cluster, storage = _run(seed, batching, detector)
    parts: list[object] = []
    parts.append(
        [[_mid(m.mid) for m in service.delivered] for service in cluster.services]
    )
    stats = cluster.network.stats
    parts.append(
        [
            (kind, s.sent, s.delivered, s.dropped, s.sent_bytes, s.delivered_bytes)
            for kind in sorted(stats.kinds())
            for s in [stats.kind(kind)]
        ]
    )
    parts.append(sorted(stats.drop_reasons.items()))
    log = cluster.delivery_log
    parts.append(sorted((_mid(m), float(t)) for m, t in log.generated_at.items()))
    parts.append(
        sorted(
            (_mid(m), sorted((int(p), float(t)) for p, t in by.items()))
            for m, by in log.processed_at.items()
        )
    )
    parts.append(sorted(_mid(m) for m in log.discarded))
    parts.append((cluster.decode_errors, cluster.dup_suppressed))
    parts.append(
        sorted(
            {
                (int(pid), int(e.pid), e.suspected, e.reason)
                for pid, e in cluster.suspicion_events
            }
        )
    )
    parts.append(
        [
            (float(r.time), r.actor, r["number"], repr(r["chain"]),
             r["full_group"], r["alive"])
            for r in cluster.kernel.trace.select("decision.broadcast")
        ]
    )
    for pid in range(_N):
        node = storage.node(ProcessId(pid))
        blob = storage.backend.read(f"node-{pid:05d}.snap")
        parts.append(
            (
                node.snapshots_taken,
                hashlib.sha256(blob).hexdigest() if blob is not None else None,
                sorted((r.kind, encode_message(r.pdu)) for r in node.wal.open()),
            )
        )
    parts.append(
        sorted(
            repr((e.time, e.kind, e.node, e.mid, sorted(e.extra.items())))
            for e in cluster.recorder.events
        )
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


CASES = [
    (seed, batching, detector)
    for seed in (1, 2, 3)
    for batching in (False, True)
    for detector in ("k-consecutive", "heartbeat")
]


@pytest.mark.parametrize("seed,batching,detector", CASES)
def test_sim_driver_matches_pinned_digest(seed, batching, detector):
    assert digest(seed, batching, detector) == EXPECTED[(seed, batching, detector)]


def test_pinned_runs_exercise_every_receive_path():
    """The pin is only as strong as the paths its runs take."""
    runs = [_run(*case) for case in CASES]
    assert all(cluster.decode_errors for cluster, _ in runs)
    assert any(cluster.dup_suppressed for cluster, _ in runs)
    assert any(cluster.suspicion_events for cluster, _ in runs)
    assert any(cluster.delivery_log.discarded for cluster, _ in runs)
    assert all(
        storage.node(ProcessId(0)).snapshots_taken for _, storage in runs
    )
