"""Log-before-indicate, in both scheduling adapters.

A peer message's ``processed`` WAL record must be appended before
urcgc.data.Ind fires for it (docs/ANALYSIS.md): an application that
acts on an indication may then rely on a crash never forgetting that
message.  Both ``SimCluster`` and ``AsyncNode`` run the one node
driver's interpreter, which logs a batch's records before its
indications; the simulator used to indicate first.
"""

import asyncio

from repro.core.config import UrcgcConfig
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.core.rejoin import RECORD_PROCESSED
from repro.harness.cluster import SimCluster
from repro.runtime.node import AsyncGroup
from repro.storage import GroupStorage, MemoryBackend
from repro.types import ProcessId, SeqNo
from repro.workloads.generators import ScriptedWorkload


def m(origin: int, seq: int) -> Mid:
    return Mid(ProcessId(origin), SeqNo(seq))


def _processed_mids(storage: GroupStorage, pid: ProcessId) -> set[Mid]:
    return {
        record.pdu.mid
        for record in storage.node(pid).wal.open()
        if record.kind == RECORD_PROCESSED
    }


def _indication_audit(storage: GroupStorage):
    """An indication handler that notes every peer message whose
    ``processed`` record was not yet in the receiver's WAL."""
    seen: list[Mid] = []
    early: list[Mid] = []

    def check(pid: ProcessId, message: UserMessage) -> None:
        if message.mid.origin == pid:
            return  # own messages are logged as generated
        seen.append(message.mid)
        if message.mid not in _processed_mids(storage, pid):
            early.append(message.mid)

    return check, seen, early


def test_sim_indication_follows_its_processed_record():
    storage = GroupStorage(MemoryBackend(), snapshot_interval=10_000)
    cluster = SimCluster(
        UrcgcConfig(n=3, K=2),
        workload=ScriptedWorkload(
            {0: [(ProcessId(0), b"a")], 2: [(ProcessId(2), b"b")]}
        ),
        max_rounds=40,
        storage=storage,
    )
    check, seen, early = _indication_audit(storage)
    receiver = ProcessId(1)
    cluster.services[receiver].add_indication_handler(
        lambda message: check(receiver, message)
    )
    assert cluster.run_until_quiescent() is not None
    assert seen == [m(0, 1), m(2, 1)]
    assert early == []


def test_live_indication_follows_its_processed_record():
    storage = GroupStorage(MemoryBackend(), snapshot_interval=10_000)
    check, seen, early = _indication_audit(storage)

    async def main() -> None:
        group = AsyncGroup(
            UrcgcConfig(n=3, K=3),
            round_interval=0.004,
            on_indication=check,
            storage=storage,
        )
        group.start()
        try:
            await group.run_workload(
                [(ProcessId(0), b"a"), (ProcessId(2), b"b")], timeout=10.0
            )
        finally:
            await group.stop()

    asyncio.run(main())
    assert len(seen) == 4  # each message at the two other members
    assert early == []
