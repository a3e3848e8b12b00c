"""The one node driver: effect ordering and the shapes both adapters keep.

:class:`repro.driver.NodeDriver` is the only urcgc effect interpreter;
``SimCluster`` and ``AsyncNode`` schedule it.  These tests pin two of
the orders it settles (DESIGN.md §3) — WAL records in effect order, all
of them before the batch's first send — and the two meanings of
"discarded" that stay observable.  Log-before-indicate is tested per
adapter in tests/harness/test_log_before_indicate.py.
"""

from repro.core.config import UrcgcConfig
from repro.core.effects import Confirm, Deliver, Discarded, Send
from repro.core.member import Member
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.core.rejoin import RECORD_GENERATED, RECORD_PROCESSED
from repro.driver import NodeDriver
from repro.net.addressing import BROADCAST_GROUP
from repro.storage import GroupStorage, MemoryBackend
from repro.types import ProcessId, SeqNo


def m(origin: int, seq: int) -> Mid:
    return Mid(ProcessId(origin), SeqNo(seq))


def _ignore(dst, data, *, kind) -> None:
    pass


def _driver(storage: GroupStorage | None = None, send=_ignore) -> NodeDriver:
    pid = ProcessId(0)
    node_storage = storage.node(pid) if storage is not None else None
    return NodeDriver(
        Member(pid, UrcgcConfig(n=3)),
        send=send,
        round_no=lambda: 0,
        clock=lambda: 0.0,
        storage=node_storage,
    )


def test_wal_records_follow_effect_order_and_precede_every_send():
    storage = GroupStorage(MemoryBackend(), snapshot_interval=10_000)
    wal = storage.node(ProcessId(0)).wal
    records_at_send: list[int] = []
    driver = _driver(
        storage, lambda dst, data, *, kind: records_at_send.append(len(wal.open()))
    )
    own = UserMessage(m(0, 1), ())
    peer = UserMessage(m(1, 1), ())
    driver.execute(
        [
            Send(BROADCAST_GROUP, own, "data"),
            Deliver(own),
            Confirm(own.mid),
            Deliver(peer),
        ]
    )
    assert [record.kind for record in wal.open()] == [
        RECORD_GENERATED,
        RECORD_PROCESSED,
    ]
    assert records_at_send == [2]  # log-before-send
    assert driver.generated_mids == driver.confirmed_mids == [own.mid]
    assert driver.service.delivered == [own, peer]


def test_discarded_keeps_both_meanings():
    driver = _driver()
    driver.execute([Discarded(m(1, 1), (m(1, 2), m(1, 3)))])
    # The driver records the lost message too (the live audit reads
    # this); the service access point records only the dependents.
    assert driver.discarded_mids == [m(1, 1), m(1, 2), m(1, 3)]
    assert driver.service.discarded_mids == [m(1, 2), m(1, 3)]
