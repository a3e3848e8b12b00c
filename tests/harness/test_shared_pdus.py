"""Members of one ``SimCluster`` share decoded PDUs.

The driver opens each distinct datagram once and hands every receiver
the same objects.  These tests pin what makes that safe and what it
buys: the sharing itself (one object per broadcast, not one per
receiver), the immutability it rests on (every group PDU is hashable,
so a mutable field would fail here rather than alias state across
members), and the memo's robustness to whatever arrives in between.
"""

import pathlib

import pytest

import repro.harness.cluster as cluster_module
from repro.core.batcher import expand_message
from repro.core.config import UrcgcConfig
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.harness.cluster import SimCluster
from repro.net.wire import decode_message, encode_message
from repro.types import ProcessId, SeqNo
from repro.workloads.generators import NullWorkload, ScriptedWorkload

VECTORS = pathlib.Path(__file__).parents[1] / "net" / "vectors"
GROUP_VECTORS = sorted(
    path for path in VECTORS.glob("*.bin") if 10 <= int(path.name[:2]) <= 18
)


def _idle(n: int = 4) -> SimCluster:
    return SimCluster(UrcgcConfig(n=n, K=2), workload=NullWorkload(), max_rounds=10)


def test_one_broadcast_generate_is_one_object_at_every_receiver():
    cluster = SimCluster(
        UrcgcConfig(n=5, K=2),
        workload=ScriptedWorkload({0: [(ProcessId(0), b"x")]}),
        max_rounds=40,
    )
    cluster.run_until_quiescent()
    latest = [cluster.services[pid].delivered[-1] for pid in range(1, 5)]
    assert latest[0].mid == Mid(ProcessId(0), SeqNo(1))
    assert all(message is latest[0] for message in latest)


@pytest.mark.parametrize("path", GROUP_VECTORS, ids=lambda path: path.stem)
def test_every_group_pdu_and_its_expansion_is_hashable(path):
    pdu = decode_message(path.read_bytes())
    hash(pdu)
    for sub in expand_message(pdu):
        hash(sub)


def test_group_vectors_cover_every_group_tag():
    assert [int(path.name[:2]) for path in GROUP_VECTORS] == list(range(10, 19))


def test_equal_datagrams_are_decoded_once(monkeypatch):
    decodes = []

    def counting(data):
        decodes.append(data)
        return decode_message(data)

    monkeypatch.setattr(cluster_module, "decode_message", counting)
    cluster = _idle()
    data = encode_message(UserMessage(Mid(ProcessId(0), SeqNo(1)), ()))
    for pid in (1, 2, 3):
        # Each reception is its own bytes object, equal in value.
        cluster._on_data(ProcessId(pid), ProcessId(0), bytes(bytearray(data)))
    assert len(decodes) == 1
    assert all(
        cluster.members[pid].already_seen(Mid(ProcessId(0), SeqNo(1)))
        for pid in (1, 2, 3)
    )


def test_garbage_between_equal_datagrams_does_not_poison_the_memo():
    cluster = _idle()
    mid = Mid(ProcessId(1), SeqNo(1))
    data = encode_message(UserMessage(mid, ()))
    cluster._on_data(ProcessId(0), ProcessId(1), data)
    cluster._on_data(ProcessId(2), ProcessId(1), b"\xff\x00garbage")
    cluster._on_data(ProcessId(3), ProcessId(1), data)
    assert cluster.decode_errors == 1
    assert cluster.members[0].already_seen(mid)
    assert not cluster.members[2].already_seen(mid)
    assert cluster.members[3].already_seen(mid)


def test_a_cached_parse_failure_still_counts_at_every_receiver():
    cluster = _idle()
    for pid in (0, 2, 3):
        cluster._on_data(ProcessId(pid), ProcessId(1), b"\xff\x00garbage")
    assert cluster.decode_errors == 3
