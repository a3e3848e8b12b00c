"""Hardened receive path: malformed or out-of-range datagrams are
losses, never crashes (PROTOCOL §13).

Three layers are pinned down:

* :func:`repro.net.wire.decode_message` raises nothing but
  :class:`WireFormatError` on arbitrary garbage and on truncations or
  single-byte corruptions of every golden specimen;
* the sim driver's receive hook counts both failure modes under
  ``decode_errors`` and keeps running;
* mutated-in-flight packets (the :class:`FaultPlan` mutator axis) are
  dropped by the same path during a live simulated run.

A decodable :class:`GenerateBatch` whose expansion would be invalid
(two shared dependencies on one origin, a seq past u32) is refused by
the decoder itself, so both drivers count it as a ``parse`` error.
"""

import asyncio
import dataclasses
import random

import pytest

from repro.core.config import UrcgcConfig
from repro.core.message import KIND_DATA, GenerateBatch, UserMessage
from repro.core.mid import Mid
from repro.errors import WireFormatError
from repro.harness.cluster import SimCluster
from repro.net.addressing import UnicastAddress
from repro.net.faults import FaultPlan
from repro.net.wire import decode_message, encode_message
from repro.runtime.lan import AsyncLan
from repro.runtime.node import AsyncGroup
from repro.types import ProcessId, SeqNo
from repro.workloads.generators import ScriptedWorkload

from .golden_specimens import specimens


def _unchecked_batch(*values) -> bytes:
    """Encode a GenerateBatch past its constructor checks: the bytes a
    faulty or hostile sender can still put on the wire."""
    batch = object.__new__(GenerateBatch)
    for spec, value in zip(dataclasses.fields(GenerateBatch), values, strict=True):
        object.__setattr__(batch, spec.name, value)
    return encode_message(batch)


_BAD_BATCHES = {
    "duplicate-shared-origin": _unchecked_batch(
        ProcessId(0),
        SeqNo(1),
        (Mid(ProcessId(1), SeqNo(1)), Mid(ProcessId(1), SeqNo(2))),
        (True, True),
        (b"a", b"b"),
    ),
    "seq-overflow": _unchecked_batch(
        ProcessId(0), SeqNo(0xFFFFFFFF), (), (False, False), (b"a", b"b")
    ),
}


def test_decode_raises_only_wire_format_error_on_garbage():
    rng = random.Random(0)
    for _ in range(500):
        blob = rng.randbytes(rng.randint(0, 64))
        try:
            decode_message(blob)
        except WireFormatError:
            pass  # the one allowed failure mode


def test_decode_survives_truncations_and_bit_flips_of_every_tag():
    rng = random.Random(1)
    for tag, message in specimens().items():
        data = encode_message(message)
        for cut in range(len(data)):
            try:
                decode_message(data[:cut])
            except WireFormatError:
                pass
        for _ in range(50):
            corrupted = bytearray(data)
            corrupted[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                decode_message(bytes(corrupted))
            except WireFormatError:
                pass


def _cluster(n: int = 3) -> SimCluster:
    return SimCluster(
        UrcgcConfig(n=n, K=2),
        workload=ScriptedWorkload({0: [(ProcessId(0), b"x")]}),
        max_rounds=30,
    )


def test_sim_driver_counts_malformed_datagrams_as_parse_errors():
    cluster = _cluster()
    cluster._on_data(ProcessId(0), ProcessId(1), b"\xff\x00garbage")
    assert cluster.decode_errors == 1
    cluster.run_until_quiescent()  # the group is unharmed
    assert cluster.quiescent()


def test_sim_driver_drops_semantically_out_of_range_pdus():
    cluster = _cluster()
    forged = UserMessage(
        Mid(ProcessId(1), SeqNo(1)),
        (Mid(ProcessId(0xFFFF), SeqNo(1)),),  # origin no group can hold
    )
    cluster._on_data(ProcessId(0), ProcessId(1), encode_message(forged))
    assert cluster.decode_errors == 1
    assert not cluster.members[0].already_seen(forged.mid)


@pytest.mark.parametrize("name", sorted(_BAD_BATCHES))
def test_generate_batch_with_invalid_expansion_does_not_decode(name):
    with pytest.raises(WireFormatError):
        decode_message(_BAD_BATCHES[name])


@pytest.mark.parametrize("name", sorted(_BAD_BATCHES))
def test_sim_driver_counts_invalid_generate_batch_as_parse_error(name):
    cluster = _cluster()
    cluster._on_data(ProcessId(2), ProcessId(0), _BAD_BATCHES[name])
    assert cluster.decode_errors == 1
    assert not cluster.members[2].already_seen(Mid(ProcessId(0), SeqNo(1)))
    cluster.run_until_quiescent()
    assert cluster.quiescent()


@pytest.mark.parametrize("name", sorted(_BAD_BATCHES))
def test_live_driver_counts_invalid_generate_batch_as_parse_error(name):
    async def main() -> None:
        lan = AsyncLan()
        group = AsyncGroup(UrcgcConfig(n=3, K=2), lan=lan, round_interval=0.005)
        group.start()
        try:
            target = ProcessId(2)
            lan.sendto(ProcessId(0), UnicastAddress(target), _BAD_BATCHES[name])
            await group.wait_until(
                lambda: group.nodes[target].decode_errors >= 1, timeout=5.0
            )
            # The receive task survived: the node still takes part.
            group.nodes[ProcessId(0)].submit(b"after")
            await group.wait_until(group.quiescent, timeout=10.0)
            assert b"after" in [m.payload for m in group.nodes[target].delivered]
        finally:
            await group.stop()

    asyncio.run(main())


def test_mutated_packets_are_shed_during_a_live_sim_run():
    plan = FaultPlan()

    def corrupt_some_data(packet, dst, now):
        if packet.kind == KIND_DATA and int(dst) == 2:
            return packet.payload[: max(1, len(packet.payload) - 4)]
        return None

    plan.add_mutator(corrupt_some_data)
    cluster = SimCluster(
        UrcgcConfig(n=3, K=2),
        workload=ScriptedWorkload(
            {0: [(ProcessId(0), b"a")], 2: [(ProcessId(1), b"b")]}
        ),
        faults=plan,
        max_rounds=80,
    )
    cluster.run_until_quiescent()
    assert cluster.decode_errors > 0
    # The protocol recovered the shed copies: the group still agreed.
    assert cluster.quiescent()
    vectors = {m.last_processed_vector() for m in cluster.members}
    assert len(vectors) == 1
