"""Decoding a datagram once per group is observationally transparent.

``SimCluster`` opens each distinct datagram once (decode → expand →
validate) and hands every member that receives it the same immutable
PDUs.  The slow version it must equal is a cluster that opens every
reception afresh: :class:`_DecodeEveryCopy` overrides the memoized open
step with the plain one.  Under Hypothesis-drawn seeds and fault plans —
omission, duplication, per-destination mutation, corruption, wire
batching on and off, MTU fragmentation — both runs must agree on every
member's processed sequence, the receive-path counters, the network's
per-kind traffic, the delivery log and the Definition 3.2 verdicts.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.checkers import (
    check_local_causal_order,
    check_uniform_atomicity,
    check_uniform_ordering,
)
from repro.core.config import BatchingConfig, UrcgcConfig
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.harness.cluster import SimCluster
from repro.net.faults import FaultPlan
from repro.net.wire import encode_message
from repro.types import ProcessId, SeqNo
from repro.workloads.generators import BernoulliWorkload

#: Leading byte of a whole (unfragmented) raw transport frame, and the
#: length of its header: the urcgc PDU follows it.
_FRAME_DATA = 0
_FRAME_HEADER = 5


class _CountingCluster(SimCluster):
    """Counts how many datagrams were actually decoded."""

    decodes = 0

    def _decode(self, data):
        self.decodes += 1
        return super()._decode(data)


class _DecodeEveryCopy(_CountingCluster):
    """The reference: every reception is decoded fresh."""

    def _open(self, data):
        return self._decode(data)


@st.composite
def scenarios(draw):
    return {
        "n": draw(st.integers(3, 6)),
        "K": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 10_000)),
        "load": draw(st.floats(0.2, 1.0)),
        "burst": draw(st.integers(1, 3)),
        "omission": draw(st.sampled_from([0.0, 0.02, 0.1])),
        "duplication": draw(st.sampled_from([0.0, 0.2])),
        "mutation": draw(st.sampled_from([0.0, 0.1])),
        "corruption": draw(st.sampled_from([0.0, 0.03])),
        "batching": draw(st.booleans()),
        "mtu": draw(st.sampled_from([None, 96, 240])),
    }


def _mutator(rate: float, n: int, rng: random.Random):
    """Rewrite some destinations' copies: truncated (a parse error) or
    a forged PDU naming an origin no member holds (a range error)."""
    forged = encode_message(
        UserMessage(Mid(ProcessId(1), SeqNo(1)), (Mid(ProcessId(n), SeqNo(1)),))
    )

    def mutate(packet, dst, now):
        payload = packet.payload
        if payload[0] != _FRAME_DATA or rng.random() >= rate:
            return None
        header = payload[:_FRAME_HEADER]
        if rng.random() < 0.5:
            return header + payload[_FRAME_HEADER:-3]
        return header + forged

    return mutate


def _duplicate_deliveries(cluster: SimCluster, rate: float, rng: random.Random):
    """Hand some packets to their receiver twice, back to back."""
    handlers = cluster.network._handlers
    for pid, handler in list(handlers.items()):

        def twice(packet, handler=handler):
            handler(packet)
            if rng.random() < rate:
                handler(packet)

        handlers[pid] = twice


def _run(cls, s):
    n, seed = s["n"], s["seed"]
    pids = [ProcessId(i) for i in range(n)]
    faults = FaultPlan(corruption=s["corruption"], rng=random.Random(seed))
    if s["omission"]:
        faults.set_uniform_omission(pids, s["omission"])
    if s["mutation"]:
        faults.add_mutator(_mutator(s["mutation"], n, random.Random(seed + 1)))
    cluster = cls(
        UrcgcConfig(
            n=n,
            K=s["K"],
            R=2 * s["K"] + 4,
            generate_burst=s["burst"],
            batching=BatchingConfig() if s["batching"] else None,
        ),
        workload=BernoulliWorkload(
            pids, s["load"], rng=random.Random(seed), stop_after_round=10
        ),
        faults=faults,
        mtu=s["mtu"],
        max_rounds=160,
        seed=seed,
        trace=False,
    )
    if s["duplication"]:
        _duplicate_deliveries(cluster, s["duplication"], random.Random(seed + 2))
    quiesced = cluster.run_until_quiescent(drain_subruns=2 * s["K"] + 2)
    return cluster, quiesced


def _verdicts(cluster: SimCluster, quiesced):
    """Definition 3.2 (and the site-local causal order) over the final
    active membership."""
    active = set(cluster.active_pids())
    streams = {pid: cluster.services[pid].delivered for pid in active}
    log = cluster.delivery_log
    return (
        [check_local_causal_order(pid, stream) for pid, stream in streams.items()],
        check_uniform_ordering(streams, converged=quiesced is not None),
        check_uniform_atomicity(
            log.generated_at,
            {mid: set(by) for mid, by in log.processed_at.items()},
            active,
            discarded=log.discarded,
        ),
    )


@given(scenarios())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_decode_once_equals_decode_every_copy(scenario):
    fast, fast_quiesced = _run(_CountingCluster, scenario)
    slow, slow_quiesced = _run(_DecodeEveryCopy, scenario)

    assert fast.active_pids() == slow.active_pids()
    assert fast_quiesced == slow_quiesced
    for pid in range(scenario["n"]):
        assert fast.services[pid].delivered == slow.services[pid].delivered, (
            f"p{pid} diverged"
        )
    assert fast.decode_errors == slow.decode_errors
    assert fast.dup_suppressed == slow.dup_suppressed
    stats = fast.network.stats
    assert stats.kinds() == slow.network.stats.kinds()
    for kind in stats.kinds():
        assert stats.kind(kind) == slow.network.stats.kind(kind), kind
    assert stats.drop_reasons == slow.network.stats.drop_reasons
    assert fast.delivery_log == slow.delivery_log
    assert _verdicts(fast, fast_quiesced) == _verdicts(slow, slow_quiesced)

    # The memo engaged: never more decodes, and a broadcast reaching
    # two or more members was opened once.
    assert fast.decodes <= slow.decodes
    if slow.decodes:
        assert fast.decodes < slow.decodes
