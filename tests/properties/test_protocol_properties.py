"""Property-based tests on protocol-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cbcast.delivery import CausalDeliveryQueue
from repro.baselines.cbcast.messages import CbcastData
from repro.baselines.cbcast.vector_clock import VectorClock
from repro.core.config import UrcgcConfig
from repro.core.decision import RequestInfo, compute_decision, initial_decision
from repro.core.effects import Deliver
from repro.core.member import Member
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.types import ProcessId, SeqNo, SubrunNo


# ----------------------------------------------------------------------
# Member causal delivery under arbitrary arrival orders
# ----------------------------------------------------------------------


@st.composite
def message_pool(draw):
    """A causally consistent pool of messages from 3 senders.

    Each sender produces a chain; cross-dependencies point to already-
    generated messages of other senders (as the real protocol would)."""
    n_senders = 3
    counts = [draw(st.integers(0, 5)) for _ in range(n_senders)]
    generated: list[UserMessage] = []
    latest: dict[int, Mid] = {}
    # Interleave generation sender-by-sender round-robin.
    pending = [1] * n_senders
    order = draw(
        st.permutations(
            [s for s in range(n_senders) for _ in range(counts[s])]
        )
    )
    for sender in order:
        seq = pending[sender]
        pending[sender] += 1
        mid = Mid(ProcessId(sender + 1), SeqNo(seq))  # origins 1..3 (pid 0 receives)
        deps = []
        if seq > 1:
            deps.append(Mid(ProcessId(sender + 1), SeqNo(seq - 1)))
        for other, dep in latest.items():
            if other != sender and draw(st.booleans()):
                deps.append(dep)
        message = UserMessage(mid, tuple(deps))
        generated.append(message)
        latest[sender] = mid
    return generated


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_member_delivers_in_causal_order_any_arrival(data):
    pool = data.draw(message_pool())
    arrival = data.draw(st.permutations(pool))
    member = Member(ProcessId(0), UrcgcConfig(n=4))
    delivered: list[UserMessage] = []
    for message in arrival:
        for effect in member.on_message(message):
            if isinstance(effect, Deliver):
                delivered.append(effect.message)
    # Everything was eventually delivered (no losses here).
    assert {m.mid for m in delivered} == {m.mid for m in pool}
    # And in an order where every dependency precedes its dependent.
    seen = set()
    last_seq: dict[int, int] = {}
    for message in delivered:
        for dep in message.deps:
            assert dep in seen
        assert message.mid.seq == last_seq.get(message.mid.origin, 0) + 1
        last_seq[message.mid.origin] = message.mid.seq
        seen.add(message.mid)
    assert member.waiting_length == 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_member_idempotent_under_duplicates(data):
    pool = data.draw(message_pool())
    arrival = data.draw(st.permutations(pool * 2))  # every message twice
    member = Member(ProcessId(0), UrcgcConfig(n=4))
    delivered = []
    for message in arrival:
        for effect in member.on_message(message):
            if isinstance(effect, Deliver):
                delivered.append(effect.message.mid)
    assert len(delivered) == len(set(delivered)) == len(pool)


# ----------------------------------------------------------------------
# Decision computation invariants
# ----------------------------------------------------------------------


@st.composite
def request_maps(draw, n):
    contacted = draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    )
    requests = {}
    for pid in contacted:
        last = tuple(SeqNo(draw(st.integers(0, 20))) for _ in range(n))
        waiting = tuple(SeqNo(draw(st.integers(0, 20))) for _ in range(n))
        requests[ProcessId(pid)] = RequestInfo(last, waiting)
    return requests


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_decision_invariants_over_random_chains(data):
    n = data.draw(st.integers(2, 6))
    K = data.draw(st.integers(1, 4))
    decision = initial_decision(n)
    steps = data.draw(st.integers(1, 8))
    for s in range(steps):
        requests = data.draw(request_maps(n))
        alive_before = decision.alive
        coordinator = ProcessId(data.draw(st.integers(0, n - 1)))
        next_decision = compute_decision(
            SubrunNo(s), coordinator, decision, requests, K
        )
        # Chain grows by exactly one; number is the subrun.
        assert next_decision.chain == decision.chain + 1
        assert next_decision.number == s
        # Membership is monotone non-increasing.
        for i in range(n):
            assert not (next_decision.alive[i] and not alive_before[i])
        # Attempts: contacted-and-alive processes reset to 0; silent
        # alive ones increment; attempts >= K implies removed.
        for i in range(n):
            if next_decision.alive[i]:
                if ProcessId(i) in requests:
                    assert next_decision.attempts[i] == 0
                else:
                    assert next_decision.attempts[i] == decision.attempts[i] + 1
                assert next_decision.attempts[i] < K
        # full_group implies every alive process contributed.
        if next_decision.full_group:
            for i in range(n):
                if next_decision.alive[i]:
                    assert next_decision.contributors[i]
        # stable never exceeds max_processed for contacted sequences.
        contacted_alive = [
            p for p in requests if next_decision.alive[p]
        ]
        if contacted_alive:
            for k in range(n):
                assert next_decision.stable[k] <= max(
                    next_decision.max_processed[k], next_decision.stable[k]
                )
        decision = next_decision


# ----------------------------------------------------------------------
# CBCAST delivery queue under arbitrary arrival orders
# ----------------------------------------------------------------------


@st.composite
def cbcast_pool(draw):
    """Causally consistent CBCAST messages from 2 senders (receiver is
    pid 0 of a 3-wide group)."""
    clocks = {1: [0, 0, 0], 2: [0, 0, 0]}
    messages = []
    for _ in range(draw(st.integers(0, 8))):
        sender = draw(st.sampled_from([1, 2]))
        # Sender may have observed the other's messages so far.
        other = 2 if sender == 1 else 1
        observe = draw(st.integers(0, clocks[other][other]))
        clock = clocks[sender]
        clock[other] = max(clock[other], observe)
        clock[sender] += 1
        messages.append(
            CbcastData(
                ProcessId(sender),
                VectorClock(list(clock)),
                VectorClock([0, 0, 0]),
            )
        )
    return messages


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cbcast_queue_delivers_all_in_causal_order(data):
    pool = data.draw(cbcast_pool())
    arrival = data.draw(st.permutations(pool))
    queue = CausalDeliveryQueue(ProcessId(0), 3)
    delivered = []
    for message in arrival:
        delivered.extend(queue.receive(message))
    assert len(delivered) == len(pool)
    local = VectorClock(3)
    for message in delivered:
        assert message.vt.deliverable_from(message.sender, local)
        local.merge(message.vt)
    assert queue.delayed_count == 0


# ----------------------------------------------------------------------
# Total-order view: identical release order across members fed the
# same decision chain, regardless of local arrival interleavings
# ----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_total_order_views_agree_on_any_arrival_order(data):
    from repro.core.decision import compute_decision
    from repro.core.member import Member
    from repro.core.message import DecisionMessage
    from repro.core.total_order import TotalOrderView

    pool = data.draw(message_pool())
    n = 4
    members = [Member(ProcessId(0), UrcgcConfig(n=n)) for _ in range(2)]
    # Distinct observer instances must not share pid 0's generation
    # stream; they only *receive*, so this is fine.
    views = [TotalOrderView(m) for m in members]

    # Feed each view the same messages in an independent random order.
    for member, view in zip(members, views):
        arrival = data.draw(st.permutations(pool))
        for message in arrival:
            view.process_effects(member.on_message(message))

    # One shared decision chain declares everything stable.
    last = {}
    for message in pool:
        last[message.mid.origin] = max(
            last.get(message.mid.origin, 0), message.mid.seq
        )
    info_vec = tuple(
        SeqNo(last.get(ProcessId(k), 0)) for k in range(n)
    )
    requests = {
        ProcessId(k): RequestInfo(info_vec, tuple(SeqNo(0) for _ in range(n)))
        for k in range(n)
    }
    decision = compute_decision(
        SubrunNo(0), ProcessId(1), initial_decision(n), requests, K=3
    )
    for member, view in zip(members, views):
        view.process_effects(member.on_message(DecisionMessage(decision)))

    orders = [tuple(m.mid for m in view.ordered) for view in views]
    assert orders[0] == orders[1]
    assert set(orders[0]) == {m.mid for m in pool}
    for view in views:
        assert not view.desynchronized
