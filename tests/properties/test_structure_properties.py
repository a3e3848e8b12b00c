"""Property-based tests on the core data structures' invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cbcast.vector_clock import VectorClock
from repro.core.history import History
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.core.waiting import WaitingList
from repro.sim.events import EventQueue
from repro.obs.metrics import summarize
from repro.types import ProcessId, SeqNo


# ----------------------------------------------------------------------
# Vector clock algebra
# ----------------------------------------------------------------------

vectors = st.lists(st.integers(0, 50), min_size=1, max_size=6)


@given(st.data())
def test_merge_commutative_associative_idempotent(data):
    n = data.draw(st.integers(1, 6))
    values = st.lists(st.integers(0, 50), min_size=n, max_size=n)
    a, b, c = (VectorClock(data.draw(values)) for _ in range(3))

    ab = a.copy().merge(b)
    ba = b.copy().merge(a)
    assert ab == ba

    abc1 = a.copy().merge(b).merge(c)
    abc2 = a.copy().merge(b.copy().merge(c))
    assert abc1 == abc2

    assert a.copy().merge(a) == a


@given(st.data())
def test_merge_is_least_upper_bound(data):
    n = data.draw(st.integers(1, 6))
    values = st.lists(st.integers(0, 50), min_size=n, max_size=n)
    a = VectorClock(data.draw(values))
    b = VectorClock(data.draw(values))
    merged = a.copy().merge(b)
    assert a <= merged and b <= merged


# ----------------------------------------------------------------------
# History invariants under arbitrary store/clean interleavings
# ----------------------------------------------------------------------


@st.composite
def history_ops(draw):
    """A valid operation sequence: per-origin stores are in seq order."""
    ops = []
    next_seq = {}
    for _ in range(draw(st.integers(0, 40))):
        origin = ProcessId(draw(st.integers(0, 4)))
        if draw(st.booleans()):
            seq = next_seq.get(origin, 0) + 1
            next_seq[origin] = seq
            ops.append(("store", origin, seq))
        else:
            upto = draw(st.integers(0, next_seq.get(origin, 0)))
            ops.append(("clean", origin, upto))
    return ops


@given(history_ops())
@settings(max_examples=80)
def test_history_total_matches_entries(ops):
    history = History()
    floors: dict = {}
    for op, origin, value in ops:
        if op == "store":
            if value > floors.get(origin, 0):
                deps = (Mid(origin, SeqNo(value - 1)),) if value > 1 else ()
                history.store(UserMessage(Mid(origin, SeqNo(value)), deps))
        else:
            history.clean(origin, SeqNo(value))
            floors[origin] = max(floors.get(origin, 0), value)
    assert len(history) == sum(history.length_of(o) for o in history.origins())
    assert len(history) == sum(1 for _ in history.all_messages())
    for origin in history.origins():
        assert history.floor(origin) >= floors.get(origin, 0)


@given(history_ops())
@settings(max_examples=80)
def test_history_fetch_range_only_stored(ops):
    history = History()
    for op, origin, value in ops:
        if op == "store" and value > history.floor(origin):
            deps = (Mid(origin, SeqNo(value - 1)),) if value > 1 else ()
            if not history.contains(Mid(origin, SeqNo(value))):
                history.store(UserMessage(Mid(origin, SeqNo(value)), deps))
        elif op == "clean":
            history.clean(origin, SeqNo(value))
    for origin in history.origins():
        fetched = history.fetch_range(origin, SeqNo(1), SeqNo(1000))
        assert [m.mid.seq for m in fetched] == sorted(m.mid.seq for m in fetched)
        assert all(m.mid.seq > history.floor(origin) for m in fetched)


# ----------------------------------------------------------------------
# Waiting list: arbitrary arrival orders release in dependency order
# ----------------------------------------------------------------------


@given(st.permutations(list(range(1, 9))))
def test_waiting_list_releases_chain_in_order(arrival_order):
    """Messages (0, 1..8) forming one chain, arriving in any order,
    are released exactly in seq order."""
    origin = ProcessId(0)
    waiting = WaitingList()
    processed = []

    def process(message):
        processed.append(message.mid.seq)
        for released in waiting.notify_processed(message.mid):
            process(released)

    last = 0
    pending = {}
    for seq in arrival_order:
        deps = (Mid(origin, SeqNo(seq - 1)),) if seq > 1 else ()
        message = UserMessage(Mid(origin, SeqNo(seq)), deps)
        missing = {d for d in deps if d.seq > last and d.seq not in processed}
        missing = {d for d in deps if d.seq not in processed}
        if missing:
            waiting.add(message, missing)
        else:
            process(message)
    assert processed == sorted(processed)
    assert processed == list(range(1, 9))
    assert len(waiting) == 0


# ----------------------------------------------------------------------
# Event queue ordering
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 3)),
        max_size=50,
    )
)
def test_event_queue_pops_sorted(entries):
    queue = EventQueue()
    for time, priority in entries:
        queue.push(time, lambda: None, priority=priority)
    popped = []
    while (event := queue.pop()) is not None:
        popped.append((event.time, event.priority, event.seq))
    assert popped == sorted(popped)


# ----------------------------------------------------------------------
# Summary statistics sanity
# ----------------------------------------------------------------------


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
def test_summarize_bounds(samples):
    summary = summarize(samples)
    eps = 1e-9 * max(1.0, abs(summary.maximum), abs(summary.minimum))
    assert summary.count == len(samples)
    assert summary.minimum - eps <= summary.p50 <= summary.maximum + eps
    assert summary.minimum - eps <= summary.mean <= summary.maximum + eps
    assert summary.stdev >= 0
