"""The interned tuple ``Mid`` behaves exactly like the dataclass it replaced.

``Mid`` used to be a frozen, ordered dataclass whose hash, equality and
ordering ran in Python.  It is now a slotted ``(origin, seq)`` tuple
that ``Mid.__new__`` interns.  The old class is kept below as the
reference, and every observable the rest of the program relies on is
compared against it over random ids, invalid ones included: the
exceptions, ``==``/``<``/``hash``/``str``/``repr``/``predecessor``,
sort and set-iteration order, the bytes of the PDUs that carry ids,
and pickle/copy.  Interning itself is pinned too: one object per id
while the id is in the table, and an equal one after it has left.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mid as mid_module
from repro.core.message import GenerateBatch, RecoveryResponse, UserMessage
from repro.core.mid import Mid
from repro.errors import CausalityViolationError
from repro.net.wire import decode_message, encode_message
from repro.types import ProcessId, SeqNo


@dataclass(frozen=True, order=True)
class SlowMid:
    """The dataclass ``Mid`` as it was, verbatim but for its name."""

    origin: ProcessId
    seq: SeqNo

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise CausalityViolationError(
                f"message sequence numbers start at 1, got {self.seq}"
            )
        if self.origin < 0:
            raise CausalityViolationError(f"negative origin {self.origin}")

    @property
    def predecessor(self) -> "SlowMid | None":
        if self.seq == 1:
            return None
        return SlowMid(self.origin, SeqNo(self.seq - 1))

    def __str__(self) -> str:
        return f"m({self.origin},{self.seq})"


def _build(cls, origin, seq):
    try:
        return cls(ProcessId(origin), SeqNo(seq)), None
    except CausalityViolationError as exc:
        return None, exc


def _fields(mid) -> tuple[int, int]:
    return (mid.origin, mid.seq)


# Small values collide often, so equal ids and ties in the order are
# exercised; large ones reach the wire's u16/u32 limits.
origins = st.one_of(st.integers(-3, 6), st.integers(0, 0xFFFF))
seqs = st.one_of(st.integers(-3, 6), st.integers(1, 0xFFFFFFFF))
pairs = st.tuples(origins, seqs)
valid_pairs = st.tuples(st.integers(0, 0xFFFF), st.integers(1, 0xFFFFFFFF))


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_construction_checks_are_unchanged(pair):
    fast, fast_error = _build(Mid, *pair)
    slow, slow_error = _build(SlowMid, *pair)
    assert (fast is None) == (slow is None)
    if slow is None:
        assert type(fast_error) is type(slow_error)
        assert str(fast_error) == str(slow_error)
    else:
        assert _fields(fast) == _fields(slow)


@settings(max_examples=300, deadline=None)
@given(valid_pairs, valid_pairs)
def test_value_semantics_are_unchanged(a, b):
    fa, fb = Mid(*a), Mid(*b)
    sa, sb = SlowMid(*a), SlowMid(*b)
    assert (fa == fb) == (sa == sb)
    assert (fa != fb) == (sa != sb)
    assert (fa < fb) == (sa < sb)
    assert (fa <= fb) == (sa <= sb)
    assert hash(fa) == hash(sa)
    assert str(fa) == str(sa)
    assert repr(fa) == repr(sa).replace("SlowMid", "Mid")
    if sa.predecessor is None:
        assert fa.predecessor is None
    else:
        assert _fields(fa.predecessor) == _fields(sa.predecessor)
        assert fa.predecessor is Mid(*_fields(sa.predecessor))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 9)), max_size=40))
def test_sorted_and_set_orders_are_unchanged(ids):
    fast = [Mid(*pair) for pair in ids]
    slow = [SlowMid(*pair) for pair in ids]
    assert [_fields(m) for m in sorted(fast)] == [_fields(m) for m in sorted(slow)]
    assert [_fields(m) for m in set(fast)] == [_fields(m) for m in set(slow)]
    assert [_fields(m) for m in dict.fromkeys(fast)] == [
        _fields(m) for m in dict.fromkeys(slow)
    ]


@st.composite
def messages(draw):
    """A valid ``(mid, deps)``: one dependency per origin, own ones earlier."""
    origin, seq = draw(valid_pairs)
    deps = []
    for dep_origin in draw(st.sets(st.integers(0, 0xFFFF), max_size=6)):
        if dep_origin == origin:
            if seq == 1:
                continue
            deps.append((dep_origin, draw(st.integers(1, seq - 1))))
        else:
            deps.append((dep_origin, draw(st.integers(1, 0xFFFFFFFF))))
    return (origin, seq), deps


def _user(cls, mid, deps, payload=b"p"):
    return UserMessage(cls(*mid), tuple(cls(*dep) for dep in deps), payload)


@settings(max_examples=200, deadline=None)
@given(messages())
def test_pdus_carrying_ids_encode_the_same_bytes(message):
    mid, deps = message
    fast, slow = _user(Mid, mid, deps), _user(SlowMid, mid, deps)
    data = encode_message(fast)
    assert data == encode_message(slow)
    decoded = decode_message(data)
    assert decoded == fast
    assert decoded.mid is fast.mid
    assert all(a is b for a, b in zip(decoded.deps, fast.deps))

    response = [RecoveryResponse(ProcessId(1), (m,)) for m in (fast, slow)]
    assert encode_message(response[0]) == encode_message(response[1])

    origin, seq = mid
    shared = [dep for dep in deps if dep[0] != origin]
    if seq + 2 <= 0xFFFFFFFF:
        batches = [
            GenerateBatch(
                ProcessId(origin),
                SeqNo(seq),
                tuple(cls(*dep) for dep in shared),
                (True, False, True),
                (b"a", b"b", b"c"),
            )
            for cls in (Mid, SlowMid)
        ]
        data = encode_message(batches[0])
        assert data == encode_message(batches[1])
        expanded = decode_message(data).expand()
        assert [m.mid for m in expanded] == [Mid(origin, seq + i) for i in range(3)]
        assert expanded[1].deps[0] is expanded[0].mid


@settings(max_examples=100, deadline=None)
@given(valid_pairs)
def test_one_object_per_id_through_pickle_and_copy(pair):
    mid = Mid(*pair)
    assert Mid(*pair) is mid
    assert Mid(ProcessId(pair[0]), SeqNo(pair[1])) is mid
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(mid, protocol)) is mid
    assert copy.copy(mid) is mid
    assert copy.deepcopy(mid) is mid
    assert copy.deepcopy((mid, [mid]))[1][0] is mid
    assert mid._replace(seq=SeqNo(pair[1] + 1)) is Mid(pair[0], pair[1] + 1)
    with pytest.raises(CausalityViolationError):
        mid._replace(seq=SeqNo(0))


def test_an_id_pushed_out_of_both_generations_is_recreated_equal():
    mid = Mid(ProcessId(7), SeqNo(123_456_789))
    # Fresh ids that nothing else builds: each one is a miss.
    for seq in range(1, 2 * mid_module._SPAN + 1):
        Mid(ProcessId(1 << 20), SeqNo(seq))
    again = Mid(ProcessId(7), SeqNo(123_456_789))
    assert again is not mid  # sharing is lost ...
    assert again == mid and hash(again) == hash(mid)  # ... the value is kept
    assert Mid(ProcessId(7), SeqNo(123_456_789)) is again


def test_the_table_holds_at_most_two_generations():
    for seq in range(1, 3 * mid_module._SPAN):
        Mid(ProcessId(1 << 21), SeqNo(seq))
    assert len(mid_module._young) <= mid_module._SPAN
    assert len(mid_module._old) <= mid_module._SPAN


def test_a_mid_equals_its_plain_tuple():
    mid = Mid(ProcessId(2), SeqNo(5))
    assert mid == (2, 5) and hash(mid) == hash((2, 5))
    origin, seq = mid
    assert (origin, seq) == (mid.origin, mid.seq) == (mid[0], mid[1])
