"""Message identifiers.

Every urcgc message carries a *mid* that uniquely identifies it: the
generating process and the progressive order the process assigned
(Section 4: "it assigns to msg a progressive order").  Under the
paper's intermediate causality interpretation each process roots one
sequence, so ``(origin, seq)`` totally orders messages within an
origin, and ``seq`` starts at 1 (0 is the "nothing yet" sentinel used
in ``last_processed``-style vectors).

A :class:`Mid` is a value: a slotted ``(origin, seq)`` tuple, so its
hash, equality and ordering run in C.  Every member holds the same ids
many times over (each copy's dependencies, the waiting list, the
delivered log), so construction interns: while an id sits in a
two-generation table, ``Mid(o, s)`` returns the one object already
made for it.  The table is process-wide because decoding happens before
any group sees a datagram.  It is bounded at two generations of
``_SPAN`` ids each: an id not asked for during a whole generation is
dropped from it, and a later ``Mid(o, s)`` makes a new, equal object.
Nothing may therefore key on a mid's identity.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ..errors import CausalityViolationError
from ..types import ProcessId, SeqNo

__all__ = ["Mid", "NO_MESSAGE"]

#: Sentinel sequence number meaning "no message of this origin yet".
NO_MESSAGE: SeqNo = SeqNo(0)

#: Ids one generation of the intern table holds before it becomes the
#: old generation (and the old one is dropped).
_SPAN = 1 << 14


class _MidFields(NamedTuple):
    origin: ProcessId
    seq: SeqNo


class Mid(_MidFields):
    """Unique message id: ``(origin process, progressive order)``."""

    __slots__ = ()

    def __new__(cls, origin: ProcessId, seq: SeqNo) -> "Mid":
        key = (origin, seq)
        mid = _young.get(key)
        if mid is None:
            mid = _old.get(key)
            if mid is None:
                if seq < 1:
                    raise CausalityViolationError(
                        f"message sequence numbers start at 1, got {seq}"
                    )
                if origin < 0:
                    raise CausalityViolationError(f"negative origin {origin}")
                mid = tuple.__new__(cls, key)
            _remember(mid)
        return mid

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Mid":
        # ``_replace`` builds through here: keep it on the checked,
        # interning path rather than namedtuple's bare tuple.__new__.
        origin, seq = iterable
        return cls(ProcessId(origin), SeqNo(seq))

    def __reduce__(self) -> tuple[type["Mid"], tuple[int, int]]:
        # pickle and copy rebuild through ``Mid(...)``: the interned object.
        return (Mid, (self.origin, self.seq))

    @property
    def predecessor(self) -> "Mid | None":
        """The previous message of the same sequence (None for the root)."""
        if self.seq == 1:
            return None
        return Mid(self.origin, SeqNo(self.seq - 1))

    def __str__(self) -> str:
        return f"m({self.origin},{self.seq})"


_young: dict[tuple[int, int], Mid] = {}
_old: dict[tuple[int, int], Mid] = {}


def _remember(mid: Mid) -> None:
    """Record ``mid`` in the young generation, retiring it when full."""
    global _young, _old
    if len(_young) >= _SPAN:
        _young, _old = {}, _young
    _young[mid] = mid
