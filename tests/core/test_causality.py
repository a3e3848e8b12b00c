"""Unit tests for the causal-relation bookkeeping (Definition 3.1)."""

import pytest

from repro.core.causality import (
    CausalContext,
    ContiguousDependencyTracker,
    validate_deps,
)
from repro.core.mid import Mid
from repro.errors import CausalityViolationError
from repro.types import ProcessId, SeqNo


def m(origin, seq):
    return Mid(ProcessId(origin), SeqNo(seq))


class TestValidateDeps:
    def test_self_dependency_rejected(self):
        with pytest.raises(CausalityViolationError):
            validate_deps(m(0, 2), [m(0, 2)])

    def test_forward_own_dependency_rejected(self):
        with pytest.raises(CausalityViolationError):
            validate_deps(m(0, 2), [m(0, 3)])

    def test_duplicate_origin_rejected(self):
        with pytest.raises(CausalityViolationError):
            validate_deps(m(0, 3), [m(1, 1), m(1, 2)])

    def test_valid_deps_pass(self):
        deps = validate_deps(m(0, 3), [m(0, 2), m(1, 5)])
        assert deps == (m(0, 2), m(1, 5))

    def test_empty_deps_pass(self):
        assert validate_deps(m(0, 1), []) == ()


class TestCausalContext:
    def test_first_message_has_no_deps(self):
        context = CausalContext(ProcessId(0))
        mid, deps = context.next_message()
        assert mid == m(0, 1)
        assert deps == ()

    def test_own_sequence_chains(self):
        context = CausalContext(ProcessId(0))
        context.next_message()
        mid, deps = context.next_message()
        assert mid == m(0, 2)
        assert m(0, 1) in deps

    def test_auto_significant_includes_received(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(1, 4))
        mid, deps = context.next_message()
        assert deps == (m(1, 4),)

    def test_latest_processed_wins(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(1, 2))
        context.note_processed(m(1, 5))
        _, deps = context.next_message()
        assert m(1, 5) in deps
        assert m(1, 2) not in deps

    def test_stale_note_ignored(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(1, 5))
        context.note_processed(m(1, 2))
        _, deps = context.next_message()
        assert m(1, 5) in deps

    def test_own_messages_not_noted(self):
        context = CausalContext(ProcessId(0))
        context.note_processed(m(0, 9))  # no-op: own sequence is implicit
        mid, deps = context.next_message()
        assert deps == ()

    def test_manual_significance(self):
        context = CausalContext(ProcessId(0), auto_significant=False)
        context.note_processed(m(1, 1))
        context.note_processed(m(2, 1))
        context.mark_significant(ProcessId(2))
        _, deps = context.next_message()
        assert deps == (m(2, 1),)
        # Significance is consumed: next message depends only on own chain.
        _, deps2 = context.next_message()
        assert deps2 == (m(0, 1),)

    def test_mark_significant_own_rejected(self):
        context = CausalContext(ProcessId(0))
        with pytest.raises(CausalityViolationError):
            context.mark_significant(ProcessId(0))

    def test_deps_bounded_by_n(self):
        """Intermediate interpretation: at most n dependencies."""
        context = CausalContext(ProcessId(0))
        for origin in range(1, 10):
            context.note_processed(m(origin, 1))
        context.next_message()
        _, deps = context.next_message()
        assert len(deps) <= 10


class TestContiguousTracker:
    def test_in_order_processing(self):
        tracker = ContiguousDependencyTracker()
        tracker.mark_processed(m(0, 1))
        tracker.mark_processed(m(0, 2))
        assert tracker.is_processed(m(0, 1))
        assert tracker.is_processed(m(0, 2))
        assert not tracker.is_processed(m(0, 3))
        assert tracker.last_processed(ProcessId(0)) == 2

    def test_out_of_order_rejected(self):
        tracker = ContiguousDependencyTracker()
        with pytest.raises(CausalityViolationError):
            tracker.mark_processed(m(0, 2))

    def test_double_processing_rejected(self):
        tracker = ContiguousDependencyTracker()
        tracker.mark_processed(m(0, 1))
        with pytest.raises(CausalityViolationError):
            tracker.mark_processed(m(0, 1))

    def test_snapshot(self):
        tracker = ContiguousDependencyTracker()
        tracker.mark_processed(m(0, 1))
        tracker.mark_processed(m(2, 1))
        assert tracker.snapshot() == {ProcessId(0): 1, ProcessId(2): 1}
