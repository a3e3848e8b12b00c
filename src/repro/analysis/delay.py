"""End-to-end delay accounting (Figure 4's measured quantity).

The paper defines the mean end-to-end delay ``D`` as "the average
elapsed time ... from the time a message is generated by the user to
the time it is processed by the group".  The :class:`DeliveryLog`
records generation and per-process processing instants and reduces
them to the group-processing delay: the time until every process in
the *final* active membership has processed the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.mid import Mid
from ..obs.metrics import Summary, summarize
from ..types import ProcessId, Time

__all__ = ["DeliveryLog", "DelayReport"]


@dataclass(frozen=True)
class DelayReport:
    """Delay statistics over the completed messages of one run."""

    group_delay: Summary
    first_delivery_delay: Summary
    complete_messages: int
    incomplete_messages: int
    discarded_messages: int

    @property
    def empty(self) -> bool:
        """True when no message completed — the delay summaries then
        carry no samples and every statistic is NaN."""
        return self.complete_messages == 0

    @property
    def mean_delay(self) -> float:
        """The paper's D, in rtd units (NaN when :attr:`empty`: a run
        with zero completed messages measured nothing, and pretending
        D=0 would read as an infinitely fast group)."""
        return self.group_delay.mean


@dataclass
class DeliveryLog:
    """Generation and processing instants, by mid and process."""

    generated_at: dict[Mid, Time] = field(default_factory=dict)
    processed_at: dict[Mid, dict[ProcessId, Time]] = field(default_factory=dict)
    discarded: set[Mid] = field(default_factory=set)

    def on_generated(self, mid: Mid, time: Time) -> None:
        self.generated_at.setdefault(mid, time)

    def on_processed(self, mid: Mid, pid: ProcessId, time: Time) -> None:
        self.processed_at.setdefault(mid, {})[pid] = time

    def on_discarded(self, mids: tuple[Mid, ...]) -> None:
        self.discarded.update(mids)

    def deliveries_of(self, mid: Mid) -> dict[ProcessId, Time]:
        return dict(self.processed_at.get(mid, {}))

    def report(self, final_members: set[ProcessId]) -> DelayReport:
        """Reduce to delay statistics over ``final_members``.

        A message is *complete* when every final member processed it;
        its group delay is the latest such processing instant minus the
        generation instant.  Messages the orphan rule destroyed are
        counted separately (uniform atomicity allows "none of them").
        """
        group_delays: list[float] = []
        first_delays: list[float] = []
        incomplete = 0
        for mid, start in self.generated_at.items():
            if mid in self.discarded:
                continue
            deliveries = self.processed_at.get(mid, {})
            member_times = [t for p, t in deliveries.items() if p in final_members]
            if not member_times or len(member_times) < len(final_members):
                incomplete += 1
                continue
            group_delays.append(max(member_times) - start)
            other_times = [
                t for p, t in deliveries.items() if p in final_members and t > start
            ]
            if other_times:
                first_delays.append(min(other_times) - start)
        return DelayReport(
            group_delay=summarize(group_delays),
            first_delivery_delay=summarize(first_delays),
            complete_messages=len(group_delays),
            incomplete_messages=incomplete,
            discarded_messages=len(self.discarded & set(self.generated_at)),
        )
