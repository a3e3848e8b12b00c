"""Eventually-perfect heartbeat failure detector.

Every member broadcasts a HEARTBEAT PDU once per ``heartbeat_every``
subruns (any other PDU from a peer counts as liveness evidence too).
Per peer, the detector feeds the observed inter-evidence gaps — in
*round* units, the protocol's native clock — into an
:class:`~repro.detect.rtt.RttEstimator` and suspects the peer once
its silence exceeds a conservative bound::

    timeout(p) = min(max_timeout,
                     scale(p) * max(srtt + k * dev, timeout_floor))

``scale(p)`` starts at 1 and multiplies by ``backoff`` every time a
suspicion proves false (evidence arrives from a suspected peer), so in
a partially synchronous run every peer's timeout eventually exceeds
its true maximum gap and false suspicions stop: the detector converges
to eventual perfection (◇P) — eventual strong accuracy from the
backoff, strong completeness because a crashed peer's silence grows
without bound while its timeout is capped at ``max_timeout``.

The leave-rule surface is inherited unchanged from
:class:`~repro.detect.kconsecutive.KConsecutiveDetector`: suspicion
augments the paper's rule (STRICT-rule coordinator excusal, decision
accounting), it does not replace it.
"""

from __future__ import annotations

from ..core.config import FailureDetectorConfig, UrcgcConfig
from ..types import ProcessId, SubrunNo
from .base import SuspicionEvent
from .kconsecutive import KConsecutiveDetector
from .rtt import RttEstimator

__all__ = ["HeartbeatDetector"]


class HeartbeatDetector(KConsecutiveDetector):
    """Timeout-with-backoff suspicion over heartbeat/traffic evidence."""

    name = "heartbeat"
    wants_heartbeats = True
    tracks_suspicion = True

    def __init__(self, pid: ProcessId, config: UrcgcConfig) -> None:
        super().__init__(config)
        spec = config.failure_detector or FailureDetectorConfig()
        self._pid = pid
        self._n = config.n
        self._spec = spec
        #: Current time in rounds (advanced by the driver's round clock).
        self._time = 0.0
        self._last_seen: dict[ProcessId, float] = {}
        self._gaps: dict[ProcessId, RttEstimator] = {}
        self._scale: dict[ProcessId, float] = {}
        self._suspected: set[ProcessId] = set()
        self._events: list[SuspicionEvent] = []
        #: Total suspect transitions ever (reports/metrics).
        self.suspicions_total = 0
        self.false_suspicions_total = 0

    # -- suspicion surface --------------------------------------------

    def advance(self, round_no: int) -> None:
        self._time = float(round_no)
        if not self._last_seen:
            # First tick: give every peer a full timeout of grace.
            for k in range(self._n):
                pid = ProcessId(k)
                if pid != self._pid:
                    self._last_seen[pid] = self._time
            return
        for pid, seen in self._last_seen.items():
            if pid in self._suspected:
                continue
            silence = self._time - seen
            bound = self._timeout(pid)
            if silence > bound:
                self._suspected.add(pid)
                self.suspicions_total += 1
                self._events.append(
                    SuspicionEvent(
                        pid,
                        True,
                        f"silent {silence:g} rounds (timeout {bound:g})",
                    )
                )

    def observe_alive(self, pid: ProcessId) -> None:
        if pid == self._pid or not 0 <= pid < self._n:
            return
        seen = self._last_seen.get(pid)
        if seen is not None:
            gap = self._time - seen
            if gap > 0:
                self._estimator(pid).observe(gap)
        self._last_seen[pid] = self._time
        if pid in self._suspected:
            # False suspicion: the peer was alive all along.  Back off
            # so the same gap never trips the timeout again.
            self._suspected.discard(pid)
            self.false_suspicions_total += 1
            self._scale[pid] = self._scale.get(pid, 1.0) * self._spec.backoff
            self._events.append(
                SuspicionEvent(pid, False, "evidence from suspected peer")
            )

    def observe_heartbeat(self, pid: ProcessId, incarnation: int) -> None:
        self.observe_alive(pid)

    def heartbeat_due(self, subrun: SubrunNo) -> bool:
        return subrun % self._spec.heartbeat_every == 0

    def suspects(self) -> frozenset[ProcessId]:
        return frozenset(self._suspected)

    def poll_events(self) -> list[SuspicionEvent]:
        events = self._events
        self._events = []
        return events

    # -- internals ----------------------------------------------------

    def _estimator(self, pid: ProcessId) -> RttEstimator:
        estimator = self._gaps.get(pid)
        if estimator is None:
            # Pre-sample gap guess: one heartbeat period in rounds.
            estimator = self._gaps[pid] = RttEstimator(
                initial_timeout=2.0 * self._spec.heartbeat_every
            )
        return estimator

    def _timeout(self, pid: ProcessId) -> float:
        base = self._estimator(pid).timeout(
            k=self._spec.timeout_k, floor=self._spec.timeout_floor
        )
        return min(self._spec.max_timeout, self._scale.get(pid, 1.0) * base)
