"""Pluggable failure detection (PROTOCOL §13).

The member engine consults a :class:`~repro.detect.base.FailureDetector`
for both of the paper's detection questions — "should I leave?" and
"whom do I suspect?" — selected by
``UrcgcConfig(failure_detector=FailureDetectorConfig(kind=...))``:

* ``"k-consecutive"`` (and ``failure_detector=None``) — the paper's
  rule, extracted verbatim from the member; bit-identical behaviour.
* ``"heartbeat"`` — eventually-perfect timeout-with-backoff over
  HEARTBEAT PDUs (:mod:`repro.detect.heartbeat`), timed by the RTT
  estimator in :mod:`repro.detect.rtt`.
* ``"oracle"`` — a test-driven perfect detector
  (:mod:`repro.detect.oracle`).
"""

from __future__ import annotations

from ..core.config import UrcgcConfig
from ..errors import ConfigError
from ..types import ProcessId
from .base import FailureDetector, SuspicionEvent
from .heartbeat import HeartbeatDetector
from .kconsecutive import KConsecutiveDetector
from .oracle import OracleDetector

__all__ = [
    "FailureDetector",
    "SuspicionEvent",
    "KConsecutiveDetector",
    "OracleDetector",
    "make_detector",
]


def make_detector(pid: ProcessId, config: UrcgcConfig) -> FailureDetector:
    """Build the detector ``config.failure_detector`` selects.

    ``None`` means the paper's K-consecutive rule (the engine's
    historical inline behaviour, bit for bit).
    """
    spec = config.failure_detector
    if spec is None or spec.kind == "k-consecutive":
        return KConsecutiveDetector(config)
    if spec.kind == "heartbeat":
        return HeartbeatDetector(pid, config)
    if spec.kind == "oracle":
        return OracleDetector(config)
    raise ConfigError(f"unknown detector kind {spec.kind!r}")
