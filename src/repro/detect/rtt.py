"""Round-trip-time estimation for sizing protocol rounds.

The paper pins the protocol's timing to the network: "by assuming the
subrun as long as the round trip delay".  On a real deployment the rtd
is not known a priori and drifts with load, so a node sizes its rounds
from a live estimate: a smoothed RTT (EWMA plus deviation, the classic
RFC 6298 shape) fed by request→decision echoes or explicit probes.

:class:`RttEstimator` is the pure estimation logic;
:class:`AdaptiveRoundTimer` turns an estimate into the round interval
(half the smoothed rtd, clamped), which the asyncio node can consult
every tick.  The estimator lives with the detectors because the
heartbeat detector times its per-peer suspicion with it;
:mod:`repro.runtime` re-exports both names.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = ["RttEstimator", "AdaptiveRoundTimer"]


class RttEstimator:
    """Smoothed RTT with mean deviation (RFC 6298-style).

    ``initial_timeout`` is the pre-sample retransmission timeout (RFC
    6298 §2.1 mandates a conservative initial RTO — 1 second here):
    before the first sample, :meth:`timeout` has no estimate to bound,
    and returning a zero deadline would make a retransmit/suspicion
    caller spin.  Pass ``initial_timeout=None`` to opt out, in which
    case every pre-sample :meth:`timeout` call must supply a positive
    ``floor``.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.125,
        beta: float = 0.25,
        initial_timeout: float | None = 1.0,
    ) -> None:
        if not 0 < alpha < 1 or not 0 < beta < 1:
            raise ConfigError("alpha and beta must be in (0, 1)")
        if initial_timeout is not None and initial_timeout <= 0:
            raise ConfigError(
                f"initial_timeout must be > 0 (or None), got {initial_timeout}"
            )
        self.alpha = alpha
        self.beta = beta
        self.initial_timeout = initial_timeout
        self._srtt: float | None = None
        self._rttvar: float = 0.0
        self.samples = 0

    @property
    def smoothed(self) -> float | None:
        """Current smoothed RTT (None before the first sample)."""
        return self._srtt

    @property
    def deviation(self) -> float:
        return self._rttvar

    def observe(self, rtt: float) -> None:
        """Fold one RTT sample (seconds)."""
        if rtt < 0:
            raise ConfigError(f"rtt must be >= 0, got {rtt}")
        self.samples += 1
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2
            return
        self._rttvar = (1 - self.beta) * self._rttvar + self.beta * abs(
            self._srtt - rtt
        )
        self._srtt = (1 - self.alpha) * self._srtt + self.alpha * rtt

    def timeout(self, *, k: float = 4.0, floor: float = 0.0) -> float:
        """A conservative bound: ``srtt + k * rttvar`` (>= floor).

        Before the first sample there is no estimate; the result is
        then ``max(initial_timeout, floor)`` — never the bare (default
        0.0) floor, which would spin a retransmit or suspicion loop.
        With ``initial_timeout=None`` a positive ``floor`` is required
        pre-sample.
        """
        if self._srtt is None:
            if self.initial_timeout is None:
                if floor <= 0:
                    raise ConfigError(
                        "no RTT sample yet: timeout() needs a positive floor "
                        "when initial_timeout is None"
                    )
                return floor
            return max(self.initial_timeout, floor)
        return max(self._srtt + k * self._rttvar, floor)


class AdaptiveRoundTimer:
    """Derives the round interval from a live RTT estimate.

    One subrun should span one rtd, so one round spans half the
    conservative RTT bound, clamped to ``[min_interval,
    max_interval]``.  Before any sample arrives the initial interval
    is used.
    """

    def __init__(
        self,
        *,
        initial: float = 0.02,
        min_interval: float = 0.002,
        max_interval: float = 1.0,
        estimator: RttEstimator | None = None,
    ) -> None:
        if not 0 < min_interval <= initial <= max_interval:
            raise ConfigError(
                f"need 0 < min <= initial <= max, got "
                f"{min_interval}/{initial}/{max_interval}"
            )
        self.initial = initial
        self.min_interval = min_interval
        self.max_interval = max_interval
        # One round is half an rtd, so the pre-sample rtd guess that is
        # consistent with `initial` is twice it.
        self.estimator = estimator or RttEstimator(initial_timeout=2 * initial)

    def observe(self, rtt: float) -> None:
        self.estimator.observe(rtt)

    def interval(self) -> float:
        """Current round interval (seconds)."""
        if self.estimator.smoothed is None:
            return self.initial
        half_rtd = self.estimator.timeout(floor=self.min_interval * 2) / 2
        return min(max(half_rtd, self.min_interval), self.max_interval)
