"""Tests for RTT estimation and adaptive round timing."""

import asyncio

import pytest

from repro.core.config import UrcgcConfig
from repro.errors import ConfigError
from repro.runtime.lan import AsyncLan
from repro.runtime.node import AsyncNode
from repro.detect.rtt import AdaptiveRoundTimer, RttEstimator
from repro.types import ProcessId


class TestRttEstimator:
    def test_first_sample_initializes(self):
        estimator = RttEstimator()
        assert estimator.smoothed is None
        estimator.observe(0.1)
        assert estimator.smoothed == 0.1
        assert estimator.deviation == 0.05

    def test_smoothing_converges(self):
        estimator = RttEstimator()
        for _ in range(100):
            estimator.observe(0.2)
        assert estimator.smoothed == pytest.approx(0.2, rel=0.01)
        assert estimator.deviation == pytest.approx(0.0, abs=0.01)

    def test_jitter_raises_deviation(self):
        steady = RttEstimator()
        jittery = RttEstimator()
        for i in range(50):
            steady.observe(0.1)
            jittery.observe(0.05 if i % 2 else 0.15)
        assert jittery.deviation > steady.deviation

    def test_timeout_bound(self):
        estimator = RttEstimator()
        estimator.observe(0.1)
        assert estimator.timeout() >= 0.1

    def test_pre_sample_timeout_is_conservative(self):
        # Regression: timeout() before any sample used to return the
        # bare floor — 0.0 by default — which spins a retransmit loop.
        estimator = RttEstimator()
        assert estimator.timeout() == 1.0  # RFC 6298 initial RTO
        assert estimator.timeout(floor=0.3) == 1.0  # initial dominates
        assert estimator.timeout(floor=2.5) == 2.5  # larger floor wins

    def test_pre_sample_timeout_opt_out_requires_floor(self):
        estimator = RttEstimator(initial_timeout=None)
        assert estimator.timeout(floor=0.3) == 0.3
        with pytest.raises(ConfigError):
            estimator.timeout()  # no sample, no initial, no floor

    def test_first_sample_supersedes_initial(self):
        estimator = RttEstimator()
        estimator.observe(0.1)
        assert estimator.timeout() == pytest.approx(0.1 + 4 * 0.05)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RttEstimator(alpha=0)
        with pytest.raises(ConfigError):
            RttEstimator().observe(-1)
        with pytest.raises(ConfigError):
            RttEstimator(initial_timeout=0.0)
        with pytest.raises(ConfigError):
            RttEstimator(initial_timeout=-1.0)


class TestAdaptiveRoundTimer:
    def test_initial_interval_before_samples(self):
        timer = AdaptiveRoundTimer(initial=0.05)
        assert timer.interval() == 0.05

    def test_tracks_half_rtd(self):
        timer = AdaptiveRoundTimer(initial=0.05, max_interval=10.0)
        for _ in range(100):
            timer.observe(0.2)
        # One round = half the (conservative) rtd estimate.
        assert 0.09 <= timer.interval() <= 0.15

    def test_clamping(self):
        timer = AdaptiveRoundTimer(
            initial=0.05, min_interval=0.04, max_interval=0.06
        )
        for _ in range(10):
            timer.observe(10.0)
        assert timer.interval() == 0.06
        fast = AdaptiveRoundTimer(
            initial=0.05, min_interval=0.04, max_interval=0.06
        )
        for _ in range(10):
            fast.observe(0.0001)
        assert fast.interval() == 0.04

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveRoundTimer(initial=0.001, min_interval=0.01)


def test_adaptive_group_converges_and_samples_rtt():
    """A live group with adaptive timers still agrees, and the timers
    actually collected request->decision samples."""

    async def main():
        lan = AsyncLan(latency=0.005)
        timers = [
            AdaptiveRoundTimer(initial=0.03, min_interval=0.005)
            for _ in range(3)
        ]
        nodes = [
            AsyncNode(
                ProcessId(i),
                UrcgcConfig(n=3),
                lan,
                adaptive_timer=timers[i],
            )
            for i in range(3)
        ]
        for node in nodes:
            node.start()
        try:
            for i, node in enumerate(nodes):
                node.submit(f"m{i}".encode())

            async def done():
                while True:
                    vectors = {n.member.last_processed_vector() for n in nodes}
                    sampled = any(t.estimator.samples > 0 for t in timers)
                    if vectors == {(1, 1, 1)} and sampled:
                        return
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(done(), 15)
        finally:
            for node in nodes:
                await node.stop()
        # The non-coordinator nodes sampled RTTs (a node that was
        # coordinator of a subrun applies its own decision: no echo).
        assert any(t.estimator.samples > 0 for t in timers)
        for timer in timers:
            if timer.estimator.samples:
                assert timer.interval() >= 0.005

    asyncio.run(main())
