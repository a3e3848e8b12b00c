"""Failover/rebalance chaos scenarios (PROTOCOL §14.7-14.8)."""

from repro.harness.adversarial import SCENARIOS
from repro.svc.chaos import SVC_SCENARIOS, run_svc_scenario


class TestScenarioRuns:
    def test_frontend_failover_survives(self):
        result = run_svc_scenario("frontend-failover", seed=1)
        assert result.ok, [v for v in result.verdicts if v.verdict != "survived"]
        assert result.evidence["failovers"] == 2
        assert result.evidence["dropped_pdus"] == 0
        assert result.evidence["deliveries"] > 0

    def test_shard_rebalance_survives(self):
        result = run_svc_scenario("shard-rebalance", seed=1)
        assert result.ok, [v for v in result.verdicts if v.verdict != "survived"]
        assert result.evidence["moved_topics"] > 0
        # One fence crosses the bridge per (old, new) shard pair.
        assert result.evidence["bridged"] > 0

    def test_verdict_shape(self):
        result = run_svc_scenario("frontend-failover", seed=0)
        names = {v.guarantee for v in result.verdicts}
        assert names == {
            "causal-delivery",
            "bridge-ordering",
            "acked-durability",
            "stream-integrity",
        }
        for v in result.verdicts:
            assert v.expected == "survived"


class TestRegistry:
    def test_family_registered_with_adversarial_scenarios(self):
        assert set(SVC_SCENARIOS) <= set(SCENARIOS)
        assert set(SVC_SCENARIOS) == {
            "frontend-failover",
            "shard-rebalance",
            "failover-storm",
        }

    def test_registered_runner_executes(self):
        import asyncio

        run = SCENARIOS["frontend-failover"]
        result = asyncio.run(run(0, budget=1, round_interval=0.01))
        assert result.name == "frontend-failover"
        assert result.ok
