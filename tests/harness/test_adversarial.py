"""Adversarial scenario harness: verdict model + fast live smokes."""

import pytest

from repro.analysis.verdict import Verdict, results_as_json
from repro.core.config import FailureDetectorConfig, UrcgcConfig
from repro.harness.adversarial import SCENARIOS, run_scenario
from repro.net.faults import FaultPlan
from repro.harness.cluster import SimCluster
from repro.types import ProcessId
from repro.workloads.generators import ScriptedWorkload


# ----------------------------------------------------------------------
# verdict model
# ----------------------------------------------------------------------


def test_guarantee_report_ranks_verdicts():
    assert Verdict("total-order", "survived", "survived").ok
    assert Verdict("total-order", "survived", "degraded").ok
    assert Verdict("total-order", "degraded", "degraded").ok
    assert not Verdict("total-order", "degraded", "survived").ok
    assert not Verdict("total-order", "violated", "degraded").ok
    assert Verdict("total-order", "violated", "violated").ok


def test_guarantee_report_renders_violated_by_design():
    report = Verdict("view-agreement", "violated", "violated")
    assert "violated-by-design" in report.describe()
    assert report.as_dict()["by_design"] is True
    benign = Verdict("view-agreement", "survived", "survived")
    assert benign.as_dict()["by_design"] is False


def test_guarantee_report_rejects_unknown_verdicts():
    with pytest.raises(ValueError):
        Verdict("total-order", "shrugged", "survived")
    with pytest.raises(ValueError):
        Verdict("total-order", "survived", "shrugged")


def test_unknown_scenario_name_raises():
    with pytest.raises(KeyError):
        run_scenario("black-swan")


# ----------------------------------------------------------------------
# live smokes (the full sweep runs in CI's adversarial-chaos job)
# ----------------------------------------------------------------------


def test_forged_deps_scenario_survives_and_sheds_forgeries():
    result = run_scenario("forged-deps", seed=1, budget=15.0)
    assert result.ok, result.describe()
    assert result.evidence["decode_errors"] > 0
    assert {v.guarantee for v in result.verdicts} == {
        "causal-delivery",
        "total-order",
        "view-agreement",
    }


def test_equivocation_scenario_detects_the_fork():
    result = run_scenario("equivocation", seed=1, budget=15.0)
    assert result.ok, result.describe()
    assert result.evidence["equivocations_detected"] > 0


def test_scenarios_as_json_rollup():
    result = run_scenario("coordinator-crash", seed=1, budget=15.0)
    payload = results_as_json([result], experiment="adversarial-chaos")
    assert payload["runs"] == 1
    assert payload["clean"] in (0, 1)
    record = payload["results"][0]
    assert record["family"] == "scenario"
    assert record["name"] == "coordinator-crash"
    assert len(record["verdicts"]) == 3


def test_registry_names_are_the_documented_fault_family():
    assert set(SCENARIOS) == {
        # §13.2 adversarial faults
        "coordinator-crash",
        "zombie-rejoin",
        "forged-deps",
        "equivocation",
        "heartbeat-suppression",
        # §14.7-14.8 service-tier failover/rebalance
        "frontend-failover",
        "shard-rebalance",
        "failover-storm",
    }


# ----------------------------------------------------------------------
# the sim driver speaks the same detector protocol
# ----------------------------------------------------------------------


def test_sim_cluster_runs_with_heartbeat_detector_and_crash():
    plan = FaultPlan()
    cluster = SimCluster(
        UrcgcConfig(
            n=4,
            K=2,
            failure_detector=FailureDetectorConfig(kind="heartbeat"),
        ),
        workload=ScriptedWorkload(
            {r: [(ProcessId(r % 3), f"m{r}".encode())] for r in range(0, 60, 6)}
        ),
        faults=plan,
        max_rounds=200,
    )
    plan.crashes.crash(ProcessId(3), 6.0)
    cluster.run_until_quiescent()
    assert cluster.quiescent()
    # The survivors eventually suspected the silent crashed member.
    suspected = {
        event.pid for _, event in cluster.suspicion_events if event.suspected
    }
    assert 3 in suspected
