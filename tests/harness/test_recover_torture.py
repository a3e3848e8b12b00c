"""Tests for the crash-and-recover torture harness."""

from repro.analysis.verdict import RunResult, grade, results_as_json
from repro.harness.recover_torture import recover_torture, recover_torture_once


def _result(seed, violations=(), recovered=True):
    return RunResult(
        family="recover",
        name="recover",
        seed=seed,
        quiesced=True,
        verdicts=(
            grade("causal-delivery", list(violations)),
            grade("recovery", [] if recovered else ["[recovery] p1: stuck"]),
        ),
        evidence={"n": 3, "K": 2, "victim": 1, "wal_replayed": 3},
        wall_time=0.5,
    )


def _verdict(result, guarantee):
    return next(v for v in result.verdicts if v.guarantee == guarantee).verdict


def test_clean_recover_run():
    result = recover_torture_once(0, budget=25.0, round_interval=0.004)
    assert _verdict(result, "recovery") == "survived", result.violations[:3]
    assert result.ok, result.violations[:3]
    assert [v.guarantee for v in result.verdicts] == [
        "causal-delivery",
        "total-order",
        "prefix-consistency",
        "recovery",
    ]
    evidence = result.evidence
    assert evidence["post_recovery_deliveries"] > evidence["pre_crash_deliveries"]


def test_coordinator_crash_seed_recovers():
    # Seed 0 draws a coordinator crash (stable: rng is seed-derived).
    result = recover_torture_once(0, budget=25.0, round_interval=0.004)
    assert result.evidence["coordinator_crash"] == 1
    assert _verdict(result, "recovery") == "survived"


def test_multiple_seeds_all_clean():
    results = recover_torture(3, start_seed=1, budget=25.0, round_interval=0.004)
    assert len(results) == 3
    for result in results:
        assert result.ok, (result.seed, result.violations[:3])


def test_describe_mentions_status():
    assert "  ok  " in _result(1).describe()
    assert "FAIL causal-delivery" in _result(2, violations=("x",)).describe()
    assert "FAIL recovery" in _result(3, recovered=False).describe()


def test_results_as_json_rollup():
    payload = results_as_json(
        [_result(1), _result(2, violations=("v",))], experiment="recover"
    )
    assert payload["experiment"] == "recover"
    assert payload["runs"] == 2
    assert payload["clean"] == 1
    assert payload["failing"] == [{"name": "recover", "seed": 2}]
    assert payload["results"][0]["seed"] == 1
    assert payload["results"][0]["evidence"]["wal_replayed"] == 3
