"""Tests for the live chaos harness and its auditing path."""

from repro.analysis.verdict import RunResult, audit_delivery, grade, results_as_json
from repro.core.message import UserMessage
from repro.core.mid import Mid
from repro.harness.live_torture import audit_streams, live_torture_once
from repro.types import ProcessId

P0, P1 = ProcessId(0), ProcessId(1)


def _result(seed, violations=()):
    return RunResult(
        family="chaos",
        name="chaos",
        seed=seed,
        quiesced=True,
        verdicts=(grade("causal-delivery", list(violations)), grade("total-order", [])),
        evidence={"n": 3, "K": 2, "messages": 3},
        wall_time=0.5,
    )


def test_clean_live_run():
    result = live_torture_once(0, budget=20.0, round_interval=0.004)
    assert result.seed == 0
    assert result.quiesced
    assert result.ok, result.violations[:3]


def test_audit_catches_permuted_log():
    """Feed the checkers a deliberately-broken log: a message delivered
    before its declared dependency.  The audit must fire — proof the
    harness would catch a real ordering bug, not vacuously pass."""
    m1 = UserMessage(Mid(P0, 1), deps=())
    m2 = UserMessage(Mid(P0, 2), deps=(m1.mid,))
    good = [m1, m2]
    permuted = [m2, m1]
    processed_by = {m1.mid: {P0, P1}, m2.mid: {P0, P1}}
    generated = [m1.mid, m2.mid]

    assert (
        audit_streams(
            {P0: good, P1: good},
            generated,
            processed_by,
            {P0, P1},
            set(),
            converged=True,
        )
        == []
    )
    violations = audit_streams(
        {P0: good, P1: permuted},
        generated,
        processed_by,
        {P0, P1},
        set(),
        converged=True,
    )
    assert violations  # causal order and/or uniform ordering broken


def test_each_causal_violation_reported_once():
    """One inverted pair at one of two sites is three local-causal-order
    defects (a missing dependency and two seq jumps), each reported
    once, and filed under causal-delivery, not total-order."""
    m1 = UserMessage(Mid(P0, 1), deps=())
    m2 = UserMessage(Mid(P0, 2), deps=(m1.mid,))
    logs = (
        {P0: [m1, m2], P1: [m2, m1]},
        [m1.mid, m2.mid],
        {m1.mid: {P0, P1}, m2.mid: {P0, P1}},
        {P0, P1},
        set(),
    )
    violations = audit_streams(*logs, converged=True)
    causal = [v for v in violations if v.startswith("[local-causal-order]")]
    assert len(causal) == len(set(causal)) == 3

    delivery, order = audit_delivery(*logs, converged=True)
    assert delivery.guarantee == "causal-delivery"
    assert delivery.verdict == "violated"
    assert list(delivery.violations) == causal
    assert order.verdict == "violated"  # p1's origin-0 subsequence conflicts
    assert all("local-causal-order" not in v for v in order.violations)


def test_audit_catches_atomicity_hole():
    """A message one active member processed and another did not (and
    that nobody discarded) violates Uniform Atomicity when converged."""
    m1 = UserMessage(Mid(P0, 1), deps=())
    violations = audit_streams(
        {P0: [m1], P1: []},
        [m1.mid],
        {m1.mid: {P0}},
        {P0, P1},
        set(),
        converged=True,
    )
    assert violations


def test_violating_result_reports_seed():
    result = _result(412, ["uniform ordering broken at p1"])
    assert not result.ok
    text = result.describe()
    assert "seed=412" in text
    assert "FAIL" in text
    assert "uniform ordering broken at p1" in text


def test_results_as_json_shape():
    results = [_result(5), _result(6, ["boom"])]
    payload = results_as_json(results, experiment="chaos")
    assert payload["experiment"] == "chaos"
    assert payload["runs"] == 2
    assert payload["clean"] == 1
    assert payload["quiesced"] == 2
    assert payload["failing"] == [{"name": "chaos", "seed": 6}]
    assert payload["results"][1]["verdicts"][0]["violations"] == ["boom"]
    assert payload["results"][0]["seed"] == 5
    assert payload["results"][0]["evidence"]["n"] == 3


def test_cli_chaos(capsys):
    from repro.harness.runner import main

    assert main(["chaos", "-n", "2", "--seed", "0", "--budget", "20"]) == 0
    out = capsys.readouterr().out
    assert "2/2 scenarios clean" in out


def test_cli_chaos_reports_reproducing_seed(capsys, monkeypatch):
    """When a scenario fails, the CLI prints the exact command that
    replays it — the seed is the whole reproduction recipe."""
    import sys

    lt = sys.modules["repro.harness.live_torture"]
    broken = _result(777, ["injected violation"])
    monkeypatch.setattr(lt, "live_torture", lambda *a, **k: [broken])
    from repro.harness.runner import main

    assert main(["chaos", "-n", "1", "--seed", "777"]) == 1
    out = capsys.readouterr().out
    assert "reproduce: python -m repro chaos --iterations 1 --seed 777" in out
