"""Tests for the torture fuzzer."""

from repro.harness.torture import torture, torture_once


def test_single_run_is_deterministic():
    a = torture_once(7)
    b = torture_once(7)
    assert a == b


def test_batch_runs_clean():
    results = torture(8, start_seed=100)
    assert len(results) == 8
    for result in results:
        assert result.ok, result.violations[:3]


def test_describe_mentions_seed():
    result = torture_once(3)
    assert "seed=3" in result.describe()
    assert "ok" in result.describe() or "VIOLATIONS" in result.describe()


def test_cli_torture(capsys):
    from repro.harness.runner import main

    assert main(["torture", "-n", "3", "--seed", "50"]) == 0
    out = capsys.readouterr().out
    assert "3/3 scenarios clean" in out


def test_engine_exception_is_graded_and_the_next_seed_runs(monkeypatch, capsys):
    from repro.errors import DuplicateMidError
    from repro.harness import torture as torture_module
    from repro.harness.runner import main

    class ExplodingCluster(torture_module.SimCluster):
        def __init__(self, *args, seed, **kwargs):
            super().__init__(*args, seed=seed, **kwargs)
            self.exploding = seed == 101

        def run_until_quiescent(self, **kwargs):
            if self.exploding:
                raise DuplicateMidError("m0:3 inserted twice")
            return super().run_until_quiescent(**kwargs)

    monkeypatch.setattr(torture_module, "SimCluster", ExplodingCluster)
    results = torture(3, start_seed=100)
    assert [r.seed for r in results] == [100, 101, 102]
    assert [r.ok for r in results] == [True, False, True]
    failed = results[1]
    assert [(v.guarantee, v.verdict) for v in failed.verdicts] == [
        ("no-exception", "violated")
    ]
    assert failed.violations == ("seed 101 raised DuplicateMidError: m0:3 inserted twice",)
    assert failed.evidence["exception"] == "DuplicateMidError"
    assert failed.evidence["traceback"].startswith("test_torture.py:")
    assert "run_until_quiescent < torture.py:" in failed.evidence["traceback"]

    assert main(["torture", "-n", "3", "--seed", "100"]) == 1
    out = capsys.readouterr().out
    assert "seed 101 raised DuplicateMidError" in out
    assert "reproduce: python -m repro torture --iterations 1 --seed 101" in out
    assert "2/3 scenarios clean" in out
