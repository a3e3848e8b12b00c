"""The serve demo harness and its checker wiring."""

import pytest

from repro.obs import Registry
from repro.svc.serve import registry_report, serve
from repro.svc.session import ClientSession

TIER_GUARANTEES = [
    "causal-delivery",
    "bridge-ordering",
    "acked-durability",
    "stream-integrity",
]


@pytest.fixture
def duplicated_delivery(monkeypatch):
    """Hand the first accepted delivery of the run to its session twice,
    past the session's own dedupe — a stream-integrity defect."""
    original = ClientSession.on_deliver
    doubled: list = []

    def on_deliver(self, deliver):
        original(self, deliver)
        if not doubled and self.delivered and self.delivered[-1] is deliver:
            self.delivered.append(deliver)
            doubled.append(deliver)

    monkeypatch.setattr(ClientSession, "on_deliver", on_deliver)
    return doubled


class TestServe:
    def test_small_run_clean(self):
        result = serve(
            shards=2, clients=10_000, sessions=6, messages=24, topics=16, seed=3
        )
        assert result.ok, result.violations
        assert result.evidence["deliveries"] > 0
        assert result.quiesced

    def test_grades_the_four_tier_guarantees(self):
        result = serve(
            shards=4, members=5, clients=100_000, messages=60,
            kill_frontends=1, ring_changes=1, seed=1,
        )
        assert [v.guarantee for v in result.verdicts] == TIER_GUARANTEES
        assert all(v.verdict == "survived" for v in result.verdicts), result.describe()
        assert result.evidence["failovers"] == 1

    def test_duplicated_delivery_violates_stream_integrity(self, duplicated_delivery):
        result = serve(shards=2, clients=1000, sessions=4, messages=10, seed=5)
        assert duplicated_delivery
        verdicts = {v.guarantee: v.verdict for v in result.verdicts}
        assert verdicts == {
            "causal-delivery": "survived",
            "bridge-ordering": "survived",
            "acked-durability": "survived",
            "stream-integrity": "violated",
        }
        assert not result.ok
        assert any("1 duplicate deliveries" in v for v in result.violations)

    def test_client_scale_reported_from_registry(self):
        registry = Registry()
        serve(
            shards=2, clients=500_000, sessions=4, messages=10, topics=8, seed=1,
            registry=registry,
        )
        assert float(registry.gauge("svc.clients.registered")) == 500_000
        assert float(registry.gauge("svc.shards")) == 2

    def test_deterministic(self):
        a = serve(shards=2, clients=1000, sessions=5, messages=20, seed=7)
        b = serve(shards=2, clients=1000, sessions=5, messages=20, seed=7)
        for key in ("deliveries", "bridged", "pdus_moved"):
            assert a.evidence[key] == b.evidence[key]
        assert a.verdicts == b.verdicts

    def test_multi_ratio_zero_never_bridges(self):
        result = serve(
            shards=4, clients=1000, sessions=6, messages=30, multi_ratio=0.0, seed=2
        )
        assert result.evidence["bridged"] == 0
        assert result.ok

    def test_wall_clock_rates_reported(self):
        result = serve(shards=2, clients=1000, sessions=4, messages=10, seed=5)
        evidence = result.evidence
        assert result.wall_time > 0
        assert evidence["acked"] == evidence["publishes"] == 10  # settled: all acked
        assert evidence["acked_per_s"] == evidence["acked"] / result.wall_time
        assert evidence["deliveries_per_s"] == evidence["deliveries"] / result.wall_time
        line = result.describe().splitlines()[0]
        assert f"acked_per_s={evidence['acked_per_s']:g}" in line
        assert line.endswith(f"deliveries_per_s={evidence['deliveries_per_s']:g}]")

    def test_report_renders(self):
        registry = Registry()
        serve(shards=2, clients=1000, sessions=4, messages=10, seed=5, registry=registry)
        report = registry_report(registry)
        assert "svc.clients.registered" in report
        assert "svc.deliver" in report


class TestServeCli:
    def test_cli_smoke(self, tmp_path, capsys):
        from repro.harness.runner import main

        report_path = tmp_path / "serve-report.txt"
        code = main(
            [
                "serve",
                "--shards", "2",
                "--clients", "50000",
                "--sessions", "6",
                "--messages", "20",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 scenarios clean" in out
        head = report_path.read_text().splitlines()[0]
        assert head.startswith("serve ") and "  ok  " in head
        assert "deliveries_per_s=" in head

    def test_cli_fails_on_a_violated_guarantee(self, capsys, duplicated_delivery):
        from repro.harness.runner import main

        argv = ["serve", "--shards", "2", "--clients", "1000", "--sessions", "4",
                "--messages", "10", "--seed", "5"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL stream-integrity" in out
        assert "0/1 scenarios clean" in out
        assert f"reproduce: python -m repro {' '.join(argv)}" in out
