"""The serve demo harness and its checker wiring."""

from repro.svc.serve import registry_report, serve


class TestServe:
    def test_small_run_clean(self):
        result = serve(
            shards=2, clients=10_000, sessions=6, messages=24, topics=16, seed=3
        )
        assert result.ok, result.violations
        assert result.deliveries > 0
        assert result.quiesced

    def test_client_scale_reported_from_registry(self):
        result = serve(
            shards=2, clients=500_000, sessions=4, messages=10, topics=8, seed=1
        )
        assert float(result.registry.gauge("svc.clients.registered")) == 500_000
        assert float(result.registry.gauge("svc.shards")) == 2

    def test_deterministic(self):
        a = serve(shards=2, clients=1000, sessions=5, messages=20, seed=7)
        b = serve(shards=2, clients=1000, sessions=5, messages=20, seed=7)
        assert a.deliveries == b.deliveries
        assert a.bridged == b.bridged
        assert a.pdus_moved == b.pdus_moved

    def test_multi_ratio_zero_never_bridges(self):
        result = serve(
            shards=4, clients=1000, sessions=6, messages=30, multi_ratio=0.0, seed=2
        )
        assert result.bridged == 0
        assert result.ok

    def test_wall_clock_rates_reported(self):
        result = serve(shards=2, clients=1000, sessions=4, messages=10, seed=5)
        assert result.wall_s > 0
        assert result.acked == result.publishes == 10  # a settled run acks all
        line = result.describe()
        assert f"{result.acked / result.wall_s:.0f} acked publishes/s" in line
        assert f"{result.deliveries / result.wall_s:.0f} deliveries/s" in line

    def test_report_renders(self):
        result = serve(shards=2, clients=1000, sessions=4, messages=10, seed=5)
        report = registry_report(result.registry)
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
        assert "serve[OK]" in out
        assert report_path.read_text().startswith("serve[OK]")
        assert "deliveries/s" in report_path.read_text().splitlines()[0]
