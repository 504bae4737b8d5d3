"""The `repro server` CLI subcommand end to end."""

from repro.cli import main
from repro.gateway.telemetry import parse_prometheus_text
from repro.server.sessions import DeviceRegistry


def run_cli(capsys, *argv):
    code = main(["server", *argv])
    return code, capsys.readouterr().out


class TestServerCommand:
    def test_default_scenario_converges(self, capsys):
        code, out = run_cli(capsys, "--duration", "60", "--assert-adr")
        assert code == 0
        assert "duplicates collapsed" in out
        assert "ADR moved 2 node(s) faster, 2 node(s) slower" in out

    def test_artifacts_written(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        state = tmp_path / "sessions.jsonl"
        code, out = run_cli(
            capsys,
            "--duration",
            "60",
            "--metrics-out",
            str(metrics),
            "--state-out",
            str(state),
        )
        assert code == 0
        samples = parse_prometheus_text(metrics.read_text())
        assert samples["repro_dedup_delivered_total"] > 0
        assert samples['repro_ingest_frames_total{gateway="0"}'] > 0
        registry = DeviceRegistry()
        assert registry.restore_jsonl(state.read_text()) == 4

    def test_state_round_trip_across_invocations(self, capsys, tmp_path):
        state = tmp_path / "sessions.jsonl"
        code, _ = run_cli(
            capsys, "--duration", "30", "--state-out", str(state)
        )
        assert code == 0
        code, out = run_cli(
            capsys, "--duration", "30", "--state-in", str(state)
        )
        assert code == 0
        assert "restored 4 session(s)" in out

    def test_assert_adr_fails_when_all_nodes_move_one_way(self, capsys):
        # Uniformly strong links: every node upgrades, none slows down,
        # so the convergence assertion (both directions) must fail.
        code, _ = run_cli(
            capsys,
            "--duration",
            "60",
            "--snr-lo",
            "20",
            "--assert-adr",
        )
        assert code == 1
