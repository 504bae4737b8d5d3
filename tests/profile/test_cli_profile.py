"""CLI surface: `--profile-out` manifests and the `repro diff` gate."""

import json

import pytest

from repro.cli import main
from repro.profile import load_manifest


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    """One profiled gateway CLI run shared across the module's tests."""
    out_dir = tmp_path_factory.mktemp("profile_cli")
    manifest = out_dir / "manifest.json"
    stacks = out_dir / "stacks.txt"
    code = main([
        "gateway",
        "--duration", "0.6",
        "--nodes", "1",
        "--executor", "serial",
        "--profile-out", str(manifest),
        "--stacks-out", str(stacks),
    ])
    assert code == 0
    return manifest


class TestGatewayProfileOut:
    def test_manifest_is_loadable_and_complete(self, manifest_path):
        manifest = load_manifest(manifest_path)
        assert manifest.kind == "gateway"
        assert manifest.seed == 0
        assert manifest.config["duration_s"] == 0.6
        assert any(
            name.startswith("profile.kernel.decode.window.")
            for name in manifest.metrics
        )
        assert "decode.decode_s.total_s" in manifest.metrics
        assert manifest.metrics["resources.peak_rss_kb"] > 0

    def test_stacks_file_is_flamegraph_input(self, manifest_path):
        stacks = manifest_path.parent / "stacks.txt"
        lines = stacks.read_text().strip().splitlines()
        assert lines
        for line in lines:
            path, _, micros = line.rpartition(" ")
            assert path and int(micros) >= 1


class TestDiffCommand:
    def test_self_diff_is_clean(self, manifest_path, capsys):
        code = main(["diff", str(manifest_path), str(manifest_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "0 slower" in out

    def test_injected_slowdown_fails(self, manifest_path, tmp_path, capsys):
        # Double every kernel wall time in a copied manifest: `repro
        # diff` must flag the regression and exit nonzero.
        data = json.loads(manifest_path.read_text())
        for name in data["metrics"]:
            if name.startswith("profile.kernel.") and name.endswith(".wall_s"):
                data["metrics"][name] *= 2.0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(data))
        code = main(["diff", str(manifest_path), str(slow), "--slack", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "SLOWER" in captured.out
        assert "REGRESSION" in captured.err

    def test_missing_metric_fails_only_strict(self, manifest_path, tmp_path, capsys):
        data = json.loads(manifest_path.read_text())
        dropped = next(
            name for name in sorted(data["metrics"])
            if name.startswith("profile.kernel.")
        )
        del data["metrics"][dropped]
        pruned = tmp_path / "pruned.json"
        pruned.write_text(json.dumps(data))
        assert main(["diff", str(manifest_path), str(pruned)]) == 0
        capsys.readouterr()
        code = main([
            "diff", str(manifest_path), str(pruned), "--assert-no-regression"
        ])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_self_diff_reports_identical_digest(self, manifest_path, capsys):
        assert main(["diff", str(manifest_path), str(manifest_path)]) == 0
        assert "digest: identical" in capsys.readouterr().out.splitlines()

    def test_digest_difference_is_reported_not_gated(
        self, manifest_path, tmp_path, capsys
    ):
        # A changed decode result names the differing digest keys, but
        # the exit code stays the metric gate's alone.
        data = json.loads(manifest_path.read_text())
        data["digest"]["packets_decoded"] += 1
        data["digest"]["decoded_payloads"] = []
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(data))
        code = main(["diff", str(manifest_path), str(changed)])
        out = capsys.readouterr().out
        assert code == 0
        assert "digest: differs in decoded_payloads, packets_decoded" in out

    def test_digest_line_needs_both_digests(self, manifest_path, tmp_path, capsys):
        data = json.loads(manifest_path.read_text())
        del data["digest"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data))
        assert main(["diff", str(manifest_path), str(bare)]) == 0
        assert "digest:" not in capsys.readouterr().out

    def test_unreadable_manifest_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["diff", str(missing), str(missing)])
        assert code == 2
        assert "diff error" in capsys.readouterr().err
