"""Loader behaviour: YAML and JSON files, file-context error stamping."""

import json

import pytest

from repro.scenario import ScenarioError, load_scenario, parse_scenario_text

YAML_OK = """
name: loader-test
traffic:
  period_s: 15.0
  spreading_factors: [7, 8]
plan:
  n_channels: 4
sweep:
  node_counts: [10, 40]
  duration_s: 2.0
"""


class TestHappyPath:
    def test_yaml_file_loads(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(YAML_OK)
        spec = load_scenario(path)
        assert spec.name == "loader-test"
        assert spec.traffic.spreading_factors == (7, 8)
        assert spec.plan.n_channels == 4

    def test_json_file_loads(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "from-json"}))
        assert load_scenario(path).name == "from-json"

    def test_yaml_and_json_agree(self, tmp_path):
        yaml_path = tmp_path / "a.yaml"
        yaml_path.write_text(YAML_OK)
        json_path = tmp_path / "a.json"
        json_path.write_text(json.dumps(load_scenario(yaml_path).to_dict()))
        assert load_scenario(json_path) == load_scenario(yaml_path)

    def test_parse_text_accepts_json_subset(self):
        spec = parse_scenario_text('{"name": "inline"}')
        assert spec.name == "inline"


class TestErrorContext:
    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "nope.yaml"
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.source == str(path)
        assert str(path) in str(err.value)

    def test_schema_error_carries_file_and_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\ntraffic:\n  period_s: sometimes\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.source == str(path)
        assert err.value.key == "traffic.period_s"
        assert str(path) in str(err.value)
        assert "traffic.period_s" in str(err.value)

    def test_unknown_key_error_carries_file(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("name: x\nsweeep:\n  duration_s: 1\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.source == str(path)
        assert "sweeep" in str(err.value)

    def test_yaml_syntax_error_is_a_scenario_error(self, tmp_path):
        path = tmp_path / "syntax.yaml"
        path.write_text("name: [unclosed\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.source == str(path)

    def test_empty_document_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "empty" in str(err.value)


class TestCommittedScenario:
    def test_repo_scenario_file_is_valid(self):
        spec = load_scenario("scenarios/eu868_urban.yaml")
        assert spec.name == "eu868-urban"
        assert spec.plan.n_channels == 8
        assert spec.gateway.decode_tier == "cascade"
        assert spec.gateway.executor == "process"
        assert spec.baseline.max_users == 1
        assert spec.sweep.node_counts == (100, 300, 1000)
        assert spec.sweep.duration_s >= 60.0
