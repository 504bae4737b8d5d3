"""The runner end to end at reduced size: metric set, provenance, traces."""

import contextlib
import io
import json

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, small_params):
    """``run.main`` over every workload, traced, for seeds 0 and 1."""
    results = {}
    for seed in (0, 1):
        out = tmp_path_factory.mktemp(f"seed{seed}") / "results.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run.main(
                ["--seed", str(seed), "--reps", "1", "--out", str(out)],
                params=small_params,
            )
        final = json.loads(stdout.getvalue().strip().splitlines()[-1])
        results[seed] = (code, final, json.loads(out.read_text()))
    return results


def test_every_metric_is_present_with_its_unit(outputs):
    code, final, _ = outputs[0]
    assert code == 0 and final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    manifest = run.load_manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for metric in manifest["end_to_end"]:
            entry = final["metrics"][f"{name}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (name, metric["name"])
        for metric in manifest["per_layer"]:
            entry = final["metrics"][f"{name}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_trace_flag_selects_the_printed_metric_set(outputs):
    manifest = run.load_manifest()
    _, _, saved = outputs[0]
    results = saved["results"]
    end_to_end = run.final_line(results[:1], manifest, trace=0)["metrics"]
    per_layer = run.final_line(results[:1], manifest, trace=1)["metrics"]
    assert list(end_to_end) == [m["name"] for m in manifest["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in manifest["per_layer"]]


def test_another_seed_changes_inputs_not_the_metric_set(outputs, small_params):
    for name, workload in workloads.WORKLOADS.items():
        params = workloads.resolve_params(name, small_params[name])
        generate = workloads.GENERATE[workload.kind]
        first, again = generate(params, 0, 0), generate(params, 0, 0)
        for other in (generate(params, 1, 0), generate(params, 0, 1)):
            if workload.kind == "gateway":
                assert first.packets == again.packets, name
                assert first.packets != other.packets, name
                assert len(first.chunks) == len(other.chunks), name
            else:
                assert first.streams == again.streams
                assert first.streams != other.streams
                assert first.n_unique == other.n_unique
    assert outputs[0][1]["metrics"].keys() == outputs[1][1]["metrics"].keys()


def test_results_carry_provenance(outputs, small_params):
    _, _, saved = outputs[1]
    prov = saved["provenance"]
    assert prov["seed"] == 1
    assert prov["nproc"] >= 1
    for key in ("git_commit", "python", "numpy", "scipy", "platform"):
        assert prov[key]
    assert prov["blas_env"] == workloads.BLAS_ENV
    for name, params in prov["workloads"].items():
        assert params == workloads.resolve_params(name, small_params[name])


def test_traced_run_writes_chrome_trace_events(outputs):
    _, _, saved = outputs[0]
    for result in saved["results"]:
        with open(result["trace_file"]) as handle:
            events = json.load(handle)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, result["workload"]
        for event in spans:
            assert event["dur"] >= 0 and {"id", "parent", "request"} <= event["args"].keys()
        assert result["layers"]["unattributed.wall_s"]["value"] >= 0


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "gw_collide_sf7", "--out", str(tmp_path / "r.json")]) != 0
    assert capsys.readouterr().out == ""
