"""Each injected fault must make the runner exit nonzero, naming the check."""

import json
import os
from pathlib import Path

import pytest

import run

FAULTS = Path(__file__).resolve().parent / "faults"

CASES = [
    ("decode-error", "gw_collide_sf7", "0", "check no_error_outcomes failed"),
    ("phantom-payload", "gw_collide_sf7", "0", "check no_payload_outside_transmitted failed"),
    ("lost-chunk", "gw_collide_sf7", "0", "check samples_in_equal_input failed"),
    # The traced run repeats run 0's inputs; the fault spoils the second process.
    ("nondeterminism", "gw_collide_sf7", "1", "output digest differs"),
    ("lost-uplink", "server_uplinks", "0", "check delivered_equal_unique failed"),
    ("replay", "server_uplinks", "0", "check zero_replays failed"),
]


@pytest.mark.parametrize("fault,workload,trace,message", CASES, ids=[c[0] for c in CASES])
def test_injected_fault_fails_the_run(
    fault, workload, trace, message, tmp_path, monkeypatch, capsys, small_params
):
    counter = tmp_path / "processes"
    counter.mkdir()
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", str(FAULTS) + (os.pathsep + path if path else ""))
    monkeypatch.setenv("BENCH_FAULT", fault)
    monkeypatch.setenv("BENCH_FAULT_DIR", str(counter))
    code = run.main(
        ["--workload", workload, "--reps", "1", "--trace", trace,
         "--out", str(tmp_path / "results.json")],
        params=small_params,
    )
    out = capsys.readouterr().out
    assert code != 0
    assert message in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
