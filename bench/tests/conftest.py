"""Shared set-up for the benchmark self-tests (``python -m pytest bench/tests``).

The workloads run at reduced size: every test passes smaller parameters
to the same generators and runners the benchmark uses.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

@pytest.fixture(scope="session")
def small_params():
    """Per-workload overrides: each child process ends in a second or two."""
    return {
        "gw_eu868_mixed": {"duration_s": 0.4},
        "gw_collide_sf7": {"n_nodes": 4, "duration_s": 1.5},
        "city_urban_800": {"duration_s": 0.3},
        "server_uplinks": {"n_devices": 200, "uplinks_per_device": 5},
    }

