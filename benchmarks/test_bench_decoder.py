"""Decoder micro-benchmarks: waveform decode cost vs collision size.

Not a paper figure, but the numbers a deployer cares about: how long the
single-antenna Choir receiver spends disentangling a collision, as a
function of how many users collide.
"""

import numpy as np
import pytest

from repro.channel import CollisionChannel
from repro.core import ChoirDecoder
from repro.hardware import LoRaRadio
from repro.phy import LoRaParams

PARAMS = LoRaParams(spreading_factor=8, preamble_len=8)


def _packet(n_users, seed=0, n_symbols=12):
    rng = np.random.default_rng(seed)
    channel = CollisionChannel(PARAMS, noise_power=1.0)
    transmissions = []
    for i in range(n_users):
        radio = LoRaRadio(PARAMS, node_id=i, rng=rng)
        stream = rng.integers(0, 256, n_symbols)
        transmissions.append((radio, stream, complex(rng.uniform(8, 25))))
    return channel.receive(transmissions, rng=rng), n_symbols


@pytest.mark.parametrize("n_users", [1, 2, 5])
def test_bench_decode_collision(benchmark, n_users):
    packet, n_symbols = _packet(n_users, seed=n_users)
    decoder = ChoirDecoder(PARAMS)
    users = benchmark(decoder.decode, packet.samples, n_symbols)
    assert len(users) >= max(n_users - 1, 1)


def test_bench_team_decode(benchmark):
    rng = np.random.default_rng(9)
    channel = CollisionChannel(PARAMS, noise_power=1.0)
    shared = rng.integers(0, 256, 10)
    transmissions = [
        (LoRaRadio(PARAMS, node_id=i, rng=rng), shared, 0.33 + 0j) for i in range(10)
    ]
    packet = channel.receive(transmissions, rng=rng)
    decoder = ChoirDecoder(PARAMS)
    result = benchmark(decoder.decode_team, packet.samples, 10)
    assert result.detected
