"""Experiments for the paper's extension points (Sec. 5.2 notes 2 and 4).

* **Multi-SF demultiplexing** -- the paper's 5-sensor {7,7,8,8,9} example:
  a single capture demultiplexed per spreading factor, with and without
  cross-SF cancellation.
* **Ultra-narrowband generalization** -- the SigFox/NB-IoT claim: when the
  occupied bandwidth is far below the crystal spread, concurrent
  transmissions separate by plain filtering.
"""

from __future__ import annotations

import numpy as np

from repro.channel.collider import receive_mixed_sf
from repro.core.multisf import MultiSfDecoder
from repro.experiments.runner import ExperimentResult
from repro.hardware.radio import LoRaRadio
from repro.unb import (
    UnbCollisionDecoder,
    UnbParams,
    random_bits,
    receive_unb_collision,
)
from repro.utils import ensure_rng


def run_multisf_demux(
    sf_assignments: tuple[int, ...] = (7, 7, 8, 8, 9),
    n_symbols: int = 12,
    gain: float = 12.0,
    seed: int = 5,
) -> ExperimentResult:
    """The Sec. 5.2 note-4 scenario: 5 sensors at SFs {7,7,8,8,9}.

    Rows report, per branch and per cancellation mode, how many users were
    separated and their mean symbol accuracy.
    """
    result = ExperimentResult(
        name="extension: multi-SF demultiplexing",
        notes="paper Sec 5.2(4): orthogonal SFs decode in parallel; Choir runs per branch",
    )
    for cancel in (False, True):
        rng = ensure_rng(seed)
        decoder = MultiSfDecoder(spreading_factors=tuple(sorted(set(sf_assignments))))
        transmissions, truth = [], {}
        for i, sf in enumerate(sf_assignments):
            params = decoder.params_for(sf)
            radio = LoRaRadio(params, node_id=i, rng=rng)
            symbols = rng.integers(0, params.chips_per_symbol, n_symbols)
            truth[i] = (sf, symbols)
            transmissions.append((radio, symbols, gain + 0j))
        capture, _ = receive_mixed_sf(transmissions, rng=rng)
        branches = decoder.decode(
            capture,
            {sf: n_symbols for sf in sorted(set(sf_assignments))},
            cancel_across_sf=cancel,
        )
        for branch in branches:
            accs = []
            for du in branch.users:
                candidates = [
                    float(np.mean(du.symbols == s))
                    for _, (sf, s) in truth.items()
                    if sf == branch.spreading_factor
                ]
                accs.append(max(candidates) if candidates else 0.0)
            expected = sum(1 for sf in sf_assignments if sf == branch.spreading_factor)
            result.add(
                cancellation="on" if cancel else "off",
                spreading_factor=branch.spreading_factor,
                expected_users=expected,
                found_users=branch.n_users,
                mean_accuracy=round(float(np.mean(accs)), 3) if accs else None,
            )
    return result


def run_unb_separation(
    n_users_list: tuple[int, ...] = (2, 5, 8),
    n_bits: int = 40,
    seed: int = 6,
) -> ExperimentResult:
    """The UNB generalization: filtering separates SigFox-class collisions.

    Users land at random crystal positions across the receive window; rows
    report separation and bit accuracy per population size, plus one
    near-far row (26 dB spread).
    """
    params = UnbParams()
    decoder = UnbCollisionDecoder(params)
    result = ExperimentResult(
        name="extension: ultra-narrowband separation",
        notes="paper Sec 5.2(2): offsets >> bandwidth, so filtering separates users",
    )
    rng = ensure_rng(seed)
    for n_users in n_users_list:
        # Random, well-spread carriers (crystals give kHz separation).
        carriers = np.linspace(
            -params.max_cfo_hz * 0.9, params.max_cfo_hz * 0.9, n_users
        ) + rng.uniform(-300, 300, n_users)
        streams = [random_bits(n_bits, rng) for _ in range(n_users)]
        capture, _ = receive_unb_collision(
            params,
            [(b, float(c), 1.0) for b, c in zip(streams, carriers)],
            rng=rng,
        )
        users = decoder.decode(capture, n_bits)
        accs = [
            max(float(np.mean(u.bits == b)) for b in streams) for u in users
        ]
        result.add(
            scenario=f"{n_users} equal-power users",
            found_users=len(users),
            mean_bit_accuracy=round(float(np.mean(accs)), 3) if accs else None,
        )
    # Near-far: a 26 dB weaker user in its own subchannel.
    strong_bits, weak_bits = random_bits(n_bits, rng), random_bits(n_bits, rng)
    capture, _ = receive_unb_collision(
        params,
        [(strong_bits, -6000.0, 20.0), (weak_bits, 7000.0, 1.0)],
        rng=rng,
    )
    users = decoder.decode(capture, n_bits)
    weak_found = [u for u in users if abs(u.carrier_hz - 7000.0) < 500.0]
    result.add(
        scenario="near-far 26 dB",
        found_users=len(users),
        mean_bit_accuracy=round(
            float(np.mean(weak_found[0].bits == weak_bits)), 3
        )
        if weak_found
        else None,
    )
    return result
