#!/usr/bin/env python
"""Range extension: a team of below-range sensors reaches the base station.

Recreates the paper's Sec. 9.3 result at the waveform level: sensors sit
beyond the single-node communication range (each one's packets are
undetectable alone), but transmitting *identical data* concurrently after
a beacon lets the Choir receiver pool their energy -- detection by
preamble accumulation, decoding by spectral-fingerprint correlation.

Run:  python examples/range_extension_teams.py
"""

import numpy as np

from repro import ChoirDecoder, CollisionChannel, LinkModel, LoRaParams, LoRaRadio


def main() -> None:
    params = LoRaParams(spreading_factor=8, bandwidth=125_000.0, preamble_len=8)
    link = LinkModel()
    rng = np.random.default_rng(21)

    # Link-budget view (at the minimum LoRaWAN rate, SF12 -- the paper's
    # range yardstick):
    print(f"single-node range (minimum rate): {link.range_for_snr(-25.0):.0f} m")
    print(f"30-node team range: {link.range_for_snr(-25.0 - 10 * np.log10(30)):.0f} m")
    print("(paper: 1 km alone -> 2.65 km with 30-node teams)\n")

    # Waveform demonstration at SF8 (decode floor ~ -15 dB, single-node
    # edge ~ 520 m): sensors 40 % past that edge are individually silent
    # but decodable as a team.
    sf8_range = link.range_for_snr(-15.0)
    distance = 1.4 * sf8_range
    per_user_snr = link.mean_snr_db(distance)
    print(
        f"SF8 single-node edge: {sf8_range:.0f} m; placing sensors at "
        f"{distance:.0f} m (per-user SNR {per_user_snr:.1f} dB, below the "
        "-15 dB SF8 floor)"
    )

    shared_reading = rng.integers(0, params.chips_per_symbol, 12)
    amplitude = 10 ** (per_user_snr / 20.0)
    channel = CollisionChannel(params, noise_power=1.0)
    decoder = ChoirDecoder(params)

    print(f"\n{'team size':>10s} {'detected':>9s} {'members':>8s} {'accuracy':>9s}")
    for team_size in (1, 4, 8, 16):
        transmissions = [
            (LoRaRadio(params, node_id=i, rng=rng), shared_reading, amplitude + 0j)
            for i in range(team_size)
        ]
        packet = channel.receive(transmissions, rng=rng)
        result = decoder.decode_team(packet.samples, shared_reading.size)
        accuracy = (
            float(np.mean(result.symbols == shared_reading)) if result.detected else 0.0
        )
        print(
            f"{team_size:10d} {str(bool(result.detected)):>9s} "
            f"{result.n_members_detected:8d} {accuracy:9.2f}"
        )
    print(
        "\nA lone sensor at this distance is invisible; teams of a few "
        "sensors are decoded symbol-perfect."
    )


if __name__ == "__main__":
    main()
