#!/usr/bin/env python
"""Quickstart: decode a three-way LoRa collision with a single antenna.

Three commodity LoRa clients -- each with its own crystal offset and wake-up
jitter -- transmit encoded payloads at the same time on the same spreading
factor.  A standard LoRaWAN gateway would decode none of them; the Choir
receiver disentangles all three using nothing but their hardware offsets.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    ChoirDecoder,
    CollisionChannel,
    CssDemodulator,
    LoRaFramer,
    LoRaParams,
    LoRaRadio,
)


def main() -> None:
    params = LoRaParams(spreading_factor=8, bandwidth=125_000.0, preamble_len=8)
    rng = np.random.default_rng(9)
    framer = LoRaFramer(params, coding_rate=4)

    payloads = [b"station-A: 21.4C", b"station-B: 19.8C", b"station-C: 22.3C"]
    frames = [framer.encode(p) for p in payloads]
    n_symbols = frames[0].n_symbols

    # Three clients with randomly drawn (realistic) hardware imperfections.
    radios = [LoRaRadio(params, node_id=i, rng=rng) for i in range(3)]
    for radio in radios:
        print(
            f"node {radio.node_id}: CFO {radio.oscillator.offset_hz / 1e3:+.2f} kHz "
            f"({params.hz_to_bins(radio.oscillator.offset_hz):+.2f} bins), "
            f"wake-up offset {radio.timing.offset_s * 1e6:.1f} us"
        )

    # All three transmit simultaneously; the base station hears the sum.
    channel = CollisionChannel(params, noise_power=1.0)
    packet = channel.receive(
        [(r, f.symbols, 12.0 + 0j) for r, f in zip(radios, frames)], rng=rng
    )
    print(f"\ncaptured {packet.samples.size} samples of a 3-way collision")

    # A standard receiver decodes one symbol stream; at best it captures
    # the strongest transmitter, never all three.
    standard = CssDemodulator(params).demodulate_frame(packet.samples, n_symbols)
    standard_result = framer.decode(standard, len(payloads[0]))
    standard_hits = sum(
        standard_result.crc_ok and standard_result.payload == p for p in payloads
    )
    print(f"standard LoRa receiver: {standard_hits}/3 payloads recovered")

    # Choir separates the transmissions by their offset signatures.
    decoder = ChoirDecoder(params)
    users = decoder.decode(packet.samples, n_symbols)
    print(f"Choir found {len(users)} transmitters:")
    recovered = 0
    for user in users:
        result = user.decode_payload(framer, len(payloads[0]))
        status = "OK " if result.crc_ok else "BAD"
        print(
            f"  offset {user.offset_bins:7.3f} bins "
            f"(signature {user.fractional:.3f}) -> [{status}] {result.payload!r}"
        )
        recovered += result.crc_ok
    print(f"Choir receiver: {recovered}/3 payloads recovered")


if __name__ == "__main__":
    main()
