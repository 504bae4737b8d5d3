"""The README quickstart must keep working verbatim."""

from repro import (
    ChoirDecoder,
    CollisionChannel,
    LoRaFramer,
    LoRaParams,
    LoRaRadio,
    ensure_rng,
)


def test_readme_quickstart_recovers_all_payloads():
    params = LoRaParams(spreading_factor=8, bandwidth=125_000.0, preamble_len=8)
    rng = ensure_rng(9)
    framer = LoRaFramer(params, coding_rate=4)

    payloads = [b"station-A: 21.4C", b"station-B: 19.8C", b"station-C: 22.3C"]
    frames = [framer.encode(p) for p in payloads]
    radios = [LoRaRadio(params, node_id=i, rng=rng) for i in range(3)]
    channel = CollisionChannel(params, noise_power=1.0)
    packet = channel.receive(
        [(r, f.symbols, 12.0 + 0j) for r, f in zip(radios, frames)], rng=rng
    )

    recovered = set()
    for user in ChoirDecoder(params).decode(packet.samples, frames[0].n_symbols):
        result = user.decode_payload(framer, 16)
        if result.crc_ok:
            recovered.add(result.payload)
    assert recovered == set(payloads)
