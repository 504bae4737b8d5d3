"""Tests for the LoRa framer (payload <-> symbols)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import LoRaFramer, LoRaParams
from repro.phy.encoding import bits_to_symbols, deinterleave, interleave, symbols_to_bits

PARAMS = LoRaParams(spreading_factor=8)


class TestFramer:
    @given(st.binary(min_size=0, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, payload):
        framer = LoRaFramer(PARAMS, coding_rate=4)
        frame = framer.encode(payload)
        decoded = framer.decode(frame.symbols, len(payload))
        assert decoded.payload == payload
        assert decoded.crc_ok

    @pytest.mark.parametrize("cr", [1, 2, 3, 4])
    def test_roundtrip_all_coding_rates(self, cr):
        framer = LoRaFramer(PARAMS, coding_rate=cr)
        payload = b"choir!"
        frame = framer.encode(payload)
        decoded = framer.decode(frame.symbols, len(payload))
        assert decoded.payload == payload and decoded.crc_ok

    @pytest.mark.parametrize("sf", [7, 8, 9, 10])
    def test_roundtrip_spreading_factors(self, sf):
        params = LoRaParams(spreading_factor=sf)
        framer = LoRaFramer(params, coding_rate=4)
        payload = bytes(range(16))
        frame = framer.encode(payload)
        decoded = framer.decode(frame.symbols, len(payload))
        assert decoded.payload == payload and decoded.crc_ok

    def test_symbol_count_prediction(self):
        framer = LoRaFramer(PARAMS, coding_rate=4)
        for n in (0, 1, 7, 20):
            frame = framer.encode(bytes(n))
            assert frame.n_symbols == framer.n_symbols_for_payload(n)

    def test_single_corrupted_symbol_corrected_by_fec(self):
        framer = LoRaFramer(PARAMS, coding_rate=4)
        payload = b"temperature=21.5"
        frame = framer.encode(payload)
        symbols = frame.symbols.copy()
        symbols[3] ^= 0x01  # one wrong symbol -> scattered bit errors
        decoded = framer.decode(symbols, len(payload))
        assert decoded.payload == payload
        assert decoded.crc_ok
        assert decoded.corrected_codewords >= 1

    def test_heavy_corruption_fails_crc(self):
        framer = LoRaFramer(PARAMS, coding_rate=4)
        payload = b"hello world data"
        frame = framer.encode(payload)
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 256, frame.n_symbols)
        decoded = framer.decode(symbols, len(payload))
        assert not decoded.crc_ok

    def test_too_few_symbols_rejected(self):
        framer = LoRaFramer(PARAMS)
        frame = framer.encode(b"abcdef")
        with pytest.raises(ValueError, match="symbols"):
            framer.decode(frame.symbols[:2], 6)

    def test_invalid_coding_rate(self):
        with pytest.raises(ValueError, match="coding_rate"):
            LoRaFramer(PARAMS, coding_rate=0)

    def test_extra_symbols_ignored(self):
        framer = LoRaFramer(PARAMS)
        payload = b"xy"
        frame = framer.encode(payload)
        padded = np.concatenate([frame.symbols, np.zeros(5, dtype=np.int64)])
        decoded = framer.decode(padded, len(payload))
        assert decoded.payload == payload and decoded.crc_ok

    def test_double_parity_error_is_uncorrectable_but_crc_ok(self):
        # Two flipped parity bits leave the data bits (and so the CRC)
        # intact, but put the codeword two bits from every codeword.
        framer = LoRaFramer(PARAMS, coding_rate=4)
        payload = b"abcd"
        frame = framer.encode(payload)
        bits = deinterleave(symbols_to_bits(frame.symbols, 8), 8, 8)
        bits[[4, 5]] ^= 1  # parity bits p0, p1 of the first codeword
        symbols = bits_to_symbols(interleave(bits, 8, 8), 8)
        decoded = framer.decode(symbols, len(payload))
        assert decoded.payload == payload and decoded.crc_ok
        assert (decoded.corrected_codewords, decoded.uncorrectable_codewords) == (0, 1)
