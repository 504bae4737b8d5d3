"""Tests for CRC-16/CCITT."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.crc import append_crc, check_crc, crc16_ccitt


def _reference_crc16(data: bytes, init: int = 0) -> int:
    """The bit-serial CRC-16/CCITT (polynomial 0x1021, MSB first)."""
    crc = init & 0xFFFF
    for byte in bytes(data):
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT (init 0x0000, aka XModem) of "123456789" is 0x31C3.
        assert crc16_ccitt(b"123456789") == 0x31C3

    def test_empty(self):
        assert crc16_ccitt(b"") == 0x0000

    @given(st.binary(min_size=0, max_size=128))
    def test_append_check_roundtrip(self, data):
        assert check_crc(append_crc(data))

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=7))
    def test_detects_single_bit_flip(self, data, bit):
        framed = bytearray(append_crc(data))
        framed[0] ^= 1 << bit
        assert not check_crc(bytes(framed))

    def test_check_too_short(self):
        assert not check_crc(b"")
        assert not check_crc(b"\x00")

    def test_crc_depends_on_order(self):
        assert crc16_ccitt(b"ab") != crc16_ccitt(b"ba")

    def test_matches_bit_serial_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            data = rng.integers(0, 256, size=rng.integers(0, 64)).astype(np.uint8).tobytes()
            init = int(rng.integers(0, 1 << 17))
            assert crc16_ccitt(data, init) == _reference_crc16(data, init)

    @given(st.binary(min_size=0, max_size=64), st.integers(min_value=0, max_value=(1 << 17) - 1))
    def test_matches_bit_serial_reference_property(self, data, init):
        assert crc16_ccitt(data, init) == _reference_crc16(data, init)

    def test_accepts_any_byte_sequence(self):
        data = [0x12, 0x34, 0xAB]
        expected = _reference_crc16(bytes(data))
        assert crc16_ccitt(data) == expected
        assert crc16_ccitt(bytearray(data)) == expected
