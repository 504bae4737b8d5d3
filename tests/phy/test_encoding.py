"""Tests for the LoRa coding chain: Gray, Hamming, interleaver, whitening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.encoding import (
    bits_to_bytes,
    bits_to_symbols,
    bytes_to_bits,
    deinterleave,
    gray_decode,
    gray_encode,
    hamming_decode,
    hamming_encode,
    interleave,
    symbols_to_bits,
    whiten,
)


class TestGray:
    @given(st.integers(min_value=0, max_value=2**20))
    def test_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(st.integers(min_value=0, max_value=2**12 - 2))
    def test_adjacent_codes_differ_by_one_bit(self, value):
        a = gray_encode(value)
        b = gray_encode(value + 1)
        assert bin(a ^ b).count("1") == 1

    def test_array_input(self):
        values = np.arange(16)
        encoded = gray_encode(values)
        decoded = gray_decode(encoded)
        assert np.array_equal(decoded, values)

    def test_known_values(self):
        assert gray_encode(0) == 0
        assert gray_encode(1) == 1
        assert gray_encode(2) == 3
        assert gray_encode(3) == 2


class TestHamming:
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_all_rates(self, nibbles):
        for cr in (1, 2, 3, 4):
            bits = hamming_encode(nibbles, cr)
            decoded, corrected, uncorrectable = hamming_decode(bits, cr)
            assert list(decoded) == nibbles
            assert corrected == 0
            assert uncorrectable == 0

    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_bit_error_corrected_cr4(self, nibble, flip_pos):
        bits = hamming_encode([nibble], 4)
        bits[flip_pos] ^= 1
        decoded, corrected, uncorrectable = hamming_decode(bits, 4)
        assert decoded[0] == nibble
        assert (corrected, uncorrectable) == (1, 0)

    def test_single_bit_error_corrected_cr3(self):
        bits = hamming_encode([9], 3)
        bits[2] ^= 1
        decoded, _, _ = hamming_decode(bits, 3)
        assert decoded[0] == 9

    def test_rate_lengths(self):
        for cr in (1, 2, 3, 4):
            assert hamming_encode([5], cr).size == 4 + cr

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match="coding_rate"):
            hamming_encode([1], 5)
        with pytest.raises(ValueError, match="coding_rate"):
            hamming_decode(np.zeros(8, dtype=np.uint8), 0)

    def test_invalid_nibble(self):
        with pytest.raises(ValueError, match="nibble"):
            hamming_encode([16], 4)

    def test_misaligned_stream(self):
        with pytest.raises(ValueError, match="multiple"):
            hamming_decode(np.zeros(7, dtype=np.uint8), 4)

    def test_empty(self):
        assert hamming_encode([], 4).size == 0


class TestInterleaver:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        sf, cw = 8, 8
        bits = rng.integers(0, 2, sf * cw).astype(np.uint8)
        assert np.array_equal(deinterleave(interleave(bits, sf, cw), sf, cw), bits)

    def test_is_permutation(self):
        sf, cw = 7, 8
        bits = np.arange(sf * cw) % 2
        out = interleave(bits.astype(np.uint8), sf, cw)
        assert sorted(out.tolist()) == sorted(bits.tolist())

    def test_scatters_codeword_bits(self):
        # One codeword's bits must land in distinct symbol groups.
        sf, cw = 8, 8
        bits = np.zeros(sf * cw, dtype=np.uint8)
        bits[:sf] = 1  # first codeword all ones
        out = interleave(bits, sf, cw)
        symbols = out.reshape(sf, cw)
        # Every column (symbol) carries at most... the diagonal pattern
        # spreads the codeword across symbols: no symbol gets everything.
        per_symbol = symbols.sum(axis=1)
        assert per_symbol.max() < sf

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            interleave(np.zeros(10, dtype=np.uint8), 8, 8)


class TestWhitening:
    def test_involutive(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        assert np.array_equal(whiten(whiten(bits)), bits)

    def test_breaks_runs(self):
        zeros = np.zeros(256, dtype=np.uint8)
        whitened = whiten(zeros)
        # The whitening sequence is balanced-ish: no long constant runs.
        assert 0.3 < whitened.mean() < 0.7


class TestPacking:
    @given(st.binary(min_size=0, max_size=64))
    def test_bytes_bits_roundtrip(self, data):
        assert bits_to_bytes(bytes_to_bits(data))[: len(data)] == data

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_symbols_bits_roundtrip(self, values):
        symbols = np.array(values) % 256
        bits = symbols_to_bits(symbols, 8)
        back = bits_to_symbols(bits, 8)
        assert np.array_equal(back, symbols)

    def test_bits_to_symbols_pads(self):
        bits = np.ones(10, dtype=np.uint8)
        symbols = bits_to_symbols(bits, 8)
        assert symbols.size == 2
