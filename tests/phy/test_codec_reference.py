"""The table-driven coding chain against per-codeword reference loops.

The references below are the loop implementations the tables replaced:
a flip-each-bit Hamming corrector, a per-row ``np.roll`` interleaver, a
bit-by-bit whitening LFSR and a per-block framer.  Every received word
and every (SF, CR, payload length) frame shape is compared, so the
tables must reproduce the loops' bytes exactly.
"""

import numpy as np
import pytest

from repro.phy import LoRaFramer, LoRaParams
from repro.phy.crc import append_crc, check_crc
from repro.phy.encoding import (
    _HAMMING_G,
    bits_to_bytes,
    bits_to_symbols,
    bytes_to_bits,
    deinterleave,
    hamming_decode,
    hamming_encode,
    interleave,
    symbols_to_bits,
    whiten,
)

SPREADING_FACTORS = (7, 8, 9, 10, 11, 12)
CODING_RATES = (1, 2, 3, 4)


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------


def ref_hamming_encode(nibbles, coding_rate):
    out = []
    for nib in nibbles:
        data = np.array([(int(nib) >> i) & 1 for i in range(4)], dtype=np.uint8)
        out.append(((data @ _HAMMING_G) % 2)[: 4 + coding_rate])
    if not out:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(out).astype(np.uint8)


def ref_syndrome_correct(codeword):
    """Flip each bit in turn; accept the first flip that zeroes the syndrome."""
    n_parity = len(codeword) - 4
    expected = (codeword[:4] @ _HAMMING_G) % 2
    if np.array_equal(expected[4 : 4 + n_parity], codeword[4:]):
        return codeword
    for i in range(len(codeword)):
        trial = codeword.copy()
        trial[i] ^= 1
        expected = (trial[:4] @ _HAMMING_G) % 2
        if np.array_equal(expected[4 : 4 + n_parity], trial[4 : 4 + n_parity]):
            return trial
    return codeword


def ref_hamming_decode(bits, coding_rate):
    block = 4 + coding_rate
    nibbles = []
    corrected = 0
    for start in range(0, bits.size, block):
        codeword = bits[start : start + block].copy()
        if coding_rate >= 3:
            fixed = ref_syndrome_correct(codeword)
            corrected += int(not np.array_equal(fixed, codeword))
            codeword = fixed
        nibbles.append(int(sum(int(b) << i for i, b in enumerate(codeword[:4]))))
    return np.array(nibbles, dtype=np.uint8), corrected


def ref_interleave(bits, sf, cw):
    matrix = bits.reshape(cw, sf)
    out = np.zeros_like(matrix)
    for i in range(cw):
        out[i] = np.roll(matrix[i], i)
    return out.T.reshape(-1)


def ref_deinterleave(bits, sf, cw):
    matrix = bits.reshape(sf, cw).T
    out = np.zeros_like(matrix)
    for i in range(cw):
        out[i] = np.roll(matrix[i], -i)
    return out.reshape(-1)


def ref_whitening_sequence(n):
    state = 0xFF
    out = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        out[i] = state & 1
        feedback = ((state >> 7) ^ (state >> 5) ^ (state >> 4) ^ (state >> 3)) & 1
        state = ((state << 1) | feedback) & 0xFF
    return out


def ref_n_symbols(sf, cr, payload_len):
    coded = (payload_len + 2) * 2 * (4 + cr)
    block = sf * (4 + cr)
    return -(-coded // block) * block // sf


def ref_encode(sf, cr, payload):
    bits = bytes_to_bits(append_crc(payload))
    bits = bits ^ ref_whitening_sequence(bits.size)
    nibbles = bits.reshape(-1, 4) @ (1 << np.arange(4))
    coded = ref_hamming_encode(nibbles, cr)
    block = sf * (4 + cr)
    if coded.size % block:
        coded = np.concatenate([coded, np.zeros(block - coded.size % block, dtype=np.uint8)])
    interleaved = np.concatenate(
        [ref_interleave(coded[i : i + block], sf, 4 + cr) for i in range(0, coded.size, block)]
    )
    return bits_to_symbols(interleaved, sf)


def ref_decode(sf, cr, symbols, payload_len):
    bits = symbols_to_bits(symbols[: ref_n_symbols(sf, cr, payload_len)], sf)
    block = sf * (4 + cr)
    deinterleaved = np.concatenate(
        [ref_deinterleave(bits[i : i + block], sf, 4 + cr) for i in range(0, bits.size, block)]
    )
    coded_len = (payload_len + 2) * 2 * (4 + cr)
    nibbles, corrected = ref_hamming_decode(deinterleaved[:coded_len], cr)
    data_bits = ((nibbles[:, None] >> np.arange(4)) & 1).astype(np.uint8).reshape(-1)
    data_bits = data_bits ^ ref_whitening_sequence(data_bits.size)
    data = bits_to_bytes(data_bits)[: payload_len + 2]
    return data[:-2], check_crc(data), corrected


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


def _all_words(coding_rate):
    n = 4 + coding_rate
    words = np.arange(1 << n)
    return ((words[:, None] >> np.arange(n)) & 1).astype(np.uint8)


class TestHammingTable:
    @pytest.mark.parametrize("cr", CODING_RATES)
    def test_every_received_word_matches_flip_loop(self, cr):
        words = _all_words(cr)
        codewords = ref_hamming_encode(range(16), cr).reshape(16, 4 + cr)
        distance = (words[:, None, :] != codewords[None, :, :]).sum(axis=2).min(axis=1)
        for word, nearest in zip(words, distance):
            nibbles, corrected, uncorrectable = hamming_decode(word, cr)
            ref_nibbles, ref_corrected = ref_hamming_decode(word, cr)
            assert nibbles.tolist() == ref_nibbles.tolist()
            assert corrected == ref_corrected
            # The single-error correctors (CR 3-4) give up two or more bits
            # from every codeword; the detect-only codes on any error.
            assert uncorrectable == int(nearest >= (2 if cr >= 3 else 1))

    @pytest.mark.parametrize("cr", CODING_RATES)
    def test_whole_stream_counts(self, cr):
        bits = _all_words(cr).reshape(-1)
        nibbles, corrected, uncorrectable = hamming_decode(bits, cr)
        ref_nibbles, ref_corrected = ref_hamming_decode(bits, cr)
        assert np.array_equal(nibbles, ref_nibbles)
        assert corrected == ref_corrected
        assert uncorrectable == {1: 16, 2: 48, 3: 0, 4: 112}[cr]

    def test_cr4_detects_every_double_error(self):
        # Hamming(8,4) here has minimum distance 4: one error is corrected,
        # two are detected and never miscorrected.
        codewords = ref_hamming_encode(range(16), 4).reshape(16, 8)
        for nibble, codeword in enumerate(codewords):
            for a in range(8):
                for b in range(a + 1, 8):
                    word = codeword.copy()
                    word[[a, b]] ^= 1
                    nibbles, corrected, uncorrectable = hamming_decode(word, 4)
                    assert (corrected, uncorrectable) == (0, 1)
                    # An uncorrectable word keeps its received data bits.
                    assert nibbles[0] == nibble ^ sum(1 << i for i in (a, b) if i < 4)

    @pytest.mark.parametrize("cr", CODING_RATES)
    def test_encode_matches_reference(self, cr):
        nibbles = np.arange(16).repeat(3)
        assert np.array_equal(hamming_encode(nibbles, cr), ref_hamming_encode(nibbles, cr))


class TestInterleaverGather:
    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    @pytest.mark.parametrize("cr", CODING_RATES)
    def test_matches_roll_per_block(self, sf, cr):
        cw = 4 + cr
        rng = np.random.default_rng(sf * 10 + cr)
        for n_blocks in (1, 2, 3):
            bits = rng.integers(0, 2, n_blocks * sf * cw).astype(np.uint8)
            blocks = range(0, bits.size, sf * cw)
            ref = np.concatenate([ref_interleave(bits[i : i + sf * cw], sf, cw) for i in blocks])
            ref_inv = np.concatenate(
                [ref_deinterleave(bits[i : i + sf * cw], sf, cw) for i in blocks]
            )
            assert np.array_equal(interleave(bits, sf, cw), ref)
            assert np.array_equal(deinterleave(bits, sf, cw), ref_inv)


class TestWhiteningPeriod:
    def test_matches_lfsr(self):
        for n in (0, 1, 8, 255, 256, 2056, 3000):
            bits = np.zeros(n, dtype=np.uint8)
            assert np.array_equal(whiten(bits), ref_whitening_sequence(n))


class TestFramerMatchesReference:
    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    @pytest.mark.parametrize("cr", CODING_RATES)
    def test_encode_and_decode(self, sf, cr):
        framer = LoRaFramer(LoRaParams(spreading_factor=sf), coding_rate=cr)
        rng = np.random.default_rng(1000 * sf + cr)
        for payload_len in range(33):
            payload = rng.integers(0, 256, payload_len, dtype=np.uint8).tobytes()
            frame = framer.encode(payload)
            assert np.array_equal(frame.symbols, ref_encode(sf, cr, payload))
            streams = [rng.integers(0, 1 << sf, frame.n_symbols)]
            for n_corrupted in (0, 1, 2):
                symbols = frame.symbols.copy()
                where = rng.choice(frame.n_symbols, n_corrupted, replace=False)
                symbols[where] = rng.integers(0, 1 << sf, n_corrupted)
                streams.append(symbols)
            for symbols in streams:
                decoded = framer.decode(symbols, payload_len)
                ref_payload, ref_ok, ref_corrected = ref_decode(sf, cr, symbols, payload_len)
                assert decoded.payload == ref_payload
                assert decoded.crc_ok == ref_ok
                assert decoded.corrected_codewords == ref_corrected


class TestInterleaverSpread:
    """A corrupted symbol may flip every one of its bits after Gray decoding."""

    @pytest.mark.parametrize(
        "sf",
        [
            sf
            if sf == 8
            else pytest.param(
                sf,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="interleave rotates (4 + CR, SF) rows, not SF codewords, so "
                    "a symbol can put 2 bit errors in one codeword unless SF == 8 "
                    "(ROADMAP: 'The interleaver spreads bits, not codewords')",
                ),
            )
            for sf in SPREADING_FACTORS
        ],
    )
    def test_one_corrupted_symbol_leaves_each_codeword_one_bit_error(self, sf):
        cr = 4
        cw = 4 + cr
        for symbol in range(cw):
            errors = np.zeros((cw, sf), dtype=np.uint8)
            errors[symbol] = 1
            per_codeword = deinterleave(errors.reshape(-1), sf, cw).reshape(sf, cw).sum(axis=1)
            assert per_codeword.max() <= 1, (symbol, per_codeword.tolist())
