"""The LoRa coding chain: Gray mapping, Hamming FEC, interleaving, whitening.

LoRa processes payload bits through (in transmit order) whitening, Hamming
encoding at coding rate 4/(4+CR), diagonal interleaving across a block of
symbols, and Gray mapping onto symbol values.  We implement each stage and
its inverse from scratch.  Sec. 7.2 of the paper leans on this chain when it
notes that interleaving/coding can make near-identical sensor readings
diverge after coding, motivating Choir's data splicing
(:mod:`repro.sensing.splicing`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# ----------------------------------------------------------------------
# Gray code
# ----------------------------------------------------------------------


def gray_encode(value: int | np.ndarray) -> int | np.ndarray:
    """Binary-reflected Gray code of ``value`` (element-wise for arrays)."""
    value = np.asarray(value)
    result = value ^ (value >> 1)
    if result.ndim == 0:
        return int(result)
    return result


def gray_decode(code: int | np.ndarray) -> int | np.ndarray:
    """Inverse of :func:`gray_encode`."""
    value = np.array(code, dtype=np.int64)
    for shift in (1, 2, 4, 8, 16, 32):  # every bit position of an int64
        value ^= value >> shift
    if value.ndim == 0:
        return int(value)
    return value


# ----------------------------------------------------------------------
# Hamming FEC
# ----------------------------------------------------------------------

# LoRa's FEC protects each 4-bit nibble with CR in {1..4} parity bits,
# giving rates 4/5 .. 4/8.  CR >= 3 corrects single-bit errors (true
# Hamming(7,4)/(8,4)); CR 1..2 only detect.

_HAMMING_G = np.array(
    # Generator for Hamming(8,4): data bits d0..d3 then parities p0..p3.
    [
        [1, 0, 0, 0, 1, 1, 0, 1],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1, 1, 0],
    ],
    dtype=np.uint8,
)

#: Row ``v`` is nibble ``v``'s codeword; coding rate CR keeps its first
#: ``4 + CR`` bits.
_CODEWORDS = ((np.arange(16)[:, None] >> np.arange(4)) & 1).astype(np.uint8) @ _HAMMING_G % 2


def _decode_table(coding_rate: int) -> np.ndarray:
    """Row ``w``: ``(nibble, corrected, uncorrectable)`` for received word ``w`` (LSB first).

    A word within the correction radius of a codeword (1 bit at CR >= 3, 0
    at CR 1-2) decodes to its nibble; any other word keeps its data bits.
    """
    n = 4 + coding_rate
    words = np.arange(1 << n)
    bits = (words[:, None] >> np.arange(n)) & 1
    distance = (bits[:, None, :] != _CODEWORDS[None, :, :n]).sum(axis=2)
    nearest = distance.min(axis=1)
    fixable = nearest <= (1 if coding_rate >= 3 else 0)
    nibble = np.where(fixable, distance.argmin(axis=1), words & 0xF)
    return np.stack([nibble, fixable & (nearest > 0), ~fixable], axis=1).astype(np.uint8)


_DECODE_TABLES = {cr: _decode_table(cr) for cr in range(1, 5)}


def hamming_encode(nibbles: np.ndarray | list, coding_rate: int = 4) -> np.ndarray:
    """Encode 4-bit nibbles with ``coding_rate`` parity bits each.

    Returns a flat uint8 bit array of length ``len(nibbles) * (4 + CR)``.
    """
    if not 1 <= coding_rate <= 4:
        raise ValueError(f"coding_rate must be in 1..4, got {coding_rate}")
    nibbles = np.asarray(nibbles, dtype=int).reshape(-1)
    bad = nibbles[(nibbles < 0) | (nibbles > 15)]
    if bad.size:
        raise ValueError(f"nibble out of range: {bad[0]}")
    return _CODEWORDS[nibbles, : 4 + coding_rate].reshape(-1)


def hamming_decode(bits: np.ndarray, coding_rate: int = 4) -> tuple[np.ndarray, int, int]:
    """Decode a flat bit array produced by :func:`hamming_encode`.

    Returns ``(nibbles, corrected, uncorrectable)``: codewords repaired by
    one bit flip (CR >= 3 only), and codewords detected as wrong but not
    repairable (at CR >= 3 two or more bits from every codeword, at CR 1-2
    any non-codeword), which decode to their received data bits.
    """
    if not 1 <= coding_rate <= 4:
        raise ValueError(f"coding_rate must be in 1..4, got {coding_rate}")
    bits = np.asarray(bits, dtype=np.uint8)
    block = 4 + coding_rate
    if bits.size % block != 0:
        raise ValueError(f"bit stream length {bits.size} is not a multiple of {block}")
    words = np.packbits(bits.reshape(-1, block), axis=1, bitorder="little")[:, 0]
    nibbles, corrected, uncorrectable = _DECODE_TABLES[coding_rate][words].T
    return nibbles, int(corrected.sum()), int(uncorrectable.sum())


# ----------------------------------------------------------------------
# Diagonal interleaver
# ----------------------------------------------------------------------


@lru_cache(maxsize=256)
def _interleaver_gathers(
    spreading_factor: int, codeword_len: int, n_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(forward, inverse)``: ``interleaved = bits[forward]`` over ``n_blocks`` blocks.

    Within a block, output bit ``j * codeword_len + i`` is input bit
    ``i * spreading_factor + (j - i) % spreading_factor``.
    """
    i = np.arange(codeword_len)
    j = np.arange(spreading_factor)[:, None]
    block = (i * spreading_factor + (j - i) % spreading_factor).reshape(-1)
    forward = (np.arange(n_blocks)[:, None] * block.size + block).reshape(-1)
    return forward, np.argsort(forward)


def _gather(
    bits: np.ndarray, spreading_factor: int, codeword_len: int, inverse: bool
) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    block = spreading_factor * codeword_len
    if bits.size % block:
        raise ValueError(f"expected a multiple of {block} bits, got {bits.size}")
    gathers = _interleaver_gathers(spreading_factor, codeword_len, bits.size // block)
    return bits[gathers[inverse]]


def interleave(bits: np.ndarray, spreading_factor: int, codeword_len: int) -> np.ndarray:
    """LoRa-style diagonal interleaver over whole blocks.

    Each block is read as ``codeword_len`` rows of ``spreading_factor``
    bits, row ``i`` is rotated right by ``i``, and the block is read out by
    columns, one symbol each.  The rows are codewords only when
    ``spreading_factor == codeword_len``; at any other shape one symbol can
    put two bit errors into one codeword.
    """
    return _gather(bits, spreading_factor, codeword_len, inverse=False)


def deinterleave(bits: np.ndarray, spreading_factor: int, codeword_len: int) -> np.ndarray:
    """Inverse of :func:`interleave`."""
    return _gather(bits, spreading_factor, codeword_len, inverse=True)


# ----------------------------------------------------------------------
# Whitening
# ----------------------------------------------------------------------


def _whitening_period() -> np.ndarray:
    """One period of the LFSR whitening sequence (x^8 + x^6 + x^5 + x^4 + 1, seed 0xFF)."""
    state = 0xFF
    out = []
    while not out or state != 0xFF:
        out.append(state & 1)
        feedback = ((state >> 7) ^ (state >> 5) ^ (state >> 4) ^ (state >> 3)) & 1
        state = ((state << 1) | feedback) & 0xFF
    return np.array(out, dtype=np.uint8)


_WHITENING = _whitening_period()


def whiten(bits: np.ndarray) -> np.ndarray:
    """XOR a bit stream with the LoRa whitening sequence (involutive)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return bits ^ np.resize(_WHITENING, bits.size)


# ----------------------------------------------------------------------
# Bit/byte/symbol packing helpers
# ----------------------------------------------------------------------


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Unpack bytes LSB-first into a uint8 bit array."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack an LSB-first bit array back into bytes (zero-padded)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        bits = np.concatenate([bits, np.zeros(8 - bits.size % 8, dtype=np.uint8)])
    return np.packbits(bits, bitorder="little").tobytes()


def bits_to_symbols(bits: np.ndarray, spreading_factor: int) -> np.ndarray:
    """Group bits (LSB-first) into Gray-mapped symbol values."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % spreading_factor:
        pad = spreading_factor - bits.size % spreading_factor
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, spreading_factor)
    weights = (1 << np.arange(spreading_factor)).astype(np.int64)
    values = groups @ weights
    return np.asarray(gray_encode(values), dtype=np.int64)


def symbols_to_bits(symbols: np.ndarray, spreading_factor: int) -> np.ndarray:
    """Inverse of :func:`bits_to_symbols`."""
    symbols = np.asarray(symbols, dtype=np.int64)
    values = np.asarray(gray_decode(symbols), dtype=np.int64)
    bits = ((values[:, None] >> np.arange(spreading_factor)) & 1).astype(np.uint8)
    return bits.reshape(-1)
