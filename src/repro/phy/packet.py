"""LoRa frame construction: payload bytes <-> chirp symbol values.

The transmit chain follows the LoRa PHY (paper Sec. 3): CRC append,
whitening, Hamming FEC over nibbles, diagonal interleaving across blocks of
``SF`` codewords, and Gray mapping onto chirp symbol values.  The receive
chain inverts every stage and reports whether the CRC verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.crc import append_crc, check_crc
from repro.phy.encoding import (
    bits_to_symbols,
    bytes_to_bits,
    bits_to_bytes,
    deinterleave,
    hamming_decode,
    hamming_encode,
    interleave,
    symbols_to_bits,
    whiten,
)
from repro.phy.params import LoRaParams


@dataclass(frozen=True)
class LoRaFrame:
    """A fully encoded frame: the original payload and its symbol stream."""

    payload: bytes
    symbols: np.ndarray
    coding_rate: int

    @property
    def n_symbols(self) -> int:
        """Number of data symbols in the encoded frame."""
        return int(self.symbols.size)


@dataclass(frozen=True)
class DecodedFrame:
    """Result of decoding a symbol stream back into bytes.

    ``corrected_codewords`` and ``uncorrectable_codewords`` count the
    frame's FEC codewords repaired by one bit flip and detected as wrong
    but unrepairable (:func:`repro.phy.encoding.hamming_decode`).
    """

    payload: bytes
    crc_ok: bool
    corrected_codewords: int
    uncorrectable_codewords: int


class LoRaFramer:
    """Encode payload bytes to symbols and decode symbols back to bytes."""

    def __init__(self, params: LoRaParams, coding_rate: int = 4) -> None:
        if not 1 <= coding_rate <= 4:
            raise ValueError(f"coding_rate must be in 1..4, got {coding_rate}")
        self.params = params
        self.coding_rate = coding_rate

    # ------------------------------------------------------------------
    def coded_bit_count(self, payload_len: int) -> int:
        """Number of FEC-coded bits for a payload of ``payload_len`` bytes."""
        data_bytes = payload_len + 2  # payload + CRC16
        n_nibbles = data_bytes * 2
        return n_nibbles * (4 + self.coding_rate)

    def n_symbols_for_payload(self, payload_len: int) -> int:
        """Data symbols needed to carry ``payload_len`` payload bytes."""
        block = self.params.spreading_factor * (4 + self.coding_rate)
        n_blocks = -(-self.coded_bit_count(payload_len) // block)  # ceil division
        return n_blocks * (4 + self.coding_rate)

    # ------------------------------------------------------------------
    def encode(self, payload: bytes) -> LoRaFrame:
        """Run the full transmit coding chain on ``payload``."""
        sf = self.params.spreading_factor
        cr = self.coding_rate
        bits = whiten(bytes_to_bits(append_crc(payload)))
        coded = np.zeros(self.n_symbols_for_payload(len(payload)) * sf, dtype=np.uint8)
        nibbles = np.packbits(bits.reshape(-1, 4), axis=1, bitorder="little")[:, 0]
        coded[: self.coded_bit_count(len(payload))] = hamming_encode(nibbles, cr)
        symbols = bits_to_symbols(interleave(coded, sf, 4 + cr), sf)
        return LoRaFrame(payload=bytes(payload), symbols=symbols, coding_rate=cr)

    def decode(self, symbols: np.ndarray, payload_len: int) -> DecodedFrame:
        """Invert :meth:`encode` for a payload of known length."""
        sf = self.params.spreading_factor
        cr = self.coding_rate
        expected_symbols = self.n_symbols_for_payload(payload_len)
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size < expected_symbols:
            raise ValueError(
                f"need {expected_symbols} symbols for a {payload_len}-byte "
                f"payload, got {symbols.size}"
            )
        bits = deinterleave(symbols_to_bits(symbols[:expected_symbols], sf), sf, 4 + cr)
        nibbles, corrected, uncorrectable = hamming_decode(
            bits[: self.coded_bit_count(payload_len)], cr
        )
        data_bits = np.unpackbits(nibbles[:, None], axis=1, count=4, bitorder="little")
        data = bits_to_bytes(whiten(data_bits.reshape(-1)))
        return DecodedFrame(
            payload=data[:-2],
            crc_ok=check_crc(data),
            corrected_codewords=corrected,
            uncorrectable_codewords=uncorrectable,
        )
