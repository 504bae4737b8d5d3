"""CRC-16/CCITT used by the LoRa payload integrity check."""

from __future__ import annotations

import binascii

_CRC_INIT = 0x0000


def crc16_ccitt(data: bytes, init: int = _CRC_INIT) -> int:
    """Compute CRC-16/CCITT (polynomial 0x1021, MSB first) over ``data``.

    ``binascii.crc_hqx`` is this CRC, computed in C; only the low 16
    bits of ``init`` seed it.
    """
    return binascii.crc_hqx(bytes(data), init & 0xFFFF)


def append_crc(data: bytes) -> bytes:
    """Return ``data`` with its 2-byte big-endian CRC appended."""
    crc = crc16_ccitt(data)
    return bytes(data) + bytes([(crc >> 8) & 0xFF, crc & 0xFF])


def check_crc(data_with_crc: bytes) -> bool:
    """Validate a byte string produced by :func:`append_crc`."""
    if len(data_with_crc) < 2:
        return False
    payload, trailer = data_with_crc[:-2], data_with_crc[-2:]
    crc = crc16_ccitt(payload)
    return trailer == bytes([(crc >> 8) & 0xFF, crc & 0xFF])
