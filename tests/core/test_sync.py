"""Tests for sample-level capture synchronization."""

import numpy as np
import pytest

from repro.core import ChoirDecoder
from repro.core.detection import align_to_window_grid
from tests.core.conftest import PARAMS, make_collision


def _shifted_capture(shift, seed=0):
    rng = np.random.default_rng(seed)
    packet, streams = make_collision(rng, [(12.4, 2.6, 15.0), (90.7, 7.2, 12.0)])
    lead = (rng.normal(size=shift) + 1j * rng.normal(size=shift)) / np.sqrt(2)
    return np.concatenate([lead, packet.samples]), packet, streams


class TestAlignToWindowGrid:
    @pytest.mark.parametrize("shift", [0, 50, 150, 256, 400])
    def test_start_close_to_true_lead(self, shift):
        shifted, _, _ = _shifted_capture(shift)
        start, score = align_to_window_grid(PARAMS, shifted)
        # Start must land shortly before the true preamble start so the
        # residual becomes a small positive per-user delay.
        assert shift - 40 <= start <= shift + 4
        assert score > 10.0

    def test_too_short_capture(self):
        start, score = align_to_window_grid(PARAMS, np.zeros(100, dtype=complex))
        assert start == 0 and score == 0.0


def _synchronized(capture):
    """Trim the capture so its preamble sits on the window grid."""
    offset, _ = align_to_window_grid(PARAMS, capture)
    return capture[offset:]


class TestDecoderSynchronize:
    @pytest.mark.parametrize("shift", [33, 256, 517])
    def test_shifted_capture_decodes(self, shift):
        shifted, packet, streams = _shifted_capture(shift)
        decoder = ChoirDecoder(PARAMS)
        aligned = _synchronized(shifted)
        users = decoder.decode(aligned, streams[0].size)
        for stream in streams:
            best = max(
                (float(np.mean(du.symbols == stream)) for du in users), default=0.0
            )
            assert best == 1.0

    def test_aligned_capture_unchanged_result(self):
        shifted, packet, streams = _shifted_capture(0)
        decoder = ChoirDecoder(PARAMS)
        aligned = _synchronized(shifted)
        users = decoder.decode(aligned, streams[0].size)
        assert len(users) == 2
