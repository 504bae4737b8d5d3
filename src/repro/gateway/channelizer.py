"""Polyphase channelizer: one wideband IQ stream -> per-channel basebands.

A real LoRaWAN base station listens to an 8-channel plan with one wideband
front end; the DSP that splits that stream into per-channel complex
basebands is a critically sampled analysis filterbank (Ghanaatian et al.,
"LoRa Digital Receiver Analysis and Implementation" build their multi-user
receivers the same way).  For ``M`` contiguous channels the bank is the
classic polyphase/FFT structure: one prototype low-pass of length
``M * DEFAULT_TAPS_PER_BRANCH`` folded into ``M`` branches, one length-``M`` FFT
per output sample, an ``M``-fold decimation -- ``M`` times cheaper than
``M`` independent digital down-converters.

Channel ``k`` of a :class:`repro.phy.params.ChannelPlan` sits at baseband
offset ``(k - M//2) * BW`` (see :meth:`ChannelPlan.offset_hz`), which is
FFT bin ``(k - M//2) mod M`` of the bank.  The output of each channel is
a critically sampled (``Fs == BW``) complex baseband stream -- exactly
what the existing single-channel detection/decode pipeline consumes.

The module also provides the matching *synthesis* step
(:func:`upconvert_to_channel`): upsample a narrowband LoRa waveform by
``M`` and mix it onto its channel's offset, which is how the wideband
traffic synthesizer renders a node population onto the plan.

Streaming is first-class: :meth:`PolyphaseChannelizer.push` accepts
arbitrary-size chunks (state carries the filter history across chunk
boundaries, so outputs are bit-identical for any chunking) and
:meth:`PolyphaseChannelizer.flush` drains the filter tail at end of
stream.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import observe
from repro.phy.params import ChannelPlan
from repro.profile.profiler import shape_bucket

#: Prototype filter taps per polyphase branch.  A chirp occupies its full
#: channel including the band edges, so what matters is the width of the
#: prototype's transition band: with 32 taps/branch a neighboring chirp's
#: edge leakage stays far enough below the calibrated detection threshold
#: that it cannot blind a shard's scanner with spurious detections (16
#: taps leaves ~-23 dB of edge leakage, which marginally crosses the
#: threshold at SNRs around 15 dB).
DEFAULT_TAPS_PER_BRANCH = 32


@lru_cache(maxsize=16)
def prototype_filter(n_channels: int) -> np.ndarray:
    """Hamming-windowed-sinc low-pass prototype for an ``M``-channel bank.

    Cutoff is half a channel width (``Fs / 2M``), DC gain is normalized to
    one so the passband is unity and a channel's signal comes out of the
    bank at the amplitude it went in with.  The returned array is
    read-only (it is cached and shared).
    """
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if n_channels == 1:
        # Degenerate single-channel bank: a pure pass-through.
        taps = np.zeros(1)
        taps[0] = 1.0
    else:
        length = n_channels * DEFAULT_TAPS_PER_BRANCH
        n = np.arange(length, dtype=float) - (length - 1) / 2.0
        taps = np.sinc(n / n_channels) * np.hamming(length)
        taps = taps / taps.sum()
    taps.setflags(write=False)
    return taps


def analysis_noise_gain(n_channels: int) -> float:
    """Noise power gain of one analysis branch: ``sum(h**2)``.

    White noise of variance ``sigma**2`` at the wideband input leaves each
    channel with variance ``sigma**2 * gain``; for a good prototype this
    is close to the ideal ``1 / n_channels`` (each channel sees its share
    of the wideband noise).
    """
    taps = prototype_filter(n_channels)
    return float(np.sum(taps * taps))


class PolyphaseChannelizer:
    """Streaming critically sampled analysis filterbank over a channel plan.

    Parameters
    ----------
    plan:
        The channel grid; must be critically stacked
        (``spacing == bandwidth``), which is what decimate-by-``M``
        channelization requires.  Stepped plans (e.g. US915's 200 kHz
        grid) need a fractional resampler in front and are rejected.

    Feed wideband chunks with :meth:`push`; each call returns an
    ``(n_channels, n_out)`` array of per-channel baseband samples (``n_out``
    varies with buffered remainder).  Call :meth:`flush` once at end of
    stream to drain the filter tail.
    """

    def __init__(self, plan: ChannelPlan) -> None:
        if not plan.is_critically_stacked:
            raise ValueError(
                "PolyphaseChannelizer requires a critically stacked plan "
                f"(spacing == bandwidth); got spacing {plan.spacing_hz:.0f} Hz"
                f" over {plan.bandwidth:.0f} Hz channels"
            )
        self.plan = plan
        self.n_channels = plan.n_channels
        self.taps = prototype_filter(plan.n_channels)
        # Window i spans buffered samples [i*M, i*M + L); priming the
        # buffer with L - M zeros makes output 0 correspond to the first
        # M input samples (constant group delay of (L-1)/2 wideband
        # samples, which the packet detector absorbs like any other
        # propagation delay).
        self._buffer = np.zeros(max(self.taps.size - self.n_channels, 0), dtype=complex)
        self._flushed = False
        # Channel c sits at offset (c - M//2) * BW = FFT bin (c - M//2) mod M.
        m = self.n_channels
        self._bin_of_channel = np.array([(c - m // 2) % m for c in range(m)])

    # ------------------------------------------------------------------
    @property
    def noise_gain(self) -> float:
        """Per-channel noise power gain (``sum(h**2)``) of this bank."""
        return float(np.sum(self.taps * self.taps))

    @property
    def group_delay_wideband(self) -> float:
        """Filter group delay in wideband samples."""
        return (self.taps.size - 1) / 2.0

    def narrowband_position(self, wideband_sample: int) -> float:
        """Map a wideband sample index into per-channel output positions.

        Accounts for the analysis filter's group delay; useful when
        relating ground-truth packet starts to channelized streams.
        """
        m = self.n_channels
        return (wideband_sample + self.group_delay_wideband - (m - 1)) / m

    # ------------------------------------------------------------------
    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Channelize the next wideband chunk.

        Returns an ``(n_channels, n_out)`` array; ``n_out`` is however many
        complete decimated outputs the buffered stream now affords (zero is
        possible for chunks smaller than the decimation factor).
        """
        if self._flushed:
            raise RuntimeError("channelizer already flushed")
        chunk = np.asarray(chunk, dtype=complex).ravel()
        m = self.n_channels
        if m == 1:
            return chunk.reshape(1, -1)
        buffer = np.concatenate([self._buffer, chunk])
        length = self.taps.size
        n_out = (buffer.size - (length - m)) // m
        if n_out <= 0:
            self._buffer = buffer
            return np.zeros((m, 0), dtype=complex)
        with observe.kernel(
            "channelizer.push",
            f"M{m}.C{shape_bucket(n_out)}",
            fft_count=n_out,
            fft_points=n_out * m,
            bytes_touched=16 * n_out * (length + 2 * m),
        ):
            # Window i = buffer[i*M : i*M + L]; u[i, p] = sum_t h[tM+p] x[end - (tM+p)]
            # is the reversed-window dot product folded into M branches,
            # one contraction over t without the weighted intermediate.
            windows = np.lib.stride_tricks.sliding_window_view(buffer, length)[:: m][:n_out]
            branches = np.einsum(
                "itp,tp->ip",
                windows[:, ::-1].reshape(n_out, -1, m),
                self.taps.reshape(-1, m),
            )
            spectra = m * np.fft.ifft(branches, axis=1)  # column j = offset j*BW
            self._buffer = buffer[n_out * m :]
            return spectra[:, self._bin_of_channel].T.copy()

    def flush(self) -> np.ndarray:
        """Drain the filter tail; the channelizer accepts no further input."""
        if self._flushed:
            raise RuntimeError("channelizer already flushed")
        m = self.n_channels
        tail_in = max(self.taps.size - m, 0)
        out = self.push(np.zeros(tail_in, dtype=complex))
        self._flushed = True
        return out


def upconvert_to_channel(
    waveform: np.ndarray,
    plan: ChannelPlan,
    channel: int,
    start_sample: int = 0,
) -> np.ndarray:
    """Place a narrowband channel waveform into the wideband stream.

    Upsamples ``waveform`` (critically sampled at ``plan.bandwidth``) by
    the plan's oversample factor with the same windowed-sinc prototype the
    analysis bank uses (scaled by ``M`` to preserve amplitude through
    zero-stuffing), then mixes it to ``plan.offset_hz(channel)``.  The mix
    phase is referenced to the *absolute* wideband index ``start_sample``,
    so rendering is chunk-invariant and phase-continuous no matter how the
    stream is later sliced.

    Returns the wideband waveform whose first sample belongs at absolute
    wideband index ``start_sample``; its length is
    ``M * len(waveform) + L - 1`` (the interpolation filter tail rings
    past the nominal end).
    """
    plan.validate_channel(channel)
    waveform = np.asarray(waveform, dtype=complex).ravel()
    m = plan.oversample_factor
    if m == 1:
        return waveform.copy()
    taps = prototype_filter(m)
    stuffed = np.zeros(waveform.size * m, dtype=complex)
    stuffed[::m] = waveform
    wide = np.convolve(stuffed, m * taps)
    offset_cycles = plan.offset_hz(channel) / plan.wideband_rate
    indices = start_sample + np.arange(wide.size)
    return wide * np.exp(2j * np.pi * offset_cycles * indices)
