"""Dechirping and oversampled spectra (paper Sec. 4, steps 1-2).

Multiplying a received window by the base down-chirp turns every colliding
up-chirp into a complex tone whose frequency is ``(data + offset)`` bins;
zero-padding the FFT by ``oversample`` (the paper uses 10x) reveals each
tone as a sinc whose *fractional* peak position carries the user identity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import observe
from repro.phy.chirp import downchirp
from repro.phy.params import LoRaParams
from repro.profile.profiler import shape_bucket

#: Zero-padding factor the paper uses for its wide FFTs (Sec. 5.1, Fig. 3d).
DEFAULT_OVERSAMPLE = 10


@lru_cache(maxsize=64)
def _downchirp_for(
    spreading_factor: int, bandwidth: float, sample_rate: float, oversampling: int
) -> np.ndarray:
    """Base down-chirp for one PHY configuration, generated once.

    The returned array is marked read-only: it is shared by every caller,
    and an in-place edit would silently corrupt all future dechirps.
    """
    del sample_rate  # implied by (bandwidth, oversampling); kept in the key
    params = LoRaParams(
        spreading_factor=spreading_factor,
        bandwidth=bandwidth,
        oversampling=oversampling,
    )
    chirp = downchirp(params)
    chirp.setflags(write=False)
    return chirp


def cached_downchirp(params: LoRaParams) -> np.ndarray:
    """Read-only cached base down-chirp for ``params``.

    :func:`dechirp_windows` runs in every decode of every packet, and
    regenerating the conjugate chirp (two transcendental passes over
    ``samples_per_symbol`` points) dominated its cost for short captures.
    The cache is keyed on ``(sf, bw, fs, oversampling)`` -- everything the
    waveform depends on -- so distinct PHY configurations never collide.
    """
    return _downchirp_for(
        params.spreading_factor,
        params.bandwidth,
        params.sample_rate,
        params.oversampling,
    )


@lru_cache(maxsize=64)
def _sample_index_for(n_samples: int) -> np.ndarray:
    """The ``0..n-1`` sample-index vector, generated once per length.

    Read-only for the same reason as :func:`_downchirp_for`: the array is
    shared by every phasor-basis builder in the hot path.
    """
    index = np.arange(n_samples)
    index.setflags(write=False)
    return index


def cached_sample_index(n_samples: int) -> np.ndarray:
    """Read-only cached ``np.arange(n_samples)`` phasor index.

    Every phasor basis in the receiver (the data stage's derotations, the
    tone matrix, the residual engine's candidate columns) starts from this
    vector; allocating it per call measurably taxed the offset search,
    which builds thousands of bases per packet.  Mirrors
    :func:`cached_downchirp`.
    """
    return _sample_index_for(n_samples)


def dechirp_windows(
    params: LoRaParams, samples: np.ndarray, n_windows: int | None = None, start: int = 0
) -> np.ndarray:
    """Dechirp consecutive symbol windows of a capture.

    Returns an array of shape ``(n_windows, samples_per_symbol)`` where row
    ``m`` is window ``m`` multiplied by the base down-chirp.  Windows that
    would run past the end of ``samples`` are dropped.
    """
    samples = np.asarray(samples)
    n = params.samples_per_symbol
    available = (samples.size - start) // n
    if n_windows is None:
        n_windows = available
    n_windows = min(n_windows, available)
    if n_windows <= 0:
        return np.zeros((0, n), dtype=complex)
    with observe.kernel(
        "dechirp.windows",
        f"N{n}.M{shape_bucket(n_windows)}",
        bytes_touched=16 * n_windows * n,
    ):
        segment = samples[start : start + n_windows * n].reshape(n_windows, n)
        return segment * cached_downchirp(params)[None, :]


def oversampled_spectrum(dechirped: np.ndarray, oversample: int = DEFAULT_OVERSAMPLE) -> np.ndarray:
    """Zero-padded FFT of dechirped window(s).

    ``dechirped`` may be 1-D (one window) or 2-D (stack of windows); the FFT
    is along the last axis with length ``oversample * window_len``, so peak
    index ``i`` corresponds to ``i / oversample`` FFT bins.
    """
    dechirped = np.asarray(dechirped)
    n = dechirped.shape[-1]
    n_rows = int(np.prod(dechirped.shape[:-1])) if dechirped.ndim > 1 else 1
    with observe.kernel(
        "dechirp.fft",
        f"N{n * oversample}.M{shape_bucket(n_rows)}",
        fft_count=n_rows,
        fft_points=n_rows * n * oversample,
        bytes_touched=16 * n_rows * n * (oversample + 1),
    ):
        return np.fft.fft(dechirped, n * oversample, axis=-1)


def spectrum_bin_positions(n_bins: int, oversample: int = DEFAULT_OVERSAMPLE) -> np.ndarray:
    """Positions (in units of FFT bins) of each oversampled spectrum index."""
    return np.arange(n_bins * oversample) / oversample


@lru_cache(maxsize=64)
def _quarter_bin_shift(n_samples: int) -> np.ndarray:
    """Phasor moving a window's spectrum down by a quarter bin.

    Read-only for the same reason as :func:`_downchirp_for`.
    """
    shift = np.exp(-2j * np.pi * 0.25 * cached_sample_index(n_samples) / n_samples)
    shift.setflags(write=False)
    return shift


def quarter_bin_probe(dechirped: np.ndarray) -> np.ndarray:
    """Exact DTFT of one window a quarter bin either side of every bin.

    Entry ``k`` of the returned ``2N`` values is the DTFT at ``k / 2 +
    0.25`` bins, so entry ``2c`` sits a quarter bin above bin ``c`` and
    entry ``2c - 1`` a quarter bin below it (``c = 0`` wraps to the last
    entry, ``N - 0.25``, equal to ``-0.25`` by periodicity): bins ``4c + 1``
    and ``4c - 1`` of the FFT zero-padded to ``4N``.  One ``2N``-point FFT
    of the window times a quarter-bin phasor.  The data stage's decision
    scores every near-maximal candidate's sub-bin deviation from these
    two neighbours and the plain ``N``-point FFT between them, instead of
    one DTFT basis per candidate.

    Not the ``4N``-point FFT itself: numpy releases the GIL in FFTs longer
    than about 500 points (``4N = 512`` at SF7, ``2N = 256`` not), and a
    thread that releases the GIL waits up to a switch interval to get it
    back from a busy thread.  On the threaded decode pool that wait cost
    more than the transform.
    """
    dechirped = np.asarray(dechirped)
    n = dechirped.shape[-1]
    return np.fft.fft(dechirped * _quarter_bin_shift(n), 2 * n)


def spectrogram(
    params: LoRaParams,
    samples: np.ndarray,
    window_len: int | None = None,
    hop: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Short-time Fourier magnitude of a raw (not dechirped) capture.

    Only used for visualisation (reproducing the paper's Fig. 2/3
    spectrograms); returns ``(times_s, freqs_hz, magnitude)``.
    """
    samples = np.asarray(samples)
    if window_len is None:
        window_len = max(params.samples_per_symbol // 16, 8)
    if hop is None:
        hop = max(window_len // 2, 1)
    n_frames = max((samples.size - window_len) // hop + 1, 0)
    window = np.hanning(window_len)
    frames = np.stack(
        [samples[i * hop : i * hop + window_len] * window for i in range(n_frames)]
    ) if n_frames else np.zeros((0, window_len))
    spec = np.fft.fftshift(np.fft.fft(frames, axis=-1), axes=-1)
    freqs = np.fft.fftshift(np.fft.fftfreq(window_len, 1.0 / params.sample_rate))
    times = (np.arange(n_frames) * hop + window_len / 2) / params.sample_rate
    return times, freqs, np.abs(spec)
