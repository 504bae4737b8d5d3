"""Least-squares channel estimation for a set of candidate tones (Eqn. 2).

Given candidate tone positions (in fractional FFT bins), the dechirped
window is a linear combination ``z = E @ h + noise`` where column ``k`` of
``E`` is the complex exponential at position ``mu_k``.  The best-fit
channels are the least-squares solution ``h = (E^H E)^-1 E^H z`` -- exactly
the paper's Eqn. 2.  Modelling *all* users jointly is what lets Choir
account for the sinc leakage of one user's peak into another's.
"""

from __future__ import annotations

import numpy as np

from repro.core.dechirp import cached_sample_index


def tone_matrix(
    positions_bins: np.ndarray,
    n_samples: int,
    delays_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix whose column ``k`` is user ``k``'s dechirped preamble model.

    Without delays this is the pure tone ``E[n, k] = exp(2j*pi*mu_k*n/N)``.

    With ``delays_samples`` the column models what a chirp delayed by
    ``delta_k`` samples *actually* dechirps to: the first ``delta_k``
    samples of the window belong to the user's previous (identical,
    preamble) chirp and carry an extra constant phase of
    ``(N/2 - delta_k)`` cycles relative to the rest -- the boundary
    "glitch".  Modelling it keeps the reconstruction residual at the noise
    floor, so the phased SIC does not mistake the glitch hump for extra
    users.
    """
    positions_bins = np.atleast_1d(np.asarray(positions_bins, dtype=float))
    n = cached_sample_index(n_samples)
    e = np.exp(2j * np.pi * np.outer(n, positions_bins) / n_samples)
    if delays_samples is not None:
        delays = np.atleast_1d(np.asarray(delays_samples, dtype=float))
        if delays.size != positions_bins.size:
            raise ValueError("delays_samples must match positions_bins in length")
        for k, delta in enumerate(delays):
            delta = float(delta % n_samples)
            if delta <= 0.0:
                continue
            head = n < delta
            jump = np.exp(2j * np.pi * (n_samples / 2.0 - delta))
            e[head, k] *= jump
    return e


def data_column(
    mu_bins: float,
    delay_samples: float,
    symbol: int,
    prev_symbol: int,
    n_samples: int,
) -> np.ndarray:
    """Exact dechirped model of one user's *data* window.

    A user delayed by ``delta`` samples contributes two segments to the
    receiver's window for symbol ``d``: the head (``n < delta``) still
    carries the tail of the *previous* chirp (symbol ``d_prev``) and the
    rest carries the current one.  Expanding the chirp phases gives::

        col[n >= delta] = exp(2j*pi * (mu + d) * n / N)
        col[n <  delta] = exp(2j*pi * ((mu + d_prev) * n / N
                          + (N/2 - delta) + (d_prev*(N - delta) + d*delta)/N))

    Modelling the head exactly (instead of as a pure tone) is what lets the
    decoder subtract a strong user cleanly enough to recover a ~30 dB
    weaker one underneath (the near-far regime of Sec. 5.2).
    """
    n = cached_sample_index(n_samples)
    delta = float(delay_samples % n_samples)
    column = np.exp(2j * np.pi * (mu_bins + symbol) * n / n_samples)
    if delta > 0.0:
        head = n < delta
        const = (n_samples / 2.0 - delta) + (
            prev_symbol * (n_samples - delta) + symbol * delta
        ) / n_samples
        column[head] = np.exp(
            2j * np.pi * ((mu_bins + prev_symbol) * n[head] / n_samples + const)
        )
    return column


def estimate_channels(
    dechirped: np.ndarray,
    positions_bins: np.ndarray,
    delays_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Least-squares channel estimates for tones at ``positions_bins``.

    ``dechirped`` may be one window (1-D) or a stack (2-D, one row per
    window); the same tone positions are fit to every row, returning shape
    ``(n_users,)`` or ``(n_windows, n_users)`` accordingly.  This is the
    paper's Eqn. 2 generalized to K users (and, optionally, to the
    delay-aware window model).
    """
    dechirped = np.asarray(dechirped)
    single = dechirped.ndim == 1
    rows = np.atleast_2d(dechirped)
    e = tone_matrix(positions_bins, rows.shape[-1], delays_samples)
    solution, *_ = np.linalg.lstsq(e, rows.T, rcond=None)
    channels = solution.T
    if single:
        return channels[0]
    return channels


def reconstruct_tones(
    positions_bins: np.ndarray,
    channels: np.ndarray,
    n_samples: int,
    delays_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild the dechirped signal implied by offsets + channels.

    The reconstruction whose residual the fine offset search minimizes
    (Eqn. 3's ``h1*exp(...) + h2*exp(...)`` term, generalized to K users).
    """
    e = tone_matrix(positions_bins, n_samples, delays_samples)
    channels = np.asarray(channels)
    if channels.ndim == 1:
        return e @ channels
    return (e @ channels.T).T
