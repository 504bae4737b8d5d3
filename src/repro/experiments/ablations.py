"""Ablations of Choir's design choices (DESIGN.md Sec. 5).

Each function isolates one mechanism the paper argues for and measures the
system with it enabled vs. disabled/weakened:

* sub-bin (fine) offset refinement vs. coarse peak read-off,
* phased SIC vs. single-pass joint fitting under near-far,
* the FFT zero-padding factor used for coarse estimation,
* the preamble accumulation window for below-noise detection, and the
  FFT zero-padding factor the detector decides at,
* data splicing for correlated-team transmissions.
"""

from __future__ import annotations

import numpy as np

from repro.channel.collider import CollisionChannel
from repro.core.decoder import ChoirDecoder
from repro.core.dechirp import dechirp_windows
from repro.core.detection import accumulate_preamble, detect_preamble
from repro.core.offsets import coarse_offsets
from repro.core.sic import phased_sic
from repro.experiments.runner import DEFAULT_PARAMS, ExperimentResult
from repro.hardware.radio import LoRaRadio
from repro.phy.packet import LoRaFramer
from repro.sensing.sensors import code_to_bits
from repro.sensing.splicing import splice_bits
from repro.utils import circular_distance, ensure_rng


def _two_user_packet(rng, gains=(15.0, 12.0), n_symbols=16):
    channel = CollisionChannel(DEFAULT_PARAMS, noise_power=1.0)
    streams = [
        rng.integers(0, DEFAULT_PARAMS.chips_per_symbol, n_symbols) for _ in gains
    ]
    transmissions = [
        (LoRaRadio(DEFAULT_PARAMS, node_id=i, rng=rng), streams[i], complex(g))
        for i, g in enumerate(gains)
    ]
    return channel.receive(transmissions, rng=rng), streams


def _accuracy(decoder_users, packet, streams):
    n_bins = DEFAULT_PARAMS.chips_per_symbol
    accuracies = []
    for user, stream in zip(packet.users, streams):
        truth = user.true_offset_bins(DEFAULT_PARAMS) % n_bins
        best = None
        for du in decoder_users:
            distance = circular_distance(du.offset_bins, truth, period=n_bins)
            if distance < 0.5 and (best is None or distance < best[0]):
                best = (distance, du)
        accuracies.append(
            float(np.mean(best[1].symbols == stream)) if best else 0.0
        )
    return float(np.mean(accuracies))


def _close_pair_packet(rng, separation_bins=1.6, gains=(45.0, 8.0), n_symbols=16):
    """A leakage-stressed pair: offsets ~1.6 bins apart, 15 dB apart.

    This is where Sec. 5.1's leakage modelling earns its keep: the strong
    user's side lobes overlap the weak user's main lobe, so a coarse
    (unmodelled) estimate mis-locates the weak peak and the subtraction
    leaks.
    """
    from repro.hardware.clock import TimingModel
    from repro.hardware.oscillator import OscillatorModel

    base = float(rng.uniform(10, 240))
    channel = CollisionChannel(DEFAULT_PARAMS, noise_power=1.0)
    streams = [
        rng.integers(0, DEFAULT_PARAMS.chips_per_symbol, n_symbols) for _ in gains
    ]
    transmissions = []
    for i, g in enumerate(gains):
        radio = LoRaRadio(
            DEFAULT_PARAMS,
            oscillator=OscillatorModel(
                DEFAULT_PARAMS.bins_to_hz(base + i * separation_bins + rng.uniform(0, 0.3))
            ),
            timing=TimingModel(float(rng.uniform(0, 8)) / DEFAULT_PARAMS.sample_rate),
            node_id=i,
            rng=rng,
        )
        transmissions.append((radio, streams[i], complex(g)))
    return channel.receive(transmissions, rng=rng), streams


def ablation_fine_vs_coarse(n_trials: int = 6, seed: int = 50) -> ExperimentResult:
    """Sub-bin refinement on vs. off (Sec. 5.1's central claim)."""
    result = ExperimentResult(
        name="ablation: fine vs coarse offset estimation",
        notes="coarse-only decoding loses tracking accuracy and leaks interference",
    )
    rng = ensure_rng(seed)
    packets = [_close_pair_packet(rng) for _ in range(n_trials)]
    # Both arms start from the *unpadded* FFT's integer-bin peaks ("only
    # accurate to within one FFT bin", Sec. 5.1); the fine arm then runs
    # the residual-minimization refinement, the coarse arm decodes as-is.
    for refine, label in ((True, "fine (refined)"), (False, "coarse only")):
        accuracies = []
        for packet, streams in packets:
            decoder = ChoirDecoder(DEFAULT_PARAMS, oversample=1, refine=refine)
            users = decoder.decode(packet.samples, streams[0].size)
            accuracies.append(_accuracy(users, packet, streams))
        result.add(mode=label, mean_symbol_accuracy=round(float(np.mean(accuracies)), 4))
    return result


def ablation_sic_strategies(n_trials: int = 5, seed: int = 51) -> ExperimentResult:
    """Phased SIC vs a single joint pass under a 26 dB near-far spread."""
    result = ExperimentResult(
        name="ablation: SIC strategy under near-far",
        notes="single-tier detection misses the weak user entirely",
    )
    rng = ensure_rng(seed)
    scenarios = []
    for _ in range(n_trials):
        packet, streams = _two_user_packet(rng, gains=(60.0, 3.0))
        scenarios.append((packet, streams))
    for max_tiers, label in ((4, "phased (multi-tier)"), (1, "single tier")):
        weak_found = 0
        for packet, _ in scenarios:
            windows = dechirp_windows(
                DEFAULT_PARAMS,
                packet.samples,
                n_windows=DEFAULT_PARAMS.preamble_len - 1,
                start=DEFAULT_PARAMS.samples_per_symbol,
            )
            estimates = phased_sic(windows, max_tiers=max_tiers)
            weak_truth = packet.users[1].true_offset_bins(DEFAULT_PARAMS) % 256
            if any(
                circular_distance(e.position_bins, weak_truth, period=256) < 0.5
                for e in estimates
            ):
                weak_found += 1
        result.add(strategy=label, weak_user_found=f"{weak_found}/{n_trials}")
    return result


def ablation_fft_oversampling(seed: int = 52) -> ExperimentResult:
    """Coarse-position error vs the zero-padding factor (paper uses 10x)."""
    result = ExperimentResult(
        name="ablation: FFT oversampling factor",
        notes="coarse accuracy ~ 1/(2*factor) bins; refinement closes the rest",
    )
    rng = ensure_rng(seed)
    errors_by_factor = {1: [], 4: [], 10: []}
    for _ in range(8):
        packet, _ = _two_user_packet(rng)
        windows = dechirp_windows(
            DEFAULT_PARAMS,
            packet.samples,
            n_windows=DEFAULT_PARAMS.preamble_len - 1,
            start=DEFAULT_PARAMS.samples_per_symbol,
        )
        truths = sorted(
            u.true_offset_bins(DEFAULT_PARAMS) % 256 for u in packet.users
        )
        for factor in errors_by_factor:
            peaks = coarse_offsets(windows, factor, max_users=2)
            found = sorted(p.position_bins for p in peaks)
            if len(found) == 2:
                errors_by_factor[factor].extend(
                    circular_distance(t, f, period=256) for t, f in zip(truths, found)
                )
    for factor, errors in errors_by_factor.items():
        result.add(
            oversample=factor,
            mean_coarse_error_bins=round(float(np.mean(errors)), 4) if errors else None,
        )
    return result


def preamble_detection_rate(
    snr_db: float,
    oversample: int,
    spreading_factor: int = 7,
    bin_offset: float = 0.0,
    n_windows: int = 8,
    n_trials: int = 300,
    seed: int = 55,
) -> float:
    """Detection probability of an ``n_windows`` preamble tone in unit noise.

    Each trial puts a tone at a random FFT bin plus ``bin_offset`` (0.0
    on a bin, 0.5 half way between two) at ``snr_db`` per sample into
    every window, and asks :func:`detect_preamble` of the accumulation at
    ``oversample`` zero padding.  The same ``seed`` draws the same tones
    and noise whatever ``snr_db`` and ``oversample``, so curves compare
    resolutions on identical inputs.
    """
    rng = ensure_rng(seed)
    n = 1 << spreading_factor
    positions = rng.integers(0, n, n_trials) + bin_offset
    phases = rng.uniform(0.0, 2 * np.pi, n_trials)
    shape = (n_trials, n_windows, n)
    noise = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)
    tones = 10 ** (snr_db / 20) * np.exp(
        1j * (2 * np.pi * positions[:, None] * np.arange(n) / n + phases[:, None])
    )
    detections = sum(
        detect_preamble(
            accumulate_preamble(windows, oversample), oversample, n_windows=n_windows
        ).detected
        for windows in noise + tones[:, None, :]
    )
    return detections / n_trials


def ablation_preamble_accumulation(seed: int = 53) -> ExperimentResult:
    """Detection of a weak team vs the number of accumulated windows."""
    result = ExperimentResult(
        name="ablation: preamble accumulation window",
        notes="below-noise teams only emerge with multi-window accumulation",
    )
    for n_windows in (1, 2, 4, 8):
        # -16 dB per sample: invisible in a single SF8 window.
        rate = preamble_detection_rate(
            -16.0, 10, spreading_factor=8, n_windows=n_windows, n_trials=50, seed=seed
        )
        result.add(n_windows=n_windows, detection_rate=rate)
    return result


def snr_at_detection_rate(
    snrs_db: list[float], rates: list[float], target: float = 0.9
) -> float:
    """SNR where a rising Pd curve first reaches ``target`` (linear interpolation).

    ``nan`` when the curve never reaches it or already starts above it.
    """
    for k in range(1, len(rates)):
        if rates[k] >= target > rates[k - 1]:
            fraction = (target - rates[k - 1]) / (rates[k] - rates[k - 1])
            return float(snrs_db[k - 1] + fraction * (snrs_db[k] - snrs_db[k - 1]))
        if rates[k - 1] >= target:
            break
    return float("nan")


def ablation_detection_resolution(n_trials: int = 300) -> ExperimentResult:
    """SNR for 90 % detection vs the zero-padding factor of the decision.

    The streaming scan decides on every start at 2x and re-scores at 10x
    only where it fired; this is the sensitivity that choice keeps.
    """
    result = ExperimentResult(
        name="ablation: detection zero-padding factor",
        notes="2x decides as well as 10x; 1x loses ~3 dB to half-bin scalloping",
    )
    for spreading_factor in (7, 8):
        snrs = [-19.0 - 3 * (spreading_factor - 7) + k for k in range(8)]
        for bin_offset in (0.0, 0.25, 0.5):
            for oversample in (1, 2, 10):
                rates = [
                    preamble_detection_rate(
                        snr, oversample, spreading_factor, bin_offset, n_trials=n_trials
                    )
                    for snr in snrs
                ]
                result.add(
                    spreading_factor=spreading_factor,
                    bin_offset=bin_offset,
                    oversample=oversample,
                    snr_db_at_pd90=round(snr_at_detection_rate(snrs, rates), 2),
                )
    return result


def ablation_splicing(seed: int = 54) -> ExperimentResult:
    """Do co-located sensors' *coded* packets coincide with/without splicing?

    Without splicing, whole-reading packets differ after whitening+FEC even
    when only LSBs differ, so no two team members transmit the same signal.
    With MSB-chunk splicing, the first chunk's packets are bit-identical
    across the team (Sec. 7.2).
    """
    result = ExperimentResult(
        name="ablation: data splicing for correlated teams",
        notes="identical coded packets are what allow coherent team power gain",
    )
    rng = ensure_rng(seed)
    framer = LoRaFramer(DEFAULT_PARAMS, coding_rate=4)
    base = 0b101101000000
    codes = [base + int(d) for d in rng.integers(0, 6, 8)]  # shared MSBs
    # Without splicing: encode the whole 12-bit reading per sensor.
    whole_packets = {
        tuple(framer.encode(int(c).to_bytes(2, "big")).symbols) for c in codes
    }
    # With splicing: encode only the first (shared) 4-bit chunk.
    chunk_packets = set()
    for c in codes:
        chunk = splice_bits(code_to_bits(c, 12), [4, 4, 4])[0]
        chunk_packets.add(tuple(framer.encode(bytes([int("".join(map(str, chunk)), 2)])).symbols))
    result.add(
        mode="whole reading (no splicing)",
        distinct_coded_packets=len(whole_packets),
        team_can_pool=len(whole_packets) == 1,
    )
    result.add(
        mode="MSB chunk (spliced)",
        distinct_coded_packets=len(chunk_packets),
        team_can_pool=len(chunk_packets) == 1,
    )
    return result
