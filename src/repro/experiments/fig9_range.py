"""Fig. 9: extending range with teams of below-range transmitters.

(a) Team throughput vs team size: a bigger team's ML joint decoder pools
``sum_i SNR_i``, which (via LoRaWAN rate adaptation) buys a faster
spreading factor and more bits/s -- the paper reaches 5470 bps with teams
of up to 30 nodes that individually deliver zero.

(b) Maximum distance of the closest transmitter vs team size: the pooled
SNR buys ``K**(1/eta)`` distance under the eta=3.5 urban path-loss model,
i.e. 30 nodes reach ~2.65x the 1 km single-node limit -- the paper's
headline range result.

Both series come from the calibrated link budget; the waveform-level
:func:`validate_team_decode` cross-checks the model at small team sizes
(and is exercised by the tests and the benchmark).
"""

from __future__ import annotations

import numpy as np

from repro.channel.collider import CollisionChannel
from repro.channel.link import LinkModel
from repro.core.decoder import ChoirDecoder
from repro.experiments.runner import DEFAULT_PARAMS, ExperimentResult
from repro.hardware.radio import LoRaRadio
from repro.mac.phy import DEFAULT_DECODE_SNR_DB
from repro.phy.params import LoRaParams
from repro.utils import ensure_rng

#: Team-size bands exactly as Fig. 9(a) buckets them.
FIG9A_BANDS = ((1, 1), (2, 6), (7, 11), (12, 16), (17, 21), (22, 25), (26, 30))

#: Team-size bands exactly as Fig. 9(b) buckets them.
FIG9B_BANDS = ((1, 10), (11, 20), (21, 30))


def _min_decode_snr_db() -> float:
    """Decode floor at the slowest LoRaWAN rate (SF12)."""
    return DEFAULT_DECODE_SNR_DB[12]


def _sf_for_pooled_snr(pooled_snr_db: float, margin_db: float = 3.0) -> int | None:
    """Fastest spreading factor a *pooled* team link supports.

    Unlike the access-network ladder in :func:`spreading_factor_for_snr`
    (which provisions ~16 dB of fading margin), scheduled teams average
    fading over their members, so a small margin above the raw decode
    floor suffices.  Returns ``None`` when even SF12 is out of reach.
    """
    for sf in range(7, 13):
        if pooled_snr_db >= DEFAULT_DECODE_SNR_DB[sf] + margin_db:
            return sf
    return None


def run_range_throughput(
    distance_m: float = 1300.0,
    payload_bits: int = 160,
    link: LinkModel | None = None,
) -> ExperimentResult:
    """Fig. 9(a): team throughput vs team size at a fixed beyond-range spot.

    The nodes sit at ``distance_m`` (beyond the single-node range, so a
    lone transmitter delivers zero).  A team of K pools ``K x`` SNR; rate
    adaptation picks the fastest spreading factor that pooled SNR supports
    and the throughput is that rate times the frame efficiency.
    """
    link = link or LinkModel()
    per_user_snr_db = link.mean_snr_db(distance_m)
    result = ExperimentResult(
        name="fig9a: team throughput vs #transmitters",
        notes=(
            f"nodes at {distance_m:.0f} m (per-user SNR {per_user_snr_db:.1f} dB, "
            "below the SF12 floor); paper peaks at ~5470 bps with up to 30 nodes"
        ),
    )
    for lo, hi in FIG9A_BANDS:
        team = hi
        pooled_snr_db = per_user_snr_db + 10.0 * np.log10(team)
        sf = _sf_for_pooled_snr(pooled_snr_db)
        if sf is None:
            result.add(
                band=f"{lo}-{hi}" if lo != hi else f"<{hi + 1}",
                team_size=team,
                pooled_snr_db=round(pooled_snr_db, 1),
                spreading_factor=None,
                throughput_bps=0.0,
            )
            continue
        params = LoRaParams(
            spreading_factor=sf,
            bandwidth=DEFAULT_PARAMS.bandwidth,
            preamble_len=DEFAULT_PARAMS.preamble_len,
        )
        n_data_symbols = int(np.ceil(payload_bits / sf))
        airtime = (params.preamble_len + n_data_symbols) * params.symbol_duration
        throughput = payload_bits / airtime
        result.add(
            band=f"{lo}-{hi}" if lo != hi else f"<{hi + 1}",
            team_size=team,
            pooled_snr_db=round(pooled_snr_db, 1),
            spreading_factor=sf,
            throughput_bps=round(throughput, 1),
        )
    return result


def run_range_vs_team(link: LinkModel | None = None) -> ExperimentResult:
    """Fig. 9(b): maximum reach of the closest transmitter vs team size.

    For a team of K, the decodable distance satisfies
    ``K * SNR(d) >= SNR_min`` so ``d_max = d_single * K**(1/eta)``.  Rows
    report the paper's three bands; the single-node limit calibrates to
    ~1 km (Sec. 9.3).
    """
    link = link or LinkModel()
    single_range = link.range_for_snr(_min_decode_snr_db())
    result = ExperimentResult(
        name="fig9b: max distance vs team size",
        notes=(
            f"single-node range {single_range:.0f} m; paper: 1 km alone, "
            "2.65 km with 30-node teams (2.65x)"
        ),
    )
    for lo, hi in FIG9B_BANDS:
        team = hi
        pooled_gain_db = 10.0 * np.log10(team)
        max_distance = link.range_for_snr(_min_decode_snr_db() - pooled_gain_db)
        result.add(
            band=f"{lo}-{hi}",
            team_size=team,
            max_distance_m=round(max_distance, 0),
            gain_over_single=round(max_distance / single_range, 3),
        )
    return result


def validate_team_decode(
    team_size: int,
    per_user_snr_db: float,
    n_symbols: int = 10,
    seed: int = 9,
    params: LoRaParams | None = None,
) -> dict[str, float]:
    """Waveform-level cross-check of the pooled-SNR model.

    Builds a real team collision (identical data, beacon-style sub-symbol
    timing offsets, per-user amplitude from the SNR), runs the full
    below-noise detection + ML joint decoding, and reports detection and
    symbol accuracy.  Used by tests and the fig9 benchmark to anchor the
    analytic series.
    """
    params = params or DEFAULT_PARAMS
    rng = ensure_rng(seed)
    amplitude = 10.0 ** (per_user_snr_db / 20.0)
    shared = rng.integers(0, params.chips_per_symbol, n_symbols)
    transmissions = []
    for i in range(team_size):
        radio = LoRaRadio(params, node_id=i, rng=rng)
        transmissions.append((radio, shared, amplitude + 0j))
    channel = CollisionChannel(params, noise_power=1.0)
    packet = channel.receive(transmissions, rng=rng)
    decoder = ChoirDecoder(params)
    outcome = decoder.decode_team(packet.samples, n_symbols)
    accuracy = (
        float(np.mean(outcome.symbols == shared))
        if outcome.detected and outcome.symbols.size == shared.size
        else 0.0
    )
    return {
        "detected": float(outcome.detected),
        "symbol_accuracy": accuracy,
        "n_members_detected": float(outcome.n_members_detected),
        "detection_score": float(outcome.score),
    }
