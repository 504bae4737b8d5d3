"""Small shared utilities: dB conversions, RNG plumbing, DSP helpers."""

from repro.utils.conversions import (
    db_to_linear,
    linear_to_db,
    power_db,
    signal_power,
    snr_db,
)
from repro.utils.rng import (
    RngLike,
    as_seed_sequence,
    derive_rng,
    ensure_rng,
)
from repro.utils.dsp import (
    circular_distance,
    fractional_delay,
    fractional_part,
    next_pow2,
    wrap_to_half,
)

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "power_db",
    "signal_power",
    "snr_db",
    "RngLike",
    "as_seed_sequence",
    "derive_rng",
    "ensure_rng",
    "circular_distance",
    "fractional_delay",
    "fractional_part",
    "next_pow2",
    "wrap_to_half",
]
