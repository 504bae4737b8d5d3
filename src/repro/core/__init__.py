"""Choir's core algorithms (the paper's contribution).

Pipeline, mirroring Secs. 4-7 of the paper:

1. :mod:`repro.core.dechirp` -- dechirp symbol windows and take oversampled
   (zero-padded) FFTs, turning each colliding chirp into a sinc-shaped peak.
2. :mod:`repro.core.peaks` -- detect peaks and read coarse positions.
3. :mod:`repro.core.chanest` / :mod:`repro.core.residual` /
   :mod:`repro.core.offsets` -- least-squares channel fits (Eqn. 2), the
   reconstruction residual (Eqn. 3), and sub-bin offset refinement by
   residual minimization over the locally convex surface (Eqn. 4, Algm. 1);
   :mod:`repro.core.engine` is the vectorized residual engine every sub-bin
   search routes through (cached tone columns, batched Schur-complement
   candidate scoring).
4. :mod:`repro.core.sic` -- phased successive interference cancellation for
   the near-far problem (Sec. 5.2).
5. :mod:`repro.core.isi` -- inter-symbol-interference peak de-duplication
   (Sec. 6.1, Fig. 5).
6. :mod:`repro.core.tracking` -- mapping symbols to users via fractional
   peak positions, channel magnitude and phase with must-link/cannot-link
   constraints (Sec. 6.2).
7. :mod:`repro.core.detection` / :mod:`repro.core.joint_ml` -- below-noise
   packet detection by accumulating preamble energy and maximum-likelihood
   joint decoding of correlated team transmissions (Sec. 7.2, Eqn. 6).
8. :mod:`repro.core.decoder` -- :class:`ChoirDecoder`, the end-to-end
   receiver tying all of it together.
9. :mod:`repro.core.fastpath` / :mod:`repro.core.cascade` -- the tiered
   decode cascade: a single-user O(N log N) Tier-0 decoder with a
   collision discriminator, escalating ambiguous/collided/CRC-failed
   windows to the full Choir pipeline (``build_pipeline`` selects the
   tier).
"""

from repro.core.dechirp import dechirp_windows, oversampled_spectrum
from repro.core.peaks import Peak, find_peaks
from repro.core.chanest import estimate_channels, reconstruct_tones, tone_matrix
from repro.core.engine import CandidateView, ResidualEngine
from repro.core.residual import residual_power
from repro.core.offsets import UserEstimate, estimate_offsets, refine_offsets
from repro.core.sic import phased_sic
from repro.core.isi import deduplicate_symbol_streams
from repro.core.tracking import ConstrainedClusterer, assign_peaks_to_users
from repro.core.detection import accumulate_preamble, detect_preamble
from repro.core.joint_ml import joint_ml_decode, template_correlation_decode
from repro.core.decoder import (
    DECODE_METHODS,
    TEAM_DECODE_METHODS,
    ChoirDecoder,
    DecodedUser,
    DecodeMethod,
    TeamDecodeMethod,
)
from repro.core.cascade import (
    DECODE_TIERS,
    DEFAULT_DECODE_TIER,
    CascadePipeline,
    ChoirPipeline,
    UserFrame,
    WindowDecode,
    build_pipeline,
)
from repro.core.fastpath import FastPathDecoder, PreambleEvidence
from repro.core.multisf import (
    MultiSfDecoder,
    SfBranchResult,
    cross_sf_interference_penalty_db,
    reconstruct_user_waveform,
    subtract_branch,
)

__all__ = [
    "dechirp_windows",
    "oversampled_spectrum",
    "Peak",
    "find_peaks",
    "estimate_channels",
    "reconstruct_tones",
    "tone_matrix",
    "CandidateView",
    "ResidualEngine",
    "residual_power",
    "UserEstimate",
    "estimate_offsets",
    "refine_offsets",
    "phased_sic",
    "deduplicate_symbol_streams",
    "ConstrainedClusterer",
    "assign_peaks_to_users",
    "accumulate_preamble",
    "detect_preamble",
    "joint_ml_decode",
    "template_correlation_decode",
    "ChoirDecoder",
    "DecodedUser",
    "DecodeMethod",
    "TeamDecodeMethod",
    "DECODE_METHODS",
    "TEAM_DECODE_METHODS",
    "DECODE_TIERS",
    "DEFAULT_DECODE_TIER",
    "CascadePipeline",
    "ChoirPipeline",
    "UserFrame",
    "WindowDecode",
    "build_pipeline",
    "FastPathDecoder",
    "PreambleEvidence",
    "MultiSfDecoder",
    "SfBranchResult",
    "cross_sf_interference_penalty_db",
    "reconstruct_user_waveform",
    "subtract_branch",
]
