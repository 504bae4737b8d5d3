"""Random-number-generator plumbing.

Every stochastic component in the library accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None`` and normalizes it through
:func:`ensure_rng`.  This keeps experiments reproducible end to end: a single
seed at the experiment level deterministically derives every radio's
oscillator offset, every channel's fading draw, and every MAC backoff.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` produces a fresh nondeterministic generator; an ``int`` or
    ``SeedSequence`` seeds a new generator; an existing generator is returned
    unchanged (so callers can share one stream).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def as_seed_sequence(rng: RngLike = None) -> np.random.SeedSequence:
    """Normalize ``rng`` into a :class:`numpy.random.SeedSequence`.

    The sequence is the *spawnable* form of a seed: independent child
    streams can be derived from it by key (:func:`derive_rng`) without
    the children ever sharing state.  A
    ``Generator`` is accepted for convenience; when it still carries the
    seed sequence it was built from, that sequence is reused, otherwise a
    child sequence is drawn from the generator's stream.
    """
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        seq = getattr(rng.bit_generator, "seed_seq", None) or getattr(
            rng.bit_generator, "_seed_seq", None
        )
        if isinstance(seq, np.random.SeedSequence):
            return seq
        return np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return np.random.SeedSequence(rng)


def derive_rng(rng: RngLike, *keys: int) -> np.random.Generator:
    """A generator deterministically derived from ``rng`` by integer key(s).

    Unlike drawing from a shared stream, the derived generator depends only
    on ``(rng, keys)`` -- not on how many draws happened before or which
    thread asks first.  The synthetic traffic source and the scenario
    builder use this to give every node, the noise and the geometry their
    own streams.  (The receive chain draws no randomness at all.)
    """
    base = as_seed_sequence(rng)
    spawn_key = tuple(base.spawn_key) + tuple(int(k) for k in keys)
    child = np.random.SeedSequence(base.entropy, spawn_key=spawn_key)
    return np.random.default_rng(child)
