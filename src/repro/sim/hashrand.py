"""Counter-based deterministic randomness.

Sensor noise must be a pure function of *which sample* is being read —
``noise(sensor_seed, sample_index)`` — so that re-reading a sample-and-hold
register between hardware updates returns the identical value, and so that
two collectors polling the same sensor observe the same jitter (the paper's
Figure 7 comparison depends on the *device* power being the noisy signal,
not the reader).  Stateful generators cannot give that property, so we use
a SplitMix64-style hash evaluated vectorized in NumPy.
"""

from __future__ import annotations

import numpy as np

_MASK_INT = 0xFFFFFFFFFFFFFFFF
_MASK = np.uint64(_MASK_INT)
# SplitMix64 constants (Steele, Lea, Flood 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over uint64 input.

    uint64 wraparound is the point of the algorithm, so overflow warnings
    are suppressed locally.
    """
    with np.errstate(over="ignore"):
        z = (x + _GAMMA) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
        return z ^ (z >> np.uint64(31))


def hash_u64(seed: int | np.ndarray,
             index: int | np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hash of (seed, index).

    ``seed`` and ``index`` are integers or integer arrays that broadcast
    against each other, so one call hashes a whole block of sensors (an
    array of seeds) at one sample index.  Both wrap mod 2**64: a Python
    int hashes exactly as the same value in a one-element array.
    """
    if isinstance(index, int):
        index &= _MASK_INT
    idx = np.asarray(index, dtype=np.uint64)
    if isinstance(seed, int):
        s = np.uint64(seed & _MASK_INT)
    else:
        s = np.asarray(seed).astype(np.uint64, copy=False)
    # Two rounds: fold the seed in, then finalize the combination.
    return _splitmix64(_splitmix64(idx) ^ s)


def hash_uniform(seed: int | np.ndarray,
                 index: int | np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1) from (seed, index).  Shape is the
    broadcast of seed and index."""
    bits = hash_u64(seed, index)
    # Use the top 53 bits for a full-precision double in [0, 1).
    with np.errstate(over="ignore"):
        return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def hash_normal(seed: int | np.ndarray,
                index: int | np.ndarray) -> np.ndarray:
    """Standard-normal deviates from (seed, index) via Box-Muller.

    Each index yields one deviate; the pair partner comes from a
    seed-offset second hash so indices stay 1:1 with samples.  Like
    :func:`hash_u64`, ``seed`` may be an array that broadcasts against
    ``index``.
    """
    u1 = hash_uniform(seed, index)
    u2 = hash_uniform(seed ^ 0x5DEECE66D, index)
    # Guard log(0).
    u1 = np.maximum(u1, 1e-300)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def hash_choice_mask(seed: int, index: np.ndarray | int, p_true: float) -> np.ndarray:
    """Deterministic Bernoulli(p_true) mask over indices."""
    if not 0.0 <= p_true <= 1.0:
        raise ValueError(f"p_true must be in [0,1], got {p_true}")
    return hash_uniform(seed, index) < p_true
