"""Counter-based random streams for order-independent, reproducible sampling.

Every per-pulse random quantity is derived by hashing
(seed, pulse_index, stream_id, counter) through a SplitMix64-style avalanche
chain, so the value drawn for one pulse never depends on how many draws any
other pulse consumed.  Pulse ranges can therefore be evaluated in any order,
in any chunking, on any number of workers, and produce bit-identical output.

Bulk, non-pulse-locked processes (injected noise, dark counts, detector
jitter) use numpy's Philox generator keyed off the same master seed; each
named component gets its own key so realizations are shared across
measurement configurations (common random numbers).
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53

# Stream identifiers for the per-pulse substreams.
PAIR_COUNT = 0
PAIR_FREQ = 1
SINGLE_PROBE_COUNT = 2
SINGLE_PROBE_FREQ = 3
SINGLE_HERALD_COUNT = 4
SINGLE_HERALD_FREQ = 5
PROBE_SURVIVAL = 6
HERALD_SURVIVAL = 7
SINGLE_PROBE_SURVIVAL = 8
SINGLE_HERALD_SURVIVAL = 9

# Component keys for bulk Philox-backed streams.
COMP_NOISE = 100
COMP_DARK_HERALD = 102
COMP_DARK_PROBE = 103
COMP_JITTER_REF = 110
COMP_JITTER_HERALD = 111
COMP_JITTER_PROBE_SIGNAL = 112
COMP_JITTER_PROBE_NOISE = 113


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _MIX_A
    x = (x ^ (x >> np.uint64(27))) * _MIX_B
    return x ^ (x >> np.uint64(31))


def hash_u64(seed: int, pulse, stream: int, counter) -> np.ndarray:
    """Hash (seed, pulse, stream, counter) words to uint64; broadcasts."""
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _GOLDEN)
        h = _mix(h ^ np.asarray(pulse, dtype=np.uint64))
        h = _mix(h ^ (np.uint64(stream) * _GOLDEN))
        h = _mix(h ^ np.asarray(counter, dtype=np.uint64))
    return h


def uniforms(seed: int, pulse, stream: int, counter) -> np.ndarray:
    """Uniform doubles in (0, 1), one per broadcast element."""
    h = hash_u64(seed, pulse, stream, counter)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


def poisson_from_uniform(mean: float, u: np.ndarray) -> np.ndarray:
    """Exact Poisson inversion sampling: one uniform -> one count.

    Consumes a fixed number of randoms per draw, which is what keeps
    per-pulse streams independent of neighbouring pulses.  Intended for the
    small per-pulse means of this simulator; the CDF table is truncated
    where the tail mass drops below ~1e-16.
    """
    if mean < 0:
        raise ValueError(f"Poisson mean must be non-negative, got {mean}")
    if mean == 0.0:
        return np.zeros(np.shape(u), dtype=np.int64)
    kmax = int(mean + 12.0 * np.sqrt(mean) + 20.0)
    k = np.arange(kmax + 1)
    logpmf = k * np.log(mean) - mean - np.cumsum(np.concatenate(([0.0], np.log(k[1:]))))
    cdf = np.cumsum(np.exp(logpmf))
    counts = np.searchsorted(cdf, u, side="right")
    return np.minimum(counts, kmax).astype(np.int64)


def component_generator(seed: int, component: int) -> np.random.Generator:
    """Philox generator for a named bulk component (noise, darks, jitter)."""
    key = int(hash_u64(seed, 0, component, 0xC0FFEE))
    return np.random.Generator(np.random.Philox(key=key))
