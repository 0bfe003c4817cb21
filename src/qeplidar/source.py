"""Pulsed pump clock and stochastic photon-pair / single-photon emission.

Pair frequencies are drawn from the joint spectral intensity
sinc^2(kappa*l/2) * exp(-8*ln2*(2*f_p - f_h - f_pr)^2 / dfp^2)
restricted to the herald/probe filter bands, by rejection sampling against
an exact factorization of the Gaussian envelope.  All randomness is
counter-based per pulse (see :mod:`qeplidar.rng`), so emission streams are
a pure function of (scenario, seed).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import rng
from .model import fwhm_to_sigma, frequency_to_wavelength, wavelength_to_frequency


class SamplingError(RuntimeError):
    """Rejection sampling failed to land inside the configured bands."""


class RateRegimeWarning(UserWarning):
    """Per-pulse rates outside the validated low-rate regime."""


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump laser: repetition clock and spectral envelope."""

    repetition_rate_mhz: float
    center_frequency_thz: float
    spectral_fwhm_ghz: float
    pulse_duration_ps: float = 12.0

    def __post_init__(self):
        if self.repetition_rate_mhz <= 0:
            raise ValueError("repetition rate must be positive")
        if self.center_frequency_thz <= 0:
            raise ValueError("pump center frequency must be positive")
        if self.spectral_fwhm_ghz <= 0:
            raise ValueError("pump spectral FWHM must be positive")
        if (isinstance(self.pulse_duration_ps, bool)
                or not isinstance(self.pulse_duration_ps, numbers.Real)
                or not self.pulse_duration_ps > 0):
            raise ValueError("pulse_duration_ps must be a positive number, "
                             f"not {self.pulse_duration_ps!r}")

    @classmethod
    def from_wavelength(cls, repetition_rate_mhz, center_wavelength_nm,
                        spectral_fwhm_ghz,
                        pulse_duration_ps=pulse_duration_ps) -> "PumpSpec":
        return cls(repetition_rate_mhz, wavelength_to_frequency(center_wavelength_nm),
                   spectral_fwhm_ghz, pulse_duration_ps)

    @property
    def period_ps(self) -> float:
        return 1e6 / self.repetition_rate_mhz

    @property
    def center_wavelength_nm(self) -> float:
        return frequency_to_wavelength(self.center_frequency_thz)

    @property
    def spectral_fwhm_thz(self) -> float:
        return self.spectral_fwhm_ghz * 1e-3


@dataclass(frozen=True)
class PhaseMatchModel:
    """Phase mismatch kappa(detuning) as a polynomial, and interaction length.

    Coefficients are rad/m per THz^k in the probe detuning f_pr - f_p,
    lowest order first.  The all-zero default makes sinc^2(kappa*l/2) == 1
    (flat phase matching).
    """

    kappa_coefficients: tuple = (0.0,)
    length_m: float = 0.01

    def __post_init__(self):
        if self.length_m <= 0:
            raise ValueError("interaction length must be positive")
        object.__setattr__(self, "kappa_coefficients",
                           tuple(float(c) for c in self.kappa_coefficients))

    def kappa(self, detuning_thz):
        out = np.zeros_like(np.asarray(detuning_thz, dtype=np.float64))
        for coeff in reversed(self.kappa_coefficients):
            out = out * detuning_thz + coeff
        return out

    def sinc2_half(self, detuning_thz):
        """sinc^2(kappa*l/2) with the argument in radians."""
        half = self.kappa(detuning_thz) * self.length_m / 2.0
        s = np.sinc(half / np.pi)
        return s * s


@dataclass(frozen=True)
class EmissionRates:
    """Mean emissions per pump pulse: pairs and uncorrelated singles."""

    pair_rate: float
    single_probe_rate: float = 0.0
    single_herald_rate: float = 0.0

    def __post_init__(self):
        for name in ("pair_rate", "single_probe_rate", "single_herald_rate"):
            val = getattr(self, name)
            if val < 0:
                raise ValueError(f"{name} must be non-negative, got {val}")
            if val > 0.5:
                warnings.warn(
                    f"{name}={val}/pulse is above the validated regime (<= 0.5/pulse); "
                    "first-order rate algebra degrades",
                    RateRegimeWarning,
                    stacklevel=3,
                )


@dataclass(frozen=True)
class SpectralBand:
    """Ideal rectangular passband, full width, specified in wavelength."""

    center_nm: float
    width_nm: float

    def __post_init__(self):
        if self.width_nm <= 0:
            raise ValueError("band width must be positive")
        if self.center_nm - self.width_nm / 2 <= 0:
            raise ValueError("band must lie at positive wavelengths")

    @property
    def lo_nm(self) -> float:
        return self.center_nm - self.width_nm / 2

    @property
    def hi_nm(self) -> float:
        return self.center_nm + self.width_nm / 2

    @property
    def lo_thz(self) -> float:
        return wavelength_to_frequency(self.hi_nm)

    @property
    def hi_thz(self) -> float:
        return wavelength_to_frequency(self.lo_nm)

    def overlaps(self, other: "SpectralBand") -> bool:
        return not (self.hi_nm <= other.lo_nm or other.hi_nm <= self.lo_nm)


@dataclass
class EmissionBatch:
    """Struct-of-arrays emissions for a contiguous pulse range."""

    pair_pulse: np.ndarray          # int64 pulse indices
    pair_time_ps: np.ndarray        # int64 generation times
    pair_herald_thz: np.ndarray     # float64
    pair_probe_thz: np.ndarray      # float64
    pair_slot: np.ndarray           # int64, index of the pair within its pulse
    single_probe_pulse: np.ndarray
    single_probe_time_ps: np.ndarray
    single_probe_thz: np.ndarray
    single_probe_slot: np.ndarray
    single_herald_pulse: np.ndarray
    single_herald_time_ps: np.ndarray
    single_herald_thz: np.ndarray
    single_herald_slot: np.ndarray


def jsi_weight(f_h_thz, f_pr_thz, pump: PumpSpec, pm: PhaseMatchModel):
    """Joint spectral intensity, normalized to 1 on resonance with kappa = 0."""
    s = 2.0 * pump.center_frequency_thz - np.asarray(f_h_thz) - np.asarray(f_pr_thz)
    dfp = pump.spectral_fwhm_thz
    envelope = np.exp(-8.0 * math.log(2.0) * s * s / (dfp * dfp))
    return pm.sinc2_half(np.asarray(f_pr_thz) - pump.center_frequency_thz) * envelope


def sum_detuning_sigma_thz(pump: PumpSpec) -> float:
    """Std dev of f_h + f_pr - 2 f_p implied by the JSI envelope.

    The envelope exp(-8 ln2 s^2 / dfp^2) is a Gaussian in the sum detuning s
    with FWHM dfp/sqrt(2).
    """
    return fwhm_to_sigma(pump.spectral_fwhm_thz / math.sqrt(2.0))


def pulse_time(pulse_index: int, pump: PumpSpec):
    """Emission time of a pump pulse in integer ps.

    Uses the floor-of-exact-multiple rule t_i = floor(i * T), carried as
    integer-period + fractional remainder so consecutive differences are
    always floor(T) or ceil(T) and the mean period converges to T exactly.
    """
    idx = np.asarray(pulse_index, dtype=np.int64)
    if np.any(idx < 0):
        raise ValueError("pulse_index must be non-negative")
    period = pump.period_ps
    base = math.floor(period)
    frac = period - base
    t = idx * np.int64(base) + np.floor(idx * frac).astype(np.int64)
    if np.isscalar(pulse_index) or np.ndim(pulse_index) == 0:
        return int(t)
    return t


def _sample_pair_frequencies(seed, pulse_idx, slot_idx, pump, pm,
                             herald_band, probe_band, attempt_cap):
    """Rejection-sample (f_h, f_pr) from the band-restricted JSI.

    Proposal: f_pr uniform over the probe band, sum detuning Gaussian per the
    JSI envelope; accept on herald-band membership and sinc^2(kappa l/2).
    Draw r of pair slot j uses counters (j << 32) | (3r + sub), so every
    (pulse, slot) owns an isolated substream.
    """
    n = pulse_idx.size
    f_h = np.empty(n)
    f_pr = np.empty(n)
    pending = np.arange(n)
    sigma = sum_detuning_sigma_thz(pump)
    f_sum0 = 2.0 * pump.center_frequency_thz
    lo_p, hi_p = probe_band.lo_thz, probe_band.hi_thz
    lo_h, hi_h = herald_band.lo_thz, herald_band.hi_thz
    flat_pm = all(c == 0.0 for c in pm.kappa_coefficients)
    for attempt in range(attempt_cap):
        base = (slot_idx[pending].astype(np.uint64) << np.uint64(32)) \
            + np.uint64(3 * attempt)
        u_sum = rng.uniforms(seed, pulse_idx[pending], rng.PAIR_FREQ, base)
        u_pos = rng.uniforms(seed, pulse_idx[pending], rng.PAIR_FREQ, base + np.uint64(1))
        cand_pr = lo_p + u_pos * (hi_p - lo_p)
        cand_h = f_sum0 + sigma * ndtri(u_sum) - cand_pr
        ok = (cand_h >= lo_h) & (cand_h <= hi_h)
        if not flat_pm:
            u_acc = rng.uniforms(seed, pulse_idx[pending], rng.PAIR_FREQ,
                                 base + np.uint64(2))
            ok &= u_acc < pm.sinc2_half(cand_pr - pump.center_frequency_thz)
        hit = pending[ok]
        f_pr[hit] = cand_pr[ok]
        f_h[hit] = cand_h[ok]
        pending = pending[~ok]
        if pending.size == 0:
            return f_h, f_pr
    raise SamplingError(
        f"pair frequency sampling exceeded {attempt_cap} attempts; the JSI is "
        f"degenerate over herald band [{herald_band.lo_nm}, {herald_band.hi_nm}] nm "
        f"x probe band [{probe_band.lo_nm}, {probe_band.hi_nm}] nm"
    )


def _expand_counts(pulse_indices, counts):
    """(pulse index, slot-within-pulse) pairs for per-pulse event counts."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pulses = np.repeat(pulse_indices, counts)
    slots = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return pulses, slots


def sample_pulse_range(start: int, count: int, seed: int, rates: EmissionRates,
                       pump: PumpSpec, pm: PhaseMatchModel,
                       herald_band: SpectralBand, probe_band: SpectralBand,
                       attempt_cap: int = 1000) -> EmissionBatch:
    """Vectorized emission sampling for pulses [start, start + count).

    Output for each pulse depends only on (pulse_index, seed), never on the
    range bounds, so chunked or parallel evaluation is bit-reproducible.
    """
    if start < 0 or count < 0:
        raise ValueError("pulse range must be non-negative")
    if herald_band.overlaps(probe_band):
        raise ValueError("herald and probe bands must not overlap")
    idx = np.arange(start, start + count, dtype=np.int64)

    def counts_for(stream, mean):
        if mean == 0.0:
            return np.zeros(count, dtype=np.int64)
        return rng.poisson_from_uniform(mean, rng.uniforms(seed, idx, stream, 0))

    k_pair = counts_for(rng.PAIR_COUNT, rates.pair_rate)
    k_sp = counts_for(rng.SINGLE_PROBE_COUNT, rates.single_probe_rate)
    k_sh = counts_for(rng.SINGLE_HERALD_COUNT, rates.single_herald_rate)

    pair_pulse, pair_slot = _expand_counts(idx, k_pair)
    if pair_pulse.size:
        f_h, f_pr = _sample_pair_frequencies(
            seed, pair_pulse, pair_slot, pump, pm, herald_band, probe_band,
            attempt_cap)
    else:
        f_h = f_pr = np.empty(0)

    sp_pulse, sp_slot = _expand_counts(idx, k_sp)
    sp_f = probe_band.lo_thz + rng.uniforms(
        seed, sp_pulse, rng.SINGLE_PROBE_FREQ, sp_slot
    ) * (probe_band.hi_thz - probe_band.lo_thz) if sp_pulse.size else np.empty(0)

    sh_pulse, sh_slot = _expand_counts(idx, k_sh)
    sh_f = herald_band.lo_thz + rng.uniforms(
        seed, sh_pulse, rng.SINGLE_HERALD_FREQ, sh_slot
    ) * (herald_band.hi_thz - herald_band.lo_thz) if sh_pulse.size else np.empty(0)

    return EmissionBatch(
        pair_pulse=pair_pulse,
        pair_time_ps=pulse_time(pair_pulse, pump) if pair_pulse.size
        else np.empty(0, dtype=np.int64),
        pair_herald_thz=f_h,
        pair_probe_thz=f_pr,
        pair_slot=pair_slot,
        single_probe_pulse=sp_pulse,
        single_probe_time_ps=pulse_time(sp_pulse, pump) if sp_pulse.size
        else np.empty(0, dtype=np.int64),
        single_probe_thz=np.asarray(sp_f, dtype=np.float64),
        single_probe_slot=sp_slot,
        single_herald_pulse=sh_pulse,
        single_herald_time_ps=pulse_time(sh_pulse, pump) if sh_pulse.size
        else np.empty(0, dtype=np.int64),
        single_herald_thz=np.asarray(sh_f, dtype=np.float64),
        single_herald_slot=sh_slot,
    )
