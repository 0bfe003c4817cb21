"""Deterministic optics between source and detectors.

Dispersive time-to-frequency mapping in the fiber spool, grating angular
dispersion, target-scene interaction (angular intervals with distance and
round-trip efficiency), channel losses, and injected background photons.

Sign conventions: the dispersion slope is positive in wavelength (longer
wavelength arrives later), which for the red-side probe band means probe
photons trail the pump and the blue-side herald photons lead it.  Grating
angles are reported as the magnitude of the diffracted angle on the m = -1
branch with the incidence and diffraction angles measured on the same side
of the grating normal; that branch reproduces the 0.192 deg/nm angular
dispersion of a 600 groove/mm grating at 1551 nm / 3.05 deg incidence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng
from .model import C_M_PER_PS, C_NM_THZ, PS_PER_NS, PS_PER_S

# Wavelengths (nm) over which a dispersion model is defined: arrival shifts
# are computed, checked for monotonicity and inverted only inside this band.
VALIDITY_BAND_NM = (1460.0, 1640.0)


@dataclass(frozen=True)
class DispersionModel:
    """Arrival-time shift vs wavelength for the fiber spool.

    linear mode: shift = slope * (lambda - anchor); polynomial mode adds
    higher-order terms (coefficients in ps/nm^k for k = 1.., no constant
    term) on top of nothing -- the polynomial IS the shift, and must be
    strictly monotone over VALIDITY_BAND_NM.
    """

    mode: str = "linear"
    slope_ns_per_nm: float = 0.4
    anchor_wavelength_nm: float = 1540.56
    polynomial_coefficients: tuple = ()
    fiber_length_km: float = 25.248

    def __post_init__(self):
        if self.mode not in ("linear", "polynomial"):
            raise ValueError(f"unknown dispersion mode {self.mode!r}")
        if self.mode == "linear" and self.slope_ns_per_nm == 0:
            raise ValueError("linear dispersion slope must be nonzero")
        object.__setattr__(self, "polynomial_coefficients",
                           tuple(float(c) for c in self.polynomial_coefficients))
        if self.mode == "polynomial":
            if not self.polynomial_coefficients:
                raise ValueError("polynomial mode requires coefficients")
            lam = np.linspace(*VALIDITY_BAND_NM, 2001)
            shifts = self._shift_ps(lam)
            if not (np.all(np.diff(shifts) > 0) or np.all(np.diff(shifts) < 0)):
                raise ValueError(
                    "polynomial dispersion must be strictly monotone over "
                    f"{VALIDITY_BAND_NM} nm")

    def _shift_ps(self, wavelength_nm):
        d = np.asarray(wavelength_nm) - self.anchor_wavelength_nm
        if self.mode == "linear":
            return self.slope_ns_per_nm * PS_PER_NS * d
        out = np.zeros_like(d)
        for coeff in reversed(self.polynomial_coefficients):
            out = (out + coeff) * d
        return out

    def arrival_shift_ps(self, wavelength_nm):
        """Dispersive delay relative to the pump anchor, in ps."""
        lam = np.asarray(wavelength_nm)
        lo, hi = VALIDITY_BAND_NM
        if np.any(lam < lo) or np.any(lam > hi):
            raise ValueError(
                f"wavelength outside dispersion validity band {VALIDITY_BAND_NM}")
        return self._shift_ps(lam)

    def wavelength_at_shift(self, shift_ps):
        """Invert the time-to-wavelength map (strictly monotone by contract)."""
        if self.mode == "linear":
            return self.anchor_wavelength_nm + np.asarray(shift_ps) / (
                self.slope_ns_per_nm * PS_PER_NS)
        lam = np.linspace(*VALIDITY_BAND_NM, 200_001)
        shifts = self._shift_ps(lam)
        if shifts[0] > shifts[-1]:
            lam, shifts = lam[::-1], shifts[::-1]
        return np.interp(shift_ps, shifts, lam)


def dispersed_arrival(frequency_thz, generation_time_ps, dispersion: DispersionModel):
    """Arrival time at the fiber output for a photon of the given frequency."""
    lam = C_NM_THZ / np.asarray(frequency_thz, dtype=np.float64)
    return np.asarray(generation_time_ps) + dispersion.arrival_shift_ps(lam)


@dataclass(frozen=True)
class GratingSpec:
    """Reflective diffraction grating; the period is derived from the density."""

    groove_density_per_mm: float = 600.0
    incidence_angle_deg: float = 3.05
    order: int = -1
    beam_waist_mm: float = 3.6

    def __post_init__(self):
        if self.groove_density_per_mm <= 0:
            raise ValueError("groove density must be positive")
        if (isinstance(self.order, bool) or not isinstance(self.order, numbers.Integral)
                or self.order == 0):
            raise ValueError(f"order must be a nonzero integer, not {self.order!r}")
        if self.beam_waist_mm <= 0:
            raise ValueError("beam waist must be positive")

    @property
    def period_nm(self) -> float:
        return 1e6 / self.groove_density_per_mm

    @property
    def resolving_power(self) -> float:
        """|m| * w / alpha: FWHM resolving power lambda/delta_lambda."""
        return abs(self.order) * self.beam_waist_mm * 1e6 / self.period_nm


def _sin_theta_m(wavelength_nm, grating: GratingSpec):
    lam = np.asarray(wavelength_nm, dtype=np.float64)
    return grating.order * lam / grating.period_nm - math.sin(
        math.radians(grating.incidence_angle_deg))


def diffraction_angle(wavelength_nm, grating: GratingSpec):
    """Magnitude of the diffracted angle in degrees.

    Solves alpha*(sin theta_m + sin theta_i) = m*lambda on the branch where
    theta_m and theta_i share the grating-normal side.
    """
    s = _sin_theta_m(wavelength_nm, grating)
    if np.any(np.abs(s) > 1.0):
        raise ValueError(
            f"order {grating.order} is evanescent at {wavelength_nm} nm "
            f"(|sin theta_m| = {np.max(np.abs(s)):.4f} > 1)")
    return np.degrees(np.abs(np.arcsin(s)))


def angular_dispersion(wavelength_nm, grating: GratingSpec):
    """|d theta / d lambda| in deg/nm for the configured order."""
    lam = np.asarray(wavelength_nm, dtype=np.float64)
    alpha = grating.period_nm
    sin_i = math.sin(math.radians(grating.incidence_angle_deg))
    inner = alpha * alpha - (abs(grating.order) * lam + alpha * sin_i) ** 2
    if np.any(inner <= 0):
        raise ValueError(
            f"order {grating.order} is evanescent at {wavelength_nm} nm")
    return np.degrees(abs(grating.order) / np.sqrt(inner))


@dataclass(frozen=True)
class Target:
    """Retro-reflecting target occupying an angular interval at one distance."""

    id: str
    center_wavelength_nm: float
    angular_halfwidth_deg: float
    distance_m: float
    roundtrip_efficiency: float = 1.0

    def __post_init__(self):
        if self.distance_m < 0:
            raise ValueError(f"target {self.id}: distance must be non-negative")
        if not 0.0 <= self.roundtrip_efficiency <= 1.0:
            raise ValueError(f"target {self.id}: efficiency must be in [0, 1]")
        if self.angular_halfwidth_deg <= 0:
            raise ValueError(f"target {self.id}: angular halfwidth must be positive")

    def angular_interval_deg(self, grating: GratingSpec):
        center = float(diffraction_angle(self.center_wavelength_nm, grating))
        return (center - self.angular_halfwidth_deg,
                center + self.angular_halfwidth_deg)

    def roundtrip_delay_ps(self) -> float:
        return 2.0 * self.distance_m / C_M_PER_PS


def validate_scene(scene, grating: GratingSpec):
    """Return a list of violation strings (empty when the scene is valid)."""
    problems = []
    intervals = []
    for t in scene:
        try:
            intervals.append((t.angular_interval_deg(grating), t.id))
        except (TypeError, ValueError) as exc:
            problems.append(f"target {t.id}: {exc}")
    intervals.sort()
    for (a, id_a), (b, id_b) in zip(intervals, intervals[1:]):
        if a[1] > b[0]:
            problems.append(
                f"targets {id_a} and {id_b} overlap in angle "
                f"([{a[0]:.3f}, {a[1]:.3f}] vs [{b[0]:.3f}, {b[1]:.3f}] deg)")
    return problems


@dataclass(frozen=True)
class ChannelSpec:
    """Path efficiencies, injected-noise rate, and loopback switch.

    loopback=True routes probe photons straight to the detector (no grating,
    no targets, no flight delay) with survival eta_P; used for bench
    scenarios that exercise the pure counting statistics.
    """

    probe_efficiency: float = 1.0
    herald_efficiency: float = 1.0
    noise_rate_per_s: float = 0.0
    loopback: bool = False

    def __post_init__(self):
        if not 0.0 <= self.probe_efficiency <= 1.0:
            raise ValueError("probe efficiency must be in [0, 1]")
        if not 0.0 <= self.herald_efficiency <= 1.0:
            raise ValueError("herald efficiency must be in [0, 1]")
        if self.noise_rate_per_s < 0:
            raise ValueError("noise rate must be non-negative")
        if not isinstance(self.loopback, bool):
            raise ValueError(f"loopback must be true or false, not {self.loopback!r}")


def assign_targets(freq_thz, scene, grating: GratingSpec):
    """Scene-geometry target index per probe photon (-1 = miss).

    A pure function of frequency: the diffraction angle either falls in some
    target's angular interval or it does not.
    """
    lam = C_NM_THZ / np.asarray(freq_thz, dtype=np.float64)
    theta = diffraction_angle(lam, grating)
    target_index = np.full(theta.shape, -1, dtype=np.int64)
    for k, target in enumerate(scene):
        lo, hi = target.angular_interval_deg(grating)
        target_index[(theta >= lo) & (theta <= hi)] = k
    return target_index


def propagate_probe_batch(pulse_idx, slot_idx, freq_thz, gen_time_ps, scene,
                          grating, dispersion: DispersionModel,
                          channel: ChannelSpec, seed: int, survival_stream: int):
    """Probe-side propagation for an emission batch.

    Returns the arrival times (ps) of the surviving photons in input order.
    Hit-or-miss is a pure function of frequency and scene geometry; the
    survival draw only thins, it never shifts timing.
    """
    freq = np.asarray(freq_thz, dtype=np.float64)
    if freq.size == 0:
        return np.empty(0)
    base = dispersed_arrival(freq, gen_time_ps, dispersion)
    if channel.loopback:
        p_survive = np.full(freq.size, channel.probe_efficiency)
        arrival = base
    else:
        target_index = assign_targets(freq, scene, grating)
        eff = np.array([t.roundtrip_efficiency for t in scene], dtype=np.float64)
        delay = np.array([t.roundtrip_delay_ps() for t in scene], dtype=np.float64)
        hit = target_index >= 0
        p_survive = np.zeros(freq.size)
        arrival = base.copy()
        if np.any(hit):
            p_survive[hit] = channel.probe_efficiency * eff[target_index[hit]]
            arrival[hit] = base[hit] + delay[target_index[hit]]
    u = rng.uniforms(seed, pulse_idx, survival_stream, slot_idx)
    return arrival[u < p_survive]


def propagate_herald_batch(pulse_idx, slot_idx, freq_thz, gen_time_ps,
                           dispersion: DispersionModel, channel: ChannelSpec,
                           seed: int, survival_stream: int):
    """Herald-side propagation: Bernoulli(eta_H) thinning, dispersive delay.

    Returns the arrival times (ps) of the surviving photons in input order.
    """
    freq = np.asarray(freq_thz, dtype=np.float64)
    if freq.size == 0:
        return np.empty(0)
    u = rng.uniforms(seed, pulse_idx, survival_stream, slot_idx)
    kept = u < channel.herald_efficiency
    return dispersed_arrival(freq[kept], np.asarray(gen_time_ps)[kept],
                             dispersion)


def sample_noise_arrivals(duration_s: float, rate_per_s: float,
                          generator: np.random.Generator):
    """Poisson-process background arrivals, uniform over [0, duration), in ps."""
    if duration_s < 0:
        raise ValueError("duration must be non-negative")
    if rate_per_s < 0:
        raise ValueError("noise rate must be non-negative")
    count = generator.poisson(rate_per_s * duration_s)
    times = generator.uniform(0.0, duration_s * PS_PER_S, count)
    times.sort()
    return times
