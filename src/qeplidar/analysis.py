"""Measurement-side algorithms for pulse-synchronized time-tag streams.

Folds tags into the pump-pulse frame, builds joint temporal intensity
histograms, fits Gaussian ridges, extracts CAR / SNR / enhancement figures,
calibrates the time-to-wavelength map, reconstructs targets, and runs
randomness diagnostics on heralding arrival times.

Counting conventions: coincidences are per-pulse herald x probe
combinations; accidentals come from the same probe window displaced by
whole pump periods.  Counting windows are half-open [lo, hi).

The analysis decisions are module constants, each set here and nowhere else:

- WINDOW_PS = 100.0: width of every histogram bin, herald bin and count
  window, the paper's coincidence window;
- ACC_SHIFTS = (-5, ..., -1, 1, ..., 5): the pump-period displacements
  whose windows are averaged for the accidentals;
- MIN_CC = 10: same-pulse pairs a herald bin needs for a CAR;
- SIGMA_ABOVE_BASELINE = 5.0, PEAK_BREAK_PS = 250.0: the target rule of
  cluster_ridge_bins;
- CAL_DEGREE = 3: highest degree of a time-to-wavelength polynomial;
- SMOOTH_BINS = 2.0, PROMINENCE_FRAC = 0.05: spectral-feature smoothing
  (bins) and prominence (fraction of the curve's span);
- MIN_RANDOMNESS_EVENTS = 1000: events the randomness report needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, optimize, signal, stats

from .channel import DispersionModel, GratingSpec, angular_dispersion, diffraction_angle
from .detect import CH_HERALD, CH_PROBE, CH_REF, TagStream
from .model import C_CM_PER_PS, C_M_PER_PS, C_NM_THZ, PS_PER_NS, sigma_to_fwhm
from .source import PhaseMatchModel, PumpSpec, SpectralBand, jsi_weight

WINDOW_PS = 100.0
ACC_SHIFTS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
MIN_CC = 10
SIGMA_ABOVE_BASELINE = 5.0
PEAK_BREAK_PS = 250.0
CAL_DEGREE = 3
SMOOTH_BINS = 2.0
PROMINENCE_FRAC = 0.05
MIN_RANDOMNESS_EVENTS = 1000


class AnalysisError(RuntimeError):
    """Stream cannot be analyzed (missing reference channel, etc.)."""


class NoPeakError(AnalysisError):
    """Histogram slice has no peak above its baseline."""


class FitError(AnalysisError):
    """Least-squares peak fit did not converge."""


class CalibrationError(AnalysisError):
    """Time-to-wavelength calibration could not be established."""


class InsufficientDataError(AnalysisError):
    """Too few events for the requested statistic."""


# ---------------------------------------------------------------------------
# Pulse-frame folding


@dataclass(frozen=True)
class FoldedEvents:
    """Herald/probe events referenced to their nearest pump pulse.

    Each channel's arrays are sorted by (pulse_index, relative time), so
    every "which pulse" question is one np.searchsorted on the pulse array;
    fold_to_pulse_frame sorts only when a sync divider > 1 leaves tags out
    of order.  Relative times lie in [-T/2, T/2] around the pulse instant.
    """

    herald_pulse: np.ndarray
    herald_rel: np.ndarray
    probe_pulse: np.ndarray
    probe_rel: np.ndarray
    period_ps: float

    @property
    def half_period(self) -> float:
        return self.period_ps / 2.0


def fold_to_pulse_frame(stream: TagStream, *, period_ps: float,
                        divider: int = 1) -> FoldedEvents:
    """Assign every herald/probe tag to its nearest pump pulse.

    With a sync divider > 1 only every divider-th pulse carries a REF tag;
    intermediate pulse instants are interpolated from the nearest recorded
    REF using the exact pump period.  The nearest REF is found by one search
    over the midpoints between neighbouring REFs; a tag exactly midway goes
    to the earlier REF.
    """
    refs = stream.channel_times(CH_REF)
    if refs.size == 0:
        raise AnalysisError("stream has no REF tags; cannot fold")
    # integer ps below 2**53: every midpoint is an exact half in float64
    midpoints = (refs[:-1] + refs[1:]) / 2.0
    out = {}
    for ch in (CH_HERALD, CH_PROBE):
        t = stream.channel_times(ch).astype(np.float64)
        nearest = np.searchsorted(midpoints, t)
        anchor = refs[nearest].astype(np.float64)
        k = np.rint((t - anchor) / period_ps) if divider > 1 else np.zeros_like(t)
        rel = t - anchor - k * period_ps
        pulse = nearest * divider + k.astype(np.int64)
        keep = pulse >= 0
        pulse, rel = pulse[keep], rel[keep]
        dp = np.diff(pulse)
        in_order = np.all((dp > 0) | ((dp == 0) & (rel[1:] >= rel[:-1])))
        order = slice(None) if in_order else np.lexsort((rel, pulse))
        out[ch] = (pulse[order], rel[order])
    return FoldedEvents(*out[CH_HERALD], *out[CH_PROBE], float(period_ps))


# ---------------------------------------------------------------------------
# Histograms


@dataclass
class Histogram2D:
    """Joint temporal intensity: counts[x = probe bin, y = herald bin]."""

    counts: np.ndarray
    x_edges: np.ndarray
    y_edges: np.ndarray

    @property
    def x_centers(self):
        return 0.5 * (self.x_edges[:-1] + self.x_edges[1:])

    @property
    def y_centers(self):
        return 0.5 * (self.y_edges[:-1] + self.y_edges[1:])

    def to_csv(self, path):
        """Rows of (x_bin, y_bin, count) for the nonzero bins."""
        with open(path, "w") as fh:
            fh.write("x_bin,y_bin,count\n")
            for i, j in zip(*np.nonzero(self.counts)):
                fh.write(f"{self.x_centers[i]:.1f},{self.y_centers[j]:.1f},"
                         f"{self.counts[i, j]}\n")


def _frame_edges(half_period: float) -> np.ndarray:
    edges = np.arange(-half_period, half_period, WINDOW_PS)
    return np.append(edges, half_period)


def _bin_index(rel, edges):
    idx = np.floor((np.asarray(rel) - edges[0]) / (edges[1] - edges[0])).astype(np.int64)
    return np.clip(idx, 0, edges.size - 2)


def _pair_index(keys, probe_pulse):
    """Index pairs (into keys, into the sorted probe_pulse) of every probe
    event whose pulse equals the key."""
    start = np.searchsorted(probe_pulse, keys, "left")
    counts = np.searchsorted(probe_pulse, keys, "right") - start
    key_idx = np.repeat(np.arange(keys.size), counts)
    probe_idx = np.repeat(start, counts) + (
        np.arange(counts.sum(), dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts))
    return key_idx, probe_idx


def pulse_pairs(folded: FoldedEvents, shift: int = 0):
    """Index pairs (into herald arrays, probe arrays) of herald x probe
    combinations with probe_pulse == herald_pulse + shift."""
    return _pair_index(folded.herald_pulse + shift, folded.probe_pulse)


def window_counts(folded: FoldedEvents, herald_pulse, lo: float, hi: float,
                  shifts) -> np.ndarray:
    """Per shift, the herald x probe combinations with probe_pulse ==
    herald_pulse + shift and probe rel in [lo, hi)."""
    shifts = np.asarray(shifts, dtype=np.int64)
    keys = (shifts[:, None] + herald_pulse[None, :]).ravel()
    key_idx, probe_idx = _pair_index(keys, folded.probe_pulse)
    rel = folded.probe_rel[probe_idx]
    in_window = key_idx[(rel >= lo) & (rel < hi)]   # empty when no heralds
    return np.bincount(in_window // herald_pulse.size, minlength=shifts.size)


def build_jti(folded: FoldedEvents) -> Histogram2D:
    """2-D histogram of same-pulse (probe rel, herald rel) combinations."""
    if folded.herald_pulse.size == 0 and folded.probe_pulse.size == 0:
        raise AnalysisError("no folded events to histogram")
    edges = _frame_edges(folded.half_period)
    n = edges.size - 1
    ih, ip = pulse_pairs(folded)
    counts = np.zeros((n, n), dtype=np.int64)
    if ih.size:
        xi = _bin_index(folded.probe_rel[ip], edges)
        yi = _bin_index(folded.herald_rel[ih], edges)
        np.add.at(counts, (xi, yi), 1)
    return Histogram2D(counts, edges, edges.copy())


def probe_window_histogram(folded: FoldedEvents):
    """Counts of ALL probe tags per disjoint relative-time window.

    The windows tile the full pulse frame, so the counts sum to the total
    number of probe tags (bookkeeping invariant).
    """
    edges = _frame_edges(folded.half_period)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    if folded.probe_rel.size:
        np.add.at(counts, _bin_index(folded.probe_rel, edges), 1)
    return 0.5 * (edges[:-1] + edges[1:]), counts


# ---------------------------------------------------------------------------
# Gaussian peak fitting


@dataclass(frozen=True)
class GaussianFitResult:
    mean_ps: float
    fwhm_ps: float
    amplitude: float
    baseline: float
    rms_residual: float


def fit_gaussian_peak(centers, counts) -> GaussianFitResult:
    """Least-squares Gaussian + constant fit of a 1-D histogram slice.

    The width is initialized from the second moment of the contiguous
    region around the maximum that stays above half the peak excess; a
    global moment would be inflated arbitrarily by a flat noise floor.
    """
    x = np.asarray(centers, dtype=np.float64)
    y = np.asarray(counts, dtype=np.float64)
    if np.count_nonzero(y) < 5:
        raise NoPeakError(f"only {np.count_nonzero(y)} nonzero bins (need >= 5)")
    baseline0 = float(np.median(y))
    amp0 = float(y.max() - baseline0)
    if amp0 <= 0:
        raise NoPeakError("histogram maximum does not exceed the baseline estimate")
    peak_idx = int(np.argmax(y))
    mu0 = float(x[peak_idx])
    above = y > baseline0 + 0.5 * amp0
    lo = peak_idx
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = peak_idx
    while hi < y.size - 1 and above[hi + 1]:
        hi += 1
    local = slice(max(lo - 2, 0), min(hi + 3, y.size))
    excess = np.clip(y[local] - baseline0, 0.0, None)
    sigma0 = float(np.sqrt(np.sum(excess * (x[local] - mu0) ** 2)
                           / excess.sum())) if excess.sum() > 0 else 0.0
    if not np.isfinite(sigma0) or sigma0 <= 0:
        sigma0 = (x[1] - x[0]) if x.size > 1 else 1.0

    def residual(params):
        amp, mu, sigma, base = params
        return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2) + base - y

    result = optimize.least_squares(
        residual, [amp0, mu0, sigma0, baseline0], xtol=1e-8, max_nfev=200 * 4)
    rms = float(np.sqrt(np.mean(result.fun ** 2)))
    if not result.success:
        raise FitError(f"peak fit did not converge (rms residual {rms:.3g})")
    amp, mu, sigma, base = result.x
    return GaussianFitResult(float(mu), sigma_to_fwhm(abs(float(sigma))),
                             float(amp), float(base), rms)


# ---------------------------------------------------------------------------
# CAR per herald bin and ridge/target detection


@dataclass
class RidgeBin:
    """One 100 ps herald slice of the coincidence ridge."""

    herald_bin: int
    herald_center_ps: float
    probe_peak_ps: float
    n_cc: int
    n_acc: float
    car: float
    car_is_lower_bound: bool


def car_per_herald_bin(folded: FoldedEvents) -> list:
    """CAR for every herald bin with at least MIN_CC same-pulse pairs.

    Per bin: locate the probe-time coincidence peak (Gaussian fit, falling
    back to the maximum bin when the slice is too sparse to fit), count
    same-pulse coincidences in the window x window square, and average the
    counts of the same probe window displaced by the ACC_SHIFTS pump periods
    for the accidentals.  A zero accidental estimate yields the documented
    sentinel CAR = N_CC * len(ACC_SHIFTS) (a lower bound) with the flag set.
    """
    edges = _frame_edges(folded.half_period)
    ih, ip = pulse_pairs(folded)
    if ih.size == 0:
        return []
    hbin = _bin_index(folded.herald_rel[ih], edges)
    half_w = WINDOW_PS / 2.0
    out = []
    for b in np.unique(hbin):
        sel = hbin == b
        if sel.sum() < MIN_CC:
            continue
        rel_p = folded.probe_rel[ip[sel]]
        hist_edges = np.arange(rel_p.min() - WINDOW_PS,
                               rel_p.max() + 2 * WINDOW_PS, WINDOW_PS)
        hist, _ = np.histogram(rel_p, bins=hist_edges)
        centers = 0.5 * (hist_edges[:-1] + hist_edges[1:])
        try:
            peak = fit_gaussian_peak(centers, hist).mean_ps
        except AnalysisError:
            peak = float(centers[np.argmax(hist)])
        herald_lo, herald_hi = edges[b], edges[b + 1]
        h_in_bin = (folded.herald_rel >= herald_lo) & (folded.herald_rel < herald_hi)
        counts = window_counts(folded, folded.herald_pulse[h_in_bin],
                               peak - half_w, peak + half_w, (0,) + ACC_SHIFTS)
        n_cc = int(counts[0])
        n_acc = float(np.mean(counts[1:]))
        if n_acc > 0:
            car = n_cc / n_acc
            lower_bound = False
        else:
            car = float(n_cc * len(ACC_SHIFTS))
            lower_bound = True
        out.append(RidgeBin(int(b), float(0.5 * (herald_lo + herald_hi)),
                            peak, n_cc, n_acc, car, lower_bound))
    return out


def cluster_ridge_bins(ridge: list) -> list:
    """Group significant adjacent herald bins into target candidates.

    This is the target rule.  A bin is significant when its coincidence
    count exceeds its own accidental baseline by SIGMA_ABOVE_BASELINE
    standard deviations, n_cc > n_acc + 5 sqrt(max(n_acc, 1)); as n_acc >= 0,
    that needs n_cc > 5.  Adjacent bins stay in one cluster only while their
    probe peaks follow the t_probe + t_herald = const diagonal; a jump larger
    than PEAK_BREAK_PS signals a target at a different range and starts a new
    cluster.
    """
    significant = [rb for rb in ridge
                   if rb.n_cc > rb.n_acc + SIGMA_ABOVE_BASELINE * math.sqrt(
                       max(rb.n_acc, 1.0))]
    clusters = []
    current = []
    for rb in sorted(significant, key=lambda r: r.herald_bin):
        if current:
            prev = current[-1]
            gap = rb.herald_bin != prev.herald_bin + 1
            diagonal_jump = abs((rb.probe_peak_ps - prev.probe_peak_ps)
                                + (rb.herald_center_ps - prev.herald_center_ps))
            if gap or diagonal_jump > PEAK_BREAK_PS:
                clusters.append(current)
                current = []
        current.append(rb)
    if current:
        clusters.append(current)
    return clusters


# ---------------------------------------------------------------------------
# SNR extraction


@dataclass(frozen=True)
class CountWindow:
    """A WINDOW_PS analysis window (2-D for coincidences, probe axis for SC)."""

    probe_center_ps: float
    herald_center_ps: float

    @property
    def probe_interval(self):
        return (self.probe_center_ps - WINDOW_PS / 2,
                self.probe_center_ps + WINDOW_PS / 2)

    @property
    def herald_interval(self):
        return (self.herald_center_ps - WINDOW_PS / 2,
                self.herald_center_ps + WINDOW_PS / 2)


@dataclass(frozen=True)
class RatioResult:
    """A measured (A - B)/B ratio with an independent-Poisson sigma bound."""

    value: float
    sigma: float
    n_on: float
    n_off: float

    @property
    def defined(self) -> bool:
        return math.isfinite(self.value)


def count_sc(folded: FoldedEvents, window: CountWindow) -> int:
    lo, hi = window.probe_interval
    return int(np.count_nonzero((folded.probe_rel >= lo) & (folded.probe_rel < hi)))


def count_cc(folded: FoldedEvents, window: CountWindow) -> int:
    lo_h, hi_h = window.herald_interval
    lo_p, hi_p = window.probe_interval
    sel = (folded.herald_rel >= lo_h) & (folded.herald_rel < hi_h)
    return int(window_counts(folded, folded.herald_pulse[sel], lo_p, hi_p, [0])[0])


def _ratio(n_on: float, n_off: float) -> RatioResult:
    if n_off <= 0:
        return RatioResult(math.nan, math.nan, n_on, n_off)
    value = (n_on - n_off) / n_off
    sigma = math.sqrt(n_on / n_off ** 2 + n_on ** 2 / n_off ** 3)
    return RatioResult(value, sigma, n_on, n_off)


def snr_classical(on: FoldedEvents, off: FoldedEvents,
                  windows: list) -> list:
    """Per-window classical SNR from single counts in the probe channel."""
    return [_ratio(count_sc(on, w), count_sc(off, w)) for w in windows]


def snr_quantum(on: FoldedEvents, off: FoldedEvents,
                windows: list) -> list:
    """Per-window quantum SNR from pulse-synchronized coincidences."""
    return [_ratio(count_cc(on, w), count_cc(off, w)) for w in windows]


def snr_enhancement(snr_q: RatioResult, snr_c: RatioResult) -> RatioResult:
    """E_SNR = SNR_Q / SNR_C with propagated (uncorrelated) uncertainty."""
    if not snr_c.defined or not snr_q.defined or snr_c.value <= 0:
        return RatioResult(math.nan, math.nan, snr_q.value, snr_c.value)
    value = snr_q.value / snr_c.value
    rel = math.sqrt((snr_q.sigma / snr_q.value) ** 2
                    + (snr_c.sigma / snr_c.value) ** 2) if snr_q.value else math.inf
    return RatioResult(value, abs(value) * rel, snr_q.value, snr_c.value)


def noise_intensity_db(n_true: float, n_false: float) -> float:
    """10 log10(false / true); NaN when no true counts."""
    if n_true <= 0 or n_false < 0:
        return math.nan
    if n_false == 0:
        return -math.inf
    return 10.0 * math.log10(n_false / n_true)


# ---------------------------------------------------------------------------
# Resolution figures


def distance_resolution_cm(jitter_cc_fwhm_ps: float, slope_ns_per_nm: float,
                           pump_bandwidth_nm: float) -> float:
    """Single-shot ranging resolution: (c/2) * quadrature(timing, chirp)."""
    if jitter_cc_fwhm_ps < 0 or pump_bandwidth_nm < 0:
        raise ValueError("resolution inputs must be non-negative")
    chirp_ps = abs(slope_ns_per_nm) * PS_PER_NS * pump_bandwidth_nm
    total_ps = math.hypot(jitter_cc_fwhm_ps, chirp_ps)
    return 0.5 * C_CM_PER_PS * total_ps


def direction_resolution_deg(jitter_herald_fwhm_ps: float, slope_ns_per_nm: float,
                             wavelength_nm: float, grating: GratingSpec) -> float:
    """Angular resolution: quadrature of timing-limited and grating-limited
    wavelength uncertainty, mapped through the angular dispersion."""
    if jitter_herald_fwhm_ps < 0:
        raise ValueError("jitter must be non-negative")
    dlam_timing = jitter_herald_fwhm_ps / (abs(slope_ns_per_nm) * PS_PER_NS)
    dlam_grating = wavelength_nm / grating.resolving_power
    dlam = math.hypot(dlam_timing, dlam_grating)
    return dlam * float(angular_dispersion(wavelength_nm, grating))


# ---------------------------------------------------------------------------
# Time-to-wavelength calibration


@dataclass
class CalibrationMap:
    """Monotone polynomial map from herald arrival time (ps) to wavelength (nm)."""

    coefficients: tuple                 # highest order first (np.polyval order)
    time_span_ps: tuple
    anchors_time_ps: tuple = ()
    anchors_wavelength_nm: tuple = ()
    residual_nm: float = 0.0
    source: str = "features"

    def wavelength_at(self, time_ps):
        return np.polyval(self.coefficients, np.asarray(time_ps, dtype=np.float64))

    def is_monotone(self) -> bool:
        t = np.linspace(*self.time_span_ps, 1001)
        lam = self.wavelength_at(t)
        d = np.diff(lam)
        return bool(np.all(d > 0) or np.all(d < 0))

    @classmethod
    def from_dispersion(cls, dispersion: DispersionModel,
                        band: SpectralBand) -> "CalibrationMap":
        """Fallback map: exact inverse of the configured dispersion model."""
        shift_lo = float(dispersion.arrival_shift_ps(band.lo_nm))
        shift_hi = float(dispersion.arrival_shift_ps(band.hi_nm))
        span = (min(shift_lo, shift_hi), max(shift_lo, shift_hi))
        t = np.linspace(*span, 512)
        lam = dispersion.wavelength_at_shift(t)
        deg = 1 if dispersion.mode == "linear" else CAL_DEGREE
        coeffs = np.polyfit(t, lam, deg)
        resid = float(np.sqrt(np.mean((np.polyval(coeffs, t) - lam) ** 2)))
        return cls(tuple(coeffs), span, residual_nm=resid, source="dispersion")


def find_spectral_features(x, y):
    """Locate singularities (local minima/maxima) of a sampled curve.

    Returns (positions of minima, positions of maxima) with sub-bin accuracy
    from parabolic interpolation around each smoothed-derivative zero
    crossing.  Endpoint extrema are ignored.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    smooth = ndimage.gaussian_filter1d(y, SMOOTH_BINS)
    span = smooth.max() - smooth.min()
    if span <= 0:
        return np.empty(0), np.empty(0)
    prominence = PROMINENCE_FRAC * span

    def refine(indices):
        pos = []
        for i in indices:
            if 0 < i < smooth.size - 1:
                denom = smooth[i - 1] - 2 * smooth[i] + smooth[i + 1]
                offset = 0.5 * (smooth[i - 1] - smooth[i + 1]) / denom if denom else 0.0
                pos.append(x[i] + offset * (x[1] - x[0]))
        return np.asarray(pos)

    maxima, _ = signal.find_peaks(smooth, prominence=prominence)
    minima, _ = signal.find_peaks(-smooth, prominence=prominence)
    return refine(minima), refine(maxima)


def calibrate_time_to_wavelength(time_centers_ps, time_counts,
                                 ref_wavelength_nm,
                                 ref_transmission) -> CalibrationMap:
    """Build the arrival-time -> wavelength map by singularity matching.

    Detects local minima/maxima in the measured herald-time histogram and in
    the reference transmission curve, pairs them kind-by-kind in ascending
    order, and least-squares fits a monotone polynomial (degree <=
    CAL_DEGREE) through the anchor pairs.
    """
    t_min, t_max = find_spectral_features(time_centers_ps, time_counts)
    l_min, l_max = find_spectral_features(ref_wavelength_nm, ref_transmission)
    if t_min.size != l_min.size or t_max.size != l_max.size:
        raise CalibrationError(
            f"feature count mismatch: histogram has {t_min.size} minima / "
            f"{t_max.size} maxima, reference has {l_min.size} / {l_max.size}")
    anchors_t = np.concatenate([t_min, t_max])
    anchors_l = np.concatenate([l_min, l_max])
    if anchors_t.size < 2:
        raise CalibrationError(
            f"need at least 2 matched features, found {anchors_t.size}")
    order = np.argsort(anchors_t)
    anchors_t, anchors_l = anchors_t[order], anchors_l[order]
    if not (np.all(np.diff(anchors_l) > 0) or np.all(np.diff(anchors_l) < 0)):
        raise CalibrationError("matched anchors are not monotone in wavelength")
    # keep at least one residual degree of freedom (except for 2 anchors)
    # so feature-localization noise is averaged instead of interpolated
    deg = int(min(CAL_DEGREE, max(1, anchors_t.size - 2)))
    coeffs = np.polyfit(anchors_t, anchors_l, deg)
    residual = float(np.sqrt(np.mean(
        (np.polyval(coeffs, anchors_t) - anchors_l) ** 2)))
    span = (float(np.min(time_centers_ps)), float(np.max(time_centers_ps)))
    cal = CalibrationMap(tuple(coeffs), span, tuple(anchors_t), tuple(anchors_l),
                         residual, "features")
    if not cal.is_monotone():
        raise CalibrationError(
            f"fitted degree-{deg} map is not monotone over {span} ps")
    return cal


# ---------------------------------------------------------------------------
# Target reconstruction


@dataclass
class ReconstructedTarget:
    direction_deg: float
    distance_m: float
    peak_counts: int
    herald_center_ps: float
    herald_bin_range: tuple
    probe_peak_ps: float
    wavelength_nm: float
    delta_distance_m: float
    delta_direction_deg: float


def reconstruct_targets(ridge: list, calibration: CalibrationMap,
                        grating: GratingSpec, dispersion: DispersionModel,
                        pump: PumpSpec, *,
                        single_shot_resolution: tuple) -> list:
    """Cluster the coincidence ridge into targets with direction and range.

    Per herald bin: the calibration map gives the herald wavelength, energy
    conservation the probe frequency, the grating equation the direction,
    and the fitted probe-peak delay minus the dispersive prediction gives
    the two-way flight time.  Uncertainties scale the single-shot
    (delta_D, delta_theta) resolution by 1/sqrt(counts).
    """
    d_res_m, th_res = single_shot_resolution
    out = []
    for bins in cluster_ridge_bins(ridge):
        weights = np.array([rb.n_cc for rb in bins], dtype=np.float64)
        lam_h = calibration.wavelength_at(np.array(
            [rb.herald_center_ps for rb in bins]))
        f_h = C_NM_THZ / lam_h
        f_pr = 2.0 * pump.center_frequency_thz - f_h
        lam_pr = C_NM_THZ / f_pr
        theta = diffraction_angle(lam_pr, grating)
        predicted = dispersion.arrival_shift_ps(lam_pr)
        flight_ps = np.array([rb.probe_peak_ps for rb in bins]) - predicted
        distance_m = 0.5 * C_M_PER_PS * flight_ps
        total = weights.sum()
        direction = float(np.average(theta, weights=weights))
        distance = float(np.average(distance_m, weights=weights))
        best = max(bins, key=lambda rb: rb.n_cc)
        out.append(ReconstructedTarget(
            direction, distance, int(best.n_cc), float(best.herald_center_ps),
            (bins[0].herald_bin, bins[-1].herald_bin), float(best.probe_peak_ps),
            float(np.average(lam_pr, weights=weights)),
            d_res_m / math.sqrt(total), th_res / math.sqrt(total)))
    return out


# ---------------------------------------------------------------------------
# Randomness diagnostics


@dataclass(frozen=True)
class RandomnessReport:
    n_events: int
    chi2: float
    dof: int
    p_value: float
    lag1_correlation: float
    lag1_se: float
    min_entropy_bits: float


def herald_time_density(pump: PumpSpec, pm: PhaseMatchModel,
                        herald_band: SpectralBand, probe_band: SpectralBand,
                        dispersion: DispersionModel, jitter_fwhm_ps: float):
    """Model pdf of herald arrival times: JSI marginal through dispersion.

    The density is convolved with the detector jitter so band edges compare
    fairly against measured histograms.  Returns a callable evaluating the
    (unnormalized) density at relative times in ps.
    """
    f_h = np.linspace(herald_band.lo_thz, herald_band.hi_thz, 1200)
    f_pr = np.linspace(probe_band.lo_thz, probe_band.hi_thz, 2400)
    weights = jsi_weight(f_h[:, None], f_pr[None, :], pump, pm)
    marginal = np.trapezoid(weights, f_pr, axis=1)
    lam = C_NM_THZ / f_h
    t = dispersion.arrival_shift_ps(lam)
    # density transforms with the Jacobian |df/dt|
    dfdt = np.abs(np.gradient(f_h, t))
    density = marginal * dfdt
    order = np.argsort(t)
    t, density = t[order], density[order]

    sigma = jitter_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    margin = max(5.0 * sigma, 1.0)
    grid = np.linspace(t[0] - margin, t[-1] + margin, 4096)
    dense = np.interp(grid, t, density, left=0.0, right=0.0)
    if sigma > 0:
        dense = ndimage.gaussian_filter1d(dense, sigma / (grid[1] - grid[0]))

    def pdf(rel_ps):
        return np.interp(np.asarray(rel_ps, dtype=np.float64), grid, dense,
                         left=0.0, right=0.0)

    return pdf


def randomness_report(herald_rel_ps, *, expected_pdf) -> RandomnessReport:
    """Chi-square against the model marginal, serial correlation, min-entropy.

    expected_pdf is the model density, evaluated at relative times in ps.
    The bins span the observed data range; bins with expected count below 5
    are pooled.
    """
    rel = np.asarray(herald_rel_ps, dtype=np.float64)
    if rel.size < MIN_RANDOMNESS_EVENTS:
        raise InsufficientDataError(f"{rel.size} events < {MIN_RANDOMNESS_EVENTS}"
                                    " required for randomness checks")
    lo = math.floor(rel.min() / WINDOW_PS) * WINDOW_PS
    hi = math.ceil(rel.max() / WINDOW_PS) * WINDOW_PS
    if hi <= lo:
        hi = lo + WINDOW_PS
    edges = np.arange(lo, hi + WINDOW_PS, WINDOW_PS)
    observed, _ = np.histogram(rel, bins=edges)
    # integrate the density over each bin (midpoint subsampling) so sharp
    # band edges are represented by their actual bin mass
    sub = (np.arange(16) + 0.5) / 16.0
    points = edges[:-1, None] + sub[None, :] * WINDOW_PS
    expected = np.asarray(expected_pdf(points.ravel()),
                          dtype=np.float64).reshape(points.shape).mean(axis=1)
    if expected.sum() <= 0:
        raise AnalysisError("expected density vanishes over the data support")
    expected = expected / expected.sum() * rel.size

    # pool adjacent bins until each group expects >= 5 counts, so the
    # chi-square statistic stays valid near the distribution edges
    obs_groups, exp_groups = [], []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= 5.0:
            obs_groups.append(acc_obs)
            exp_groups.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0 and obs_groups:
        obs_groups[-1] += acc_obs
        exp_groups[-1] += acc_exp
    elif acc_exp > 0:
        obs_groups.append(acc_obs)
        exp_groups.append(acc_exp)
    obs = np.asarray(obs_groups, dtype=np.float64)
    exp = np.asarray(exp_groups, dtype=np.float64)
    exp *= obs.sum() / exp.sum()
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = max(obs.size - 1, 1)
    p_value = float(stats.chi2.sf(chi2, dof))

    if np.std(rel[:-1]) > 0 and np.std(rel[1:]) > 0:
        lag1 = float(np.corrcoef(rel[:-1], rel[1:])[0, 1])
    else:
        lag1 = 0.0
    lag1_se = 1.0 / math.sqrt(rel.size)

    p_hat = observed / observed.sum()
    p_max = float(p_hat.max())
    min_entropy = -math.log2(p_max) if p_max > 0 else 0.0
    return RandomnessReport(int(rel.size), chi2, dof, p_value, lag1, lag1_se,
                            min_entropy)
