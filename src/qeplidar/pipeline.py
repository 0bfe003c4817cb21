"""Experiment orchestration: scenario -> tag streams -> analysis report.

The four probe/noise on-off configurations of one scenario share every
random realization they have in common (pair emissions, channel survival,
noise arrivals, dark counts, per-component jitter), mirroring paired
measurements taken simultaneously with the same photons.  A configuration
is assembled as the union of independently detected components:

    probe channel = [pair+single probes if probe:on] + [noise if noise:on] + darks
    herald channel = pair+single heralds + darks
    REF channel = every ref_divider-th pump pulse

Detector dead time then acts once on each merged herald/probe channel.

Emission generation is chunked over pulse blocks; the counter-based
per-pulse randomness makes the result independent of block size, evaluation
order, and worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import ndimage

from . import __version__, analysis, rng
from .channel import propagate_herald_batch, propagate_probe_batch, sample_noise_arrivals
from .detect import (CH_HERALD, CH_PROBE, CH_REF, DetectorSpec,
                     apply_dead_time, detect_channel, merge_streams)
from .model import bandwidth_frequency_to_wavelength, fwhm_to_sigma
from .scenario import ScenarioConfig, SweepSpec
from .source import pulse_time, sample_pulse_range

TOOL_VERSION = __version__
DEFAULT_BLOCK_PULSES = 1 << 21


class FingerprintMismatchError(ValueError):
    """Stream was produced by a different scenario than the one analyzed."""


# One row per propagated emission component: the EmissionBatch fields it
# reads (pulse, slot, frequency, generation time), its survival substream and
# the detector side it reaches.  A side's rows concatenate in table order,
# which fixes the order of that side's detector draws.
_COMPONENTS = (
    (("pair_pulse", "pair_slot", "pair_herald_thz", "pair_time_ps"),
     rng.HERALD_SURVIVAL, "herald"),
    (("single_herald_pulse", "single_herald_slot", "single_herald_thz",
      "single_herald_time_ps"), rng.SINGLE_HERALD_SURVIVAL, "herald"),
    (("pair_pulse", "pair_slot", "pair_probe_thz", "pair_time_ps"),
     rng.PROBE_SURVIVAL, "probe"),
    (("single_probe_pulse", "single_probe_slot", "single_probe_thz",
      "single_probe_time_ps"), rng.SINGLE_PROBE_SURVIVAL, "probe"),
)


def _simulate_block(config: ScenarioConfig, start: int, count: int):
    """True (pre-detector) arrival times contributed by one pulse block."""
    batch = sample_pulse_range(start, count, config.seed, config.rates,
                               config.pump, config.phase_match,
                               config.herald_band, config.probe_band)
    # (propagator, scene geometry it takes); looked up per call, not at import
    propagators = {"herald": (propagate_herald_batch, ()),
                   "probe": (propagate_probe_batch, (config.scene, config.grating))}
    parts = {"herald": [], "probe": []}
    for fields, stream, side in _COMPONENTS:
        propagate, geometry = propagators[side]
        emission = [getattr(batch, name) for name in fields]
        parts[side].append(propagate(*emission, *geometry, config.dispersion,
                                     config.channels, config.seed, stream))
    return np.concatenate(parts["herald"]), np.concatenate(parts["probe"])


def _merged_channel(parts: list, spec: DetectorSpec) -> np.ndarray:
    """Time-sorted union of separately detected components, dead-timed once."""
    tags = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
    if spec.dead_time_ps > 0:
        tags = apply_dead_time(tags, spec.dead_time_ps)
    return tags


def simulate(config: ScenarioConfig, *, threads: int = 1,
             block_pulses: int = DEFAULT_BLOCK_PULSES) -> dict:
    """Run the scenario once and assemble a TagStream per configuration."""
    n_pulses = config.n_pulses
    duration_ps = config.duration_ps
    fingerprint = config.fingerprint()
    period_rounded = int(round(config.pump.period_ps))

    starts = list(range(0, n_pulses, block_pulses))
    blocks = [(s, min(block_pulses, n_pulses - s)) for s in starts]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda b: _simulate_block(config, b[0], b[1]), blocks))
    else:
        results = [_simulate_block(config, s, c) for s, c in blocks]
    herald_true = np.concatenate([r[0] for r in results]) if results \
        else np.empty(0)
    probe_true = np.concatenate([r[1] for r in results]) if results \
        else np.empty(0)

    det = config.detectors

    def detect(true_ps, spec, component):
        return detect_channel(true_ps, spec, duration_ps,
                              rng.component_generator(config.seed, component))

    # Photons are thinned and jittered without darks; darks are jittered
    # without thinning.  Dead time acts once on each merged channel, REF
    # included.
    photons_h = replace(det["herald"], dark_rate_per_s=0.0)
    photons_p = replace(det["probe"], dark_rate_per_s=0.0)
    darks_h = replace(det["herald"], quantum_efficiency=1.0)
    darks_p = replace(det["probe"], quantum_efficiency=1.0)

    ref_idx = np.arange(0, n_pulses, config.ref_divider, dtype=np.int64)
    ref_true = pulse_time(ref_idx, config.pump).astype(np.float64) \
        if ref_idx.size else np.empty(0)
    ref_tags = _merged_channel(
        [detect(ref_true, det["ref"], rng.COMP_JITTER_REF)], det["ref"])
    herald_all = _merged_channel(
        [detect(herald_true, photons_h, rng.COMP_JITTER_HERALD),
         detect(np.empty(0), darks_h, rng.COMP_DARK_HERALD)], det["herald"])
    probe_signal = detect(probe_true, photons_p, rng.COMP_JITTER_PROBE_SIGNAL)
    probe_darks = detect(np.empty(0), darks_p, rng.COMP_DARK_PROBE)
    noise = np.empty(0, dtype=np.int64)
    if config.channels.noise_rate_per_s > 0:
        noise_true = sample_noise_arrivals(
            config.duration_s, config.channels.noise_rate_per_s,
            rng.component_generator(config.seed, rng.COMP_NOISE))
        noise = detect(noise_true, photons_p, rng.COMP_JITTER_PROBE_NOISE)

    streams = {}
    for label in config.configurations:
        parts = [probe_darks]
        if "probe:on" in label:
            parts.append(probe_signal)
        if "noise:on" in label:
            parts.append(noise)
        streams[label] = merge_streams(
            {CH_REF: ref_tags, CH_HERALD: herald_all,
             CH_PROBE: _merged_channel(parts, det["probe"])},
            duration_ps, fingerprint, period_rounded)
    return streams


# ---------------------------------------------------------------------------
# Analysis orchestration


@dataclass
class TargetReport:
    id: str
    direction_deg: float
    distance_m: float
    peak_counts: int
    wavelength_nm: float
    delta_distance_m: float
    delta_direction_deg: float
    snr_classical: float = math.nan
    snr_classical_sigma: float = math.nan
    snr_quantum: float = math.nan
    snr_quantum_sigma: float = math.nan
    esnr: float = math.nan
    esnr_sigma: float = math.nan
    counts: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)


@dataclass
class AnalysisReport:
    fingerprint_hex: str
    tool_version: str
    car_bins: list
    targets: list
    resolution: dict
    randomness: dict
    calibration: dict
    noise_intensity_db: float
    totals: dict

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint_hex,
            "tool_version": self.tool_version,
            "car": [{
                "herald_bin": rb.herald_bin,
                "herald_center_ps": rb.herald_center_ps,
                "probe_peak_ps": rb.probe_peak_ps,
                "n_cc": rb.n_cc,
                "n_acc": rb.n_acc,
                "car": rb.car,
                "lower_bound": rb.car_is_lower_bound,
            } for rb in self.car_bins],
            "snr": [{
                "id": t.id,
                "snr_classical": t.snr_classical,
                "snr_classical_sigma": t.snr_classical_sigma,
                "snr_quantum": t.snr_quantum,
                "snr_quantum_sigma": t.snr_quantum_sigma,
                "counts": t.counts,
                "window": t.window,
            } for t in self.targets],
            "esnr": [{
                "id": t.id, "esnr": t.esnr, "esnr_sigma": t.esnr_sigma,
            } for t in self.targets],
            "targets": [{
                "id": t.id,
                "direction_deg": t.direction_deg,
                "distance_m": t.distance_m,
                "peak_counts": t.peak_counts,
                "wavelength_nm": t.wavelength_nm,
                "delta_distance_m": t.delta_distance_m,
                "delta_direction_deg": t.delta_direction_deg,
            } for t in self.targets],
            "resolution": self.resolution,
            "randomness": self.randomness,
            "calibration": self.calibration,
            "noise_intensity_db": self.noise_intensity_db,
            "totals": self.totals,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


PRIMARY_LABEL = "probe:on|noise:on"
OFF_LABEL = "probe:off|noise:on"
CAR_LABEL = "probe:on|noise:off"


def _check_fingerprints(streams: dict, config: ScenarioConfig):
    expected = config.fingerprint()
    for label, stream in streams.items():
        if stream.fingerprint != expected:
            raise FingerprintMismatchError(
                f"stream {label!r} fingerprint {stream.fingerprint.hex()[:16]}... "
                f"does not match scenario {expected.hex()[:16]}...")


def analyze(streams: dict, config: ScenarioConfig) -> AnalysisReport:
    """Full measurement analysis of the simulated (or re-read) streams."""
    _check_fingerprints(streams, config)
    period = config.pump.period_ps
    folded = {label: analysis.fold_to_pulse_frame(
        s, period_ps=period, divider=config.ref_divider)
        for label, s in streams.items()}

    primary_label = PRIMARY_LABEL if PRIMARY_LABEL in folded else \
        next((l for l in folded if "probe:on" in l), None)
    if primary_label is None:
        raise analysis.AnalysisError("no probe:on configuration to analyze")
    primary = folded[primary_label]

    car_label = CAR_LABEL if CAR_LABEL in folded else primary_label
    car_bins = analysis.car_per_herald_bin(folded[car_label])
    ridge = car_bins if car_label == primary_label else \
        analysis.car_per_herald_bin(primary)
    calibration = analysis.CalibrationMap.from_dispersion(
        config.dispersion, config.herald_band)

    jit_h = config.detectors["herald"].jitter_fwhm_ps
    jit_p = config.detectors["probe"].jitter_fwhm_ps
    jitter_cc = math.hypot(jit_h, jit_p)
    pump_bw_nm = _pump_bandwidth_nm(config)
    d_res_cm = analysis.distance_resolution_cm(
        jitter_cc, config.dispersion.slope_ns_per_nm, pump_bw_nm)
    th_res_deg = analysis.direction_resolution_deg(
        jit_h, config.dispersion.slope_ns_per_nm,
        config.probe_band.center_nm, config.grating)

    recon = analysis.reconstruct_targets(
        ridge, calibration, config.grating, config.dispersion, config.pump,
        single_shot_resolution=(d_res_cm / 100.0, th_res_deg))

    targets = []
    for k, rt in enumerate(recon):
        targets.append(TargetReport(
            id=f"target{k + 1}", direction_deg=rt.direction_deg,
            distance_m=rt.distance_m, peak_counts=rt.peak_counts,
            wavelength_nm=rt.wavelength_nm,
            delta_distance_m=rt.delta_distance_m,
            delta_direction_deg=rt.delta_direction_deg,
            window={"probe_center_ps": rt.probe_peak_ps,
                    "herald_center_ps": rt.herald_center_ps,
                    "width_ps": analysis.WINDOW_PS}))

    noise_db = math.nan
    if OFF_LABEL in folded:
        off = folded[OFF_LABEL]
        windows = [analysis.CountWindow(t.window["probe_center_ps"],
                                        t.window["herald_center_ps"])
                   for t in targets]
        snr_c = analysis.snr_classical(primary, off, windows)
        snr_q = analysis.snr_quantum(primary, off, windows)
        for t, rc, rq in zip(targets, snr_c, snr_q):
            t.snr_classical, t.snr_classical_sigma = rc.value, rc.sigma
            t.snr_quantum, t.snr_quantum_sigma = rq.value, rq.sigma
            e = analysis.snr_enhancement(rq, rc)
            t.esnr, t.esnr_sigma = e.value, e.sigma
            t.counts = {
                "sc_on_on": rc.n_on, "sc_off_on": rc.n_off,
                "cc_on_on": rq.n_on, "cc_off_on": rq.n_off,
            }
        n_on = primary.probe_rel.size
        n_off = off.probe_rel.size
        noise_db = analysis.noise_intensity_db(n_on - n_off, n_off)

    herald_rel = folded[car_label].herald_rel
    randomness: dict = {}
    if herald_rel.size >= analysis.MIN_RANDOMNESS_EVENTS:
        rep = analysis.randomness_report(
            herald_rel, expected_pdf=_herald_model_pdf(config, jit_h))
        randomness = asdict(rep)

    return AnalysisReport(
        fingerprint_hex=config.fingerprint().hex(),
        tool_version=TOOL_VERSION,
        car_bins=car_bins,
        targets=targets,
        resolution={
            "distance_cm": d_res_cm,
            "direction_deg": th_res_deg,
            "jitter_cc_fwhm_ps": jitter_cc,
            "jitter_herald_fwhm_ps": jit_h,
            "pump_bandwidth_nm": pump_bw_nm,
        },
        randomness=randomness,
        calibration={
            "source": calibration.source,
            "coefficients": list(calibration.coefficients),
            "residual_nm": calibration.residual_nm,
        },
        noise_intensity_db=noise_db,
        totals={label: {
            "tags": len(stream),
            "probe": int(np.count_nonzero(stream.channels == CH_PROBE)),
            "herald": int(np.count_nonzero(stream.channels == CH_HERALD)),
            "ref": int(np.count_nonzero(stream.channels == CH_REF)),
        } for label, stream in streams.items()},
    )


def _pump_bandwidth_nm(config: ScenarioConfig) -> float:
    return bandwidth_frequency_to_wavelength(
        config.pump.spectral_fwhm_ghz, config.pump.center_wavelength_nm)


def _herald_model_pdf(config: ScenarioConfig, jitter_fwhm_ps: float):
    """Model density of herald-channel arrival times over the pulse frame.

    Three components, in per-pulse units: pair heralds following the JSI
    marginal, uncorrelated source singles uniform over the herald band, and
    dark counts uniform over the whole pump period.  Losses scale the first
    two identically (eta_H) so only the dark term needs its own efficiency
    bookkeeping (none: darks are post-loss by definition), which makes the
    eta_H factor explicit below.
    """
    period = config.pump.period_ps
    half = period / 2.0
    grid = np.linspace(-half, half, 8192)
    pair_pdf = analysis.herald_time_density(
        config.pump, config.phase_match, config.herald_band,
        config.probe_band, config.dispersion, jitter_fwhm_ps=jitter_fwhm_ps)
    pair_vals = pair_pdf(grid)
    pair_mass = np.trapezoid(pair_vals, grid)
    eta_h = config.channels.herald_efficiency
    combined = config.rates.pair_rate * eta_h * pair_vals / pair_mass

    single_rate = config.rates.single_herald_rate
    if single_rate > 0.0:
        shift_lo = float(config.dispersion.arrival_shift_ps(
            config.herald_band.lo_nm))
        shift_hi = float(config.dispersion.arrival_shift_ps(
            config.herald_band.hi_nm))
        t_lo, t_hi = min(shift_lo, shift_hi), max(shift_lo, shift_hi)
        box = ((grid >= t_lo) & (grid <= t_hi)).astype(np.float64)
        sigma = fwhm_to_sigma(jitter_fwhm_ps)
        if sigma > 0:
            box = ndimage.gaussian_filter1d(box, sigma / (grid[1] - grid[0]))
        combined = combined + single_rate * eta_h * box / np.trapezoid(box, grid)

    dark_rate = config.detectors["herald"].dark_rate_per_s
    if dark_rate > 0.0:
        combined = combined + dark_rate * config.pump.period_ps * 1e-12 / period

    def pdf(rel_ps):
        rel = np.clip(np.asarray(rel_ps, dtype=np.float64), -half, half)
        return np.interp(rel, grid, combined)

    return pdf


def sweep(base: ScenarioConfig, parameter: str, values, *,
          threads: int = 1) -> list:
    """Simulate + analyze the scenario at each swept value.

    Returns rows of (value, target id, SNR_C, SNR_Q, E_SNR, CAR) suitable
    for CSV export.
    """
    spec = SweepSpec(parameter, tuple(values), base)
    rows = []
    for value, config in spec.scenarios():
        streams = simulate(config, threads=threads)
        report = analyze(streams, config)
        car_total = _aggregate_car(report.car_bins)
        for t in report.targets:
            rows.append({
                "value": value, "target": t.id,
                "snr_classical": t.snr_classical,
                "snr_quantum": t.snr_quantum,
                "esnr": t.esnr, "car": car_total,
            })
        if not report.targets:
            rows.append({"value": value, "target": "", "snr_classical": math.nan,
                         "snr_quantum": math.nan, "esnr": math.nan,
                         "car": car_total})
    return rows


def _aggregate_car(car_bins) -> float:
    n_cc = sum(rb.n_cc for rb in car_bins)
    n_acc = sum(rb.n_acc for rb in car_bins)
    return n_cc / n_acc if n_acc > 0 else math.nan


def sweep_rows_to_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("value,target,snr_classical,snr_quantum,esnr,car\n")
        for r in rows:
            fh.write(f"{r['value']},{r['target']},{r['snr_classical']},"
                     f"{r['snr_quantum']},{r['esnr']},{r['car']}\n")
