"""Output checks against expectations computed here, apart from the program.

Each check takes the program's output and the scenario and returns a list of
problems (empty when the output is right).  Expectations use only scenario
fields and closed forms: Poisson counts, the non-paralyzable dead-time
correction, the grating equation and the paper's resolution budgets.  Their
tolerances are set from the Poisson error of the quantity checked, so they
hold on every seed, not on one seed's luck.
"""

from __future__ import annotations

import json
import math
import statistics

import numpy as np

from qeplidar.detect import CH_HERALD, CH_PROBE, CH_REF

# Paper resolutions (acceptance criteria 1 and 2): the budgets a
# reconstructed target must fall within.
RANGE_BUDGET_M = 0.022
DIRECTION_BUDGET_DEG = 0.144

# Counts must lie within this many standard deviations of their expectation.
Z = 5.0

# Classical SNR the paper's high-noise split stays below (criterion 08).
CLASSICAL_SNR_CEILING = 0.01

# Width of the analysis count windows (pipeline.analyze's default), in ps.
WINDOW_PS = 100.0


def n_pulses(config) -> int:
    return int(round(config.duration_s * config.pump.repetition_rate_mhz * 1e6))


def dead_time_kept(mean_count: float, duration_s: float,
                   dead_time_ps: float) -> float:
    """Expected count after a non-paralyzable dead time: n / (1 + n tau)."""
    rate = mean_count / duration_s
    return mean_count / (1.0 + rate * dead_time_ps * 1e-12)


def grating_angle_deg(wavelength_nm: float, grating) -> float:
    """|theta_m| from alpha (sin theta_m + sin theta_i) = m lambda."""
    alpha_nm = 1e6 / grating.groove_density_per_mm
    s = (grating.order * wavelength_nm / alpha_nm
         - math.sin(math.radians(grating.incidence_angle_deg)))
    return abs(math.degrees(math.asin(s)))


def _within(name: str, observed: float, expected: float, sigma: float) -> list:
    if abs(observed - expected) <= Z * sigma:
        return []
    return [f"{name}: observed {observed}, expected {expected:.1f} "
            f"+- {Z:g} x {sigma:.2f}"]


def ref_count(streams: dict, config) -> list:
    """Every stream has exactly ceil(n_pulses / ref_divider) REF tags."""
    expected = -(-n_pulses(config) // config.ref_divider)
    return [f"{label}: {n} REF tags, expected {expected}"
            for label, s in streams.items()
            if (n := int(np.count_nonzero(s.channels == CH_REF))) != expected]


def herald_count(streams: dict, config) -> list:
    """Herald tags: n_pulses (nu_pair + nu_single_herald) eta_H + dark_H T,
    dead-time corrected when the herald detector has one."""
    det = config.detectors["herald"]
    eta_h = config.channels.herald_efficiency * det.quantum_efficiency
    nu = config.rates.pair_rate + config.rates.single_herald_rate
    mean = n_pulses(config) * nu * eta_h + det.dark_rate_per_s * config.duration_s
    sigma = math.sqrt(mean)
    if det.dead_time_ps > 0:
        mean = dead_time_kept(mean, config.duration_s, det.dead_time_ps)
    problems = []
    for label, s in streams.items():
        n = int(np.count_nonzero(s.channels == CH_HERALD))
        problems += _within(f"{label} herald tags", n, mean, sigma)
    return problems


def reread_identical(streams: dict, reread: dict) -> list:
    """The QTT1 round trip returns the in-memory streams bit for bit."""
    problems = []
    if set(streams) != set(reread):
        return [f"re-read labels {sorted(reread)} != {sorted(streams)}"]
    for label, mem in streams.items():
        disk = reread[label]
        if not (np.array_equal(mem.channels, disk.channels)
                and np.array_equal(mem.timestamps, disk.timestamps)
                and mem.fingerprint == disk.fingerprint
                and mem.period_ps_rounded == disk.period_ps_rounded):
            problems.append(f"{label}: QTT1 re-read differs from memory")
    return problems


def matched_targets(report: dict, config) -> tuple:
    """Map each scene target to the closest reconstructed one within the
    range and direction budgets; returns (matches, problems)."""
    matches = {}
    problems = []
    for target in config.scene:
        angle = grating_angle_deg(target.center_wavelength_nm, config.grating)
        best = None
        for got in report["targets"]:
            dd = abs(got["distance_m"] - target.distance_m)
            dth = abs(got["direction_deg"] - angle)
            score = dd / RANGE_BUDGET_M + dth / DIRECTION_BUDGET_DEG
            if best is None or score < best[0]:
                best = (score, got, dd, dth)
        if best is None:
            problems.append(f"scene target {target.id}: nothing reconstructed")
        elif best[2] > RANGE_BUDGET_M or best[3] > DIRECTION_BUDGET_DEG:
            problems.append(
                f"scene target {target.id}: nearest reconstruction "
                f"{best[1]['id']} is {best[2] * 100:.2f} cm / {best[3]:.3f} deg "
                f"off (budget {RANGE_BUDGET_M * 100} cm / "
                f"{DIRECTION_BUDGET_DEG} deg)")
        else:
            matches[target.id] = best[1]["id"]
    return matches, problems


def targets_matched(report: dict, config) -> list:
    return matched_targets(report, config)[1]


NOISE_ONLY = "probe:off|noise:on"


def noise_only_probe_count(streams: dict, config) -> list:
    """Probe tags with the probe off: Poisson with mean (noise + dark) T."""
    det = config.detectors["probe"]
    mean = (config.channels.noise_rate_per_s * det.quantum_efficiency
            + det.dark_rate_per_s) * config.duration_s
    n = int(np.count_nonzero(streams[NOISE_ONLY].channels == CH_PROBE))
    return _within(f"{NOISE_ONLY} probe tags", n, mean, math.sqrt(mean))


def classical_snr_below(report: dict, config) -> list:
    """Each matched target's classical SNR, recomputed from its counts, is
    below the paper's ceiling plus Z of its own Poisson errors."""
    matches, _ = matched_targets(report, config)
    counts = {row["id"]: row["counts"] for row in report["snr"]}
    problems = []
    for scene_id, got_id in matches.items():
        n_on = counts[got_id]["sc_on_on"]
        n_off = counts[got_id]["sc_off_on"]
        if n_off <= 0:
            problems.append(f"{got_id}: no noise-only counts in its window")
            continue
        snr = (n_on - n_off) / n_off
        sigma = math.sqrt(n_on / n_off ** 2 + n_on ** 2 / n_off ** 3)
        if snr >= CLASSICAL_SNR_CEILING + Z * sigma:
            problems.append(f"{got_id} (scene {scene_id}): classical SNR "
                            f"{snr:.4f} >= {CLASSICAL_SNR_CEILING} + "
                            f"{Z:g} x {sigma:.4f}")
    return problems


def dead_time_gaps(streams: dict, config) -> list:
    """Consecutive kept tags are more than tau apart on dead-timed channels."""
    problems = []
    for key, channel in (("herald", CH_HERALD), ("probe", CH_PROBE)):
        tau = config.detectors[key].dead_time_ps
        if tau <= 0:
            continue
        for label, s in streams.items():
            gaps = np.diff(s.timestamps[s.channels == channel])
            bad = int(np.count_nonzero(gaps <= tau))
            if bad:
                problems.append(f"{label} {key}: {bad} gaps <= {tau:g} ps "
                                f"(smallest {int(gaps.min())} ps)")
    return problems


def dead_time_probe_count(streams: dict, config) -> list:
    """Noise-only probe count after dead time: m / (1 + n tau), m = n T.

    A non-paralyzable counter fed by a Poisson process is a renewal process
    with interval tau + Exp(n), so its count has variance m_kept / (1+n tau)^2.
    """
    det = config.detectors["probe"]
    mean_in = (config.channels.noise_rate_per_s * det.quantum_efficiency
               + det.dark_rate_per_s) * config.duration_s
    kept = dead_time_kept(mean_in, config.duration_s, det.dead_time_ps)
    sigma = math.sqrt(kept) * kept / mean_in
    n = int(np.count_nonzero(streams[NOISE_ONLY].channels == CH_PROBE))
    return _within(f"{NOISE_ONLY} dead-timed probe tags", n, kept, sigma)


def _rows_by_value(rows: list) -> dict:
    by_value = {}
    for row in rows:
        by_value.setdefault(row["value"], []).append(row)
    return by_value


def sweep_targets(rows: list, config, values) -> list:
    """Every sweep level reconstructs exactly the scene's targets."""
    by_value = _rows_by_value(rows)
    problems = []
    for v in values:
        found = [r for r in by_value.get(v, []) if r["target"]]
        if len(found) != len(config.scene):
            problems.append(f"noise {v:g}/s: {len(found)} targets, scene has "
                            f"{len(config.scene)}")
    return problems


def sweep_slope(rows: list, config, values) -> tuple:
    """Median classical SNR vs noise: log-log slope -1 within Z sigma.

    Darks add to the injected noise, so the abscissa is the total background
    rate.  Each level's error is the Poisson error of one window's counts:
    its expected background n_b = rate x n_pulses x 100 ps and its signal
    SNR x n_b.  Returns (slope, tolerance, problems).
    """
    det = config.detectors["probe"]
    by_value = _rows_by_value(rows)
    xs, ys, var = [], [], []
    for v in values:
        snrs = [r["snr_classical"] for r in by_value.get(v, []) if r["target"]]
        snr = statistics.median(snrs) if snrs else math.nan
        if not snr > 0:
            return math.nan, math.nan, [f"noise {v:g}/s: median classical "
                                        f"SNR {snr} is not positive"]
        rate = v * det.quantum_efficiency + det.dark_rate_per_s
        n_b = rate * n_pulses(config) * WINDOW_PS * 1e-12
        xs.append(math.log(rate))
        ys.append(math.log(snr))
        var.append(1.0 / (snr * n_b) + 1.0 / n_b)
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    sigma = math.sqrt(sum((x - x_mean) ** 2 * s2
                          for x, s2 in zip(xs, var))) / sxx
    tolerance = Z * sigma
    problems = [] if abs(slope + 1.0) <= tolerance else [
        f"classical SNR log-log slope {slope:.3f}, expected -1 +- "
        f"{tolerance:.3f}"]
    return slope, tolerance, problems


def check_round(workload, config, out) -> list:
    """All checks that apply to one workload's round output."""
    if workload.sweep_noise:
        return (sweep_targets(out.rows, config, workload.sweep_noise)
                + sweep_slope(out.rows, config, workload.sweep_noise)[2])
    with open(out.path) as fh:
        report = json.load(fh)
    problems = (ref_count(out.reread, config) + herald_count(out.reread, config)
                + reread_identical(out.streams, out.reread))
    if workload.dead_time_ps > 0:
        return (problems + dead_time_gaps(out.reread, config)
                + dead_time_probe_count(out.reread, config))
    problems += targets_matched(report, config)
    if workload.noise_rate_per_s > 0:
        problems += (noise_only_probe_count(out.reread, config)
                     + classical_snr_below(report, config))
    return problems
