import math

import numpy as np
import pytest
from scipy import stats

from qeplidar.analysis import (
    MIN_CC,
    MIN_COUNTS,
    PEAK_BREAK_PS,
    SIGMA_ABOVE_BASELINE,
    WINDOW_PS,
    AnalysisError,
    CalibrationError,
    CalibrationMap,
    CountWindow,
    FoldedEvents,
    InsufficientDataError,
    NoPeakError,
    RatioResult,
    RidgeBin,
    build_jti,
    calibrate_time_to_wavelength,
    car_per_herald_bin,
    cluster_ridge_bins,
    count_cc,
    count_sc,
    direction_resolution_deg,
    distance_resolution_cm,
    fit_gaussian_peak,
    fold_to_pulse_frame,
    herald_time_density,
    noise_intensity_db,
    probe_window_histogram,
    randomness_report,
    reconstruct_targets,
    snr_classical,
    snr_enhancement,
    snr_quantum,
)
from qeplidar.channel import DispersionModel, GratingSpec
from qeplidar.detect import CH_HERALD, CH_PROBE, CH_REF, TagStream, merge_streams
from qeplidar.model import fwhm_to_sigma
from qeplidar.source import pulse_time

from conftest import loopback_scenario, scene_scenario

RNG = np.random.default_rng(2024)


def _stream_from(ref, herald, probe, duration=None):
    duration = duration or (max(ref.max(), 0) + 1000)
    return merge_streams({CH_REF: np.sort(np.asarray(ref, dtype=np.int64)),
                          CH_HERALD: np.sort(np.asarray(herald, dtype=np.int64)),
                          CH_PROBE: np.sort(np.asarray(probe, dtype=np.int64))},
                         duration)


# ---------------------------------------------------------------------------
# Folding


def test_fold_requires_ref():
    stream = merge_streams({CH_PROBE: np.array([5, 10])}, 100)
    with pytest.raises(AnalysisError, match="REF"):
        fold_to_pulse_frame(stream, period_ps=50.0)


def test_fold_trivial_offsets(pump):
    period = pump.period_ps
    refs = pulse_time(np.arange(10), pump)
    herald = [refs[3]]                      # exactly on a pulse
    probe = [refs[4] + 400]                 # 400 ps late
    folded = fold_to_pulse_frame(_stream_from(refs, herald, probe),
                                 period_ps=period)
    assert folded.herald_rel[0] == pytest.approx(0.0)
    assert folded.herald_pulse[0] == 3
    assert folded.probe_rel[0] == pytest.approx(400.0)
    assert folded.probe_pulse[0] == 4


def test_fold_uniform_noise_is_uniform(pump):
    n_pulses = 2000
    refs = pulse_time(np.arange(n_pulses), pump)
    duration = refs[-1]
    probe = np.sort(RNG.integers(0, duration, 20_000))
    folded = fold_to_pulse_frame(_stream_from(refs, [], probe),
                                 period_ps=pump.period_ps)
    u = (folded.probe_rel + folded.half_period) / folded.period_ps
    # interior pulses only; the stream edges clip the first/last frames
    interior = (folded.probe_pulse > 0) & (folded.probe_pulse < n_pulses - 1)
    assert stats.kstest(u[interior], "uniform").pvalue > 0.01


def test_fold_with_sync_divider(pump):
    period = pump.period_ps
    divider = 8
    refs = pulse_time(np.arange(0, 800, divider), pump)
    tag_pulse = 123
    tag = pulse_time(tag_pulse, pump) + 40
    folded = fold_to_pulse_frame(_stream_from(refs, [tag], []),
                                 period_ps=period, divider=divider)
    assert folded.herald_pulse[0] == tag_pulse
    assert folded.herald_rel[0] == pytest.approx(40.0, abs=1.0)


def test_fold_resorts_tags_out_of_order_within_a_pulse():
    # divider 2: pulse 1 sits midway between the REFs at 990 and 3010 ps.
    # The tag at 1999 ps folds from the first REF to rel +9, the one at
    # 2001 ps from the second to rel -9, so the raw fold is out of order.
    refs = np.array([990, 3010])
    folded = fold_to_pulse_frame(_stream_from(refs, [1999, 2001], []),
                                 period_ps=1000.0, divider=2)
    assert folded.herald_pulse.tolist() == [1, 1]
    assert folded.herald_rel.tolist() == [-9.0, 9.0]


def _reference_fold(refs, tags, period, divider):
    """Tag-by-tag nearest-REF fold, (pulse, rel)-sorted with np.lexsort;
    also says whether the tags came out already in that order."""
    refs = np.asarray(refs, dtype=np.float64)
    pulse, rel = [], []
    for t in np.asarray(tags, dtype=np.float64):
        i = int(np.argmin(np.abs(refs - t)))  # a tie goes to the earlier REF
        k = float(np.rint((t - refs[i]) / period)) if divider > 1 else 0.0
        if i * divider + k >= 0:
            pulse.append(i * divider + int(k))
            rel.append(t - refs[i] - k * period)
    pulse, rel = np.array(pulse, dtype=np.int64), np.array(rel)
    order = np.lexsort((rel, pulse))
    return pulse[order], rel[order], bool(np.all(order == np.arange(order.size)))


@pytest.mark.parametrize("divider", [1, 2, 16])
def test_fold_matches_lexsort_reference_with_jittered_refs(divider):
    period = 1000.0
    resorted = ties = 0
    for seed in range(5):
        gen = np.random.default_rng(seed)
        n_refs = 40
        refs = np.sort(np.rint(1000.0 + np.arange(n_refs) * divider * period
                               + gen.normal(0.0, 30.0, n_refs)).astype(np.int64))
        # uniform tags (some before the first REF), tags crowding the
        # midpoints between REFs where the nearest REF switches, and the
        # midpoints themselves: where refs[i] + refs[i + 1] is even the
        # midpoint is a tag that ties (odd sums leave no tag to tie)
        mid = (refs[:-1] + refs[1:]) // 2
        ties += np.count_nonzero((refs[:-1] + refs[1:]) % 2 == 0)
        tags = np.concatenate([gen.integers(0, refs[-1] + 500, 300),
                               np.repeat(mid, 4) + gen.integers(-40, 40, mid.size * 4),
                               mid])
        stream = _stream_from(refs, tags, tags[::3], refs[-1] + 1000)
        folded = fold_to_pulse_frame(stream, period_ps=period, divider=divider)
        for pulse, rel, t in ((folded.herald_pulse, folded.herald_rel, tags),
                              (folded.probe_pulse, folded.probe_rel, tags[::3])):
            ref_pulse, ref_rel, in_order = _reference_fold(refs, np.sort(t),
                                                           period, divider)
            np.testing.assert_array_equal(pulse, ref_pulse)
            np.testing.assert_array_equal(rel, ref_rel)
            resorted += not in_order
    assert (resorted > 0) == (divider > 1)
    assert ties > 0


# ---------------------------------------------------------------------------
# JTI and window bookkeeping


def test_jti_single_pair_single_pixel(pump):
    refs = pulse_time(np.arange(5), pump)
    folded = fold_to_pulse_frame(
        _stream_from(refs, [refs[2] - 4224], [refs[2] + 4224]),
        period_ps=pump.period_ps)
    jti = build_jti(folded)
    assert jti.counts.sum() == 1
    ix, iy = np.argwhere(jti.counts)[0]
    assert jti.x_centers[ix] == pytest.approx(4224, abs=50)
    assert jti.y_centers[iy] == pytest.approx(-4224, abs=50)


def test_jti_ridge_has_slope_minus_one():
    config = loopback_scenario(duration_s=0.02, pair_rate=0.02,
                               configurations=("probe:on|noise:on",))
    from qeplidar.pipeline import simulate
    stream = simulate(config)["probe:on|noise:on"]
    folded = fold_to_pulse_frame(stream, period_ps=config.pump.period_ps)
    jti = build_jti(folded)
    xs, ys = np.nonzero(jti.counts)
    w = jti.counts[xs, ys].astype(float)
    x = jti.x_centers[xs]
    y = jti.y_centers[ys]
    slope = np.polyfit(x, y, 1, w=w)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_jti_noise_floor_matches_rate_product(pump):
    # uncorrelated herald and probe events: every pixel is accidental with
    # mean pulses * p_h(pixel) * p_p(pixel)
    n_pulses = 40_000
    refs = pulse_time(np.arange(n_pulses), pump)
    duration = refs[-1]
    p_event = 0.2
    herald_pulses = np.flatnonzero(RNG.random(n_pulses) < p_event)
    probe_pulses = np.flatnonzero(RNG.random(n_pulses) < p_event)
    herald = pulse_time(herald_pulses, pump) + RNG.integers(-3000, -2000,
                                                            herald_pulses.size)
    probe = pulse_time(probe_pulses, pump) + RNG.integers(2000, 3000,
                                                          probe_pulses.size)
    folded = fold_to_pulse_frame(_stream_from(refs, herald, probe, duration),
                                 period_ps=pump.period_ps)
    jti = build_jti(folded)
    # pixels fully inside the uniform support [2000,3000) x [-3000,-2000);
    # bin edges are not aligned with the support, so stay 60 ps clear
    x_sel = (jti.x_centers >= 2060) & (jti.x_centers < 2940)
    y_sel = (jti.y_centers >= -2940) & (jti.y_centers < -2060)
    block = jti.counts[np.ix_(x_sel, y_sel)]
    expected = n_pulses * (p_event / 10) * (p_event / 10)
    assert block.mean() == pytest.approx(
        expected, abs=3 * math.sqrt(expected / block.size))


def test_window_bookkeeping_conservation(pump):
    n_pulses = 500
    refs = pulse_time(np.arange(n_pulses), pump)
    probe = np.sort(RNG.integers(0, refs[-1], 5000))
    folded = fold_to_pulse_frame(_stream_from(refs, [], probe),
                                 period_ps=pump.period_ps)
    _, counts = probe_window_histogram(folded)
    assert counts.sum() == folded.probe_rel.size


# ---------------------------------------------------------------------------
# Gaussian peak fit


def test_fit_recovers_sampled_gaussian():
    fwhm = 110.0
    draws = RNG.normal(0.0, fwhm_to_sigma(fwhm), 10 ** 5)
    edges = np.arange(-500, 510, 10.0)
    hist, _ = np.histogram(draws, bins=edges)
    fit = fit_gaussian_peak(0.5 * (edges[:-1] + edges[1:]), hist)
    assert fit.fwhm_ps == pytest.approx(fwhm, rel=0.03)
    assert fit.mean_ps == pytest.approx(0.0, abs=2.0)


def test_fit_rejects_flat_histogram():
    centers = np.arange(10.0)
    with pytest.raises(NoPeakError):
        fit_gaussian_peak(centers, np.zeros(10))
    with pytest.raises(NoPeakError):
        fit_gaussian_peak(centers, np.full(10, 7.0))


def test_fit_with_baseline():
    x = np.arange(-400, 410, 10.0)
    y = 50.0 + 300.0 * np.exp(-0.5 * (x / fwhm_to_sigma(120.0)) ** 2)
    y = RNG.poisson(y).astype(float)
    fit = fit_gaussian_peak(x, y)
    assert fit.fwhm_ps == pytest.approx(120.0, rel=0.05)
    assert fit.baseline == pytest.approx(50.0, abs=10.0)


def test_coincidence_jitter_quadrature():
    # detected pair time differences spread by the quadrature of the two
    # channel jitters; consistent with the 110.1 ps reference within 5%
    n = 10 ** 5
    jitter_h = RNG.normal(0, fwhm_to_sigma(89.90), n)
    jitter_p = RNG.normal(0, fwhm_to_sigma(66.43), n)
    diff = np.rint(jitter_p) - np.rint(jitter_h)
    edges = np.arange(-600, 610, 20.0)
    hist, _ = np.histogram(diff, bins=edges)
    fit = fit_gaussian_peak(0.5 * (edges[:-1] + edges[1:]), hist)
    expected = math.hypot(89.90, 66.43)
    assert fit.fwhm_ps == pytest.approx(expected, rel=0.02)
    assert abs(fit.fwhm_ps - 110.1) / 110.1 < 0.05


# ---------------------------------------------------------------------------
# CAR


def _concentrated_scenario(pair_rate=0.01, duration_s=0.1, seed=99):
    # negligible dispersion slope collapses the ridge into a single
    # 100 ps window, so the windowed CAR equals the full-frame closed form
    return loopback_scenario(
        duration_s=duration_s, seed=seed, pair_rate=pair_rate, eta_p=1.0,
        eta_h=1.0, jitters=(0.0, 0.0, 0.0),
        configurations=("probe:on|noise:on",),
        dispersion={"mode": "linear", "slope_ns_per_nm": 1e-9,
                    "anchor_wavelength_nm": 1540.56},
    )


def test_car_matches_closed_form_when_concentrated():
    from qeplidar.pipeline import simulate
    from qeplidar.theory import RateParams, car_closed_form
    config = _concentrated_scenario()
    stream = simulate(config)["probe:on|noise:on"]
    folded = fold_to_pulse_frame(stream, period_ps=config.pump.period_ps)
    ridge = car_per_herald_bin(folded)
    assert len(ridge) == 1
    rb = ridge[0]
    expected = car_closed_form(RateParams(0.01))
    sigma = rb.car * math.sqrt(1 / rb.n_cc + 1 / (rb.n_acc * 10))
    assert abs(rb.car - expected) <= 3 * sigma


def test_car_accidental_data_near_unity(pump):
    # uncorrelated channels: true window and displaced windows see the same
    # rate, so CAR ~ 1
    n_pulses = 200_000
    refs = pulse_time(np.arange(n_pulses), pump)
    p = 0.05
    h_pulses = np.flatnonzero(RNG.random(n_pulses) < p)
    p_pulses = np.flatnonzero(RNG.random(n_pulses) < p)
    herald = pulse_time(h_pulses, pump) - 3000
    probe = pulse_time(p_pulses, pump) + 3000
    folded = fold_to_pulse_frame(_stream_from(refs, herald, probe, refs[-1]),
                                 period_ps=pump.period_ps)
    ridge = car_per_herald_bin(folded)
    assert len(ridge) == 1
    assert ridge[0].car == pytest.approx(1.0, abs=0.05)


def test_car_zero_accidentals_sentinel(pump):
    # events only every 50th pulse: the +-k displaced windows are all empty
    refs = pulse_time(np.arange(1000), pump)
    event_pulses = np.arange(0, 1000, 50)
    herald = pulse_time(event_pulses, pump) - 3000
    probe = pulse_time(event_pulses, pump) + 3000
    folded = fold_to_pulse_frame(_stream_from(refs, herald, probe, refs[-1]),
                                 period_ps=pump.period_ps)
    ridge = car_per_herald_bin(folded)
    assert ridge[0].car_is_lower_bound
    assert ridge[0].car == ridge[0].n_cc * 10


def test_car_counts_match_brute_force():
    gen = np.random.default_rng(8)
    period, half = 8000.0, 4000.0       # herald bin edges on whole 100 ps

    def on_grid(rel):
        # half of the times sit on the 50 ps grid
        return np.where(gen.random(rel.size) < 0.5, np.round(rel / 50.0) * 50.0, rel)

    # heralds over three bins, probes on pulses h-5 ... h+5 of a random herald
    # (h itself half the time) along the ridge, plus probe noise
    h_pulse = gen.integers(5, 200, 600)
    h_rel = on_grid(gen.uniform(-1000.0, -700.0, h_pulse.size))
    j = gen.integers(0, h_pulse.size, 1500)
    shift = np.where(gen.random(j.size) < 0.5, 0, gen.integers(-5, 6, j.size))
    p_pulse = np.concatenate([h_pulse[j] + shift, gen.integers(0, 205, 800)])
    p_rel = on_grid(np.concatenate([-h_rel[j] + gen.normal(0.0, 40.0, j.size),
                                    gen.uniform(-half, half, 800)]))
    # one more bin whose heralds sit 20 pulses apart with same-pulse probes
    # only: no accidentals, so its CAR is the lower-bound sentinel
    lone = np.arange(1000, 1300, 20)
    h_pulse = np.concatenate([h_pulse, lone])
    h_rel = np.concatenate([h_rel, gen.uniform(1500.0, 1600.0, lone.size)])
    p_pulse = np.concatenate([p_pulse, lone])
    p_rel = np.concatenate([p_rel, gen.normal(-1550.0, 20.0, lone.size)])
    hs, ps = np.lexsort((h_rel, h_pulse)), np.lexsort((p_rel, p_pulse))
    folded = FoldedEvents(h_pulse[hs], h_rel[hs], p_pulse[ps], p_rel[ps], period)

    ridge = car_per_herald_bin(folded)
    diff = folded.probe_pulse[None, :] - folded.herald_pulse[:, None]
    h_bin = np.floor((folded.herald_rel + half) / 100.0).astype(np.int64)
    same = np.bincount(h_bin, weights=np.count_nonzero(diff == 0, axis=1))
    assert [rb.herald_bin for rb in ridge] == list(np.flatnonzero(same >= 10))
    shifts = [k for k in range(-5, 6) if k != 0]
    for rb in ridge:
        lo = -half + 100.0 * rb.herald_bin
        assert rb.herald_center_ps == lo + 50.0
        h = (folded.herald_rel >= lo) & (folded.herald_rel < lo + 100.0)
        p = ((folded.probe_rel >= rb.probe_peak_ps - 50.0)
             & (folded.probe_rel < rb.probe_peak_ps + 50.0))
        d = diff[h][:, p]
        n_cc = int(np.count_nonzero(d == 0))
        n_acc = float(np.mean([np.count_nonzero(d == k) for k in shifts]))
        assert (rb.n_cc, rb.n_acc) == (n_cc, n_acc)
        assert rb.car_is_lower_bound == (n_acc == 0)
        assert rb.car == (n_cc / n_acc if n_acc > 0 else n_cc * 10.0)
    assert len(ridge) >= 4
    assert [rb.car_is_lower_bound for rb in ridge].count(True) == 1


def test_car_trend_with_quadratic_phase_match():
    # phase matching deteriorating away from the pump lowers the pair rate
    # there and raises the CAR (herald bins further from the pump = earlier)
    from qeplidar.pipeline import simulate
    config = loopback_scenario(
        duration_s=0.35, seed=3, pair_rate=0.04, eta_p=1.0, eta_h=1.0,
        jitters=(0.0, 0.0, 0.0), configurations=("probe:on|noise:on",),
        phase_match={"kappa_coefficients": [0.0, 0.0, 66.8], "length_m": 0.01},
    )
    stream = simulate(config)["probe:on|noise:on"]
    folded = fold_to_pulse_frame(stream, period_ps=config.pump.period_ps)
    ridge = [rb for rb in car_per_herald_bin(folded)
             if rb.n_cc >= 30 and not rb.car_is_lower_bound and rb.n_acc >= 2]
    assert len(ridge) >= 10
    centers = np.array([rb.herald_center_ps for rb in ridge])
    cars = np.array([rb.car for rb in ridge])
    rho = stats.spearmanr(-centers, cars).statistic  # earlier = further from pump
    assert rho > 0.5


# ---------------------------------------------------------------------------
# SNR ratios


def _folded_with_counts(pump, n_probe, n_cc, probe_center=4000.0,
                        herald_center=-4000.0):
    """Synthetic folded events: n_cc heralded pairs + extra probe singles."""
    herald_pulse = np.arange(n_cc, dtype=np.int64)
    probe_pulse = np.arange(n_probe, dtype=np.int64)
    return FoldedEvents(
        herald_pulse=herald_pulse,
        herald_rel=np.full(n_cc, herald_center),
        probe_pulse=probe_pulse,
        probe_rel=np.full(n_probe, probe_center),
        period_ps=pump.period_ps,
    )


def test_snr_trivial_ratios(pump):
    window = CountWindow(4000.0, -4000.0)
    on = _folded_with_counts(pump, 200, 100)
    off = _folded_with_counts(pump, 100, 50)
    rc = snr_classical(on, off, [window])[0]
    assert rc.value == pytest.approx(1.0)
    rq = snr_quantum(on, off, [window])[0]
    assert rq.value == pytest.approx(1.0)
    same = snr_classical(on, on, [window])[0]
    assert same.value == pytest.approx(0.0)


def _brute_force_cc(folded, window):
    """Same-pulse combos inside the half-open window, from every pair."""
    (lo_h, hi_h), (lo_p, hi_p) = window.herald_interval, window.probe_interval
    h = (folded.herald_rel >= lo_h) & (folded.herald_rel < hi_h)
    p = (folded.probe_rel >= lo_p) & (folded.probe_rel < hi_p)
    return int(np.count_nonzero(folded.herald_pulse[h][:, None]
                                == folded.probe_pulse[p][None, :]))


def test_coincidence_counts_match_brute_force(pump):
    gen = np.random.default_rng(5)
    grid = np.arange(-2000.0, 2001.0, 50.0)
    period, half = pump.period_ps, pump.period_ps / 2
    frame = [-half, half, np.nextafter(-half, -np.inf), np.nextafter(half, np.inf)]

    def events(n, n_edge):
        # half the times sit on the 50 ps grid, where the window edges lie;
        # n_edge more sit on +-T/2 or a hair outside the frame
        pulse = gen.integers(0, 150, n + n_edge)
        rel = np.where(gen.random(n) < 0.5, gen.choice(grid, n),
                       gen.uniform(-2000.0, 2000.0, n))
        rel = np.concatenate([rel, gen.choice(frame, n_edge)])
        order = np.lexsort((rel, pulse))
        return pulse[order], rel[order]

    def random_folded(n_herald, n_probe):
        return FoldedEvents(*events(n_herald, 300), *events(n_probe, 300), period)

    on, off = random_folded(900, 1500), random_folded(700, 1100)
    no_probe = FoldedEvents(*events(900, 300), np.empty(0, dtype=np.int64),
                            np.empty(0), period)
    # CountWindow(probe center, herald center, width); with width T the
    # edges land exactly on 0, +-T/2 and +-T
    windows = [CountWindow(float(gen.choice(grid)), float(gen.choice(grid)),
                           100.0) for _ in range(8)] + [
        CountWindow(0.0, 0.0, period),           # the frame [-T/2, T/2)
        CountWindow(half, -half, period),        # [0, T) x [-T, 0)
        CountWindow(-half, half, period),        # [-T, 0) x [0, T)
        CountWindow(half, -half, 1000.0),        # partly outside the frame
        CountWindow(period, -period, period),    # [T/2, 3T/2) x [-3T/2, -T/2)
        CountWindow(2 * period, 0.0, 100.0),     # wholly outside the frame
        CountWindow(0.0, 2 * period, 100.0),     # selects no heralds
    ]
    edges = [e for w in windows[:8] for e in w.probe_interval]
    assert np.isin(on.probe_rel, edges).any()
    expected_on = [_brute_force_cc(on, w) for w in windows]
    expected_off = [_brute_force_cc(off, w) for w in windows]
    assert sum(expected_on[:8]) > 0 and sum(expected_off[:8]) > 0
    # the events on +-T/2 and the hairs outside the frame are counted too
    assert all(n > 0 for n in expected_on[8:13])
    assert expected_on[13:] == [0, 0]
    assert [count_cc(on, w) for w in windows] == expected_on
    rq = snr_quantum(on, off, windows)
    assert [r.n_on for r in rq] == expected_on
    assert [r.n_off for r in rq] == expected_off
    assert [count_cc(no_probe, w) for w in windows] == [0] * len(windows)
    assert [r.n_off for r in snr_quantum(on, no_probe, windows)] == [0] * len(windows)


def test_snr_undefined_when_off_empty(pump):
    window = CountWindow(4000.0, -4000.0)
    on = _folded_with_counts(pump, 10, 5)
    off = _folded_with_counts(pump, 0, 0)
    assert not snr_classical(on, off, [window])[0].defined


def test_esnr_ratio_and_sigma():
    rq = RatioResult(10.0, 1.0, 110, 10)
    rc = RatioResult(2.0, 0.1, 30, 10)
    e = snr_enhancement(rq, rc)
    assert e.value == pytest.approx(5.0)
    assert e.sigma == pytest.approx(5.0 * math.hypot(0.1, 0.05))
    undef = snr_enhancement(rq, RatioResult(0.0, 0.1, 10, 10))
    assert not undef.defined


def test_noise_intensity_values():
    assert noise_intensity_db(100, 100) == pytest.approx(0.0)
    assert noise_intensity_db(10, 10_000) == pytest.approx(30.0)
    assert math.isnan(noise_intensity_db(0, 100))


# ---------------------------------------------------------------------------
# Resolution formulas


def test_distance_resolution_reference_point():
    assert distance_resolution_cm(110.1, 0.4, 0.25) == pytest.approx(2.2,
                                                                     abs=0.1)


def test_distance_resolution_single_term():
    got = distance_resolution_cm(110.1, 0.4, 0.0)
    assert got == pytest.approx(0.5 * 110.1 * 0.0299792458, rel=1e-12)


def test_distance_resolution_explicit_quadrature():
    total = math.hypot(110.1, 0.4 * 1000 * 0.25)
    assert total == pytest.approx(148.8, abs=0.1)
    assert distance_resolution_cm(110.1, 0.4, 0.25) == pytest.approx(
        0.5 * total * 0.0299792458, rel=1e-12)


def test_direction_resolution_reference_point(grating):
    assert direction_resolution_deg(89.90, 0.4, 1551.0, grating) == \
        pytest.approx(0.144, abs=0.005)


def test_direction_resolution_timing_term_only():
    g = GratingSpec(beam_waist_mm=3.6e9)  # resolving power -> infinity
    got = direction_resolution_deg(89.90, 0.4, 1551.0, g)
    assert got == pytest.approx(0.0432, abs=0.0003)


def test_direction_resolution_grating_term_only(grating):
    got = direction_resolution_deg(0.0, 0.4, 1551.0, grating)
    assert got == pytest.approx(0.138, abs=0.001)


# ---------------------------------------------------------------------------
# Calibration


def _two_notch_curve(lam):
    return (1.0 - 0.6 * np.exp(-0.5 * ((lam - 1527.0) / 0.3) ** 2)
            - 0.5 * np.exp(-0.5 * ((lam - 1533.0) / 0.4) ** 2))


def test_calibration_recovers_linear_map():
    slope_ps_per_nm = 400.0
    anchor = 1540.56
    lam_grid = np.arange(1523.5, 1536.5, 0.01)
    ref = _two_notch_curve(lam_grid)
    t_grid = np.arange((1523.5 - anchor) * slope_ps_per_nm,
                       (1536.5 - anchor) * slope_ps_per_nm, 10.0)
    lam_of_t = anchor + t_grid / slope_ps_per_nm
    hist = _two_notch_curve(lam_of_t) * 1000.0
    cal = calibrate_time_to_wavelength(t_grid, hist, lam_grid, ref)
    # recovered map within 0.01 nm across the measured span
    check = np.linspace(t_grid[0], t_grid[-1], 200)
    truth = anchor + check / slope_ps_per_nm
    assert np.max(np.abs(cal.wavelength_at(check) - truth)) < 0.01
    slope = cal.coefficients[-2] if len(cal.coefficients) >= 2 else 0.0
    assert slope == pytest.approx(1.0 / slope_ps_per_nm, rel=0.005)


def test_calibration_flat_spectrum_fails():
    t = np.arange(0.0, 1000.0, 10.0)
    lam = np.arange(1523.5, 1536.5, 0.01)
    with pytest.raises(CalibrationError):
        calibrate_time_to_wavelength(t, np.full(t.size, 5.0), lam,
                                     np.full(lam.size, 1.0))


def test_calibration_feature_count_mismatch():
    lam = np.arange(1523.5, 1536.5, 0.01)
    ref = _two_notch_curve(lam)
    t = np.arange(0.0, 5000.0, 10.0)
    one_notch = 1.0 - 0.5 * np.exp(-0.5 * ((t - 2500.0) / 150.0) ** 2)
    with pytest.raises(CalibrationError, match="mismatch"):
        calibrate_time_to_wavelength(t, one_notch * 100, lam, ref)


def test_calibration_fallback_from_dispersion(dispersion, herald_band):
    cal = CalibrationMap.from_dispersion(dispersion, herald_band)
    assert cal.source == "dispersion"
    lam = 1530.0
    t = float(dispersion.arrival_shift_ps(lam))
    assert cal.wavelength_at(t) == pytest.approx(lam, abs=1e-6)


# ---------------------------------------------------------------------------
# Target reconstruction


def test_reconstruct_single_target_distance():
    from qeplidar.pipeline import simulate
    from conftest import five_target_scene
    target = [{
        "id": "solo", "center_wavelength_nm": 1551.0,
        "angular_halfwidth_deg": 0.15, "distance_m": 1.0,
        "roundtrip_efficiency": 0.9,
    }]
    config = scene_scenario(target, duration_s=0.15, pair_rate=0.01,
                            eta_p=0.7, eta_h=0.7, ref_divider=1,
                            configurations=("probe:on|noise:on",))
    stream = simulate(config)["probe:on|noise:on"]
    folded = fold_to_pulse_frame(stream, period_ps=config.pump.period_ps)
    ridge = car_per_herald_bin(folded)
    cal = CalibrationMap.from_dispersion(config.dispersion, config.herald_band)
    targets = reconstruct_targets(ridge, cal, config.grating,
                                  config.dispersion, config.pump,
                                  single_shot_resolution=(0.022, 0.144))
    assert len(targets) == 1
    assert targets[0].distance_m == pytest.approx(1.0, abs=0.022)
    lo, hi = config.scene[0].angular_interval_deg(config.grating)
    assert lo <= targets[0].direction_deg <= hi


def test_reconstruct_loopback_zero_distance():
    from qeplidar.pipeline import simulate
    config = loopback_scenario(duration_s=0.1, pair_rate=0.01, eta_p=0.9,
                               eta_h=0.9, configurations=("probe:on|noise:on",))
    stream = simulate(config)["probe:on|noise:on"]
    folded = fold_to_pulse_frame(stream, period_ps=config.pump.period_ps)
    ridge = car_per_herald_bin(folded)
    cal = CalibrationMap.from_dispersion(config.dispersion, config.herald_band)
    targets = reconstruct_targets(ridge, cal, config.grating,
                                  config.dispersion, config.pump,
                                  single_shot_resolution=(0.022, 0.144))
    assert len(targets) >= 1
    for t in targets:
        assert abs(t.distance_m) < 0.022


def test_cluster_empty_when_no_peaks():
    assert cluster_ridge_bins([]) == []


def _ridge_bin(herald_bin, n_cc, n_acc=0.0, off_diagonal_ps=0.0):
    """A ridge bin whose probe peak sits off_diagonal_ps past the
    t_probe + t_herald = 0 diagonal."""
    center = -4000.0 + WINDOW_PS * (herald_bin + 0.5)
    return RidgeBin(herald_bin, center, -center + off_diagonal_ps, n_cc, n_acc,
                    0.0, False)


def _clustered_bins(ridge):
    return [[rb.herald_bin for rb in bins] for bins in cluster_ridge_bins(ridge)]


@pytest.mark.parametrize("n_acc", [0.0, 16.0, 100.0])
def test_cluster_significance_edge(n_acc):
    edge = n_acc + SIGMA_ABOVE_BASELINE * math.sqrt(max(n_acc, 1.0))
    assert edge == int(edge)
    assert _clustered_bins([_ridge_bin(10, int(edge), n_acc)]) == []
    assert _clustered_bins([_ridge_bin(10, int(edge) + 1, n_acc)]) == [[10]]


def test_cluster_drops_few_counts_without_accidentals():
    assert MIN_COUNTS - 1 == 4
    assert _clustered_bins([_ridge_bin(10, MIN_COUNTS - 1, 0.0)]) == []


def test_cluster_splits_at_a_herald_gap():
    ridge = [_ridge_bin(b, 50) for b in (13, 10, 11)]
    assert _clustered_bins(ridge) == [[10, 11], [13]]


def test_cluster_splits_above_the_peak_break():
    def pair(off_diagonal_ps):
        return [_ridge_bin(10, 50), _ridge_bin(11, 50, off_diagonal_ps=off_diagonal_ps)]

    assert _clustered_bins(pair(PEAK_BREAK_PS)) == [[10, 11]]
    assert _clustered_bins(pair(PEAK_BREAK_PS + 1e-3)) == [[10], [11]]


def test_car_needs_min_cc_same_pulse_pairs():
    # one herald bin with MIN_CC same-pulse pairs, one with a pair fewer;
    # events 20 pulses apart leave the displaced windows empty
    pulses = np.concatenate([np.arange(MIN_CC) * 20,
                             1000 + np.arange(MIN_CC - 1) * 20]).astype(np.int64)
    h_rel = np.where(pulses < 1000, -1050.0, 1550.0)
    folded = FoldedEvents(pulses, h_rel, pulses.copy(), -h_rel, 8000.0)
    ridge = car_per_herald_bin(folded)
    assert [rb.herald_bin for rb in ridge] == [29]     # (-1050 + 4000) // 100
    assert ridge[0].n_cc == MIN_CC


# ---------------------------------------------------------------------------
# Randomness diagnostics


def test_randomness_uniform_against_uniform():
    rel = RNG.uniform(-5000, 5000, 20_000)
    rep = randomness_report(rel)
    assert rep.p_value > 0.01
    assert abs(rep.lag1_correlation) < 3 * rep.lag1_se


def test_randomness_rejects_constant():
    rel = np.full(5000, 300.0)
    rep = randomness_report(rel, support_ps=(-5000.0, 5000.0))
    assert rep.p_value < 1e-6
    assert rep.min_entropy_bits == pytest.approx(0.0)


def test_randomness_insufficient_data():
    with pytest.raises(InsufficientDataError):
        randomness_report(np.zeros(10))


def test_randomness_against_model_marginal(pump, flat_pm, herald_band,
                                           probe_band, dispersion):
    pdf = herald_time_density(pump, flat_pm, herald_band, probe_band,
                              dispersion)
    # draw from the model itself via rejection sampling
    t_lo = float(dispersion.arrival_shift_ps(herald_band.lo_nm))
    t_hi = float(dispersion.arrival_shift_ps(herald_band.hi_nm))
    cand = RNG.uniform(t_lo, t_hi, 60_000)
    keep = RNG.random(cand.size) * pdf(np.array([0.5 * (t_lo + t_hi)])) * 1.3 \
        < pdf(cand)
    rep = randomness_report(cand[keep], expected_pdf=pdf)
    assert rep.p_value > 0.01
