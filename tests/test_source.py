import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qeplidar import rng, source
from qeplidar.source import (
    EmissionRates,
    PhaseMatchModel,
    PumpSpec,
    RateRegimeWarning,
    SamplingError,
    SpectralBand,
    jsi_weight,
    pulse_time,
    sample_pulse_range,
    sum_detuning_sigma_thz,
)

SEED = 20240517


# ---------------------------------------------------------------------------
# JSI weight


def test_jsi_on_resonance_is_one(pump, flat_pm):
    f_p = pump.center_frequency_thz
    assert jsi_weight(f_p - 1.0, f_p + 1.0, pump, flat_pm) == pytest.approx(1.0)


def test_jsi_half_maximum_at_quoted_detuning(pump, flat_pm):
    # solve exp(-8 ln2 x^2 / dfp^2) = 1/2  ->  |x| = dfp / (2 sqrt 2)
    f_p = pump.center_frequency_thz
    x = pump.spectral_fwhm_thz / (2.0 * math.sqrt(2.0))
    val = jsi_weight(f_p - 1.0, f_p + 1.0 + x, pump, flat_pm)
    assert val == pytest.approx(0.5, rel=1e-9)


def test_jsi_zero_at_sinc_null(pump):
    # kappa * l = 2 pi at the evaluation detuning kills the weight
    detuning = 0.5
    pm = PhaseMatchModel(kappa_coefficients=(0.0, 2.0 * math.pi / (0.01 * detuning)),
                         length_m=0.01)
    f_p = pump.center_frequency_thz
    val = jsi_weight(f_p - detuning, f_p + detuning, pump, pm)
    assert val == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_jsi_bounded(dh, dp):
    pump = PumpSpec.from_wavelength(19.27, 1540.56, 31.6)
    pm = PhaseMatchModel(kappa_coefficients=(0.3, 10.0), length_m=0.01)
    w = jsi_weight(pump.center_frequency_thz + dh, pump.center_frequency_thz + dp,
                   pump, pm)
    assert 0.0 <= w <= 1.0


# ---------------------------------------------------------------------------
# Pulse clock


def test_pulse_zero(pump):
    assert pulse_time(0, pump) == 0


def test_pulse_time_tracks_exact_period(pump):
    exact = 1e6 * pump.period_ps
    assert abs(pulse_time(10 ** 6, pump) - exact) <= 1.0


def test_consecutive_differences_are_floor_or_ceil(pump):
    t = pulse_time(np.arange(100_000), pump)
    diffs = set(np.unique(np.diff(t)))
    period = pump.period_ps
    assert diffs <= {math.floor(period), math.ceil(period)}


@given(st.floats(1.0, 100.0), st.integers(0, 10 ** 7))
@settings(max_examples=50)
def test_mean_period_converges(rate_mhz, index):
    pump = PumpSpec.from_wavelength(rate_mhz, 1540.56, 31.6)
    t = pulse_time(index, pump)
    assert abs(t - index * pump.period_ps) <= 1.0


def test_negative_pulse_index_rejected(pump):
    with pytest.raises(ValueError):
        pulse_time(-1, pump)


# ---------------------------------------------------------------------------
# Emission sampling


def test_zero_rates_give_empty_arrays(pump, flat_pm, herald_band, probe_band):
    batch = sample_pulse_range(123, 1, SEED, EmissionRates(0.0),
                               pump, flat_pm, herald_band, probe_band)
    for name in batch.__dataclass_fields__:
        assert getattr(batch, name).size == 0, name


def test_total_pairs_poisson_mean(pump, flat_pm, herald_band, probe_band):
    n = 10 ** 6
    batch = sample_pulse_range(0, n, SEED, EmissionRates(0.01), pump, flat_pm,
                               herald_band, probe_band)
    total = batch.pair_pulse.size
    assert abs(total - 10_000) <= 3 * math.sqrt(10_000)


def test_sum_frequency_envelope_fwhm(pump, flat_pm, herald_band, probe_band):
    # Fit the sampled sum-detuning distribution against the JSI envelope;
    # its FWHM is dfp / sqrt(2).
    from qeplidar.analysis import fit_gaussian_peak
    batch = sample_pulse_range(0, 2 * 10 ** 6, SEED, EmissionRates(0.05),
                               pump, flat_pm, herald_band, probe_band)
    s = batch.pair_herald_thz + batch.pair_probe_thz \
        - 2.0 * pump.center_frequency_thz
    edges = np.linspace(-4 * s.std(), 4 * s.std(), 121)
    hist, _ = np.histogram(s, bins=edges)
    fit = fit_gaussian_peak(0.5 * (edges[:-1] + edges[1:]), hist)
    expected = pump.spectral_fwhm_thz / math.sqrt(2.0)
    assert fit.fwhm_ps == pytest.approx(expected, rel=0.02)


def test_frequencies_restricted_to_bands(pump, flat_pm, herald_band, probe_band):
    batch = sample_pulse_range(0, 200_000, SEED, EmissionRates(0.02),
                               pump, flat_pm, herald_band, probe_band)
    assert np.all(batch.pair_herald_thz >= herald_band.lo_thz)
    assert np.all(batch.pair_herald_thz <= herald_band.hi_thz)
    assert np.all(batch.pair_probe_thz >= probe_band.lo_thz)
    assert np.all(batch.pair_probe_thz <= probe_band.hi_thz)


def test_marginal_anticorrelation(pump, flat_pm, herald_band, probe_band):
    batch = sample_pulse_range(0, 500_000, SEED, EmissionRates(0.02),
                               pump, flat_pm, herald_band, probe_band)
    r = np.corrcoef(batch.pair_herald_thz, batch.pair_probe_thz)[0, 1]
    assert r < -0.99


def test_anticorrelation_tightens_with_narrow_pump(flat_pm, herald_band,
                                                   probe_band):
    wide = PumpSpec.from_wavelength(19.27, 1540.56, 200.0)
    narrow = PumpSpec.from_wavelength(19.27, 1540.56, 2.0)
    r = {}
    for name, pump in (("wide", wide), ("narrow", narrow)):
        batch = sample_pulse_range(0, 400_000, SEED, EmissionRates(0.02),
                                   pump, flat_pm, herald_band, probe_band)
        r[name] = np.corrcoef(batch.pair_herald_thz, batch.pair_probe_thz)[0, 1]
    assert r["narrow"] < r["wide"] < -0.9


def test_pair_count_distribution_poisson(pump, flat_pm, herald_band, probe_band):
    # chi-square GOF of per-pulse pair counts against Poisson(0.05) at 1%
    mean = 0.05
    n = 10 ** 6
    batch = sample_pulse_range(0, n, SEED, EmissionRates(mean), pump, flat_pm,
                               herald_band, probe_band)
    counts = np.bincount(np.bincount(batch.pair_pulse, minlength=n))
    kmax = counts.size
    expected = stats.poisson.pmf(np.arange(kmax), mean) * n
    # merge the tail so every class expects >= 5
    keep = expected >= 5
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    chi2 = np.sum((obs - exp) ** 2 / exp)
    p = stats.chi2.sf(chi2, obs.size - 1)
    assert p > 0.01


def test_singles_sampled_uniform_over_band(pump, flat_pm, herald_band, probe_band):
    rates = EmissionRates(0.0, single_probe_rate=0.05, single_herald_rate=0.05)
    batch = sample_pulse_range(0, 400_000, SEED, rates, pump, flat_pm,
                               herald_band, probe_band)
    u = (batch.single_probe_thz - probe_band.lo_thz) / (
        probe_band.hi_thz - probe_band.lo_thz)
    assert stats.kstest(u, "uniform").pvalue > 0.01
    assert abs(batch.single_probe_pulse.size - 20_000) < 3 * math.sqrt(20_000)


def test_determinism_and_chunk_independence(pump, flat_pm, herald_band, probe_band):
    rates = EmissionRates(0.02, 0.01, 0.01)
    whole = sample_pulse_range(0, 3000, SEED, rates, pump, flat_pm,
                               herald_band, probe_band)
    again = sample_pulse_range(0, 3000, SEED, rates, pump, flat_pm,
                               herald_band, probe_band)
    chunks = [sample_pulse_range(start, count, SEED, rates, pump, flat_pm,
                                 herald_band, probe_band)
              for start, count in ((0, 1000), (1000, 700), (1700, 1300))]
    for field in ("pair_pulse", "pair_herald_thz", "pair_probe_thz",
                  "single_probe_thz", "single_herald_thz"):
        parts = np.concatenate([getattr(c, field) for c in chunks])
        assert np.array_equal(getattr(whole, field), getattr(again, field))
        assert np.array_equal(getattr(whole, field), parts)


def test_per_pulse_op_matches_range_sampler(pump, flat_pm, herald_band, probe_band):
    rates = EmissionRates(0.3, 0.1, 0.1)
    batch = sample_pulse_range(50, 30, SEED, rates, pump, flat_pm,
                               herald_band, probe_band)
    for i in range(50, 80):
        one = sample_pulse_range(i, 1, SEED, rates, pump, flat_pm,
                                 herald_band, probe_band)
        for emitter in ("pair", "single_probe", "single_herald"):
            in_pulse = getattr(batch, f"{emitter}_pulse") == i
            for name in one.__dataclass_fields__:
                if name.startswith(emitter + "_"):
                    assert np.array_equal(getattr(one, name),
                                          getattr(batch, name)[in_pulse])


def test_rejection_2d_histogram_matches_jsi(pump, flat_pm, herald_band, probe_band):
    # coarse version of the acceptance check: 2-D histogram of accepted
    # samples against cell-integrated JSI, allowing the chance-expected
    # fraction of >3 sigma cells
    from scipy.special import erf
    batch = sample_pulse_range(0, 500_000, SEED, EmissionRates(0.4),
                               pump, flat_pm, herald_band, probe_band)
    fh, fp = batch.pair_herald_thz, batch.pair_probe_thz
    total = fh.size
    nbins = 50
    h_edges = np.linspace(herald_band.lo_thz, herald_band.hi_thz, nbins + 1)
    p_edges = np.linspace(probe_band.lo_thz, probe_band.hi_thz, nbins + 1)
    hist, _, _ = np.histogram2d(fh, fp, bins=[h_edges, p_edges])

    # exact cell integrals of the Gaussian-in-sum envelope over each cell
    sigma = sum_detuning_sigma_thz(pump)
    f0 = 2.0 * pump.center_frequency_thz

    def gauss_cdf_integral(a, b):
        # integral over u of P(sum detuning < u) style antiderivative:
        # G(x) = x*Phi(x) + phi(x), with Phi the standard normal CDF
        def big_g(x):
            return x * 0.5 * (1 + erf(x / math.sqrt(2))) \
                + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        return big_g(b) - big_g(a)

    expected = np.zeros((nbins, nbins))
    for i in range(nbins):
        for j in range(nbins):
            # integral over the cell of exp(-s^2/2sig^2), s = fh+fp-f0:
            # separable via the trapezoid overlap; use the exact 1-D identity
            # int_cell g(fh+fp) dfh dfp = sig^2 * [G2(s)] over corner sums
            s11 = (h_edges[i] + p_edges[j] - f0) / sigma
            s12 = (h_edges[i] + p_edges[j + 1] - f0) / sigma
            s21 = (h_edges[i + 1] + p_edges[j] - f0) / sigma
            s22 = (h_edges[i + 1] + p_edges[j + 1] - f0) / sigma
            expected[i, j] = gauss_cdf_integral(s21, s22) \
                - gauss_cdf_integral(s11, s12)
    expected = np.clip(expected, 0.0, None)
    expected /= expected.sum()
    exp_counts = expected * total
    sigma_cell = np.sqrt(np.maximum(exp_counts * (1 - expected), 1e-12))
    # 3 sigma with a small absolute floor for near-empty cells
    excess = np.abs(hist - exp_counts) - 3.0 * np.maximum(sigma_cell, 1.0)
    assert (excess > 0).sum() <= 0.01 * nbins * nbins


def test_sampling_error_names_band(pump, probe_band, monkeypatch):
    # a violently oscillating phase match rejects everything
    pm = PhaseMatchModel(kappa_coefficients=(2 * math.pi / 0.01,), length_m=0.01)
    herald = SpectralBand(1530.0, 13.0)
    monkeypatch.setattr(source, "MAX_PAIR_ATTEMPTS", 5)
    with pytest.raises(SamplingError, match="band"):
        sample_pulse_range(0, 2000, SEED, EmissionRates(0.5), pump, pm,
                           herald, probe_band)


def test_band_overlap_rejected(pump, flat_pm):
    with pytest.raises(ValueError, match="overlap"):
        sample_pulse_range(0, 10, SEED, EmissionRates(0.01), pump, flat_pm,
                           SpectralBand(1545.0, 13.0), SpectralBand(1551.0, 13.0))


def test_high_rate_warns():
    with pytest.warns(RateRegimeWarning):
        EmissionRates(0.6)


def test_spectral_band_validation():
    with pytest.raises(ValueError):
        SpectralBand(1530.0, 0.0)
    band = SpectralBand(1530.0, 13.0)
    assert band.lo_nm == pytest.approx(1523.5)
    assert band.hi_nm == pytest.approx(1536.5)
    assert not band.overlaps(SpectralBand(1551.0, 13.0))
    assert band.overlaps(SpectralBand(1536.0, 2.0))
