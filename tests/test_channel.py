import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qeplidar import rng
from qeplidar.channel import (
    ChannelSpec,
    DispersionModel,
    GratingSpec,
    Target,
    angular_dispersion,
    assign_targets,
    diffraction_angle,
    dispersed_arrival,
    propagate_herald_batch,
    propagate_probe_batch,
    sample_noise_arrivals,
    validate_scene,
)
from qeplidar.model import C_NM_THZ
from qeplidar.source import (
    EmissionRates,
    PhaseMatchModel,
    PumpSpec,
    sample_pulse_range,
)

SEED = 91


# ---------------------------------------------------------------------------
# Dispersion


def test_anchor_wavelength_has_zero_shift(dispersion):
    f_p = C_NM_THZ / 1540.56
    assert dispersed_arrival(f_p, 1000.0, dispersion) == pytest.approx(1000.0)


def test_slope_gives_400ps_per_nm(dispersion):
    f = C_NM_THZ / (1540.56 + 1.0)
    assert dispersed_arrival(f, 0.0, dispersion) == pytest.approx(400.0, abs=0.01)


def test_herald_band_arrives_early(dispersion):
    f = C_NM_THZ / 1530.0
    shift = dispersed_arrival(f, 0.0, dispersion)
    assert shift == pytest.approx((1530.0 - 1540.56) * 400.0, abs=1.0)
    assert shift == pytest.approx(-4224.0, abs=1.0)


def test_out_of_band_frequency_rejected(dispersion):
    with pytest.raises(ValueError):
        dispersed_arrival(C_NM_THZ / 1400.0, 0.0, dispersion)


@given(st.floats(1470.0, 1630.0), st.floats(1470.0, 1630.0))
def test_linear_dispersion_monotone(lam_a, lam_b):
    disp = DispersionModel()
    sa = disp.arrival_shift_ps(lam_a)
    sb = disp.arrival_shift_ps(lam_b)
    if lam_a < lam_b:
        assert sa < sb
    elif lam_a > lam_b:
        assert sa > sb


@given(st.floats(1470.0, 1630.0))
def test_inverse_dispersion_recovers_wavelength(lam):
    disp = DispersionModel()
    back = disp.wavelength_at_shift(disp.arrival_shift_ps(lam))
    assert abs(back - lam) < 1e-3


def test_polynomial_mode_inverse():
    disp = DispersionModel(mode="polynomial",
                           polynomial_coefficients=(400.0, 0.8, 0.002))
    lam = np.linspace(1480.0, 1620.0, 50)
    back = disp.wavelength_at_shift(disp.arrival_shift_ps(lam))
    assert np.max(np.abs(back - lam)) < 1e-3


def test_non_monotone_polynomial_rejected():
    with pytest.raises(ValueError, match="monotone"):
        DispersionModel(mode="polynomial", polynomial_coefficients=(1.0, -0.5))


# ---------------------------------------------------------------------------
# Grating


def test_diffraction_angle_matches_quoted_value(grating):
    assert float(diffraction_angle(1551.0, grating)) == pytest.approx(79.68,
                                                                      abs=0.05)


def test_zero_angle_root():
    # on the m = +1 branch the diffracted angle vanishes when
    # lambda = alpha * sin(theta_i)
    g = GratingSpec(order=1)
    lam = g.period_nm * math.sin(math.radians(g.incidence_angle_deg))
    assert float(diffraction_angle(lam, g)) == pytest.approx(0.0, abs=1e-9)


def test_evanescent_order_rejected(grating):
    with pytest.raises(ValueError, match="evanescent"):
        diffraction_angle(1640.0, grating)


def test_angular_dispersion_quoted_value(grating):
    assert float(angular_dispersion(1551.0, grating)) == pytest.approx(
        0.192, abs=0.001)


def test_angular_dispersion_at_herald_band(grating):
    # frozen from direct evaluation of the closed form, cross-checked by the
    # finite-difference property below
    assert float(angular_dispersion(1530.0, grating)) == pytest.approx(
        0.14430, abs=0.0005)


@given(st.floats(1500.0, 1570.0))
@settings(max_examples=100)
def test_angular_dispersion_equals_finite_difference(lam):
    g = GratingSpec()
    h = 0.01
    fd = abs(float(diffraction_angle(lam + h, g))
             - float(diffraction_angle(lam - h, g))) / (2 * h)
    ana = float(angular_dispersion(lam, g))
    assert abs(fd - ana) / ana < 1e-4


def test_resolving_power(grating):
    # |m| * w / alpha with w = 3.6 mm and alpha = 1/600 mm
    assert grating.resolving_power == pytest.approx(2160.0)


def test_period_derived_from_density():
    g = GratingSpec(groove_density_per_mm=600.0)
    assert g.period_nm == pytest.approx(1e6 / 600.0)


# ---------------------------------------------------------------------------
# Scene interaction


def _target(center_nm, halfwidth=0.1, distance=1.0, eff=1.0, id="t"):
    return Target(id, center_nm, halfwidth, distance, eff)


def test_probe_miss_outside_targets(pump, flat_pm, grating, dispersion):
    scene = (_target(1547.0, 0.05),)
    channel = ChannelSpec(1.0, 1.0)
    freq = np.array([C_NM_THZ / 1555.0])
    arr = propagate_probe_batch(
        np.array([0]), np.array([0]), freq, np.array([0]), scene, grating,
        dispersion, channel, SEED, rng.PROBE_SURVIVAL)
    assert arr.size == 0


def test_probe_zero_distance_keeps_dispersed_arrival(grating, dispersion):
    scene = (_target(1551.0, 0.2, distance=0.0),)
    channel = ChannelSpec(1.0, 1.0)
    freq = np.array([C_NM_THZ / 1551.0])
    arr = propagate_probe_batch(
        np.array([0]), np.array([0]), freq, np.array([100.0]), scene, grating,
        dispersion, channel, SEED, rng.PROBE_SURVIVAL)
    assert arr.size == 1
    assert arr[0] == pytest.approx(
        float(dispersed_arrival(freq[0], 100.0, dispersion)))


def test_probe_roundtrip_delay_one_meter(grating, dispersion):
    scene = (_target(1551.0, 0.2, distance=1.0),)
    channel = ChannelSpec(1.0, 1.0)
    freq = np.array([C_NM_THZ / 1551.0])
    arr = propagate_probe_batch(
        np.array([0]), np.array([0]), freq, np.array([0.0]), scene, grating,
        dispersion, channel, SEED, rng.PROBE_SURVIVAL)
    base = float(dispersed_arrival(freq[0], 0.0, dispersion))
    assert arr[0] - base == pytest.approx(6671.28, abs=1.0)


def test_hit_or_miss_is_pure_function_of_frequency(grating):
    scene = (_target(1548.0, 0.15), _target(1554.0, 0.15))
    lam = np.linspace(1545.0, 1557.0, 2001)
    freq = C_NM_THZ / lam
    a = assign_targets(freq, scene, grating)
    b = assign_targets(freq, scene, grating)
    assert np.array_equal(a, b)
    hit = a >= 0
    theta = diffraction_angle(lam, grating)
    for k, t in enumerate(scene):
        lo, hi = t.angular_interval_deg(grating)
        inside = (theta >= lo) & (theta <= hi)
        assert np.array_equal(a == k, inside)
    assert np.any(hit) and not np.all(hit)


def test_energy_conservation_chain(pump, flat_pm, grating, dispersion,
                                   herald_band, probe_band):
    # direction inferred from the herald arrival (inverse dispersion +
    # energy conservation) equals the direct computation, for pairs with
    # negligible sum-frequency spread
    narrow_pump = PumpSpec.from_wavelength(19.27, 1540.56, 0.001)
    batch = sample_pulse_range(0, 200_000, SEED, EmissionRates(0.01),
                               narrow_pump, flat_pm, herald_band, probe_band)
    herald_shift = dispersion.arrival_shift_ps(C_NM_THZ / batch.pair_herald_thz)
    lam_h = dispersion.wavelength_at_shift(herald_shift)
    f_pr = 2.0 * narrow_pump.center_frequency_thz - C_NM_THZ / lam_h
    theta_inferred = diffraction_angle(C_NM_THZ / f_pr, grating)
    theta_direct = diffraction_angle(C_NM_THZ / batch.pair_probe_thz, grating)
    assert np.max(np.abs(theta_inferred - theta_direct)) < 0.002


def test_herald_survival_extremes(dispersion):
    freq = np.full(1000, C_NM_THZ / 1530.0)
    pulses = np.arange(1000)
    slots = np.zeros(1000, dtype=np.int64)
    times = np.zeros(1000)
    arr = propagate_herald_batch(pulses, slots, freq, times, dispersion,
                                 ChannelSpec(1.0, 1.0), SEED, rng.HERALD_SURVIVAL)
    assert arr.size == 1000
    arr = propagate_herald_batch(pulses, slots, freq, times, dispersion,
                                 ChannelSpec(1.0, 0.0), SEED, rng.HERALD_SURVIVAL)
    assert arr.size == 0


def test_herald_survival_binomial(dispersion):
    n = 100_000
    freq = np.full(n, C_NM_THZ / 1530.0)
    arr = propagate_herald_batch(np.arange(n), np.zeros(n, dtype=np.int64),
                                 freq, np.zeros(n), dispersion,
                                 ChannelSpec(1.0, 0.3), SEED, rng.HERALD_SURVIVAL)
    assert abs(arr.size - 0.3 * n) <= 3 * math.sqrt(n * 0.3 * 0.7)


def test_survival_affects_presence_not_timing(grating, dispersion):
    scene = (_target(1551.0, 0.3, distance=0.8),)
    n = 2000
    freq = np.full(n, C_NM_THZ / 1551.0)
    pulses = np.arange(n)
    slots = np.zeros(n, dtype=np.int64)
    times = pulses * 1000.0            # distinct arrivals identify each photon
    full = propagate_probe_batch(
        pulses, slots, freq, times, scene, grating, dispersion,
        ChannelSpec(1.0, 1.0), SEED, rng.PROBE_SURVIVAL)
    thinned = propagate_probe_batch(
        pulses, slots, freq, times, scene, grating, dispersion,
        ChannelSpec(0.5, 1.0), SEED, rng.PROBE_SURVIVAL)
    assert np.unique(full).size == full.size == n
    assert 0 < thinned.size < full.size
    assert np.array_equal(thinned, full[np.isin(full, thinned)])


def test_scene_overlap_detected(grating):
    scene = [_target(1551.0, 0.3, id="a"), _target(1551.5, 0.3, id="b")]
    problems = validate_scene(scene, grating)
    assert any("overlap" in p for p in problems)
    scene = [_target(1548.0, 0.1, id="a"), _target(1554.0, 0.1, id="b")]
    assert validate_scene(scene, grating) == []


# ---------------------------------------------------------------------------
# Injected noise


def test_noise_zero_rate_empty():
    gen = rng.component_generator(SEED, rng.COMP_NOISE)
    assert sample_noise_arrivals(1.0, 0.0, gen).size == 0


def test_noise_poisson_count():
    gen = rng.component_generator(SEED, rng.COMP_NOISE)
    times = sample_noise_arrivals(1.0, 10 ** 6, gen)
    assert abs(times.size - 10 ** 6) <= 3000
    assert times.min() >= 0 and times.max() < 1e12


def test_noise_interarrivals_exponential():
    gen = rng.component_generator(SEED, rng.COMP_NOISE)
    rate = 10 ** 5
    times = sample_noise_arrivals(1.0, rate, gen)
    gaps = np.diff(times) * 1e-12
    assert stats.kstest(gaps, "expon", args=(0, 1.0 / rate)).pvalue > 0.01


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(probe_efficiency=1.5)
    with pytest.raises(ValueError):
        ChannelSpec(noise_rate_per_s=-1.0)
