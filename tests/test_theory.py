import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qeplidar.theory import (
    FirstOrderWarning,
    FisherParams,
    OracleError,
    RateParams,
    RegimeError,
    car_closed_form,
    detection_probabilities,
    esnr_closed_form,
    fisher_enhancement,
    fisher_information_classical,
    fisher_information_quantum,
    fisher_numeric_oracle,
    fisher_numeric_oracle_classical,
    fisher_rates,
    snr_classical_closed_form,
    snr_quantum_closed_form,
)

T_PUMP = 1.0 / 19.27e6


# ---------------------------------------------------------------------------
# Detection probabilities (per-pulse counting algebra)


def test_all_zero_rates():
    p = RateParams(0.0)
    probs = detection_probabilities(p)
    assert all(v == 0.0 for v in probs.values())


def test_probe_off_is_noise_plus_darks():
    p = RateParams(0.05, nu_noise_p=0.02, nu_dc_p=0.003, eta_p=0.7)
    probs = detection_probabilities(p)
    assert probs["sc_off_on"] == pytest.approx(0.023)


def test_cc_on_on_hand_value():
    p = RateParams(0.01, nu_noise_p=0.02, eta_p=0.5, eta_h=0.5)
    probs = detection_probabilities(p)
    assert probs["cc_on_on"] == pytest.approx(0.0026250, abs=1e-7)


def test_high_composite_rate_warns():
    with pytest.warns(FirstOrderWarning):
        RateParams(0.2, nu_noise_p=0.05)


# ---------------------------------------------------------------------------
# SNR / E_SNR / CAR closed forms


def test_snr_classical_unity_when_noise_equals_signal():
    p = RateParams(0.01, nu_noise_p=0.01, eta_p=1.0)
    assert snr_classical_closed_form(p) == pytest.approx(1.0)


def test_snr_classical_inverse_noise_scaling():
    values = []
    for noise in (1e-4, 1e-3, 1e-2):
        p = RateParams(0.01, nu_noise_p=noise, eta_p=0.5, eta_h=0.5)
        values.append(snr_classical_closed_form(p))
    slopes = np.diff(np.log10(values)) / 1.0
    assert np.allclose(slopes, -1.0, atol=1e-12)


def test_snr_quantum_direct_substitution():
    p = RateParams(0.01, nu_sc_p=0.002, nu_sc_h=0.001, nu_noise_p=0.02,
                   nu_dc_p=0.0005, nu_dc_h=0.0003, eta_p=0.4, eta_h=0.6)
    herald = (0.01 + 0.001) * 0.6 + 0.0003
    expected = (0.01 * 0.4 * 0.6 + (0.01 + 0.002) * 0.4 * herald) / (
        (0.02 + 0.0005) * herald)
    assert snr_quantum_closed_form(p) == pytest.approx(expected, rel=1e-12)


def test_undefined_snr_flagged_as_nan():
    p = RateParams(0.01)
    assert math.isnan(snr_classical_closed_form(p))
    assert math.isnan(snr_quantum_closed_form(p))


def test_esnr_low_rate_limit():
    assert esnr_closed_form(RateParams(0.01)) == pytest.approx(101.0)


def test_esnr_independent_of_noise_and_probe_loss():
    a = esnr_closed_form(RateParams(0.01, nu_noise_p=0.001, eta_p=0.9))
    b = esnr_closed_form(RateParams(0.01, nu_noise_p=0.08, eta_p=0.05))
    assert a == b


def test_car_low_rate_limit():
    assert car_closed_form(RateParams(0.01)) == pytest.approx(101.0)


def test_probe_darks_push_car_below_esnr():
    p = RateParams(0.01, nu_dc_p=0.05, eta_p=0.5, eta_h=0.5)
    assert car_closed_form(p) < esnr_closed_form(p)


def test_car_scaling_with_pair_rate():
    lo = car_closed_form(RateParams(0.005, eta_p=0.8, eta_h=0.8))
    hi = car_closed_form(RateParams(0.01, eta_p=0.8, eta_h=0.8))
    assert (lo - 1.0) / (hi - 1.0) == pytest.approx(2.0, rel=1e-12)


@given(st.floats(1e-4, 0.05), st.floats(0.0, 0.01), st.floats(0.0, 0.01),
       st.floats(0.0, 0.005), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_esnr_equals_car_without_probe_darks(nu, sc_p, sc_h, dc_h, eta_p, eta_h):
    p = RateParams(nu, sc_p, sc_h, 0.0, 0.0, dc_h, eta_p, eta_h)
    e, c = esnr_closed_form(p), car_closed_form(p)
    assert abs(e - c) <= 1e-12 * max(abs(e), abs(c))


@pytest.mark.filterwarnings("ignore::qeplidar.theory.FirstOrderWarning")
@given(st.floats(1e-4, 0.05), st.floats(0.0, 0.01), st.floats(0.0, 0.01),
       st.floats(0.0, 0.005), st.floats(0.0, 0.005), st.floats(0.0, 0.05),
       st.floats(0.01, 1.0), st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_esnr_at_least_one(nu, sc_p, sc_h, dc_p, dc_h, noise, eta_p, eta_h):
    p = RateParams(nu, sc_p, sc_h, noise, dc_p, dc_h, eta_p, eta_h)
    assert esnr_closed_form(p) >= 1.0


# ---------------------------------------------------------------------------
# Fisher information


def test_fisher_rates_hand_values():
    fp = FisherParams(1e5, 1e6, 0.3, 0.3, T_PUMP, 100e-12)
    r_cc, r_p, r_h = fisher_rates(fp)
    assert r_cc == pytest.approx(9003.0)
    assert r_p == pytest.approx(1_020_997.0)
    assert r_h == pytest.approx(20_997.0)


def test_fisher_rates_no_noise():
    fp = FisherParams(1e5, 0.0, 0.4, 0.3, T_PUMP)
    r_cc, r_p, r_h = fisher_rates(fp)
    assert r_cc == pytest.approx(1e5 * 0.3 * 0.4)
    assert r_h == pytest.approx(1e5 * 0.3 * (1 - 0.4))
    assert r_p == pytest.approx(1e5 * 0.4 * (1 - 0.3))


def test_fisher_rates_regime_error():
    # nu_b * T_CC > (1 - eta_P) drives the herald-only rate negative
    fp = FisherParams(1e5, 2e10, 0.9, 0.3, T_PUMP, 100e-12)
    with pytest.raises(RegimeError):
        fisher_rates(fp)


def test_quantum_reduces_to_classical_at_zero_heralding():
    fp = FisherParams(1e5, 1e6, 0.3, 0.0, T_PUMP, 100e-12)
    assert fisher_information_quantum(fp) == pytest.approx(
        fisher_information_classical(fp), rel=1e-12)


def test_classical_limits():
    fp = FisherParams(1e5, 0.0, 0.5, 0.3, T_PUMP)
    assert fisher_information_classical(fp) == pytest.approx(
        1e5 / 0.5 * T_PUMP)
    lo = fisher_information_classical(FisherParams(1e5, 1e9, 0.5, 0.3, T_PUMP))
    hi = fisher_information_classical(FisherParams(1e5, 2e9, 0.5, 0.3, T_PUMP))
    assert lo / hi == pytest.approx(2.0, rel=1e-3)


def test_fisher_enhancement_terms_sum():
    fp = FisherParams(1e5, 1e6, 0.3, 0.45, T_PUMP, 100e-12)
    enh = fisher_enhancement(fp)
    assert enh.total == pytest.approx(
        enh.coincidence_term + enh.herald_term + enh.probe_term)
    assert enh.total == pytest.approx(
        fisher_information_quantum(fp) / fisher_information_classical(fp),
        rel=1e-12)


def test_enhancement_is_unity_without_heralding():
    fp = FisherParams(1e5, 1e6, 0.3, 0.0, T_PUMP, 100e-12)
    enh = fisher_enhancement(fp)
    assert enh.total == pytest.approx(1.0, rel=1e-12)
    assert enh.coincidence_term == 0.0 and enh.herald_term == 0.0


def test_high_noise_regime_reaches_hundredfold_enhancement():
    # frozen by parameter sweep: a plausible operating point where the
    # enhancement reaches ~100 at a noise intensity of 33.2 dB
    nu = 2.3317e7
    eta_p, eta_h = 0.05, 0.2
    nu_b = 10 ** 3.32 * nu * eta_p
    fp = FisherParams(nu, nu_b, eta_p, eta_h, T_PUMP, 100e-12)
    intensity_db = 10 * math.log10(nu_b / (nu * eta_p))
    assert intensity_db == pytest.approx(33.2, abs=0.01)
    enh = fisher_enhancement(fp)
    assert enh.total == pytest.approx(100.0, abs=5.0)


def test_coincidence_share_grows_with_noise():
    shares = []
    for nu_b in np.logspace(3, 7, 200):
        fp = FisherParams(1e5, nu_b, 0.3, 0.3, T_PUMP, 100e-12)
        shares.append(fisher_enhancement(fp).coincidence_share)
    assert np.all(np.diff(shares) > 0)


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(5):
        fp = FisherParams(
            nu_pairs_per_s=float(rng.uniform(2e4, 3e5)),
            nu_noise_per_s=float(rng.uniform(1e4, 5e6)),
            eta_p=float(rng.uniform(0.15, 0.8)),
            eta_h=float(rng.uniform(0.15, 0.8)),
            t_pump_s=T_PUMP,
            t_cc_s=100e-12,
        )
        exact = fisher_information_quantum(fp)
        numeric = fisher_numeric_oracle(fp)
        assert abs(numeric - exact) / exact < 0.01


def test_classical_oracle_matches_closed_form():
    fp = FisherParams(1e5, 2e6, 0.35, 0.0, T_PUMP)
    exact = fisher_information_classical(fp)
    numeric = fisher_numeric_oracle_classical(fp)
    assert abs(numeric - exact) / exact < 0.005


def test_oracle_richardson_stability():
    fp = FisherParams(1e5, 1e6, 0.3, 0.3, T_PUMP, 100e-12)
    a = fisher_numeric_oracle(fp, delta=1e-5)
    b = fisher_numeric_oracle(fp, delta=5e-6)
    assert abs(a - b) / a < 1e-3


def test_oracle_truncation_check():
    fp = FisherParams(1e6, 1e8, 0.5, 0.5, T_PUMP, 10e-12)
    with pytest.raises(OracleError):
        fisher_numeric_oracle(fp, truncation=3)


def test_quantum_dominates_classical():
    rng = np.random.default_rng(5)
    for _ in range(50):
        fp = FisherParams(
            nu_pairs_per_s=float(rng.uniform(1e4, 5e5)),
            nu_noise_per_s=float(rng.uniform(0.0, 1e7)),
            eta_p=float(rng.uniform(0.05, 0.95)),
            eta_h=float(rng.uniform(0.05, 1.0)),
            t_pump_s=T_PUMP,
            t_cc_s=100e-12,
        )
        iq = fisher_information_quantum(fp)
        ic = fisher_information_classical(fp)
        assert iq >= ic * (1 - 1e-12), (
            f"I_Q < I_C at {fp}; counterexample to the dominance sweep")


def test_params_validation():
    with pytest.raises(ValueError):
        FisherParams(0.0, 1e6, 0.3, 0.3, T_PUMP)
    with pytest.raises(ValueError):
        FisherParams(1e5, 1e6, 0.3, 0.3, T_PUMP, t_cc_s=1.0)
    with pytest.raises(ValueError):
        RateParams(1.5)
