"""Closed-form rate, SNR, CAR, and Fisher-information calculators.

These are the analytic oracles the Monte Carlo pipeline is validated
against, and a standalone calculator for the CLI.  Two deliberately distinct
parameter containers prevent silent unit mixing: :class:`RateParams` carries
per-pulse probabilities (the counting algebra), :class:`FisherParams`
carries per-second rates with explicit pump period and coincidence window
(the estimation-theory formulas).

Undefined ratios (zero denominators) are returned as NaN rather than
raised; NaN is the documented "undefined" flag for every ratio here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class RegimeError(ValueError):
    """Parameters leave the regime where the first-order algebra is valid."""


class FirstOrderWarning(UserWarning):
    """Composite per-pulse probability is large enough to bias closed forms."""


@dataclass(frozen=True)
class RateParams:
    """Per-pulse probabilities for the counting algebra.

    Rates given per second must be multiplied by the pump period by the
    caller before they land here.
    """

    nu_cc: float
    nu_sc_p: float = 0.0
    nu_sc_h: float = 0.0
    nu_noise_p: float = 0.0
    nu_dc_p: float = 0.0
    nu_dc_h: float = 0.0
    eta_p: float = 1.0
    eta_h: float = 1.0

    def __post_init__(self):
        for name in ("nu_cc", "nu_sc_p", "nu_sc_h", "nu_noise_p",
                     "nu_dc_p", "nu_dc_h", "eta_p", "eta_h"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")
        composite = (self.nu_cc + self.nu_sc_p) * self.eta_p \
            + self.nu_noise_p + self.nu_dc_p
        if composite > 0.1:
            warnings.warn(
                f"composite probe probability {composite:.3f}/pulse exceeds 0.1; "
                "first-order closed forms degrade",
                FirstOrderWarning, stacklevel=3)


def _herald_factor(p: RateParams) -> float:
    return (p.nu_cc + p.nu_sc_h) * p.eta_h + p.nu_dc_h


def detection_probabilities(p: RateParams) -> dict:
    """Mean per-pulse counts for the four probe/noise configurations.

    Keys: sc_on_on, sc_off_on, cc_on_on, cc_off_on.  "on/off" refers to
    probe connection and noise injection respectively; coincidences count
    every herald x probe combination within a pulse.
    """
    sc_on = (p.nu_cc + p.nu_sc_p) * p.eta_p + p.nu_noise_p + p.nu_dc_p
    sc_off = p.nu_noise_p + p.nu_dc_p
    herald = _herald_factor(p)
    cc_on = p.nu_cc * p.eta_p * p.eta_h + sc_on * herald
    cc_off = sc_off * herald
    return {"sc_on_on": sc_on, "sc_off_on": sc_off,
            "cc_on_on": cc_on, "cc_off_on": cc_off}


def snr_classical_closed_form(p: RateParams) -> float:
    denom = p.nu_noise_p + p.nu_dc_p
    if denom <= 0:
        return math.nan
    return (p.nu_cc + p.nu_sc_p) * p.eta_p / denom


def snr_quantum_closed_form(p: RateParams) -> float:
    herald = _herald_factor(p)
    denom = (p.nu_noise_p + p.nu_dc_p) * herald
    if denom <= 0:
        return math.nan
    signal = p.nu_cc * p.eta_p * p.eta_h \
        + (p.nu_cc + p.nu_sc_p) * p.eta_p * herald
    return signal / denom


def snr_closed_form(p: RateParams) -> tuple:
    """(SNR_C, SNR_Q); NaN where the noise-only denominator vanishes."""
    return snr_classical_closed_form(p), snr_quantum_closed_form(p)


def esnr_closed_form(p: RateParams) -> float:
    """SNR_Q / SNR_C; independent of the injected noise rate and eta_P."""
    denom = (p.nu_cc + p.nu_sc_p) * _herald_factor(p)
    if denom <= 0:
        return math.nan
    return p.nu_cc * p.eta_h / denom + 1.0


def car_closed_form(p: RateParams) -> float:
    """Coincidence-to-accidental ratio of the pulse-synchronized windows.

    Identical to esnr_closed_form when the probe dark rate is zero.
    """
    acc = ((p.nu_cc + p.nu_sc_p) * p.eta_p + p.nu_dc_p) * _herald_factor(p)
    if acc <= 0:
        return math.nan
    return p.nu_cc * p.eta_p * p.eta_h / acc + 1.0


@dataclass(frozen=True)
class FisherParams:
    """Per-second rates for the Fisher-information formulas."""

    nu_pairs_per_s: float
    nu_noise_per_s: float
    eta_p: float
    eta_h: float
    t_pump_s: float
    t_cc_s: float = 100e-12

    def __post_init__(self):
        if self.nu_pairs_per_s <= 0:
            raise ValueError("pair rate must be positive")
        if self.nu_noise_per_s < 0:
            raise ValueError("noise rate must be non-negative")
        if not 0.0 <= self.eta_p <= 1.0 or not 0.0 <= self.eta_h <= 1.0:
            raise ValueError("efficiencies must be in [0, 1]")
        if self.t_pump_s <= 0:
            raise ValueError("pump period must be positive")
        if not 0.0 <= self.t_cc_s <= self.t_pump_s:
            raise ValueError("coincidence window must be in [0, pump period]")


def fisher_rates(fp: FisherParams, eta_p: float | None = None) -> tuple:
    """Per-second rates (rate_CC, rate_P, rate_H) of the three observables.

    Counts per pulse are these rates times the pump period.  Raises
    RegimeError when a rate goes negative (the linearized model broke down).
    """
    eta_p = fp.eta_p if eta_p is None else eta_p
    nu, nb = fp.nu_pairs_per_s, fp.nu_noise_per_s
    r_cc = nu * fp.eta_h * eta_p + nu * fp.eta_h * nb * fp.t_cc_s
    r_p = nu * eta_p + nb - r_cc
    r_h = nu * fp.eta_h - r_cc
    if min(r_cc, r_p, r_h) < 0:
        raise RegimeError(
            f"negative observable rate (CC={r_cc:.4g}, P={r_p:.4g}, H={r_h:.4g}); "
            "reduce noise*window or efficiencies")
    return r_cc, r_p, r_h


def fisher_information_quantum(fp: FisherParams) -> float:
    """Per-pulse Fisher information about eta_P from (N_CC, N_H, N_P).

    At eta_H = 0 the coincidence and herald terms vanish (their eta_H^2
    numerators go to zero faster than the rates) and the expression reduces
    to the classical single-channel information.
    """
    r_cc, r_p, r_h = fisher_rates(fp)
    nu, eh = fp.nu_pairs_per_s, fp.eta_h
    if r_p <= 0:
        return math.nan
    if eh == 0.0:
        term_cc = term_h = 0.0
    elif r_cc > 0 and r_h > 0:
        term_cc = eh * eh / r_cc
        term_h = eh * eh / r_h
    else:
        return math.nan
    return nu * nu * (term_cc + term_h + (1.0 - eh) ** 2 / r_p) * fp.t_pump_s


def fisher_information_classical(fp: FisherParams) -> float:
    """Per-pulse Fisher information of bare probe counting (eta_H = 0)."""
    nu = fp.nu_pairs_per_s
    denom = nu * fp.eta_p + fp.nu_noise_per_s
    if denom <= 0:
        return math.nan
    return nu * nu / denom * fp.t_pump_s


@dataclass(frozen=True)
class FisherEnhancement:
    total: float
    coincidence_term: float
    herald_term: float
    probe_term: float

    @property
    def coincidence_share(self) -> float:
        return self.coincidence_term / self.total


def fisher_enhancement(fp: FisherParams) -> FisherEnhancement:
    """I_Q / I_C with the three additive contributions reported separately."""
    r_cc, r_p, r_h = fisher_rates(fp)
    scale = fp.nu_pairs_per_s * fp.eta_p + fp.nu_noise_per_s
    eh = fp.eta_h
    t_cc = eh * eh / r_cc * scale if r_cc > 0 else math.nan
    t_h = eh * eh / r_h * scale if r_h > 0 else (0.0 if eh == 0 else math.nan)
    t_p = (1.0 - eh) ** 2 / r_p * scale if r_p > 0 else math.nan
    if eh == 0.0:
        t_cc = 0.0
        t_h = 0.0
    return FisherEnhancement(t_cc + t_h + t_p, t_cc, t_h, t_p)


class OracleError(RuntimeError):
    """Numeric Fisher oracle could not cover enough probability mass."""


def _log_poisson_pmf(n: np.ndarray, lam: float) -> np.ndarray:
    from scipy.special import gammaln
    return n * math.log(lam) - lam - gammaln(n + 1.0)


def fisher_numeric_oracle(fp: FisherParams, truncation: int | None = None,
                          delta: float = 1e-5) -> float:
    """Brute-force I_Q: truncated triple-Poisson sum with finite differences.

    Sums P * (d log P / d eta_P)^2 over the (N_CC, N_H, N_P) grid, with the
    score from central differences of the log-likelihood in eta_P.  Stays
    independent of the closed form on purpose.
    """
    rates = fisher_rates(fp)
    lams = [r * fp.t_pump_s for r in rates]
    if truncation is None:
        truncation = int(max(lams) + 12.0 * math.sqrt(max(lams)) + 8.0)
    rates_hi = fisher_rates(fp, eta_p=fp.eta_p + delta)
    rates_lo = fisher_rates(fp, eta_p=fp.eta_p - delta)
    n = np.arange(truncation + 1, dtype=np.float64)

    log_center, score_1d = [], []
    for lam, r_hi, r_lo in zip(lams, rates_hi, rates_lo):
        log_center.append(_log_poisson_pmf(n, lam))
        hi = _log_poisson_pmf(n, r_hi * fp.t_pump_s)
        lo = _log_poisson_pmf(n, r_lo * fp.t_pump_s)
        score_1d.append((hi - lo) / (2.0 * delta))

    prob = np.exp(log_center[0][:, None, None] + log_center[1][None, :, None]
                  + log_center[2][None, None, :])
    mass = prob.sum()
    if mass < 1.0 - 1e-10:
        raise OracleError(
            f"truncation {truncation} covers only {mass:.12f} of the mass")
    score = (score_1d[0][:, None, None] + score_1d[1][None, :, None]
             + score_1d[2][None, None, :])
    return float((prob * score * score).sum())


def fisher_numeric_oracle_classical(fp: FisherParams, truncation: int | None = None,
                                    delta: float = 1e-5) -> float:
    """Single-channel oracle for I_C: Poisson probe counting only."""
    nu, nb = fp.nu_pairs_per_s, fp.nu_noise_per_s

    def lam(eta):
        return (nu * eta + nb) * fp.t_pump_s

    lam0 = lam(fp.eta_p)
    if truncation is None:
        truncation = int(lam0 + 12.0 * math.sqrt(lam0) + 8.0)
    n = np.arange(truncation + 1, dtype=np.float64)
    prob = np.exp(_log_poisson_pmf(n, lam0))
    if prob.sum() < 1.0 - 1e-10:
        raise OracleError(f"truncation {truncation} insufficient")
    score = (_log_poisson_pmf(n, lam(fp.eta_p + delta))
             - _log_poisson_pmf(n, lam(fp.eta_p - delta))) / (2.0 * delta)
    return float((prob * score * score).sum())
