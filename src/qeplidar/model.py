"""Physical constants and spectral/temporal unit conversions.

Single home of the speed of light and of the nm <-> THz conversions used
everywhere else.  Internal conventions: frequencies in THz, wavelengths in
nm, time tags in integer picoseconds, analytic (pre-jitter) times in float
picoseconds.
"""

from __future__ import annotations

import math

# Speed of light, exact by SI definition.
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

# c expressed in the unit products used by the converters below.
C_NM_THZ = 299_792.458          # lambda[nm] * f[THz]
C_NM_GHZ = 299_792_458.0        # lambda[nm] * f[GHz]
C_M_PER_PS = SPEED_OF_LIGHT_M_PER_S * 1e-12
C_CM_PER_PS = C_M_PER_PS * 100.0

PS_PER_S = 1e12
PS_PER_NS = 1e3


def wavelength_to_frequency(wavelength_nm: float) -> float:
    """Convert a vacuum wavelength in nm to a frequency in THz."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm} nm")
    return C_NM_THZ / wavelength_nm


def frequency_to_wavelength(frequency_thz: float) -> float:
    """Convert a frequency in THz to a vacuum wavelength in nm."""
    if frequency_thz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_thz} THz")
    return C_NM_THZ / frequency_thz


def bandwidth_wavelength_to_frequency(delta_nm: float, center_nm: float) -> float:
    """First-order conversion of a wavelength bandwidth to GHz.

    delta_f = c * delta_lambda / lambda0**2, evaluated at the band center.
    """
    if delta_nm < 0:
        raise ValueError(f"bandwidth must be non-negative, got {delta_nm} nm")
    if center_nm <= 0:
        raise ValueError(f"center wavelength must be positive, got {center_nm} nm")
    return C_NM_GHZ * delta_nm / (center_nm * center_nm)


def bandwidth_frequency_to_wavelength(delta_ghz: float, center_nm: float) -> float:
    """Inverse of :func:`bandwidth_wavelength_to_frequency`."""
    if delta_ghz < 0:
        raise ValueError(f"bandwidth must be non-negative, got {delta_ghz} GHz")
    if center_nm <= 0:
        raise ValueError(f"center wavelength must be positive, got {center_nm} nm")
    return delta_ghz * center_nm * center_nm / C_NM_GHZ


def fwhm_to_sigma(fwhm: float) -> float:
    """Gaussian FWHM -> standard deviation."""
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def sigma_to_fwhm(sigma: float) -> float:
    return sigma * (2.0 * math.sqrt(2.0 * math.log(2.0)))
