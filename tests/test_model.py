import math

import pytest
from hypothesis import given, strategies as st

from qeplidar.model import (
    C_NM_GHZ,
    bandwidth_frequency_to_wavelength,
    bandwidth_wavelength_to_frequency,
    frequency_to_wavelength,
    wavelength_to_frequency,
)


def test_pump_wavelength_matches_center_frequency():
    assert wavelength_to_frequency(1540.56) == pytest.approx(194.60, abs=0.01)


def test_probe_center_frequency():
    assert wavelength_to_frequency(1551.0) == pytest.approx(193.290, abs=0.001)


def test_pump_bandwidth_conversion():
    assert bandwidth_wavelength_to_frequency(0.25, 1540.56) == pytest.approx(
        31.6, abs=0.1)


def test_band_width_conversion():
    expected = C_NM_GHZ * 13.0 / 1551.0 ** 2
    got = bandwidth_wavelength_to_frequency(13.0, 1551.0)
    assert got == pytest.approx(expected)
    assert got == pytest.approx(1620.0, abs=5.0)


def test_zero_bandwidth():
    assert bandwidth_wavelength_to_frequency(0.0, 1551.0) == 0.0


def test_nonpositive_inputs_rejected():
    with pytest.raises(ValueError):
        wavelength_to_frequency(0.0)
    with pytest.raises(ValueError):
        wavelength_to_frequency(-5.0)
    with pytest.raises(ValueError):
        frequency_to_wavelength(0.0)
    with pytest.raises(ValueError):
        bandwidth_wavelength_to_frequency(0.1, -1.0)
    with pytest.raises(ValueError):
        bandwidth_wavelength_to_frequency(-0.1, 1551.0)


@given(st.floats(1500.0, 1600.0))
def test_roundtrip_is_involution(wavelength):
    back = frequency_to_wavelength(wavelength_to_frequency(wavelength))
    assert abs(back - wavelength) / wavelength < 1e-9


@given(st.floats(0.01, 5.0), st.floats(0.1, 10.0), st.floats(1500.0, 1600.0))
def test_bandwidth_linear_in_width(delta, scale, center):
    one = bandwidth_wavelength_to_frequency(delta, center)
    scaled = bandwidth_wavelength_to_frequency(delta * scale, center)
    assert scaled == pytest.approx(one * scale, rel=1e-12)


@given(st.floats(0.01, 20.0), st.floats(1500.0, 1600.0))
def test_bandwidth_roundtrip(delta, center):
    ghz = bandwidth_wavelength_to_frequency(delta, center)
    assert bandwidth_frequency_to_wavelength(ghz, center) == pytest.approx(
        delta, rel=1e-12)
