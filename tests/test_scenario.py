import json
import os

import numpy as np
import pytest

from qeplidar.channel import DispersionModel, GratingSpec
from qeplidar.detect import DetectorSpec
from qeplidar.scenario import (
    ScenarioError,
    SweepSpec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from qeplidar.source import PhaseMatchModel, PumpSpec

from conftest import loopback_scenario, scene_scenario, five_target_scene

BASELINE = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "paper_baseline.json")


def _minimal_dict(**overrides):
    data = {
        "version": 1,
        "pump": {"repetition_rate_mhz": 19.27, "center_wavelength_nm": 1540.56,
                 "spectral_fwhm_ghz": 31.6},
        "rates": {"pair_rate_per_pulse": 0.01},
        "herald_band": {"center_nm": 1530.0, "width_nm": 13.0},
        "probe_band": {"center_nm": 1551.0, "width_nm": 13.0},
        "channels": {"probe_efficiency": 0.5, "herald_efficiency": 0.5,
                     "loopback": True},
        "detectors": {"ref": {}, "herald": {}, "probe": {}},
        "duration_s": 0.01,
        "seed": 1,
    }
    data.update(overrides)
    return data


def test_bundled_baseline_loads_clean():
    config = load_scenario(BASELINE)
    assert config.validate() == []
    assert len(config.scene) == 5
    assert config.pump.repetition_rate_mhz == 19.27
    with open(BASELINE) as fh:
        assert config.to_dict() == json.load(fh)


def test_omitted_keys_take_the_model_defaults():
    config = scenario_from_dict(_minimal_dict())
    assert config.grating == GratingSpec()
    assert config.dispersion == DispersionModel()
    assert config.phase_match == PhaseMatchModel()
    assert config.detectors == {name: DetectorSpec()
                                for name in ("ref", "herald", "probe")}
    assert config.pump.pulse_duration_ps == \
        PumpSpec.from_wavelength(19.27, 1540.56, 31.6).pulse_duration_ps


def test_negative_efficiency_names_field():
    data = _minimal_dict()
    data["channels"]["probe_efficiency"] = -0.2
    with pytest.raises(ScenarioError, match="probe"):
        scenario_from_dict(data)


def test_overlapping_targets_rejected():
    targets = five_target_scene()
    targets[1]["center_wavelength_nm"] = targets[0]["center_wavelength_nm"] + 0.1
    data = _minimal_dict(scene=targets)
    data["channels"]["loopback"] = False
    with pytest.raises(ScenarioError, match="overlap"):
        scenario_from_dict(data)


def test_unknown_key_is_error():
    data = _minimal_dict()
    data["pump"]["color"] = "blue"
    with pytest.raises(ScenarioError, match="unknown key 'color'"):
        scenario_from_dict(data)
    data = _minimal_dict(extra_section=1)
    with pytest.raises(ScenarioError, match="unknown key 'extra_section'"):
        scenario_from_dict(data)


def test_all_violations_collected():
    data = _minimal_dict()
    data["channels"]["probe_efficiency"] = -0.2
    data["rates"]["pair_rate_per_pulse"] = -1.0
    data["pump"]["spectral_fwhm_ghz"] = 0.0
    try:
        scenario_from_dict(data)
    except ScenarioError as exc:
        assert len(exc.violations) >= 3
    else:
        pytest.fail("expected ScenarioError")


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_missing_keys_reported():
    with pytest.raises(ScenarioError, match="missing required key"):
        scenario_from_dict({"version": 1})


def test_round_trip_preserves_fingerprint(tmp_path):
    config = load_scenario(BASELINE)
    path = tmp_path / "copy.json"
    save_scenario(config, path)
    again = load_scenario(path)
    assert again.fingerprint() == config.fingerprint()


def test_seed_override_changes_fingerprint():
    config = load_scenario(BASELINE)
    other = config.with_seed(config.seed + 1)
    assert other.fingerprint() != config.fingerprint()


def test_bad_configuration_label():
    data = _minimal_dict(configurations=["probe:maybe|noise:on"])
    with pytest.raises(ScenarioError, match="configuration"):
        scenario_from_dict(data)


def test_sweep_spec_path_validation():
    config = loopback_scenario(duration_s=0.001)
    spec = SweepSpec("channels.noise_rate_per_s", (0.0, 10.0), config)
    values = [v for v, _ in spec.scenarios()]
    assert values == [0.0, 10.0]
    with pytest.raises(ValueError, match="not in scenario"):
        SweepSpec("channels.does_not_exist", (1.0,), config)


def test_sweep_scenarios_apply_value():
    config = loopback_scenario(duration_s=0.001)
    spec = SweepSpec("rates.pair_rate_per_pulse", (0.005,), config)
    _, swept = next(iter(spec.scenarios()))
    assert swept.rates.pair_rate == 0.005
