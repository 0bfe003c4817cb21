"""Scenario configuration: JSON schema, strict validation, fingerprinting.

The on-disk schema is versioned JSON with wavelength inputs in nm (converted
once at the boundary).  An object section's file keys and defaults are the
parameters of the constructor it builds, read from its signature:
``PumpSpec.from_wavelength``, ``EmissionRates``, ``GratingSpec``,
``DetectorSpec`` and so on.  The only exceptions: ``rates`` keys end in
``_per_pulse``, ``DispersionModel.validity_band_nm`` is no file key,
``channels`` requires both efficiencies, and a scene entry's ``id`` defaults
to ``target{i}``.  Unknown keys are errors, not warnings; a typo in a physics
parameter must not silently revert to a default.  A section that is not an
object is an error too, and so is a null, except that the optional sections
(``phase_match``, ``dispersion``, ``grating``, ``scene``) may be null for
their defaults.  Validation collects every violation instead of failing on
the first.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, fields, replace
from functools import partial

from .channel import (ChannelSpec, DispersionModel, GratingSpec, Target,
                      diffraction_angle, validate_scene)
from .detect import DetectorSpec
from .source import EmissionRates, PhaseMatchModel, PumpSpec, SpectralBand

SCHEMA_VERSION = 1

CONFIG_LABELS = (
    "probe:on|noise:on",
    "probe:off|noise:on",
    "probe:on|noise:off",
    "probe:off|noise:off",
)


class ScenarioError(ValueError):
    """Scenario failed validation; .violations lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated experiment."""

    pump: PumpSpec
    rates: EmissionRates
    phase_match: PhaseMatchModel
    herald_band: SpectralBand
    probe_band: SpectralBand
    dispersion: DispersionModel
    grating: GratingSpec
    scene: tuple
    channels: ChannelSpec
    detectors: dict
    duration_s: float
    seed: int
    configurations: tuple = ("probe:on|noise:on",)
    ref_divider: int = 1
    description: str = ""

    @property
    def n_pulses(self) -> int:
        return int(round(self.duration_s * self.pump.repetition_rate_mhz * 1e6))

    @property
    def duration_ps(self) -> float:
        return self.duration_s * 1e12

    def validate(self) -> list:
        """Every cross-field invariant; returns the list of violations."""
        problems = []
        if self.duration_s < 0:
            problems.append("duration must be non-negative")
        if not 0 <= self.seed < 2 ** 64:
            problems.append("seed must fit in 64 bits")
        if self.ref_divider < 1:
            problems.append("ref_divider must be >= 1")
        if self.herald_band.overlaps(self.probe_band):
            problems.append("herald and probe bands overlap")
        for label in self.configurations:
            if label not in CONFIG_LABELS:
                problems.append(f"unknown configuration label {label!r}")
        for key in ("ref", "herald", "probe"):
            if key not in self.detectors:
                problems.append(f"missing detector spec for channel {key!r}")
        if not self.channels.loopback:
            problems.extend(validate_scene(self.scene, self.grating))
            for band_edge in (self.probe_band.lo_nm, self.probe_band.hi_nm):
                try:
                    diffraction_angle(band_edge, self.grating)
                except (TypeError, ValueError) as exc:
                    problems.append(str(exc))
        try:
            self.dispersion.arrival_shift_ps(self.herald_band.lo_nm)
            self.dispersion.arrival_shift_ps(self.probe_band.hi_nm)
        except (TypeError, ValueError) as exc:
            problems.append(str(exc))
        return problems

    def to_dict(self) -> dict:
        """The scenario as the JSON object a file holds."""
        out = {key: _plain(getattr(self, key), keys)
               for key, (_, keys) in _SECTIONS.items()}
        out["scene"] = [_plain(t, _TARGET[1]) for t in self.scene]
        out["detectors"] = {name: _plain(spec, _DETECTOR[1])
                            for name, spec in self.detectors.items()}
        out.update(_plain(self, {key: _FIELDS[key] for key in _SCALARS}))
        return {"version": SCHEMA_VERSION, **out}

    def fingerprint(self) -> bytes:
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":")).encode()
        return hashlib.sha256(canonical).digest()

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


_REQUIRED = inspect.Parameter.empty


def _schema(build, rename=(), drop=(), **defaults):
    """(constructor, file key -> (parameter, default)) for one section, read
    from the constructor's signature; _REQUIRED marks a required key."""
    rename = dict(rename)
    return build, {rename.get(p.name, p.name): (p.name, defaults.get(p.name, p.default))
                   for p in inspect.signature(build).parameters.values()
                   if p.name not in drop}


# Every object section in file order.  Keys and defaults are the
# constructor's own; the exceptions are the arguments written here.
_SECTIONS = {
    "pump": _schema(PumpSpec.from_wavelength),
    "rates": _schema(EmissionRates, rename={
        f.name: f.name + "_per_pulse" for f in fields(EmissionRates)}),
    "phase_match": _schema(PhaseMatchModel),
    "herald_band": _schema(SpectralBand),
    "probe_band": _schema(SpectralBand),
    "dispersion": _schema(DispersionModel, drop=("validity_band_nm",)),
    "grating": _schema(GratingSpec),
    "channels": _schema(ChannelSpec, probe_efficiency=_REQUIRED,
                        herald_efficiency=_REQUIRED),
}
_TARGET = _schema(Target, id=None)          # id defaults to target{i}
_DETECTOR = _schema(DetectorSpec)
_CHANNELS = ("ref", "herald", "probe")
_SCALARS = {"duration_s": float, "seed": int, "configurations": tuple,
            "ref_divider": int, "description": str}
# Sections a file may omit or set to null: they take their defaults.
_OPTIONAL = {"phase_match": {}, "dispersion": {}, "grating": {}, "scene": []}
_FIELDS = _schema(ScenarioConfig, **_OPTIONAL)[1]
_TOP = {"version": ("version", _REQUIRED), **_FIELDS}


def _plain(obj, keys) -> dict:
    """One section back as its file keys; tuples become JSON lists."""
    values = {key: getattr(obj, param) for key, (param, _) in keys.items()}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def _read(data, keys, context, problems):
    """Constructor arguments from one JSON object; records every missing
    required key and unknown key.  None for a non-object or a missing key."""
    if not isinstance(data, dict):
        problems.append(f"{context}: expected an object")
        return None
    missing = [key for key, (_, default) in keys.items()
               if default is _REQUIRED and key not in data]
    problems.extend(f"{context}: missing required key {key!r}" for key in missing)
    problems.extend(f"{context}: unknown key {key!r}" for key in data if key not in keys)
    return None if missing else {
        param: data[key] for key, (param, _) in keys.items() if key in data}


def _section(build, keys, data, context, problems, **fill):
    """One object section built; its errors are recorded under context."""
    args = _read(data, keys, context, problems)
    if args is None:
        return None
    nulls = [f"{context}.{key}: must not be null"
             for key, value in data.items() if key in keys and value is None]
    if nulls:
        problems.extend(nulls)
        return None
    try:
        return build(**{**fill, **args})
    except (TypeError, ValueError) as exc:
        problems.append(f"{context}: {exc}")
        return None


def _scene(entries, context, problems):
    if not isinstance(entries, list):
        problems.append(f"{context}: expected a list")
        return ()
    targets = [_section(*_TARGET, entry, f"{context}[{i}]", problems,
                        id=f"target{i}") for i, entry in enumerate(entries)]
    return tuple(t for t in targets if t is not None)


def _detectors(data, context, problems):
    if not isinstance(data, dict):
        problems.append(f"{context}: expected an object")
        return {}
    problems.extend(f"{context}: unknown channel {key!r}"
                    for key in sorted(set(data) - set(_CHANNELS)))
    specs = {}
    for name in _CHANNELS:
        if data.get(name) is None:
            problems.append(f"{context}: missing channel {name!r}")
        else:
            specs[name] = _section(*_DETECTOR, data[name], f"{context}.{name}",
                                   problems)
    return specs


def _scalar(convert, value, context, problems):
    try:
        if value is None:
            raise ValueError("must not be null")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        problems.append(f"{context}: {exc}")


_PARSE = {"scene": _scene, "detectors": _detectors,
          **{key: partial(_section, *spec) for key, spec in _SECTIONS.items()},
          **{key: partial(_scalar, convert) for key, convert in _SCALARS.items()}}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and fully validate a scenario; raises ScenarioError listing
    every violation when anything is wrong."""
    problems: list = []
    _read(data, _TOP, "scenario", problems)
    if data.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
        problems.append(f"unsupported schema version {data['version']}")
    args = {}
    for key, (_, default) in _FIELDS.items():
        value = data.get(key, default)
        if value is None and key in _OPTIONAL:
            value = default
        if value is not _REQUIRED:
            args[key] = _PARSE[key](value, key, problems)
    if problems:
        raise ScenarioError(problems)
    config = ScenarioConfig(**args)
    problems = config.validate()
    if problems:
        raise ScenarioError(problems)
    return config


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                [f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
                 f"{exc.msg}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: top level must be an object"])
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class SweepSpec:
    """One swept scenario parameter and the values to visit."""

    parameter: str                 # dotted path into the scenario dict
    values: tuple
    base: ScenarioConfig

    def __post_init__(self):
        # fail early if the path does not exist in the schema
        node = self.base.to_dict()
        for part in self.parameter.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"swept path {self.parameter!r} not in scenario")
            node = node[part]

    def scenarios(self):
        for value in self.values:
            data = self.base.to_dict()
            node = data
            parts = self.parameter.split(".")
            for part in parts[:-1]:
                node = node[part]
            node[parts[-1]] = value
            yield value, scenario_from_dict(data)
