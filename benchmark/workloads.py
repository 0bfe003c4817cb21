"""The benchmark's workloads: the scenario each one builds and one round of it.

A round is what ``wall_s`` times.  For a scene workload it is the CLI's
simulate -> write QTT1 -> read QTT1 -> analyze -> report.json path; for the
sweep it is one ``pipeline.sweep`` call plus its CSV.  Every call goes
through the module attribute (``pipeline.simulate``, ``detect.write_tags``)
so that the traced run can wrap it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from qeplidar import detect, pipeline
from qeplidar.channel import GratingSpec, angular_dispersion
from qeplidar.scenario import ScenarioConfig, load_scenario, scenario_from_dict

BASELINE_FILE = os.path.join("scenarios", "paper_baseline.json")

# Injected background that puts the wide-band scene at ~29.7 dB noise
# intensity, the paper's high-noise split (acceptance criterion 08).
HIGH_NOISE_PER_S = 4.75e7

SWEEP_PARAMETER = "channels.noise_rate_per_s"


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str                   # "baseline" (bundled file) or "wide_band"
    duration_s: float
    noise_rate_per_s: float = 0.0   # wide-band scene only
    dead_time_ps: float = 0.0
    sweep_noise: tuple = ()      # non-empty: a round is a sweep over these

    @property
    def points(self) -> int:
        """Operations in one round: scenarios simulated and analysed."""
        return len(self.sweep_noise) or 1


WORKLOADS = {w.name: w for w in (
    Workload("baseline_scene", "baseline", duration_s=0.5),
    Workload("high_noise", "wide_band", duration_s=0.2,
             noise_rate_per_s=HIGH_NOISE_PER_S),
    Workload("dead_time", "wide_band", duration_s=0.05,
             noise_rate_per_s=HIGH_NOISE_PER_S, dead_time_ps=100_000.0),
    Workload("noise_sweep", "baseline", duration_s=0.3,
             sweep_noise=(1e5, 1e6, 1e7)),
)}


def wide_band_scene() -> list:
    """Five 3.2 nm reflectors with 0.5 nm dark gaps across an 18 nm band."""
    grating = GratingSpec()
    centers = [1543.6, 1547.3, 1551.0, 1554.7, 1558.4]
    distances = [0.60, 0.85, 1.10, 1.30, 1.45]
    return [{"id": f"t{k + 1}", "center_wavelength_nm": c,
             "angular_halfwidth_deg": float(angular_dispersion(c, grating)) * 1.6,
             "distance_m": d, "roundtrip_efficiency": 0.85}
            for k, (c, d) in enumerate(zip(centers, distances))]


def _wide_band_dict(w: Workload) -> dict:
    """The criterion-08 wide-band five-target scene."""
    return {
        "version": 1,
        "pump": {"repetition_rate_mhz": 19.27, "center_wavelength_nm": 1540.56,
                 "spectral_fwhm_ghz": 31.6},
        "rates": {"pair_rate_per_pulse": 0.01},
        "herald_band": {"center_nm": 1530.0, "width_nm": 18.0},
        "probe_band": {"center_nm": 1551.0, "width_nm": 18.0},
        "channels": {"probe_efficiency": 0.35, "herald_efficiency": 0.45,
                     "noise_rate_per_s": w.noise_rate_per_s, "loopback": False},
        "detectors": {
            "ref": {"jitter_fwhm_ps": 18.84},
            "herald": {"jitter_fwhm_ps": 89.90, "dead_time_ps": w.dead_time_ps},
            "probe": {"jitter_fwhm_ps": 66.43, "dead_time_ps": w.dead_time_ps},
        },
        "scene": wide_band_scene(),
        "duration_s": w.duration_s,
        "seed": 0,
        "configurations": ["probe:on|noise:on", "probe:off|noise:on"],
        "ref_divider": 16,
    }


def build_scenario(w: Workload, seed: int, root: str) -> ScenarioConfig:
    """The workload's scenario; the benchmark seed is the scenario seed."""
    if w.scene == "baseline":
        data = load_scenario(os.path.join(root, BASELINE_FILE)).to_dict()
        data["duration_s"] = w.duration_s
    else:
        data = _wide_band_dict(w)
    data["seed"] = seed
    return scenario_from_dict(data)


def stream_path(out_dir: str, label: str) -> str:
    safe = label.replace(":", "-").replace("|", "_")
    return os.path.join(out_dir, f"tags_{safe}.qtt")


@dataclass
class RoundOutput:
    path: str                        # report.json, or the sweep CSV
    streams: dict | None = None      # in-memory streams (scene workloads)
    reread: dict | None = None       # the same streams read back from QTT1
    rows: list | None = None         # sweep rows


def run_round(w: Workload, config: ScenarioConfig, out_dir: str,
              threads: int) -> RoundOutput:
    if w.sweep_noise:
        rows = pipeline.sweep(config, SWEEP_PARAMETER, w.sweep_noise,
                              threads=threads)
        csv_path = os.path.join(out_dir, "sweep.csv")
        pipeline.sweep_rows_to_csv(rows, csv_path)
        return RoundOutput(csv_path, rows=rows)
    streams = pipeline.simulate(config, threads=threads)
    for label, stream in streams.items():
        detect.write_tags(stream, stream_path(out_dir, label))
    reread = {label: detect.read_tags(stream_path(out_dir, label))
              for label in streams}
    report_path = os.path.join(out_dir, "report.json")
    pipeline.analyze(reread, config).to_json(report_path)
    return RoundOutput(report_path, streams, reread)
