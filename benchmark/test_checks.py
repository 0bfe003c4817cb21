"""Self-tests of the benchmark's output checks: each passes on real program
output and trips on a deliberately wrong input.

Run from the repository root:  python3 -m pytest benchmark
"""

import dataclasses
import itertools
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from qeplidar import pipeline  # noqa: E402
from qeplidar.detect import CH_HERALD, CH_PROBE, CH_REF, merge_streams  # noqa: E402


def _scenario(name, **changes):
    w = dataclasses.replace(workloads.WORKLOADS[name], **changes)
    return w, workloads.build_scenario(w, 1, ROOT)


@pytest.fixture(scope="module")
def baseline():
    _, config = _scenario("baseline_scene", duration_s=0.25)
    streams = pipeline.simulate(config)
    return config, streams, pipeline.analyze(streams, config).to_dict()


@pytest.fixture(scope="module")
def dead_timed():
    _, config = _scenario("dead_time", duration_s=0.005)
    return config, pipeline.simulate(config)


@pytest.fixture(scope="module")
def sweep():
    w, config = _scenario("noise_sweep", duration_s=0.1)
    return w, config, pipeline.sweep(config, workloads.SWEEP_PARAMETER,
                                     w.sweep_noise)


def test_counts_pass_on_real_streams(baseline):
    config, streams, _ = baseline
    assert checks.ref_count(streams, config) == []
    assert checks.herald_count(streams, config) == []


def test_herald_expectation_with_other_eta_h_trips(baseline):
    config, streams, _ = baseline
    channels = dataclasses.replace(
        config.channels, herald_efficiency=0.9 * config.channels.herald_efficiency)
    wrong = dataclasses.replace(config, channels=channels)
    assert checks.herald_count(streams, wrong)


def test_targets_pass_on_real_report(baseline):
    config, _, report = baseline
    assert checks.targets_matched(report, config) == []


def test_target_shifted_5cm_trips(baseline):
    config, _, report = baseline
    matches, _ = checks.matched_targets(report, config)
    shifted = dict(report, targets=[dict(t) for t in report["targets"]])
    for t in shifted["targets"]:
        if t["id"] == matches["t3"]:
            t["distance_m"] += 0.05
    assert checks.targets_matched(shifted, config)


def test_dead_time_checks_pass_on_real_streams(dead_timed):
    config, streams = dead_timed
    assert checks.dead_time_gaps(streams, config) == []
    assert checks.dead_time_probe_count(streams, config) == []
    assert checks.herald_count(streams, config) == []


def test_dead_timed_tag_moved_inside_tau_trips(dead_timed):
    config, streams = dead_timed
    label = "probe:off|noise:on"
    s = streams[label]
    per_channel = {ch: s.timestamps[s.channels == ch].copy()
                   for ch in (CH_REF, CH_HERALD, CH_PROBE)}
    probe = per_channel[CH_PROBE]
    tau = config.detectors["probe"].dead_time_ps
    probe[100] = probe[99] + int(tau) // 2
    moved = merge_streams(per_channel, s.duration_ps, s.fingerprint,
                          s.period_ps_rounded)
    assert checks.dead_time_gaps(dict(streams, **{label: moved}), config)


def test_sweep_checks_pass_on_real_sweep(sweep):
    w, config, rows = sweep
    assert checks.sweep_targets(rows, config, w.sweep_noise) == []
    slope, tolerance, problems = checks.sweep_slope(rows, config, w.sweep_noise)
    assert problems == [], (slope, tolerance)


@pytest.mark.parametrize("perm", [p for p in itertools.permutations(range(3))
                                  if p != (0, 1, 2)])
def test_sweep_with_permuted_noise_values_trips(sweep, perm):
    w, config, rows = sweep
    relabel = {v: w.sweep_noise[k] for v, k in zip(w.sweep_noise, perm)}
    permuted = [dict(r, value=relabel[r["value"]]) for r in rows]
    assert checks.sweep_slope(permuted, config, w.sweep_noise)[2]


def test_reread_identical_trips_on_one_changed_tag(baseline):
    _, streams, _ = baseline
    label, s = next(iter(streams.items()))
    changed = dataclasses.replace(s, timestamps=s.timestamps.copy())
    changed.timestamps[-1] += 1
    assert checks.reread_identical(streams, streams) == []
    assert checks.reread_identical(streams, {**streams, label: changed})
