import json
import math
import os

import numpy as np
import pytest

from qeplidar import cli
from qeplidar.analysis import build_jti, fold_to_pulse_frame
from qeplidar.detect import (CH_HERALD, CH_PROBE, CH_REF, apply_dead_time,
                             read_tags, write_tags)
from qeplidar.pipeline import (
    FingerprintMismatchError,
    analyze,
    simulate,
    sweep,
    sweep_rows_to_csv,
)
from qeplidar.scenario import load_scenario, save_scenario

from conftest import five_target_scene, loopback_scenario, scene_scenario

ON = "probe:on|noise:on"
OFF = "probe:off|noise:on"


def test_zero_duration_yields_valid_empty_streams():
    config = loopback_scenario(duration_s=0.0)
    streams = simulate(config)
    for stream in streams.values():
        assert len(stream) == 0
        assert stream.fingerprint == config.fingerprint()


def test_rerun_is_bit_identical(tmp_path):
    config = loopback_scenario(duration_s=0.01, noise_rate=5e5)
    a = simulate(config)[ON]
    b = simulate(config)[ON]
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.channels, b.channels)
    p1, p2 = tmp_path / "a.qtt", tmp_path / "b.qtt"
    write_tags(a, p1)
    write_tags(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_block_size_and_threads_do_not_change_output():
    config = loopback_scenario(duration_s=0.005)
    a = simulate(config, block_pulses=1 << 14)
    b = simulate(config, block_pulses=1 << 11)
    c = simulate(config, block_pulses=1 << 13, threads=2)
    for label in a:
        assert np.array_equal(a[label].timestamps, b[label].timestamps)
        assert np.array_equal(a[label].timestamps, c[label].timestamps)


def test_common_random_numbers_across_configurations():
    # probe:on and probe:off share noise and dark realizations exactly
    config = loopback_scenario(duration_s=0.01, noise_rate=1e6, dark_p=500.0)
    streams = simulate(config)
    on_probe = streams[ON].channel_times(CH_PROBE)
    off_probe = streams[OFF].channel_times(CH_PROBE)
    # every off tag appears in the on stream (same noise + darks)
    assert np.isin(off_probe, on_probe).all()
    assert on_probe.size > off_probe.size
    # herald channel identical in both
    assert np.array_equal(streams[ON].channel_times(CH_HERALD),
                          streams[OFF].channel_times(CH_HERALD))


def test_dead_time_filters_each_merged_channel_once():
    # Dead time draws no randomness, so every dead-timed channel equals the
    # same-seed channel without dead time passed through apply_dead_time.
    tau = {CH_HERALD: 1e6, CH_PROBE: 1e5}
    scenario = dict(duration_s=0.01, noise_rate=5e6, dark_h=2e4, dark_p=2e4,
                    configurations=(ON, OFF, "probe:on|noise:off",
                                    "probe:off|noise:off"))
    plain = simulate(loopback_scenario(**scenario))
    detectors = {
        "ref": {"jitter_fwhm_ps": 18.8},
        "herald": {"jitter_fwhm_ps": 89.9, "dark_rate_per_s": 2e4,
                   "dead_time_ps": tau[CH_HERALD]},
        "probe": {"jitter_fwhm_ps": 66.43, "dark_rate_per_s": 2e4,
                  "dead_time_ps": tau[CH_PROBE]},
    }
    timed = simulate(loopback_scenario(**scenario, detectors=detectors))
    assert set(timed) == set(plain)
    dropped = dict.fromkeys(tau, 0)
    for label in plain:
        assert np.array_equal(timed[label].channel_times(CH_REF),
                              plain[label].channel_times(CH_REF))
        for ch, dead in tau.items():
            before = plain[label].channel_times(ch)
            kept = timed[label].channel_times(ch)
            assert np.array_equal(kept, apply_dead_time(before, dead)), label
            assert np.all(np.diff(kept) > dead)
            dropped[ch] += before.size - kept.size
    assert all(dropped.values())


def test_ref_dead_time_applied():
    # REF tags 51.9 ns apart under a 60 ns dead time: every other one stays
    tau = 60_000.0
    scenario = dict(duration_s=0.002)
    plain = simulate(loopback_scenario(**scenario))
    detectors = {
        "ref": {"jitter_fwhm_ps": 18.8, "dead_time_ps": tau},
        "herald": {"jitter_fwhm_ps": 89.9},
        "probe": {"jitter_fwhm_ps": 66.43},
    }
    timed = simulate(loopback_scenario(**scenario, detectors=detectors))
    for label in plain:
        before = plain[label].channel_times(CH_REF)
        kept = timed[label].channel_times(CH_REF)
        assert np.array_equal(kept, apply_dead_time(before, tau))
        assert kept.size == pytest.approx(before.size / 2, abs=1)
        for ch in (CH_HERALD, CH_PROBE):
            assert np.array_equal(timed[label].channel_times(ch),
                                  plain[label].channel_times(ch))


def test_seed_changes_stream():
    a = simulate(loopback_scenario(duration_s=0.005, seed=1))[ON]
    b = simulate(loopback_scenario(duration_s=0.005, seed=2))[ON]
    assert not np.array_equal(a.timestamps, b.timestamps)


def test_ref_divider_thins_ref_channel():
    config = loopback_scenario(duration_s=0.002, ref_divider=16)
    stream = simulate(config)[ON]
    n_ref = np.count_nonzero(stream.channels == CH_REF)
    assert n_ref == math.ceil(config.n_pulses / 16)


def test_analysis_of_file_equals_analysis_of_memory(tmp_path):
    config = loopback_scenario(duration_s=0.02, noise_rate=2e5)
    streams = simulate(config)
    report_mem = analyze(streams, config)
    reread = {}
    for label, stream in streams.items():
        path = tmp_path / f"{label.replace(':', '-').replace('|', '_')}.qtt"
        write_tags(stream, path)
        reread[label] = read_tags(path)
    report_file = analyze(reread, config)
    assert report_mem.to_json() == report_file.to_json()


def test_fingerprint_mismatch_refused():
    config = loopback_scenario(duration_s=0.002)
    streams = simulate(config)
    other = loopback_scenario(duration_s=0.002, seed=999)
    with pytest.raises(FingerprintMismatchError):
        analyze(streams, other)


def test_report_embeds_fingerprint_and_version():
    config = loopback_scenario(duration_s=0.01)
    report = analyze(simulate(config), config)
    data = json.loads(report.to_json())
    assert data["fingerprint"] == config.fingerprint().hex()
    assert data["tool_version"]
    assert set(data) >= {"car", "snr", "esnr", "targets", "resolution",
                         "randomness", "calibration"}


def test_scene_pipeline_recovers_targets():
    config = scene_scenario(five_target_scene(), duration_s=0.3,
                            pair_rate=0.015, eta_p=0.6, eta_h=0.6)
    report = analyze(simulate(config), config)
    assert len(report.targets) == 5
    truth = sorted(t.distance_m for t in config.scene)
    got = sorted(t.distance_m for t in report.targets)
    for a, b in zip(truth, got):
        assert a == pytest.approx(b, abs=0.022)


def test_esnr_invariant_under_probe_loss():
    # E_SNR stays put while eta_P drops two decades (same seed family);
    # concentrated geometry keeps the 100 ps window capture at unity
    import math
    from qeplidar.analysis import (CountWindow, car_per_herald_bin,
                                   fold_to_pulse_frame, snr_classical,
                                   snr_enhancement, snr_quantum)
    t_pump = 1.0 / 19.27e6
    results = []
    for eta_p, duration in ((1.0, 0.3), (0.1, 0.6), (0.01, 1.2)):
        config = loopback_scenario(
            duration_s=duration, seed=512, pair_rate=0.02, eta_p=eta_p,
            eta_h=0.9, noise_rate=0.05 / t_pump, jitters=(0.0, 0.0, 0.0),
            dispersion={"mode": "linear", "slope_ns_per_nm": 1e-9,
                        "anchor_wavelength_nm": 1540.56},
        )
        streams = simulate(config)
        folded = {k: fold_to_pulse_frame(v, period_ps=config.pump.period_ps)
                  for k, v in streams.items()}
        on, off = folded[ON], folded[OFF]
        rb = max(car_per_herald_bin(on), key=lambda r: r.n_cc)
        window = CountWindow(rb.probe_peak_ps, rb.herald_center_ps)
        rq = snr_quantum(on, off, [window])[0]
        rc = snr_classical(on, off, [window])[0]
        results.append(snr_enhancement(rq, rc))
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            gap = abs(results[i].value - results[j].value)
            limit = 3.0 * math.hypot(results[i].sigma, results[j].sigma)
            assert gap <= limit, (
                f"E_SNR {results[i].value:.1f} vs {results[j].value:.1f} "
                f"outside 3 sigma ({limit:.1f})")


def test_sweep_rows_and_csv(tmp_path):
    config = loopback_scenario(duration_s=0.01, noise_rate=1e5)
    rows = sweep(config, "channels.noise_rate_per_s", [1e5, 3e5])
    assert {r["value"] for r in rows} == {1e5, 3e5}
    out = tmp_path / "sweep.csv"
    sweep_rows_to_csv(rows, out)
    header = out.read_text().splitlines()[0]
    assert header == "value,target,snr_classical,snr_quantum,esnr,car"


def test_empty_sweep_writes_header_only(tmp_path):
    config = loopback_scenario(duration_s=0.001)
    rows = sweep(config, "channels.noise_rate_per_s", [])
    out = tmp_path / "empty.csv"
    sweep_rows_to_csv(rows, out)
    assert out.read_text() == "value,target,snr_classical,snr_quantum,esnr,car\n"


# ---------------------------------------------------------------------------
# CLI


def _write_config(tmp_path, config):
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    return str(path)


def test_cli_simulate_analyze_report(tmp_path, capsys):
    config = loopback_scenario(duration_s=0.01)
    cfg_path = _write_config(tmp_path, config)
    out_dir = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg_path,
                     "--out-dir", out_dir, "--format", "csv"]) == 0
    assert cli.main(["analyze", "--config", cfg_path,
                     "--out-dir", out_dir, "--format", "csv"]) == 0
    report_path = os.path.join(out_dir, "report.json")
    assert os.path.exists(report_path)
    assert cli.main(["report", "--report", report_path]) == 0
    capsys.readouterr()

    def csv_lines(name):
        with open(os.path.join(out_dir, name)) as fh:
            return fh.read().splitlines()

    for label in config.configurations:
        qtt = os.path.basename(cli._stream_path(out_dir, label))
        tags = csv_lines(qtt.replace(".qtt", ".csv"))
        assert tags[0] == "channel,timestamp_ps"
        assert len(tags) - 1 == len(read_tags(os.path.join(out_dir, qtt)))
    folded = fold_to_pulse_frame(read_tags(cli._stream_path(out_dir, ON)),
                                 period_ps=config.pump.period_ps,
                                 divider=config.ref_divider)
    jti = csv_lines("jti.csv")
    assert jti[0] == "x_bin,y_bin,count"
    assert len(jti) - 1 == np.count_nonzero(build_jti(folded).counts) > 0
    car = csv_lines("car.csv")
    assert car[0] == "herald_center_ps,probe_peak_ps,n_cc,n_acc,car,lower_bound"
    with open(report_path) as fh:
        assert len(car) - 1 == len(json.load(fh)["car"])


def test_cli_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1}))
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_VALIDATION
    capsys.readouterr()


BASELINE = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "paper_baseline.json")


def _baseline_section(key, **changes):
    with open(BASELINE) as fh:
        return {key: {**json.load(fh)[key], **changes}}


@pytest.mark.parametrize("section, patch", [
    ("phase_match", {"phase_match": [1]}),
    ("grating", {"grating": 5}),
    ("dispersion", {"dispersion": "x"}),
    ("scene[0]", {"scene": [3]}),
    ("scene", {"scene": 7}),
    ("detectors.ref", {"detectors": {"ref": "x", "herald": {}, "probe": {}}}),
    ("duration_s", {"duration_s": None}),
    ("pump.pulse_duration_ps", {"pump": {
        "repetition_rate_mhz": 19.27, "center_wavelength_nm": 1540.56,
        "spectral_fwhm_ghz": 31.6, "pulse_duration_ps": None}}),
    ("channels", _baseline_section("channels", loopback="false")),
    ("pump", _baseline_section("pump", pulse_duration_ps="x")),
    ("pump", _baseline_section("pump", pulse_duration_ps=-1.0)),
    ("grating", _baseline_section("grating", order="x")),
])
def test_cli_malformed_section_exit_code(tmp_path, capsys, section, patch):
    with open(BASELINE) as fh:
        data = json.load(fh)
    data.update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out_dir = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", str(path),
                     "--out-dir", out_dir]) == cli.EXIT_VALIDATION
    assert f"{section}: " in capsys.readouterr().err


def test_cli_io_error_exit_code(capsys):
    assert cli.main(["simulate", "--config", "/nonexistent/x.json"]) == \
        cli.EXIT_IO
    capsys.readouterr()


def test_cli_theory_subcommand(tmp_path, capsys):
    params = {"rates": {"nu_cc": 0.01, "eta_p": 0.5, "eta_h": 0.5,
                        "nu_noise_p": 0.02},
              "fisher": {"nu_pairs_per_s": 1e5, "nu_noise_per_s": 1e6,
                         "eta_p": 0.3, "eta_h": 0.3,
                         "t_pump_s": 1 / 19.27e6, "t_cc_s": 100e-12}}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "theory.json"
    assert cli.main(["theory", "--params", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["rates"]["cc_on_on"] == pytest.approx(0.0026250)
    assert result["fisher"]["enhancement"] > 1.0
    capsys.readouterr()


def test_cli_sweep_subcommand(tmp_path, capsys):
    config = loopback_scenario(duration_s=0.005, noise_rate=1e5)
    cfg_path = _write_config(tmp_path, config)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg_path, "--parameter",
                     "channels.noise_rate_per_s", "--values", "1e5,2e5",
                     "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    # each subcommand takes only the flags it reads
    for argv in (["sweep", "--config", cfg_path, "--parameter",
                  "channels.noise_rate_per_s", "--values", "1e5",
                  "--format", "csv"],
                 ["analyze", "--config", cfg_path, "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_calibrate_subcommand(tmp_path, capsys):
    lam = np.arange(1523.5, 1536.5, 0.01)
    curve = (1.0 - 0.6 * np.exp(-0.5 * ((lam - 1527.0) / 0.3) ** 2)
             - 0.5 * np.exp(-0.5 * ((lam - 1533.0) / 0.4) ** 2))
    t = (lam - 1540.56) * 400.0
    hist_path = tmp_path / "hist.csv"
    ref_path = tmp_path / "ref.csv"
    with open(hist_path, "w") as fh:
        fh.write("time_ps,counts\n")
        for ti, ci in zip(t[::5], curve[::5]):
            fh.write(f"{ti},{ci * 1000}\n")
    with open(ref_path, "w") as fh:
        fh.write("wavelength_nm,transmission\n")
        for li, ci in zip(lam, curve):
            fh.write(f"{li},{ci}\n")
    out = tmp_path / "cal.json"
    assert cli.main(["calibrate", "--histogram", str(hist_path),
                     "--reference", str(ref_path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    slope = result["coefficients"][-2]
    assert slope == pytest.approx(1 / 400.0, rel=0.005)
    capsys.readouterr()
