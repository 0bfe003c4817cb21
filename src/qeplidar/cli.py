"""Command-line interface.

Subcommands: simulate, analyze, theory, calibrate, sweep, report.
Exit codes: 0 success, 1 validation error, 2 runtime error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, pipeline, theory
from .detect import read_tags, write_tags, write_tags_csv
from .scenario import INTEGER_KEYS, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _default_threads() -> int:
    env = os.environ.get("QEPLIDAR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _load_config(args):
    config = load_scenario(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _stream_path(out_dir: str, label: str) -> str:
    safe = label.replace(":", "-").replace("|", "_")
    return os.path.join(out_dir, f"tags_{safe}.qtt")


def cmd_simulate(args) -> int:
    config = _load_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    streams = pipeline.simulate(config, threads=args.threads)
    for label, stream in streams.items():
        path = _stream_path(args.out_dir, label)
        write_tags(stream, path)
        if args.format == "csv":
            write_tags_csv(stream, path.replace(".qtt", ".csv"))
        print(f"{label}: {len(stream)} tags -> {path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _load_config(args)
    streams = {}
    for label in config.configurations:
        path = _stream_path(args.out_dir, label)
        if os.path.exists(path):
            streams[label] = read_tags(path)
    if not streams:
        print(f"no tag streams found under {args.out_dir}", file=sys.stderr)
        return EXIT_IO
    report = pipeline.analyze(streams, config)
    out = os.path.join(args.out_dir, "report.json")
    report.to_json(out)
    print(f"report -> {out}")
    if args.format == "csv":
        primary = streams.get(pipeline.PRIMARY_LABEL) or \
            next(iter(streams.values()))
        folded = analysis.fold_to_pulse_frame(
            primary, period_ps=config.pump.period_ps,
            divider=config.ref_divider)
        jti = analysis.build_jti(folded)
        jti_path = os.path.join(args.out_dir, "jti.csv")
        jti.to_csv(jti_path)
        car_path = os.path.join(args.out_dir, "car.csv")
        with open(car_path, "w") as fh:
            fh.write("herald_center_ps,probe_peak_ps,n_cc,n_acc,car,"
                     "lower_bound\n")
            for rb in report.car_bins:
                fh.write(f"{rb.herald_center_ps},{rb.probe_peak_ps},"
                         f"{rb.n_cc},{rb.n_acc},{rb.car},"
                         f"{int(rb.car_is_lower_bound)}\n")
        print(f"csv exports -> {jti_path}, {car_path}")
    for t in report.targets:
        print(f"  {t.id}: direction {t.direction_deg:.3f} deg, "
              f"distance {t.distance_m:.4f} m, peak {t.peak_counts} CC")
    return EXIT_OK


def cmd_theory(args) -> int:
    with open(args.params) as fh:
        params = json.load(fh)
    out: dict = {}
    if "rates" in params:
        p = theory.RateParams(**params["rates"])
        probs = theory.detection_probabilities(p)
        out["rates"] = {
            **probs,
            "snr_classical": theory.snr_classical_closed_form(p),
            "snr_quantum": theory.snr_quantum_closed_form(p),
            "esnr": theory.esnr_closed_form(p),
            "car": theory.car_closed_form(p),
        }
    if "fisher" in params:
        fp = theory.FisherParams(**params["fisher"])
        enh = theory.fisher_enhancement(fp)
        out["fisher"] = {
            "information_quantum": theory.fisher_information_quantum(fp),
            "information_classical": theory.fisher_information_classical(fp),
            "enhancement": enh.total,
            "coincidence_term": enh.coincidence_term,
            "herald_term": enh.herald_term,
            "probe_term": enh.probe_term,
        }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    hist = np.genfromtxt(args.histogram, delimiter=",", skip_header=1)
    ref = np.genfromtxt(args.reference, delimiter=",", skip_header=1)
    cal = analysis.calibrate_time_to_wavelength(
        hist[:, 0], hist[:, 1], ref[:, 0], ref[:, 1])
    out = {
        "coefficients": list(cal.coefficients),
        "anchors_time_ps": list(cal.anchors_time_ps),
        "anchors_wavelength_nm": list(cal.anchors_wavelength_nm),
        "residual_nm": cal.residual_nm,
    }
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _sweep_value(text: str, integer_key: bool):
    """An integer literal swept over an integer key stays an int; every other
    value is a float, which validation rejects where an integer is needed."""
    if integer_key:
        try:
            return int(text)
        except ValueError:
            pass
    return float(text)


def cmd_sweep(args) -> int:
    config = _load_config(args)
    integer_key = args.parameter in INTEGER_KEYS
    values = [_sweep_value(v, integer_key) for v in args.values.split(",") if v]
    rows = pipeline.sweep(config, args.parameter, values, threads=args.threads)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)) or ".", exist_ok=True)
    pipeline.sweep_rows_to_csv(rows, args.out)
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.report) as fh:
        data = json.load(fh)
    print(f"scenario fingerprint: {data.get('fingerprint', '?')[:16]}...")
    res = data.get("resolution", {})
    print(f"resolution: {res.get('distance_cm', math.nan):.2f} cm, "
          f"{res.get('direction_deg', math.nan):.4f} deg")
    print(f"noise intensity: {data.get('noise_intensity_db', math.nan):+.2f} dB")
    for t, e in zip(data.get("targets", []), data.get("esnr", [])):
        print(f"  {t['id']}: theta={t['direction_deg']:.3f} deg "
              f"D={t['distance_m']:.4f} m  E_SNR={e['esnr']:.1f}")
    car = data.get("car", [])
    if car:
        cars = [c["car"] for c in car if not c.get("lower_bound")]
        if cars:
            print(f"CAR over {len(cars)} herald bins: "
                  f"median {np.median(cars):.1f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeplidar",
        description="Simulate and analyze quantum-enhanced parallel LiDAR "
                    "time-tag experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, threads: bool, csv: bool):
        p.add_argument("--config", required=True, help="scenario JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        if threads:
            p.add_argument("--threads", type=int, default=_default_threads(),
                           help="worker threads (env QEPLIDAR_THREADS)")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("simulate", help="generate tag streams")
    add_common(p, threads=True, csv=True)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze previously simulated streams")
    add_common(p, threads=False, csv=True)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("theory", help="evaluate closed-form quantities")
    p.add_argument("--params", required=True, help="parameter JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("calibrate", help="time-to-wavelength calibration")
    p.add_argument("--histogram", required=True,
                   help="CSV of (time_ps, counts)")
    p.add_argument("--reference", required=True,
                   help="CSV of (wavelength_nm, transmission)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", help="sweep one scenario parameter")
    add_common(p, threads=True, csv=False)
    p.add_argument("--parameter", required=True,
                   help="dotted path, e.g. channels.noise_rate_per_s")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize an analysis report")
    p.add_argument("--report", required=True, help="report JSON path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except pipeline.FingerprintMismatchError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
