#!/usr/bin/env python3
"""Noise-resilience sweep: SNR_Q, SNR_C, and E_SNR against noise intensity.

Reproduces the characteristic structure of the noise-resilience experiment:
SNR_C falls on a -1 log-log line with the injected noise while E_SNR stays
pinned near the CAR whatever the noise level.  Writes one CSV row per
(noise level, target).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from qeplidar.pipeline import analyze, simulate
from qeplidar.scenario import load_scenario, scenario_from_dict

ON = "probe:on|noise:on"
OFF = "probe:off|noise:on"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(
        os.path.dirname(__file__), "..", "scenarios", "paper_baseline.json"))
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--levels-db", default="0,5,10,15,20,25,30",
                        help="comma-separated noise intensities in dB")
    parser.add_argument("--out", default="out/noise_sweep.csv")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    base = load_scenario(args.config).to_dict()
    base["duration_s"] = args.duration
    base["configurations"] = [ON, OFF]

    # estimate the detected true-probe rate from a short pilot run
    pilot_cfg = dict(base)
    pilot_cfg["duration_s"] = min(0.05, args.duration)
    pilot = simulate(scenario_from_dict(pilot_cfg), threads=args.threads)
    n_true = (np.count_nonzero(pilot[ON].channels == 2)
              - np.count_nonzero(pilot[OFF].channels == 2))
    true_rate = n_true / pilot_cfg["duration_s"]
    print(f"detected true-probe rate ~ {true_rate:,.0f} /s")

    rows = []
    for db in [float(v) for v in args.levels_db.split(",") if v]:
        cfg = dict(base)
        cfg["channels"] = dict(base["channels"])
        cfg["channels"]["noise_rate_per_s"] = 10 ** (db / 10.0) * true_rate
        config = scenario_from_dict(cfg)
        report = analyze(simulate(config, threads=args.threads), config)
        measured_db = report.noise_intensity_db
        car = {rb.herald_center_ps: rb.car for rb in report.car_bins}
        for t in report.targets:
            rows.append((measured_db, t.id, t.snr_classical, t.snr_quantum,
                         t.esnr, car[t.window["herald_center_ps"]]))
        print(f"{db:5.1f} dB nominal ({measured_db:5.2f} measured): "
              f"{len(report.targets)} targets")

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("noise_db,target,snr_classical,snr_quantum,esnr,car\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"{len(rows)} rows -> {args.out}")


if __name__ == "__main__":
    main()
