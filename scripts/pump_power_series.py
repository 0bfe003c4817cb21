#!/usr/bin/env python3
"""Pump-power series with matched accumulation: CAR per herald bin.

The pair generation rate scales with the square of the peak pump power, so
a power series {P, P/sqrt(2), P/2} maps to pair rates {r, r/2, r/4}.
Accumulation times are stretched by the inverse rate ratio (t, 2t, 4t) so
every run collects a comparable number of coincidences, and the CAR rises
as the rate falls.  Writes one CSV row per (rate, herald bin).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qeplidar.analysis import car_per_herald_bin, fold_to_pulse_frame
from qeplidar.pipeline import simulate
from qeplidar.scenario import load_scenario, scenario_from_dict

ON = "probe:on|noise:on"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(
        os.path.dirname(__file__), "..", "scenarios", "paper_baseline.json"))
    parser.add_argument("--base-rate", type=float, default=0.02,
                        help="pair rate per pulse at the highest power")
    parser.add_argument("--base-duration", type=float, default=1.0,
                        help="accumulation at the highest power, seconds")
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--out", default="out/pump_power_series.csv")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    base = load_scenario(args.config).to_dict()
    base["configurations"] = [ON]
    base["scene"] = []
    base["channels"] = dict(base["channels"])
    base["channels"]["loopback"] = True
    base["channels"]["noise_rate_per_s"] = 0.0

    rows = []
    for k in range(args.steps):
        rate = args.base_rate / 2 ** k
        duration = args.base_duration * 2 ** k
        cfg = dict(base)
        cfg["rates"] = dict(base["rates"])
        cfg["rates"]["pair_rate_per_pulse"] = rate
        cfg["duration_s"] = duration
        config = scenario_from_dict(cfg)
        streams = simulate(config, threads=args.threads)
        folded = fold_to_pulse_frame(streams[ON],
                                     period_ps=config.pump.period_ps,
                                     divider=config.ref_divider)
        ridge = car_per_herald_bin(folded)
        total_cc = sum(rb.n_cc for rb in ridge)
        print(f"rate {rate:.4f}/pulse x {duration:g} s: {total_cc} "
              f"ridge coincidences over {len(ridge)} bins")
        for rb in ridge:
            rows.append((rate, duration, rb.herald_center_ps, rb.n_cc,
                         rb.n_acc, rb.car))

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("pair_rate,duration_s,herald_center_ps,n_cc,n_acc,car\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"{len(rows)} rows -> {args.out}")


if __name__ == "__main__":
    main()
