"""QEP-LiDAR benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload baseline_scene --seed 1 --seconds 10 --trace 0

The run first times SETUP_PROBES fresh processes from spawn until the
scenario is built (setup_s), then repeats whole rounds of the workload while
another round of average length still fits in --seconds (at least one
round), and checks the first round's outputs
against expectations computed in checks.py; every later round must write a
byte-identical report.  With --trace 0 it prints the end-to-end metrics.
With --trace 1 it alternates traced and untraced rounds, the first one
traced, and prints the per-layer metrics of the traced ones, plus the
tracing overhead (median traced minus median untraced wall_s; the first
round's warm-up falls on the traced side).  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "benchmark", "out")
SETUP_PROBE = os.path.join(ROOT, "benchmark", "setup_probe.py")

SETUP_PROBES = 5
# One process per workload, with no more simulation threads than CPUs.
THREADS = min(2, len(os.sched_getaffinity(0)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="scenario seed (default 1)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="time the measured rounds may take; at least one round "
                   "runs (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median spawn-to-ready time of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, SETUP_PROBE, workload, str(seed)],
                              stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qeplidar", "__init__.py")):
        print(f"benchmark: no qeplidar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2 ** 64
    out_dir = os.path.join(OUT, w.name)
    os.makedirs(out_dir, exist_ok=True)

    setup_s = None if args.trace else measure_setup(w.name, seed)
    config = workloads.build_scenario(w, seed, ROOT)
    tracer = tracing.Tracer() if args.trace else None

    walls, traced_walls, traced_rounds = [], [], []
    problems: list = []
    first_text = None
    attempted = failed = 0
    measured = 0.0
    # A traced run needs at least one traced and one untraced round.
    min_rounds = 2 if tracer else 1
    r = 0
    # Start another round only while one of average length still fits.
    while r < min_rounds or measured * (r + 1) / r <= args.seconds:
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.install(r)
        start = time.perf_counter()
        try:
            out = workloads.run_round(w, config, out_dir, THREADS)
        except Exception:  # a failed round is counted, and the run goes on
            traceback.print_exc()
            out = None
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - start
        measured += wall
        attempted += w.points
        if out is None:
            failed += w.points
        else:
            (traced_walls if traced else walls).append(wall)
            if traced:
                traced_rounds.append(r)
            with open(out.path) as fh:
                text = fh.read()
            if first_text is None:
                first_text = text
                problems += checks.check_round(w, config, out)
            elif text != first_text:
                problems.append(f"round {r}: {os.path.basename(out.path)} "
                                "differs from round 0")
        del out  # free this round's streams before the next round runs
        r += 1

    if not walls or (tracer and not traced_walls):
        print("benchmark: too few rounds completed", file=sys.stderr)
        return 1
    for p in problems:
        print(f"check failed: {p}")
    print(f"{w.name}: {r} rounds of {w.points} operation(s), "
          f"{failed} failed, {THREADS} thread(s), seed {seed}")

    if tracer is None:
        wall_s = statistics.median(walls)
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "pulses_per_s": (checks.n_pulses(config) * w.points / wall_s,
                             "pulses/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        layer = tracer.metrics(traced_rounds, overhead)
        values = {name: (layer[name], unit)
                  for name, unit in tracing.METRICS.items()}
        for where in tracer.missing:
            print(f"trace: {where} is missing; its metrics read 0")
        trace_path = os.path.join(OUT, f"trace_{w.name}_{seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)
        print(f"trace: {len(tracer.spans)} spans -> {trace_path}")

    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
