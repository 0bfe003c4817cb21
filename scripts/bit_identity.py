#!/usr/bin/env python3
"""Check that this tree writes the same benchmark outputs as another one.

Usage (from anywhere):

    python3 scripts/bit_identity.py PARENT_DIR

PARENT_DIR is a checkout of the commit to compare against (for instance
made with ``git archive``).  For each of the four benchmark workloads and
seeds 1-3 the script runs ``benchmark/run.py --seconds 0`` in PARENT_DIR
and then in this tree, and compares every file each run leaves in
``benchmark/out/<workload>/``
(``report.json``, ``tags_*.qtt``, ``sweep.csv``) byte for byte.  The runs
are sequential, so at most one workload is in memory at a time.  It exits
with status 1 on any missing or differing file, on a run that fails, or on
a run whose final JSON line says ``"correct": false``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("baseline_scene", "high_noise", "dead_time", "noise_sweep")
SEEDS = (1, 2, 3)


def run_workload(root: str, workload: str, seed: int) -> tuple[bool, str]:
    """Run one workload once in `root`; (correct, output directory)."""
    out_dir = os.path.join(root, "benchmark", "out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return False, out_dir
    return json.loads(lines[-1]).get("correct") is True, out_dir


def compare_dirs(a: str, b: str) -> list:
    """Names of files missing from one side or differing between the two."""
    names_a = set(os.listdir(a)) if os.path.isdir(a) else set()
    names_b = set(os.listdir(b)) if os.path.isdir(b) else set()
    bad = sorted(names_a ^ names_b)
    bad += [n for n in sorted(names_a & names_b)
            if not filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                               shallow=False)]
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    args = p.parse_args(argv)
    parent = os.path.abspath(args.parent_dir)
    if os.path.samefile(parent, ROOT):
        p.error("PARENT_DIR is this tree")

    failures = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            ok_parent, dir_parent = run_workload(parent, workload, seed)
            ok_here, dir_here = run_workload(ROOT, workload, seed)
            files = sorted(os.listdir(dir_here)) if os.path.isdir(dir_here) else []
            bad = compare_dirs(dir_parent, dir_here)
            if not files:
                bad.append("(no output files)")
            status = "ok" if ok_parent and ok_here and not bad else "FAIL"
            failures += status != "ok"
            print(f"{workload} seed {seed}: {status}; {len(files)} file(s) "
                  f"compared; correct parent={ok_parent} here={ok_here}"
                  + (f"; differ: {', '.join(bad)}" if bad else ""), flush=True)
    print(f"{failures} failing run pair(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
