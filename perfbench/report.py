"""Run every workload once and print all end-to-end metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs through run.py in its own processes; the table is read
back from the results files, so it also shows the figures kept out of the
gated metrics: the wall-clock records_per_s, call_ms_p50 and call_ms_p90
(p90 only with at least 100 calls), and failed_frac.  Per-layer figures
come from `run.py --trace 1`.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import E2E_UNITS, RESULTS, WALL_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

EXTRA_UNITS = {**WALL_UNITS, "failed_frac": "ratio", "calls_timed": "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    rows = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        verdict = json.loads(done.stdout.splitlines()[-1])
        with open(os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace0.json")) as f:
            report = json.load(f)
        rows[workload] = {**report["end_to_end"], "failed_frac": report["failed_frac"],
                          "correct": verdict["correct"]}
    units = {**E2E_UNITS, **EXTRA_UNITS}
    print(f"{'metric':<16} {'unit':<10}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in units.items():
        cells = "".join(f"{'n/a' if rows[w][name] is None else format(rows[w][name], '.5g'):>14}"
                        for w in WORKLOADS)
        print(f"{name:<16} {unit:<10}{cells}")
    print(f"{'correct':<27}" + "".join(f"{str(rows[w]['correct']):>14}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
