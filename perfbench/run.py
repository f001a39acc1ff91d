"""effosc benchmark: one workload, end-to-end or per-layer metrics, checked output.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Runs the workload in a worker process of its own (worker.py), which also
times fresh interpreter launches, interleaved with the workload's passes,
for the set-up time.  Then checks every output (check.py), writes a
results file under perfbench/results/, prints a summary, and prints one
JSON object as the last line of stdout.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run (tracing.py), plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path[:0] = [HERE, SRC]

from check import argv_key, check_output, load_refs  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 10

# Gated end-to-end metrics (BENCHMARK.json).  Besides set-up time they are
# CPU time and memory: on a shared host, CPU steal and other tenants move
# wall-clock figures by up to 2x between runs, which would drown any bound.
E2E_UNITS = {"setup_s": "s", "cpu_s_per_pass": "s", "peak_rss_mib": "MiB"}
# Wall-clock figures: printed and written to the results file, not gated.
WALL_UNITS = {"records_per_s": "records/s", "call_ms_p50": "ms", "call_ms_p90": "ms"}


def tail_percentile(samples, q: float):
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    if len(samples) * (1.0 - q) < 10 - 1e-9:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def _commit() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def evaluate(worker: dict, rundir: str, workload: str):
    """Check the warm-up outputs in full and every timed call against them."""
    refs = load_refs(workload)
    invocations = []
    for i, inv in enumerate(worker["argvs"]):
        with open(os.path.join(rundir, f"out-{i}.txt")) as handle:
            text = handle.read()
        problems, records = check_output(inv["argv"], inv["status"], text,
                                         refs.get(argv_key(inv["argv"])))
        invocations.append({**inv, "records": records, "problems": problems})
    for call in worker["calls"]:
        first = invocations[call["index"]]
        call["ok"] = (not first["problems"] and call["status"] == first["status"]
                      and call["digest"] == first["digest"])
    return invocations


def phase_calls(worker, phase: str) -> list[dict]:
    return [c for c in worker["calls"] if worker["passes"][c["pass"]]["phase"] == phase]


def median_pass(calls, invocations, key):
    """A pass built from each invocation's median: robust to one slow call."""
    return sum(statistics.median(c[key] for c in calls if c["index"] == i)
               for i in range(len(invocations)))


def end_to_end(worker, invocations, setup_s) -> dict:
    """End-to-end metrics from the untraced passes."""
    calls = phase_calls(worker, "plain")
    # Records of invocations whose every timed call passed the check.
    records = sum(inv["records"] for i, inv in enumerate(invocations)
                  if all(c["ok"] for c in calls if c["index"] == i))
    walls_ms = [c["wall_s"] * 1e3 for c in calls]
    return {
        "setup_s": setup_s,
        "records_per_s": records / median_pass(calls, invocations, "wall_s"),
        "cpu_s_per_pass": median_pass(calls, invocations, "cpu_s"),
        "peak_rss_mib": worker["peak_rss_mib"],
        "call_ms_p50": statistics.median(walls_ms),
        "call_ms_p90": tail_percentile(walls_ms, 0.9),
        "calls_timed": len(calls),
        "passes_timed": len(calls) // len(invocations),
    }


def per_layer(worker, invocations, spans) -> dict:
    """Per-layer metrics per traced pass, plus failures and tracing overhead."""
    from tracing import layer_metrics

    traced = phase_calls(worker, "traced")
    passes = len(traced) // len(invocations)
    records = sum(invocations[c["index"]]["records"] for c in traced if c["ok"])
    out = layer_metrics(spans, passes, records / passes)
    out["cli.bytes_out"] = sum(c["bytes"] for c in traced) / passes
    out["failed_frac"] = failed_frac(worker["calls"])
    out["trace.overhead"] = (median_pass(traced, invocations, "wall_s")
                             / median_pass(phase_calls(worker, "plain"), invocations, "wall_s") - 1.0)
    return out


def failed_frac(calls) -> float:
    """Calls that exited non-zero, raised, or failed the check, over calls attempted."""
    return sum(1 for c in calls if c["status"] != "exit 0" or not c["ok"]) / len(calls)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "effosc", "cli.py")):
        print(f"perfbench: no effosc sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    # Set-up time is an end-to-end metric; traced runs skip its launches.
    launches = 0 if args.trace else SETUP_LAUNCHES
    rundir = tempfile.mkdtemp(dir=RESULTS, prefix=f"run-{args.workload}-")
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--setup-launches", str(launches), "--rundir", rundir, "--src", SRC],
            stdout=sys.stderr, timeout=3 * args.seconds + 90, check=True)
        with open(os.path.join(rundir, "worker.json")) as handle:
            worker = json.load(handle)
        invocations = evaluate(worker, rundir, args.workload)
        spans = None
        if args.trace:
            from tracing import read_spans

            spans = read_spans(os.path.join(rundir, "spans.jsonl.gz"))
            shutil.move(os.path.join(rundir, "spans.jsonl.gz"), os.path.join(
                RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    calls = worker["calls"]
    failed = sum(1 for c in calls if not c["ok"])
    correct = failed == 0 and not any(inv["problems"] for inv in invocations)
    e2e = end_to_end(worker, invocations,
                     statistics.median(worker["setup_s"]) if launches else None)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": _commit(), "nproc": os.cpu_count(),
              "cpu_model": _cpu_model(), **worker["env"], "end_to_end": e2e,
              "failed_frac": failed_frac(calls), "setup_launches_s": worker["setup_s"],
              "passes": worker["passes"], "calls": calls,
              "invocations": [
                  {"argv": argv_key(inv["argv"]), "status": inv["status"],
                   "records": inv["records"], "problems": inv["problems"],
                   "wall_ms_median": statistics.median(
                       c["wall_s"] * 1e3 for c in calls if c["index"] == i)}
                  for i, inv in enumerate(invocations)]}
    if args.trace:
        probe = worker["probe"]
        correct = correct and probe["got"] == probe["expected"]
        report["probe"] = probe
        report["per_layer"] = layer = per_layer(worker, invocations, spans)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in _layer_units(layer).items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(report, handle, indent=1)

    for inv in invocations:
        flag = "ok" if not inv["problems"] else "FAIL " + "; ".join(inv["problems"][:3])
        print(f"{inv['status']:>13} {inv['records']:6d} records  {flag}  {argv_key(inv['argv'])[:90]}")
    units = {**E2E_UNITS, **WALL_UNITS, "calls_timed": "count", "passes_timed": "count"}
    for name, value in e2e.items():
        print(f"{name:>16} = {value if value is not None else 'n/a'} {units[name]}")
    print(f"{'failed_frac':>16} = {report['failed_frac']:.4f} ratio")
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_units(layer: dict) -> dict:
    units = {}
    for name, value in layer.items():
        if name.endswith(".calls"):
            unit = "count"
        elif name.endswith(".self_s"):
            unit = "s"
        elif name.endswith("_bytes") or name.endswith("bytes_out"):
            unit = "bytes"
        elif name.endswith(("dim_max", "doublings")):
            unit = "count"
        else:
            unit = "ratio"
        units[name] = (value, unit)
    return units


if __name__ == "__main__":
    sys.exit(main())
