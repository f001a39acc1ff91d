"""Runs one workload in its own process: a closed loop over `effosc.cli.run`.

One caller; each invocation starts after the previous one returns.  Stdout
and stderr are captured in memory.  A warm-up pass writes each invocation's
output to the run directory for the parent's full check; every timed call
then records its outcome, wall and CPU time, and a digest of its output,
which must equal the warm-up digest.  Between passes it launches fresh
interpreters that import `effosc.cli`, the set-up time.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --setup-launches L --rundir DIR --src DIR
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import build_argvs, pass_order  # noqa: E402

# The n=100000 IPT request asks numpy for a 74.5 GiB matrix.  Capping the
# address space makes that allocation fail at once on every host, whatever
# its overcommit policy, instead of touching pages the machine does not have.
ADDRESS_SPACE_CAP = 48 << 30

# Invocation whose trace counts are derived by hand (see README.md):
# rs_corrections solves the level once and builds the residual matrix twice
# (each build solves it again and powers two position matrices); the CLI
# worker solves it a fourth time for the record.
PROBE_ARGV = ["ipt", "--kind", "quartic-aho", "--order", "4", "--lambda", "0.1", "--levels", "0"]
PROBE_COUNTS = {
    "cli.run": 1, "ipt.rs_corrections": 1, "ipt.perturbation_matrix": 2,
    "ipt.position_power_matrix": 4, "spectrum.level_solution": 4,
    "spectrum.potential_params": 4, "gap.solve_gap.quartic_sr": 4,
}


def invoke(cli, argv):
    """Run one CLI invocation; return (status, stdout text, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = f"exit {cli.run(argv)}"
    except Exception as exc:  # the CLI lets some errors escape (MemoryError)
        status = type(exc).__name__
    return status, out.getvalue(), time.perf_counter() - t0, time.process_time() - cpu0


def setup_launch(src: str) -> float:
    """Seconds from launching a fresh interpreter to `import effosc.cli` returning."""
    code = (f"import sys, time; sys.path.insert(0, {src!r}); import effosc.cli; "
            "sys.stdout.write(repr(time.monotonic()))")
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout) - start


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its own API."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    """Interpreter, library and BLAS versions of this process."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def _run_pass(cli, argvs, rng, calls, passes, label, tracer=None):
    """One pass: every invocation once, in a fresh seeded order."""
    number = len(passes)
    wall = cpu = 0.0
    for i in pass_order(len(argvs), rng):
        if tracer is not None:
            tracer.invocation = f"{number}:{i}"
        status, text, dt, dc = invoke(cli, argvs[i])
        wall += dt
        cpu += dc
        calls.append({"pass": number, "index": i, "status": status, "digest": _digest(text),
                      "bytes": len(text.encode()), "wall_s": dt, "cpu_s": dc})
    passes.append({"pass": number, "phase": label, "wall_s": wall, "cpu_s": cpu})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-launches", type=int, default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, args.src)
    import effosc.cli as cli
    from tracing import Tracer, call_counts, write_spans

    argvs = build_argvs(args.workload, args.seed)
    warm = []
    for i, argv in enumerate(argvs):
        status, text, _, _ = invoke(cli, argv)
        with open(os.path.join(args.rundir, f"out-{i}.txt"), "w") as handle:
            handle.write(text)
        warm.append({"argv": argv, "status": status, "digest": _digest(text)})

    rng = random.Random(f"order:{args.workload}:{args.seed}")
    calls, passes = [], []
    setup = []
    result = {"argvs": warm, "calls": calls, "passes": passes, "setup_s": setup,
              "env": environment()}
    if args.trace:
        probe = Tracer()
        probe.install()
        try:
            invoke(cli, PROBE_ARGV)
        finally:
            probe.uninstall()
        counts = call_counts(probe.spans)
        result["probe"] = {"expected": PROBE_COUNTS,
                           "got": {name: counts.get(name, 0) for name in PROBE_COUNTS}}
    tracer = Tracer() if args.trace else None
    busy = 0.0  # seconds spent in passes; the set-up launches do not count
    while busy < args.seconds:
        start = time.perf_counter()
        _run_pass(cli, argvs, rng, calls, passes, "plain")
        if tracer is not None:
            # Traced passes alternate with untraced ones, so host drift
            # does not masquerade as tracing overhead.
            tracer.install()
            try:
                _run_pass(cli, argvs, rng, calls, passes, "traced", tracer)
            finally:
                tracer.uninstall()
        busy += time.perf_counter() - start
        # Launches keep pace with the passes, so drift within a run reaches
        # set-up time and the workload alike.
        while len(setup) < args.setup_launches * min(1.0, busy / args.seconds):
            setup.append(setup_launch(args.src))
    if tracer is not None:
        write_spans(os.path.join(args.rundir, "spans.jsonl.gz"), tracer.spans)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.rundir, "worker.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
