"""Re-measure the ROADMAP baseline figures through the harness's invoke path.

    python3 perfbench/reconcile.py

Times W1-W3, `table --id 1..5` and quartic order-4 `rs_corrections` at
n = 0, 400, 2000, best of 3 as the ROADMAP baseline was, and prints them
beside the ROADMAP figures.  The ROADMAP does not give W2's and W3's
couplings; the grids below are the assumed ones.
"""
from __future__ import annotations

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from worker import ADDRESS_SPACE_CAP, invoke  # noqa: E402

CLI_CASES = [
    ("W1 spectrum quartic-aho 10k cells", 600.0,
     ["spectrum", "--kind", "quartic-aho", "--lambda", "0.01:10:0.01", "--levels", "0..9"]),
    ("W2 ipt quartic-aho 100 lambda x 0..4", 406.0,
     ["ipt", "--kind", "quartic-aho", "--order", "4", "--lambda", "0.01:1:0.01", "--levels", "0..4"]),
    ("W3 spectrum sextic-dwo 20 lambda x 0..9", 311.0,
     ["spectrum", "--kind", "sextic-dwo", "--g", "-3", "--lambda", "0.005:0.1:0.005", "--levels", "0..9"]),
] + [(f"table --id {i}", ms, ["table", "--id", str(i)])
     for i, ms in zip(range(1, 6), (1.9, 1.6, 3.4, 35.0, 27.0))]

RS_CASES = [(0, 0.36), (400, 139.0), (2000, 860.0)]


def best_of(fn, repeats=3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import effosc.cli as cli
    from effosc import OscillatorSpec, rs_corrections

    print("| case | ROADMAP ms | measured ms (best of 3) | ratio |")
    print("|---|---|---|---|")
    for label, roadmap, argv in CLI_CASES:
        assert invoke(cli, argv)[0] == "exit 0", argv
        ms = best_of(lambda: invoke(cli, argv))
        print(f"| {label} | {roadmap:g} | {ms:.1f} | {ms / roadmap:.2f} |")
    spec = OscillatorSpec(4, 1.0, 0.1)
    for n, roadmap in RS_CASES:
        ms = best_of(lambda: rs_corrections(spec, n, max_order=4))
        print(f"| rs_corrections quartic order 4, n={n} | {roadmap:g} | {ms:.2f} | {ms / roadmap:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
