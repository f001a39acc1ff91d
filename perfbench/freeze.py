"""Freeze the reference outputs the benchmark checks against.

    python3 perfbench/freeze.py [workload ...]

Runs every invocation of the default seed once through `effosc.cli.run` and
stores, per argv, the outcome and the parsed records in
perfbench/refs/<workload>.json.gz.  Re-run only when a change to the
program's output is intended, and say so in the change.
"""
from __future__ import annotations

import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from check import argv_key, parse_records, save_refs  # noqa: E402
from worker import ADDRESS_SPACE_CAP, invoke  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_argvs  # noqa: E402


def main(workloads) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import effosc.cli as cli

    for workload in workloads:
        refs = {}
        for argv in build_argvs(workload, DEFAULT_SEED):
            status, text, _, _ = invoke(cli, argv)
            refs[argv_key(argv)] = {"status": status,
                                    "records": parse_records(text) if status == "exit 0" else []}
            print(f"{workload}: {status} {len(refs[argv_key(argv)]['records'])} records "
                  f"{argv_key(argv)[:80]}")
        save_refs(workload, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
