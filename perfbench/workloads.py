"""Seeded argv generators for the four benchmark workloads.

Each workload is a list of CLI invocations (argv lists for
``effosc.cli.run``).  The seed draws the couplings where the grid is not a
published one and permutes the invocation order; the program sees only the
generated argv.  Couplings are written with six significant digits so the
value the CLI echoes back in each record is exactly the value drawn.
"""
from __future__ import annotations

import random

WORKLOADS = ("sweep", "tables", "series", "oracle")
DEFAULT_SEED = 0


def _log_uniform(rng: random.Random, lo: float, hi: float, count: int) -> str:
    """Comma list of `count` couplings drawn log-uniformly from [lo, hi].

    Stratified: one draw in each of `count` equal slices of log(lambda), in
    a shuffled order, so seeds differ in the couplings but hardly in the
    mix of cheap and costly cells.
    """
    ratio = hi / lo
    values = [lo * ratio ** ((i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return ",".join(format(v, ".6g") for v in values)


def _sweep(rng):
    return [
        ["spectrum", "--kind", "quartic-aho", "--lambda", _log_uniform(rng, 0.01, 10.0, 1000),
         "--levels", "0..9", "--format", "json"],
        ["spectrum", "--kind", "quartic-dwo", "--lambda", _log_uniform(rng, 0.01, 10.0, 500),
         "--levels", "0..9", "--format", "json"],
        ["spectrum", "--kind", "sextic-aho", "--lambda", _log_uniform(rng, 0.01, 10.0, 500),
         "--levels", "0..9", "--format", "csv"],
        ["spectrum", "--kind", "octic-aho", "--lambda", _log_uniform(rng, 0.01, 1.0, 100),
         "--levels", "0..9", "--format", "json"],
        ["spectrum", "--kind", "sextic-dwo", "--g", "-3", "--lambda", _log_uniform(rng, 0.005, 0.1, 20),
         "--levels", "0..9", "--format", "json"],
    ]


def _tables(rng):
    return [["table", "--id", str(i)] for i in range(1, 6)] + [
        ["spectrum", "--kind", "quartic-aho", "--g", "1", "--lambda", "0.1", "--levels", "0..4",
         "--order", "2", "--format", "json"],
        ["spectrum", "--kind", "quartic-dwo", "--lambda", "0.02", "--levels", "0", "--phase", "ssb"],
        ["vacuum", "--lambda", "0.1"],
        ["susy", "ispp", "--b", "1", "--levels", "0..20"],
        ["susy", "wavefunction", "--b", "100", "--grid", "-2:2:0.005"],
        ["effective-potential", "--lambda", "0.1", "--format", "csv"],
    ]


def _series(rng):
    return [
        ["ipt", "--kind", "quartic-aho", "--order", "4", "--lambda", _log_uniform(rng, 0.01, 1.0, 100),
         "--levels", "0..4"],
        ["ipt", "--kind", "sextic-aho", "--order", "4", "--lambda", "0.1,1,10", "--levels", "0..20"],
        ["ipt", "--kind", "octic-aho", "--order", "4", "--lambda", "0.1,1", "--levels", "0..10"],
        ["spectrum", "--kind", "quartic-aho", "--lambda", _log_uniform(rng, 0.01, 1.0, 1),
         "--levels", "400,2000", "--order", "4"],
        # Known failure: the dense (n+13)^2 build asks for 74.5 GiB and raises MemoryError.
        ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "100000", "--order", "4"],
    ]


def _oracle(rng):
    return [
        ["oracle", "--kind", "quartic-aho", "--lambda", "0.1,1,10,100", "--levels", "0..40"],
        ["oracle", "--kind", "quartic-dwo", "--lambda", "0.1,1,10,100", "--levels", "0..10"],
        ["oracle", "--kind", "sextic-aho", "--lambda", "0.1,1,5,50,200", "--levels", "0..17"],
        ["oracle", "--kind", "sextic-aho", "--g", "3", "--lambda", "0.5", "--levels", "0..19"],
        ["oracle", "--kind", "sextic-dwo", "--g", "-3", "--lambda", "0.5", "--levels", "0..20"],
        # Known failure: the basis doublings hit the cap and the CLI exits 3.
        ["oracle", "--kind", "octic-aho", "--lambda", "1", "--levels", "0..14"],
    ]


_GENERATORS = {"sweep": _sweep, "tables": _tables, "series": _series, "oracle": _oracle}


def build_argvs(workload: str, seed: int) -> list[list[str]]:
    """The workload's invocations for this seed, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    argvs = _GENERATORS[workload](rng)
    rng.shuffle(argvs)
    return argvs


def pass_order(count: int, rng: random.Random) -> list[int]:
    """A fresh permutation of invocation indices for one pass."""
    order = list(range(count))
    rng.shuffle(order)
    return order
