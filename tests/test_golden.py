"""Frozen CLI outputs: the published tables and the README examples must stay
byte-identical.  Each file under ``tests/golden/`` is the stdout of the argv
listed here; regenerate a file only for an intended, documented format change.
Oracle output is left out on purpose: its convergence field is round-off.
"""
import json
from pathlib import Path

import pytest

from effosc.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    **{f"table-{i}.csv": ["table", "--id", str(i)] for i in range(1, 6)},
    "spectrum-quartic-aho-order2.json": [
        "spectrum", "--kind", "quartic-aho", "--g", "1", "--lambda", "0.1",
        "--levels", "0..4", "--order", "2", "--format", "json"],
    "spectrum-quartic-dwo-ssb.json": [
        "spectrum", "--kind", "quartic-dwo", "--lambda", "0.02", "--levels", "0",
        "--phase", "ssb"],
    "vacuum.json": ["vacuum", "--lambda", "0.1"],
    "susy-ispp.json": ["susy", "ispp", "--b", "1", "--levels", "0..20"],
    "ipt-quartic-aho.json": [
        "ipt", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0..2",
        "--order", "4"],
    # large-n and higher-k series: the windowed basis must reproduce the dense one
    "spectrum-quartic-aho-order4-large-n.json": [
        "spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "400,2000",
        "--order", "4"],
    "ipt-sextic-aho.json": [
        "ipt", "--kind", "sextic-aho", "--order", "4", "--lambda", "0.1,1,10",
        "--levels", "0..20"],
    "ipt-octic-aho.json": [
        "ipt", "--kind", "octic-aho", "--order", "4", "--lambda", "0.1,1", "--levels", "0..10"],
    # sextic double well: the displaced branch, competing and forced
    "spectrum-sextic-dwo.json": [
        "spectrum", "--kind", "sextic-dwo", "--g", "-3", "--lambda", "0.005,0.01,0.02,0.05,0.1",
        "--levels", "0..9"],
    "spectrum-sextic-dwo-ssb.json": [
        "spectrum", "--kind", "sextic-dwo", "--g", "-3", "--lambda", "0.005,0.01,0.02,0.05",
        "--levels", "0", "--phase", "ssb"],
    # JSON writer: a list in meta, floats down to 1e-174
    "susy-wavefunction.json": ["susy", "wavefunction", "--b", "100", "--grid", "-2:2:0.5"],
    # octic root bits: the order-4 series prints the round-off first-order term
    "spectrum-octic-aho-order4.json": [
        "spectrum", "--kind", "octic-aho", "--g", "3", "--lambda", "0.01,0.1,1,100",
        "--levels", "0..9", "--order", "4"],
    # variational effective potential: the quartic root with an s-dressed curvature
    "effective-potential.json": ["effective-potential", "--lambda", "0.1,1,10", "--grid", "-3:3:0.25"],
    # quartic double well on both sides of the levels' critical couplings
    "spectrum-quartic-dwo-critical.json": [
        "spectrum", "--kind", "quartic-dwo", "--lambda", "0.01,0.05,0.09,0.2", "--levels", "0..5"],
    # column writer: a many-coupling sweep with both phases and an integral g
    "spectrum-quartic-dwo-sweep.json": [
        "spectrum", "--kind", "quartic-dwo", "--lambda", "0.005:0.2:0.005", "--levels", "0..9"],
    # column writer in CSV, with the paper convention's scaled energies
    "spectrum-sextic-aho-paper.csv": [
        "spectrum", "--kind", "sextic-aho", "--lambda", "0.01:10:0.25", "--levels", "0..9",
        "--format", "csv", "--convention", "paper"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_file(capsys, name):
    code = run(GOLDEN[name])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    golden = (GOLDEN_DIR / name).read_text()
    assert out == golden
    if name.endswith(".json"):  # a recapture cannot freeze NaN or Infinity
        json.loads(golden, parse_constant=_reject_constant)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")
