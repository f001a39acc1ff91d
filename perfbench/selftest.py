"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

They cover the parts whose mistakes would corrupt every number: self time
against the union of overlapping child spans, the sample rule for p90, the
reference comparator's tolerance, seed determinism, the traced call
counts of two small invocations derived by hand, and that the output check
catches a double-well record in the wrong phase.
"""
from __future__ import annotations

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from check import check_output, compare_records, same_value  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracing import NAME, PARENT, Tracer, call_counts, layer_metrics, self_times  # noqa: E402
from worker import PROBE_ARGV, PROBE_COUNTS, invoke  # noqa: E402
from workloads import WORKLOADS, build_argvs  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    # cli.run over [0, 10]; two pool threads overlap on [3, 5]; a third child on [8, 9].
    spans = [
        (1, "cli.run", 0.0, 10.0, None, "0:0", None),
        (2, "spectrum.level_solution", 1.0, 5.0, 1, "0:0", None),
        (3, "spectrum.level_solution", 3.0, 7.0, 1, "0:0", None),
        (4, "spectrum.level_solution", 8.0, 9.0, 1, "0:0", None),
        (5, "gap.solve_gap.quartic_sr", 2.0, 4.0, 2, "0:0", None),
    ]
    own = self_times(spans)
    assert own[1] == 3.0  # 10 - |[1,7] u [8,9]|, not 10 - (4 + 4 + 1)
    assert own[2] == 2.0 and own[3] == 4.0 and own[5] == 2.0
    metrics = layer_metrics(spans, passes=1, records_per_pass=3)
    assert metrics["cli.overlap"] == 9.0 / 7.0
    assert metrics["cli.run.self_s"] == 3.0
    assert metrics["spectrum.level_solution.per_record"] == 1.0


def test_pool_thread_spans_take_the_open_cli_run_as_parent():
    tracer = Tracer()
    child = tracer.wrap("spectrum.level_solution", lambda x: threading.get_ident())

    def run(argv):
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(child, range(8)))

    tracer.wrap("cli.run", run, root=True)([])
    root = next(s for s in tracer.spans if s[NAME] == "cli.run")
    kids = [s for s in tracer.spans if s[NAME] == "spectrum.level_solution"]
    assert len(kids) == 8 and all(s[PARENT] == root[0] for s in kids)


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(99)), 0.9) is None
    assert tail_percentile(list(range(100)), 0.9) is not None
    assert tail_percentile(list(range(20)), 0.5) is not None


def test_comparator_tolerance():
    for a in (1.0, 9.999999999, 123456.789, -2.5, 3.1e-7):
        assert not same_value(a, a * (1 + 1e-8))
    # A flip of the tenth significant digit, as the CLI's rounding can produce.
    for a, b in ((1.000000000, 1.000000001), (9.999999999, 9.999999998),
                 (123456.7891, 123456.789), (-2.500000001, -2.5), (4.049999999e-3, 4.05e-3)):
        assert same_value(a, b) and same_value(b, a)
    assert not same_value("SR", "SSB")
    assert compare_records([{"phase": "SR", "E0": 1.0}], [{"phase": "SR", "E0": 1.000000001}]) is None
    assert compare_records([{"phase": "SR", "E0": 1.0}], [{"phase": "SSB", "E0": 1.0}])
    assert compare_records([{"E0": 1.0}], [{"E0": 1.0}, {"E0": 2.0}])


def test_same_seed_gives_identical_argvs():
    for workload in WORKLOADS:
        assert build_argvs(workload, 7) == build_argvs(workload, 7)
    assert build_argvs("sweep", 7) != build_argvs("sweep", 8)
    assert sorted(build_argvs("tables", 7)) == sorted(build_argvs("tables", 8))


def test_metric_names_and_units_match_benchmark_json():
    from run import E2E_UNITS, _layer_units

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    produced = dict.fromkeys(layer_metrics([], passes=1, records_per_pass=1), 0)
    produced.update({"cli.bytes_out": 0, "failed_frac": 0, "trace.overhead": 0})
    units = {name: unit for name, (_, unit) in _layer_units(produced).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def _traced_counts(argv):
    import effosc.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        status = invoke(cli, argv)[0]
    finally:
        tracer.uninstall()
    assert status == "exit 0"
    return call_counts(tracer.spans)


def test_traced_call_counts_match_hand_derivation():
    counts = _traced_counts(PROBE_ARGV)
    assert {name: counts.get(name, 0) for name in PROBE_COUNTS} == PROBE_COUNTS
    # Forced broken phase: one solve for w and one inside the closed-form energy.
    counts = _traced_counts(["spectrum", "--kind", "quartic-dwo", "--lambda", "0.02",
                             "--levels", "0", "--phase", "ssb"])
    assert counts.get("gap.solve_gap.quartic_ssb") == 2
    assert counts.get("spectrum.lo_energy_closed_form") == 1
    assert "spectrum.level_solution" not in counts


def test_output_check():
    import effosc.cli as cli

    argv = ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1,1", "--levels", "0..2"]
    status, text, _, _ = invoke(cli, argv)
    assert check_output(argv, status, text, None) == ([], 6)
    assert check_output(argv, "exit 3", "", {"status": "exit 3", "records": []}) == ([], 0)
    assert check_output(argv, status, text, {"status": "exit 3", "records": []}) == ([], 6)
    assert check_output(argv + ["--g", "1"], "exit 2", "", None)[0]
    wrong_count = argv[:6] + ["0..3"]
    assert any("expected 8" in p for p in check_output(wrong_count, status, text, None)[0])
    payload = json.loads(text)
    payload["records"][0]["E0"] *= 1 + 1e-7
    bent = json.dumps(payload)
    assert any("<H>" in p for p in check_output(argv, status, bent, None)[0])


def test_double_well_check_catches_the_wrong_phase():
    import effosc.cli as cli

    for kind in ("quartic-dwo", "sextic-dwo"):
        argv = ["spectrum", "--kind", kind, "--g", "-3", "--lambda", "0.01,0.05", "--levels", "0..1"]
        status, text, _, _ = invoke(cli, argv)
        records = json.loads(text)["records"]
        assert check_output(argv, status, text, None) == ([], 4)
        assert "SSB" in {rec["phase"] for rec in records}
        # The symmetric state passed off as the chosen one: it lies higher.
        forced = invoke(cli, argv + ["--phase", "sr"])[1]
        assert any("lies lower" in p for p in check_output(argv, status, forced, None)[0])
        # A forced phase is exempt from the choice but not from the variational checks.
        assert check_output(argv + ["--phase", "sr"], status, forced, None) == ([], 4)
        payload = json.loads(text)
        rec = next(r for r in payload["records"] if r["phase"] == "SSB")
        rec["w"] *= 1 + 1e-7
        assert any("SSB frequency" in p
                   for p in check_output(argv, status, json.dumps(payload), None)[0])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
