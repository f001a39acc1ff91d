import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from effosc.cli import MAX_CELLS, _fmt, _json, _round10, run
from effosc.errors import SolverError
from effosc.model import OscillatorSpec
from effosc.spectrum import level_solution, well_referenced_energy


def invoke(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_spectrum_json_schema_and_roundtrip(capsys):
    code, out, err = invoke(
        capsys,
        ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1,1", "--levels", "0..3", "--order", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "records"}
    assert len(payload["records"]) == 8
    for rec in payload["records"]:
        assert list(rec) == ["kind", "g", "lambda", "n", "phase", "convention", "w", "E0", "corrections", "E_ipt"]
        assert rec["kind"] == "quartic-aho"
        assert rec["convention"] == "half"
        assert rec["phase"] == "SR"
        assert len(rec["corrections"]) == 2
    # re-emission of the parsed object is byte-identical
    assert out == json.dumps(payload, indent=2) + "\n"


def test_determinism_byte_identical(capsys):
    argv = ["table", "--id", "4"]
    code1, out1, _ = invoke(capsys, argv)
    code2, out2, _ = invoke(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    argv2 = ["spectrum", "--kind", "octic-aho", "--lambda", "0.1:1:0.3", "--levels", "0..5", "--format", "csv"]
    _, a, _ = invoke(capsys, argv2)
    _, b, _ = invoke(capsys, argv2)
    assert a == b


def test_csv_format(capsys):
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0", "--order", "2", "--format", "csv"],
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "kind,g,lambda,n,phase,convention,w,E0,corrections,E_ipt"
    assert out.endswith("\n") and "\r" not in out
    cells = lines[1].split(",")
    sol = level_solution(OscillatorSpec(4, 1.0, 0.1), 0)
    assert cells[6] == format(sol.w, ".10g")
    assert cells[7] == format(sol.E0, ".10g")
    assert ";" in cells[8]  # list cell joined with semicolons


def test_exit_code_usage_errors(capsys):
    assert invoke(capsys, ["bogus-subcommand"])[0] == 2
    assert invoke(capsys, ["spectrum", "--kind", "quartic-aho", "--lambda", "abc", "--levels", "0"])[0] == 2
    # sign of the quadratic term must match the declared kind
    code, _, err = invoke(capsys, ["spectrum", "--kind", "quartic-aho", "--g", "-1", "--lambda", "0.1", "--levels", "0"])
    assert code == 2
    assert err != ""
    # the series window is fixed by (n, k): there is no basis-size flag
    for argv in (["ipt", "--kind", "quartic-aho", "--lambda", "0.1", "--dim", "20"],
                 ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--order", "2",
                  "--dim", "20"]):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --dim 20" in err


def test_exit_code_numerical_failure(capsys):
    # forced displaced branch above its critical coupling
    code, out, err = invoke(
        capsys,
        ["spectrum", "--kind", "quartic-dwo", "--lambda", "0.2", "--levels", "0", "--phase", "ssb"],
    )
    assert code == 3
    assert out == ""
    assert "critical" in err


def test_forced_sextic_ssb_without_branch_is_numerical_failure(capsys):
    # level 1 of this well binds no displaced state
    code, out, err = invoke(
        capsys,
        ["spectrum", "--kind", "sextic-dwo", "--g", "-3", "--lambda", "0.02", "--levels", "0..1",
         "--phase", "ssb"],
    )
    assert (code, out) == (3, "")
    assert err == (
        "effosc: numerical failure: no broken-symmetry branch for k=6, g=-3.0, lambda=0.02, n=1\n")


@pytest.mark.parametrize("kind", ["quartic-aho", "sextic-aho", "octic-aho"])
@pytest.mark.parametrize("lam", ["0", "0.1"])
def test_forced_ssb_on_single_well_is_invalid_request(capsys, kind, lam):
    # a single well has no displaced state, the free oscillator included
    code, out, err = invoke(capsys, ["spectrum", "--kind", kind, "--lambda", lam, "--phase", "ssb"])
    assert (code, out) == (2, "")
    assert err.startswith("effosc: invalid request: ") and "g < 0" in err


@pytest.mark.parametrize("kind_args", [
    ["--kind", "quartic-dwo", "--lambda", "0.09"],
    ["--kind", "sextic-dwo", "--g", "-3", "--lambda", "0.2"],
])
def test_forced_ssb_series_is_refused(capsys, monkeypatch, kind_args):
    # the series is defined about an undisplaced solution only; a forced
    # displaced phase must not print the symmetric level's series
    import effosc.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("rs_corrections called")

    argv = ["spectrum", *kind_args, "--levels", "0", "--phase", "ssb"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0 and json.loads(out)["records"][0]["phase"] == "SSB"
    monkeypatch.setattr(cli, "rs_corrections", never)
    code, out, err = invoke(capsys, argv + ["--order", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("effosc: numerical failure: --phase ssb: ")


def test_phase_flag(capsys):
    base = ["spectrum", "--kind", "quartic-dwo", "--lambda", "0.02", "--levels", "0", "--format", "json"]
    for flag, want in [(["--phase", "ssb"], "SSB"), (["--phase", "sr"], "SR"), ([], "SSB")]:
        code, out, _ = invoke(capsys, base + flag)
        assert code == 0
        assert json.loads(out)["records"][0]["phase"] == want


def test_out_file_write_then_rename(capsys, tmp_path):
    target = tmp_path / "result.json"
    argv = ["spectrum", "--kind", "sextic-aho", "--lambda", "0.5", "--levels", "0..2", "--out", str(target)]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert out == ""  # redirected to the file
    disk = target.read_text()
    code2, stdout, _ = invoke(capsys, argv[:-2])
    assert disk == stdout
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]  # no temp droppings


def test_no_partial_file_on_failure(capsys, tmp_path):
    target = tmp_path / "never.json"
    code, _, _ = invoke(
        capsys,
        ["spectrum", "--kind", "quartic-dwo", "--lambda", "0.2", "--levels", "0",
         "--phase", "ssb", "--out", str(target)],
    )
    assert code == 3
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_table_2_matches_module_recomputation(capsys):
    code, out, _ = invoke(capsys, ["table", "--id", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    recs = payload["records"]
    assert len(recs) == 20
    for rec in recs[:6]:
        spec = OscillatorSpec(4, -1.0, rec["lambda"])
        want = well_referenced_energy(spec, level_solution(spec, rec["n"]).E0)
        assert rec["value"] == pytest.approx(want, rel=1e-9)
        assert rec["convention"] == "paper-table-2"


def test_table_3_convention(capsys):
    code, out, _ = invoke(capsys, ["table", "--id", "3", "--format", "json"])
    payload = json.loads(out)
    rec = payload["records"][0]
    assert rec["lambda_table"] == 0.2
    assert rec["lambda"] == 0.1  # solver coupling is half the table coupling
    want = 2.0 * level_solution(OscillatorSpec(6, 1.0, 0.1), 0).E0
    assert rec["value"] == pytest.approx(want, rel=1e-9)


def test_convention_doubling(capsys):
    base = ["spectrum", "--kind", "sextic-aho", "--lambda", "0.5", "--levels", "0..2"]
    _, half_out, _ = invoke(capsys, base)
    _, paper_out, _ = invoke(capsys, base + ["--convention", "paper"])
    half = json.loads(half_out)["records"]
    paper = json.loads(paper_out)["records"]
    for h, p in zip(half, paper):
        assert p["E0"] == pytest.approx(2.0 * h["E0"], rel=1e-9)
    # the quartic family is already quoted in our units
    base4 = ["spectrum", "--kind", "quartic-aho", "--lambda", "0.5", "--levels", "0"]
    _, h4, _ = invoke(capsys, base4)
    _, p4, _ = invoke(capsys, base4 + ["--convention", "paper"])
    assert json.loads(h4)["records"][0]["E0"] == json.loads(p4)["records"][0]["E0"]


def test_negative_leading_values_accepted(capsys):
    code, out, _ = invoke(
        capsys, ["effective-potential", "--lambda", "0.1", "--grid", "-1:1:0.5"]
    )
    assert code == 0
    recs = json.loads(out)["records"]
    assert [r["s"] for r in recs] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    for r in recs:
        assert r["v_variational"] <= r["v_perturbative"] + 1e-12


def test_ipt_subcommand(capsys):
    code, out, _ = invoke(
        capsys, ["ipt", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0", "--order", "4"]
    )
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert len(rec["corrections"]) == 4
    assert len(rec["partial_sums"]) == 5
    assert rec["basis_dim"] == 13
    assert rec["partial_sums"][2] == pytest.approx(0.5589266589, abs=1e-9)


def test_ipt_order_defaults_to_four(capsys):
    argv = ["ipt", "--kind", "sextic-aho", "--lambda", "0.5", "--levels", "0..3"]
    default = invoke(capsys, argv)
    assert default[0] == 0
    assert default == invoke(capsys, argv + ["--order", "4"])
    code, out, err = invoke(capsys, argv + ["--order", "0"])
    assert (code, out) == (2, "")
    assert "invalid choice" in err


def test_oracle_subcommand(capsys):
    code, out, _ = invoke(
        capsys, ["oracle", "--kind", "quartic-aho", "--lambda", "1", "--levels", "0..2"]
    )
    assert code == 0
    recs = json.loads(out)["records"]
    assert recs[0]["oracle"] == pytest.approx(0.80377065, abs=1e-7)
    assert recs[1]["oracle"] == pytest.approx(2.73789227, abs=1e-7)
    for rec in recs:
        assert rec["oracle_convergence"] < 1e-9
        assert rec["basis_dim"] >= 12


def test_vacuum_subcommand(capsys):
    code, out, _ = invoke(capsys, ["vacuum", "--lambda", "0.1"])
    rec = json.loads(out)["records"][0]
    assert rec["w0"] == 1.0
    assert rec["alpha"] == pytest.approx(-0.0999156341, abs=1e-9)
    assert rec["n0"] == pytest.approx(0.0100163992, abs=1e-9)
    assert rec["stability_gap"] < 0.0


def test_susy_subcommands(capsys):
    code, out, _ = invoke(capsys, ["susy", "ispp", "--b", "1", "--levels", "0..2"])
    assert code == 0
    recs = json.loads(out)["records"]
    assert recs[0]["residual"] == pytest.approx(0.4311332085, abs=1e-8)
    code2, out2, _ = invoke(capsys, ["susy", "scaling", "--b", "4", "--levels", "0..3"])
    assert code2 == 0
    for rec in json.loads(out2)["records"]:
        assert abs(rec["residual"]) <= 1e-9


@pytest.mark.parametrize("mode, argv, records", [
    ("ispp", ["--b", "1", "--levels", "0..20"], 21),
    ("scaling", ["--b", "0.5,2", "--levels", "0..4"], 20),
])
def test_susy_records_solve_two_levels_each(capsys, monkeypatch, mode, argv, records):
    # a record's residual comes from the solutions it prints: the partner
    # pair for ispp, the level and its b = 1 partner for scaling, solved
    # once per (partner, n) for all the b values (2 x 5 here)
    import effosc.cli as cli
    import effosc.susy as susy

    calls = []

    def counted(spec, n):
        calls.append((spec, n))
        return level_solution(spec, n)

    monkeypatch.setattr(cli, "level_solution", counted)
    monkeypatch.setattr(susy, "level_solution", counted)
    code, out, _ = invoke(capsys, ["susy", mode, *argv])
    assert code == 0
    recs = json.loads(out)["records"]
    solves = {"ispp": 2 * records, "scaling": records + 10}[mode]
    assert (len(recs), len(calls), len(set(calls))) == (records, solves, solves)
    # the same residuals as the library definitions
    for rec in recs:
        if mode == "ispp":
            want = 2.0 * susy.ispp_residual(rec["b"], rec["n"])
        else:
            want = susy.scaling_residual(rec["b"], rec["n"], rec["kind"][len("sextic-"):])
        assert rec["residual"] == _round10(want), rec


def test_susy_wavefunction_deterministic(capsys):
    argv = ["susy", "wavefunction", "--b", "100", "--grid", "-2:2:0.005"]
    _, a, _ = invoke(capsys, argv)
    _, b, _ = invoke(capsys, argv)
    assert a == b
    payload = json.loads(a)
    assert payload["meta"]["overlap"] == pytest.approx(0.9842922251, abs=1e-8)
    curves = {r["curve"] for r in payload["records"]}
    assert curves == {"susy_exact", "effective_gaussian"}
    n_nodes = len([r for r in payload["records"] if r["curve"] == "susy_exact"])
    assert n_nodes == 801


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "effosc.cli", "table", "--id", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    header = proc.stdout.split("\n", 1)[0]
    assert header.startswith("kind,g,lambda,lambda_table,n,")


@settings(max_examples=120, deadline=None)
@given(st.floats(min_value=-1e307, max_value=1e307, allow_nan=False, width=64))
def test_round10_idempotent(x):
    once = _round10(x)
    assert _round10(once) == once
    assert _fmt(once) == _fmt(x)


def _round_floats(obj):
    """Reference rounding: every float to 10 significant digits, containers rebuilt."""
    if isinstance(obj, float):
        return float(format(obj, ".10g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
                     -1e300, 0.0, -0.0, 2.319545786e-174]),
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
@example(1.7976931348e308)
@example({"x": [1.0, -1.7976931348e308]})
def test_json_writer_matches_json_dumps(payload):
    # strict JSON or a numerical failure: a leaf that rounds past the largest
    # float is refused, never spelled Infinity
    try:
        want = json.dumps(_round_floats(payload), indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(SolverError, match="non-finite output value"):
            _json(payload)
    else:
        assert _json(payload) == want


def test_octic_huge_coupling_frequency(capsys):
    code, out, _ = invoke(capsys, ["spectrum", "--kind", "octic-aho", "--lambda", "1e30",
                                   "--format", "csv"])
    assert code == 0
    assert out.split("\n")[1].split(",")[6] == "2536517.482"


def test_octic_symmetric_well_tiny_coupling(capsys):
    # w⁵ = 35 h lam at g = 0: a real root far below 1, not a missing branch
    code, out, err = invoke(capsys, ["spectrum", "--kind", "octic-aho", "--g", "0",
                                     "--lambda", "1e-60", "--format", "csv"])
    assert (code, err) == (0, "")
    w = float(out.split("\n")[1].split(",")[6])
    assert w == pytest.approx((35.0 * 3.0 * 1e-60) ** 0.2, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kind", "quartic-aho", "--lambda", "inf"],
    ["spectrum", "--kind", "quartic-aho", "--lambda", "nan"],
    ["spectrum", "--kind", "quartic-aho", "--lambda", "0:inf:1"],
    ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--g", "inf"],
    ["oracle", "--kind", "quartic-aho", "--lambda", "1", "--rel-tol", "nan"],
    ["effective-potential", "--lambda", "0.1", "--grid", "-1:1:nan"],
    ["susy", "ispp", "--b", "nan"],
])
def test_non_finite_input_rejected(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert "non-finite value" in err


def test_non_finite_result_is_numerical_failure(capsys, tmp_path):
    argv = ["spectrum", "--kind", "quartic-aho", "--lambda", "1e300"]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert "non-finite" in err
    target = tmp_path / "never.json"
    assert invoke(capsys, argv + ["--out", str(target)])[0] == 3
    assert list(tmp_path.iterdir()) == []
    # an overflow inside a solver is a numerical failure, not a traceback
    code, out, err = invoke(capsys, ["effective-potential", "--lambda", "1e300"])
    assert (code, out) == (3, "")


@pytest.mark.parametrize("argv", [
    ["oracle", "--kind", "quartic-aho", "--lambda", "1", "--levels", "0",
     "--rel-tol", "1.7976931348e308"],
    ["susy", "wavefunction", "--b", "1", "--grid", "1.7976931348e308,1"],
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_value_rounding_past_largest_float_is_numerical_failure(capsys, tmp_path, argv, fmt):
    # finite requests whose 10-digit output is inf, in meta (rel_tol) or in a
    # record (f): JSON would spell Infinity, CSV a cell that parses to inf
    argv = argv + ["--format", fmt]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert "numerical failure: non-finite output value 1.7976931348e+308" in err
    target = tmp_path / f"never.{fmt}"
    assert invoke(capsys, argv + ["--out", str(target)])[:2] == (3, "")
    assert list(tmp_path.iterdir()) == []


_SEXTIC_TINY_W = ["--kind", "sextic-dwo", "--g", "-3", "--lambda", "1e-250", "--levels", "0"]


@pytest.mark.parametrize("argv", [
    # w ≈ 3e-125, so the sextic moments' w³ underflows to 0
    ["spectrum", *_SEXTIC_TINY_W],
    ["spectrum", *_SEXTIC_TINY_W, "--order", "2"],
    ["ipt", *_SEXTIC_TINY_W],
    ["oracle", *_SEXTIC_TINY_W],
    # √(g² + 4c) overflows, which leaves w = 0
    ["spectrum", "--kind", "sextic-dwo", "--g", "-1e300", "--lambda", "1", "--levels", "0"],
    ["spectrum", "--kind", "sextic-aho", "--g", "1e-300", "--lambda", "0", "--levels", "0"],
])
def test_frequency_underflow_is_numerical_failure(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("effosc: numerical failure: frequency ")
    assert err.endswith(", x = 0.5 underflows: w^3 is 0\n")


@pytest.mark.parametrize("grid", ["1e100,1", "-1e100,1e100"])
def test_susy_wavefunction_far_grid_is_quiet(capsys, grid):
    # f⁴ and f² overflow far out, where both amplitudes are 0: no numpy
    # warning may reach stderr (the samples, then the overlap quadrature)
    code, out, err = invoke(capsys, ["susy", "wavefunction", "--b", "1", "--grid", grid])
    assert (code, err) == (0, "")
    far = [rec["psi"] for rec in json.loads(out)["records"] if abs(rec["f"]) == 1e100]
    assert far and set(far) == {0.0}


def test_oracle_lapack_failure_is_numerical_failure(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which would read as a bad request
    # (seen for `--kind sextic-dwo --g -3 --lambda 1e-200`: sbevd info=834)
    import numpy as np
    import scipy.linalg

    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("sbevd did not converge (LAPACK info=834)")

    monkeypatch.setattr(scipy.linalg, "eig_banded", unconverged)
    code, out, err = invoke(capsys, ["oracle", "--kind", "quartic-aho", "--lambda", "1"])
    assert (code, out) == (3, "")
    assert err == ("effosc: numerical failure: diagonalizing the 4-state basis failed: "
                   "sbevd did not converge (LAPACK info=834)\n")


@pytest.mark.parametrize("lam", ["1e200", "1e300"])
def test_vacuum_overflow_is_numerical_failure(capsys, lam):
    code, out, err = invoke(capsys, ["vacuum", "--lambda", lam])
    assert (code, out) == (3, "")
    assert "non-finite" in err


def test_out_of_memory_is_numerical_failure(capsys, monkeypatch):
    import effosc.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "rs_corrections", exhausted)
    code, out, err = invoke(
        capsys, ["ipt", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0"])
    assert (code, out) == (3, "")
    assert err == "effosc: numerical failure: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kind", "quartic-aho", "--lambda", "0:1:1e-7"],
    ["spectrum", "--kind", "quartic-aho", "--lambda", "0:1e300:1e-300"],
    ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0..99999999999"],
    ["spectrum", "--kind", "quartic-aho", "--lambda", "0:1:0.001", "--levels", "0..1000"],
    ["susy", "wavefunction", "--b", "1,2", "--grid", "0:1:2e-6"],
])
def test_request_above_cell_cap_rejected(capsys, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"limit of {MAX_CELLS} cells" in err


def test_effective_potential_json_is_strict_and_matches_csv(capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    base = ["effective-potential", "--lambda", "0.1,1", "--grid", "-1:1:0.5"]
    code, out, _ = invoke(capsys, base)
    assert code == 0
    records = json.loads(out, parse_constant=reject)["records"]
    _, csv_out, _ = invoke(capsys, base + ["--format", "csv"])
    header = csv_out.split("\n", 1)[0].split(",")
    assert len(records) == 10
    assert all(list(rec) == header for rec in records)


_LEVEL_COLUMNS = "kind,g,lambda,n,phase,convention,w,E0,corrections"


@pytest.mark.parametrize("argv, header", [
    (["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--order", "0"], _LEVEL_COLUMNS),
    (["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--order", "2"],
     _LEVEL_COLUMNS + ",E_ipt"),
    (["spectrum", "--kind", "quartic-dwo", "--lambda", "0.02", "--phase", "ssb"], _LEVEL_COLUMNS),
    (["ipt", "--kind", "quartic-aho", "--lambda", "0.1"], _LEVEL_COLUMNS + ",partial_sums,basis_dim"),
    (["oracle", "--kind", "quartic-aho", "--lambda", "1"],
     _LEVEL_COLUMNS + ",oracle,oracle_convergence,basis_dim"),
    (["vacuum", "--lambda", "0.1"], _LEVEL_COLUMNS + ",w0,alpha,n0,E0_pert,stability_gap"),
    (["susy", "ispp", "--levels", "0"], _LEVEL_COLUMNS + ",b,partner_E0,residual"),
    (["susy", "scaling", "--levels", "0"], _LEVEL_COLUMNS + ",b,residual"),
    (["susy", "wavefunction", "--grid", "-1:1:1"], "curve,b,f,psi"),
])
def test_csv_header(capsys, argv, header):
    code, out, err = invoke(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    assert out.split("\n", 1)[0] == header


def test_negative_level_range_rejected_before_solving(capsys, monkeypatch):
    import effosc.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("exact_levels called")

    monkeypatch.setattr(cli, "exact_levels", never)
    code, out, err = invoke(capsys, ["oracle", "--kind", "quartic-aho", "--lambda", "1",
                                     "--levels", "-2..3"])
    assert (code, out) == (2, "")
    assert err == "effosc: invalid request: levels must be non-negative\n"
