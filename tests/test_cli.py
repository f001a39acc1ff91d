import json
import math
import random
import struct
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


@pytest.mark.parametrize("flag, value, message", [
    ("--lambda", "0.1:1", "range must be a:b:step, got '0.1:1'"),
    ("--lambda", "0.1:1:0", "range step must be positive"),
    ("--lambda", "0.1:1:-0.5", "range step must be positive"),
    ("--lambda", "2:1:1", "empty range '2:1:1'"),
    ("--lambda", ",", "empty value list"),
    ("--levels", ",", "empty level list"),
    ("--levels", "5..2", "descending level range '5..2'"),
])
def test_list_flag_parse_errors_are_invalid_requests(capsys, flag, value, message):
    argv = ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0"]
    argv[argv.index(flag) + 1] = value
    assert invoke(capsys, argv) == (2, "", f"effosc: invalid request: {message}\n")


def test_exit_code_numerical_failure(capsys):
    # forced displaced branch above its critical coupling
    code, out, err = invoke(
        capsys,
        ["spectrum", "--kind", "quartic-dwo", "--lambda", "0.2", "--levels", "0", "--phase", "ssb"],
    )
    assert code == 3
    assert out == ""
    assert "critical" in err


@pytest.mark.parametrize("phase", [[], ["--phase", "ssb"]])
def test_displaced_sextic_coefficient_overflow_is_numerical_failure(capsys, phase):
    # D² g/(6 lam) in the displaced branch's quartic overflows; np.roots would
    # reject it as an invalid request (the automatic phase solves the grid in
    # a batch, the forced one cell by cell)
    argv = ["spectrum", "--kind", "sextic-dwo", "--g", "-1e64", "--lambda", "1e125",
            "--levels", "0", *phase]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert err == ("effosc: numerical failure: broken-symmetry branch for k=6, g=-1e+64, "
                   "lambda=1e+125, n=0: its quartic in w^2 has a coefficient that is not finite\n")


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


def test_unwritable_out_path_is_an_invalid_request(capsys, tmp_path):
    # a missing directory, and a directory at the path: exit 2, nothing left behind
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "x.csv", tmp_path / "taken"):
        code, out, err = invoke(capsys, ["table", "--id", "1", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"effosc: invalid request: cannot write {target}: ")
        assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


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


def test_one_process_prints_what_separate_processes_print(capsys, monkeypatch):
    # the parser is built once per process: a usage error, a valid request and
    # another subcommand run in turn give what each gives in a process of its own
    import effosc.cli as cli

    argvs = [["spectrum", "--kind", "nope"],
             ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0..2"],
             ["table", "--id", "1"],
             ["spectrum", "--kind", "nope"]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    together = [invoke(capsys, argv) for argv in argvs]
    alone = [subprocess.run([sys.executable, "-m", "effosc.cli", *argv], capture_output=True, text=True)
             for argv in argvs]
    assert together == [(proc.returncode, proc.stdout, proc.stderr) for proc in alone]
    assert [code for code, _, _ in together] == [2, 0, 0, 2]
    assert cli._build_parser() is cli._build_parser()


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


_past_largest = 1.7976931348e308  # finite, but inf once rounded to 10 digits
_csv_scalars = [
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([_past_largest, -0.0]),
    st.integers(), st.text(max_size=4), st.booleans(), st.none(),
]
_csv_columns = _csv_scalars + [
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(_past_largest), max_size=3),
    st.lists(st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False)), max_size=3),
]


def _csv_reference(meta, records, columns):
    """CSV written value by value, record by record."""
    _json(meta)
    lines = [",".join(columns)]
    for rec in records:
        cells = []
        for value in (rec[col] for col in columns):
            if isinstance(value, (list, tuple)):
                cells.append(";".join(_fmt(v) for v in value))
            elif isinstance(value, (int, float)):
                cells.append(_fmt(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(write, *args):
    try:
        return write(*args)
    except SolverError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True),
       size=st.integers(min_value=1, max_value=4), fmt=st.sampled_from(["json", "csv"]),
       data=st.data())
def test_column_writer_matches_the_per_value_writers(keys, size, fmt, data):
    # the same text, or the same first value refused in record order, as
    # `_json` over the whole document or the CSV cells one by one
    from effosc.cli import _columns, _render

    kinds = _csv_columns + ([_json_payloads] if fmt == "json" else [])
    table = {key: data.draw(st.lists(data.draw(st.sampled_from(kinds)), min_size=size,
                                     max_size=size)) for key in keys}
    records = [dict(zip(table, row)) for row in zip(*table.values())]
    meta = {"x": data.draw(st.sampled_from([1.0, _past_largest]))}
    assert _columns(records) == table
    if fmt == "json":
        want = _outcome(lambda: _json({"meta": meta, "records": records}) + "\n")
    else:
        want = _outcome(_csv_reference, meta, records, keys[::-1])
    assert _outcome(_render, meta, table, fmt, keys[::-1]) == want


# "%.10g" texts of every kind the per-value writers spell otherwise, and values near them
_LONG_COLUMN_SPECIALS = [
    1.0, -1.0, 0.0, -0.0, 123456789.0, 1e10, -1.5e12, 2.345678901e15, 9.9999999996e15, 1e16,
    5e-324, -2.5e-320, 1.234567891e-315, 2.2250738585072014e-308, 1e-300, 1.797693134e308,
    -1.7976931344e308,
]


def _long_column_value(rng):
    draw = rng.random()
    if draw < 0.4:
        return rng.choice(_LONG_COLUMN_SPECIALS)
    if draw < 0.6:
        return float(rng.randint(-10**17, 10**17))
    if draw < 0.8:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-323, 307)
    bits = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return bits if abs(bits) < 1.797693134e308 else 0.5  # finite, and finite once rounded


@pytest.mark.parametrize("refused, message", [
    ([], None),
    ([("w", 1500, _past_largest), ("E0", 700, -_past_largest)], "-1.7976931348e+308"),
    ([("lambda", 1900, math.nan), ("lambda", 1200, -math.inf)], "-inf"),
    ([("g", None, _past_largest)], "1.7976931348e+308"),
], ids=["finite", "past-largest", "nan-inf", "constant"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_column_writer_matches_the_per_value_writers_on_long_columns(fmt, refused, message):
    # 2000-row columns repeat each suspect text many times, so the column
    # writer rewrites its distinct texts; a refused value sits at a later row
    # of an earlier column than another, and the earlier row is reported; nan
    # and inf are refused in a column whose other texts need no rewrite; g and
    # order hold one object in every row, as a grid's g and empty corrections
    from effosc.cli import _render

    rng = random.Random(f"{fmt}-{message}")
    size = 2000
    table = {"w": [_long_column_value(rng) for _ in range(size)], "n": list(range(size)),
             "E0": [_long_column_value(rng) for _ in range(size)],
             "lambda": [rng.uniform(0.01, 10.0) for _ in range(size)], "g": [-1.0] * size,
             "order": [[]] * size,
             "corrections": [[_long_column_value(rng) for _ in range(rng.randrange(3))]
                             for _ in range(size)]}
    for key, row, value in refused:
        if row is None:
            table[key] = [value] * size
        else:
            table[key][row] = value
    records = [dict(zip(table, row)) for row in zip(*table.values())]
    meta = {"lambda": [_long_column_value(rng) for _ in range(size)]}
    columns = ["E0", "n", "corrections", "w", "lambda", "g", "order"]
    if fmt == "json":
        want = _outcome(lambda: _json({"meta": meta, "records": records}) + "\n")
    else:
        want = _outcome(_csv_reference, meta, records, columns)
    got = _outcome(_render, meta, table, fmt, columns)
    assert got == want
    if refused:
        assert got == f"non-finite output value {message} at 10 significant digits"
    elif fmt == "json":  # the meta float list is written by the column writer too
        document = {"meta": meta, "records": records}
        assert got == json.dumps(_round_floats(document), indent=2, allow_nan=False) + "\n"


_REPEATED_TABLES = {
    # every column one object in every record: each record is fixed text only
    "all-repeated": {"kind": ["quartic-aho"] * 3, "g": [-1.0] * 3, "n": [7] * 3, "ok": [True] * 3,
                     "corrections": [[]] * 3, "order": [[0.25, 1e20]] * 3},
    # keys that a format template would have to escape, repeated and varying columns mixed
    "odd-keys": {"%s": [1.0, 2.5], '"q"': ["a", "b"], "{x}": [[]] * 2, "%%": [3, 4],
                 '{"%': ["SR"] * 2},
}


@pytest.mark.parametrize("case", ["all-repeated", "odd-keys", "sweep-grid"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_writes_repeated_columns_and_any_key_as_the_per_value_writers(fmt, case):
    # a repeated column's one text sits in the records' fixed text; a 10k-record
    # sweep-shaped grid puts repeated columns (kind, g, convention, corrections)
    # among the varying ones, first and last in the CSV order
    from effosc.cli import _column_texts, _grid_table, _render
    from effosc.spectrum import level_grid

    if case == "sweep-grid":
        lams, levels = [0.01 * 1000.0 ** (i / 999) for i in range(1000)], list(range(10))
        table = _grid_table("quartic-dwo", -1.0, lams, levels, level_grid(4, -1.0, lams, levels), "half")
        columns = ["kind", "lambda", "n", "phase", "w", "E0", "g", "convention", "corrections"]
        assert set(table["phase"]) == {"SR", "SSB"}
    else:
        table = _REPEATED_TABLES[case]
        columns = list(table)[::-1]
    repeated = {key for key, values in table.items() if isinstance(_column_texts(values, fmt), str)}
    assert repeated == ({"kind", "g", "convention", "corrections"} if case == "sweep-grid" else
                        set(table) if case == "all-repeated" else {"{x}", '{"%'})
    records = [dict(zip(table, row)) for row in zip(*table.values())]
    meta = {"kind": "quartic-dwo", "lambda": [0.5, 1.5]}
    if fmt == "json":
        want = _json({"meta": meta, "records": records}) + "\n"
    else:
        want = _csv_reference(meta, records, columns)
    assert _render(meta, table, fmt, columns) == want


# (kind, k, g, lams, levels, convention, scale, after_lambda) of grid tables
# whose tiled columns have one distinct value, or one per record
_STRUCTURED_GRIDS = {
    "1xN": ("quartic-aho", 4, 1.0, [0.37], list(range(41)), "half", 1.0, {}),
    "Nx1": ("sextic-aho", 6, 1.0, [0.01 * 1.02 ** i for i in range(300)], [7], "half", 1.0, {}),
    "paper": ("sextic-dwo", 6, -3.0, [0.005 * 1.1 ** i for i in range(32)], list(range(10)), "paper",
              2.0, {}),
    "lambda-table": ("sextic-aho", 6, 1.0, [0.1, 1.0, 5.0], [0, 1, 2, 4], "paper-table-3", 1.0,
                     {"lambda_table": [0.2, 2.0, 10.0]}),
}


def _by_definition(column) -> list:
    """A column's record values; a `_Tiled` column's record i holds
    distinct[(i // each) % len(distinct)]."""
    from effosc.cli import _Tiled

    if not isinstance(column, _Tiled):
        return list(column)
    return [column.distinct[(i // column.each) % len(column.distinct)] for i in range(len(column))]


def _structured_table(case):
    """(meta, table, float values the writer formats or None) of a case."""
    from effosc.cli import _grid_table, table_records
    from effosc.model import Phase
    from effosc.spectrum import LevelGrid, level_grid

    if case.startswith("table-"):
        return {"id": int(case[-1])}, table_records(int(case[-1])), None
    if case == "failing":  # cell 3's E0 is inf once scaled; record 4's w, in an earlier column, too
        lams, levels = [0.5, 1.5, 2.5], [0, 1]
        grid = LevelGrid(phase=[Phase.SYMMETRY_RESTORED] * 6, w=[1.0] * 4 + [_past_largest, 1.0],
                         E0=[1.0, 2.0, 3.0, 1e308, 5.0, 6.0], failures={})
        return {"lambda": lams}, _grid_table("sextic-aho", 1.0, lams, levels, grid, "paper", 2.0), None
    kind, k, g, lams, levels, convention, scale, after = _STRUCTURED_GRIDS[case]
    grid = level_grid(k, g, lams, levels)
    table = _grid_table(kind, g, lams, levels, grid, convention, scale, **after)
    # meta's and the lambda column's couplings, g, w and E0, and any lambda_table
    formatted = 2 * len(lams) + 1 + 2 * len(grid.w) + sum(map(len, after.values()))
    return {"kind": kind, "lambda": lams}, table, formatted


@pytest.mark.parametrize("case", [*_STRUCTURED_GRIDS, "table-3", "table-4", "failing"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tiled_grid_columns_write_as_the_per_value_writers(monkeypatch, fmt, case):
    # a grid table's lambda, n, after-lambda and constant columns are written
    # once per distinct value and laid out record by record, byte for byte as
    # the per-value writers, in a CSV order with lambda first and n last; a
    # failing grid reports its first value in record order
    import effosc.cli as cli

    with monkeypatch.context() as patch:  # a table's parts are joined by their record values
        patch.setattr(cli._Tiled, "__iter__", lambda column: iter(_by_definition(column)))
        plain = {key: _by_definition(column) for key, column in _structured_table(case)[1].items()}
    meta, table, formatted = _structured_table(case)
    if case in _STRUCTURED_GRIDS:  # coupling-major
        _, _, _, lams, levels, *_ = _STRUCTURED_GRIDS[case]
        assert plain["lambda"] == [lam for lam in lams for _ in levels]
        assert plain["n"] == list(levels) * len(lams)
    records = [dict(zip(plain, row)) for row in zip(*plain.values())]
    columns = ["lambda", *(key for key in table if key not in ("lambda", "n")), "n"]
    if fmt == "json":
        want = _outcome(lambda: _json({"meta": meta, "records": records}) + "\n")
    else:
        want = _outcome(_csv_reference, meta, records, columns)
    counts, float_texts = [], cli._float_texts
    monkeypatch.setattr(cli, "_float_texts",
                        lambda values, fmt: counts.append(len(values)) or float_texts(values, fmt))
    got = _outcome(cli._render, meta, table, fmt, columns)
    assert got == want
    if case == "failing":
        assert got == "non-finite output value inf at 10 significant digits"
    if formatted is not None:
        assert sum(counts) == formatted


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_rounds_only_distinct_suspect_texts(capsys, monkeypatch, fmt):
    # a 10k-record grid (and its 1000-value meta list) is written by whole
    # columns: `_round10` runs once per distinct text the `%` writer cannot
    # spell, never once per value
    import effosc.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_round10", lambda value: calls.append(value) or _round10(value))
    code, out, err = invoke(capsys, ["spectrum", "--kind", "quartic-dwo", "--lambda", "0.001:1:0.001",
                                     "--levels", "0..9", "--format", fmt])
    assert (code, err) == (0, "")
    assert out.count("\n") >= 10_000
    assert len(calls) <= 16


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


@pytest.mark.parametrize("rel_tol, code, err", [
    ("1e308", 0, ""),
    ("1.7976931348e308", 3,
     "effosc: numerical failure: non-finite output value 1.7976931348e+308 at 10 significant digits\n"),
])
def test_oracle_rel_tol_near_the_largest_float_is_quiet(rel_tol, code, err):
    # rel_tol * scale overflows to an inf bound, which still reads as
    # converged; numpy's overflow warning must not reach stderr
    argv = ["oracle", "--kind", "quartic-aho", "--lambda", "1", "--levels", "0..3", "--rel-tol", rel_tol]
    proc = subprocess.run([sys.executable, "-m", "effosc.cli", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("g", ["1e300", "1e308"])
def test_oracle_two_state_blocks_at_a_huge_band_norm_print_strict_json(g):
    # with n_max = 0 each parity block holds 2 states; LAPACK rescales a band
    # whose norm is above ~1e146 and rejects a bandwidth as wide as the block,
    # printing its complaint to stdout ahead of the JSON
    argv = ["oracle", "--kind", "quartic-aho", "--g=" + g, "--lambda", "1", "--levels", "0"]
    proc = subprocess.run([sys.executable, "-m", "effosc.cli", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")

    def refuse(constant):
        raise ValueError(constant)

    (record,) = json.loads(proc.stdout, parse_constant=refuse)["records"]
    assert record["oracle"] == record["E0"] == float(g) ** 0.5 / 2.0


def test_susy_wavefunction_with_an_infinite_norm_prints_one_line():
    # (8b)^(1/8) is inf from b ~ 2.2e307 on, and inf * 0 far out is NaN:
    # the output rule refuses it without numpy's warning ahead of the message
    argv = ["susy", "wavefunction", "--b", "2.3e307", "--grid=-2:2:0.5"]
    proc = subprocess.run([sys.executable, "-m", "effosc.cli", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("effosc: ")


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


@pytest.mark.parametrize("command", ["spectrum", "ipt", "oracle"])
def test_frequency_overflow_is_numerical_failure(capsys, command):
    # w ≈ 1e150, so the octic moments' w⁴ overflows
    code, out, err = invoke(
        capsys, [command, "--kind", "octic-aho", "--g", "1e300", "--lambda", "1", "--levels", "0"])
    assert (code, out) == (3, "")
    assert err == ("effosc: numerical failure: frequency 1.0000000000000002e+150 at coupling 1, "
                   "x = 0.5 overflows: w^4 is not finite\n")


def test_susy_wavefunction_wide_window_matches_narrow(capsys):
    # the overlap quadrature must still sample the O(1) peak of a window this wide
    meta = {}
    for grid in ("-1e6,1e6", "-10,10"):
        code, out, _ = invoke(capsys, ["susy", "wavefunction", "--b", "1", f"--grid={grid}"])
        assert code == 0
        meta[grid] = json.loads(out)["meta"]
    wide, narrow = meta["-1e6,1e6"], meta["-10,10"]
    assert narrow["overlap"] == pytest.approx(0.9842922251, abs=1e-9)
    for key in ("overlap", "l2_distance"):
        assert abs(wide[key] - narrow[key]) <= 1e-9, key


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


def test_oracle_element_overflow_is_numerical_failure():
    # w ≈ 9e-103 passes the w³ check, but the f⁶ matrix elements overflow to
    # inf; they are refused before LAPACK, which would write its own complaint
    # to file descriptor 1, where capsys does not look
    argv = ["oracle", "--kind", "sextic-dwo", "--g", "-3", "--lambda", "1e-205", "--levels", "0"]
    proc = subprocess.run([sys.executable, "-m", "effosc.cli", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("effosc: numerical failure: the 4-state Hamiltonian has a "
                           "non-finite element H[3, 3] = inf\n")


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


_SCIPY_PROBE = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import effosc, effosc.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = [("import", 0, scipy_modules())]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = effosc.cli.run(argv)
    report.append((" ".join(argv), code, scipy_modules()))
print(json.dumps(report))
"""


def test_scipy_is_loaded_only_by_oracle():
    # importing the package and every other subcommand load no SciPy; the
    # oracle's banded eigensolver loads scipy.linalg when it runs
    import pathlib

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    light = [
        ["spectrum", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0..2"],
        ["table", "--id", "1"],
        ["ipt", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0"],
        ["vacuum", "--lambda", "0.1"],
        ["susy", "ispp", "--levels", "0..2"],
        ["susy", "wavefunction", "--b", "1", "--grid=-10:10:0.5"],
    ]
    heavy = ["oracle", "--kind", "quartic-aho", "--lambda", "0.1", "--levels", "0"]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, src, json.dumps(light + [heavy])],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    for step, code, modules in report[:-1]:
        assert (step, code, modules) == (step, 0, []), step
    _, oracle_code, after_oracle = report[-1]
    assert oracle_code == 0
    assert "scipy.linalg" in after_oracle
    assert [m for m in after_oracle if m.startswith("scipy.sparse")] == []  # bands are numpy
    assert "scipy.integrate" not in after_oracle
    # beside SciPy's private package modules, scipy.linalg is the only subpackage
    public = {m.split(".")[1] for m in after_oracle if m != "scipy"}
    assert {p for p in public if not p.startswith("_")} - {"version"} == {"linalg"}


@pytest.mark.parametrize("kind, g, phase, w, e0", [
    # p^3 = (-g)^3 overflows past |g| ~ 5.6e102; the root w ~ sqrt|g| is finite
    ("quartic-aho", "1e150", "auto", 1e75, 5e74),
    ("quartic-dwo", "-1e150", "auto", 1.414213562e75, -6.25e298),
    ("quartic-dwo", "-1e150", "sr", 6e-150, -2.083333333e298),
])
def test_quartic_cubic_past_the_cube_overflow(capsys, kind, g, phase, w, e0):
    code, out, err = invoke(capsys, ["spectrum", "--kind", kind, "--g", g, "--lambda", "1",
                                     "--levels", "0", "--phase", phase])
    assert (code, err) == (0, "")
    (rec,) = json.loads(out)["records"]
    assert (rec["w"], rec["E0"]) == (w, e0)


@pytest.mark.parametrize("g, lam, phase, rec", [
    # the SR root w ~ 6 lam f/|g| cancelled out of Cardano's u - p/(3u): it was
    # -2.25 (exit 2, "frequency w must be positive") and 2.2e-16
    ("-1e30", "1", "auto", ("SSB", 1.414213562e15, -6.25e58)),
    ("-1e30", "1", "sr", ("SR", 6e-30, -2.083333333e58)),
    ("-1", "1e-150", "sr", ("SR", 6e-150, -2.083333333e148)),
])
def test_quartic_double_well_tiny_sr_root(capsys, g, lam, phase, rec):
    code, out, err = invoke(capsys, ["spectrum", "--kind", "quartic-dwo", "--g", g, "--lambda", lam,
                                     "--levels", "0", "--phase", phase])
    assert (code, err) == (0, "")
    (got,) = json.loads(out)["records"]
    assert (got["phase"], got["w"], got["E0"]) == rec


def _ssb_power_failure(g, lam):
    return (f"effosc: numerical failure: SSB state of k=4 at g={float(g)!r}, "
            f"lambda={float(lam)!r}, x = 0.5: a power of a float is not finite\n")


@pytest.mark.parametrize("g, lam, what", [
    ("-1e210", "1e100", "the critical coupling's (2|g|/3)^1.5"),
    ("-1e-100", "1e-300", "s^4 in the displaced <f^4>"),
    ("-1", "1e-160", "s^4 in the displaced <f^4>"),
])
def test_quartic_power_overflow_names_the_state(capsys, g, lam, what):
    # the SSB branch is forced: under auto the SR state may fail first
    code, out, err = invoke(capsys, ["spectrum", "--kind", "quartic-dwo", "--g", g,
                                     "--lambda", lam, "--levels", "0", "--phase", "ssb"])
    assert (code, out) == (3, ""), what
    assert err == _ssb_power_failure(g, lam)


@pytest.mark.parametrize("g, lam, err", [
    ("-1e210", "1e100", _ssb_power_failure("-1e210", "1e100")),
    # the SR root 6 lam f/|g| = 6e-200 is solved before the SSB state is tried
    ("-1e-100", "1e-300",
     "effosc: numerical failure: frequency 6e-200 at coupling 1e-300, x = 0.5 "
     "underflows: w^2 is 0\n"),
    ("-1", "1e-160", _ssb_power_failure("-1", "1e-160")),
])
def test_quartic_auto_phase_names_the_first_failure(capsys, g, lam, err):
    assert invoke(capsys, ["spectrum", "--kind", "quartic-dwo", "--g", g, "--lambda", lam,
                           "--levels", "0"]) == (3, "", err)


@pytest.mark.parametrize("g, w, e0", [
    ("-1e11", 632455.532, -4.303314829e15),
    ("-1e150", 2e75, -1.360827635e224),
])
@pytest.mark.parametrize("phase", ["auto", "ssb"])
def test_deep_sextic_well_prints_its_displaced_level(capsys, g, w, e0, phase):
    # the displaced root sits next to a second root of P(y) with Q > 0, which
    # np.roots turned into a complex pair; the symmetric level (-1.111e15 at
    # g = -1e11) was printed instead.  No numpy warning reaches stderr.
    code, out, err = invoke(capsys, ["spectrum", "--kind", "sextic-dwo", "--g", g,
                                     "--lambda", "1", "--levels", "0", "--phase", phase])
    assert (code, err) == (0, "")
    (rec,) = json.loads(out)["records"]
    assert (rec["phase"], rec["w"], rec["E0"]) == ("SSB", w, e0)
