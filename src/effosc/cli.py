"""Command-line interface: spectra, published-table reproduction, oracle runs,
perturbative corrections, vacuum diagnostics, and partner-potential checks.

Output is deterministic: fixed field order, floats rounded half-even to 10
significant digits, no timestamps.  Files are written via a temporary name and
a final rename so a failed run leaves no partial output behind.

Requests are bounded and finite: every float flag rejects inf/nan, and a
request may ask for at most ``MAX_CELLS`` cells (exit 2 for either).  An output
number that is not finite once rounded, in ``meta`` or in a record, is a
numerical failure (exit 3), as is a solve that runs out of memory.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from itertools import chain, islice, repeat
from operator import is_

from . import __version__
from .errors import SolverError, SSBUnsupported
from .ipt import rs_corrections
from .model import OscillatorSpec, Phase
from .oracle import exact_levels
from .spectrum import (
    LevelGrid,
    level_grid,
    level_solution,
    lo_energy_closed_form,
    phase_solution,
    well_referenced_energy,
)
from .susy import ground_wavefunction, partner_specs, wavefunction_distance
from .vacuum import effective_potential, vacuum_structure

_KINDS = {
    "quartic-aho": (4, 1.0),
    "quartic-dwo": (4, -1.0),
    "sextic-aho": (6, 1.0),
    "sextic-dwo": (6, -1.0),
    "octic-aho": (8, 1.0),
}

# Energy-unit adapter: "half" is the native convention (kinetic term p^2/2);
# "paper" doubles sextic/octic energies to match the upstream references'
# H = p^2 + ... normalization.  Quartic references already use the native one.
_PAPER_SCALE = {4: 1.0, 6: 2.0, 8: 2.0}

# Largest number of cells (values of one list flag, or the product of the
# lists a command combines, e.g. couplings x levels) one request may ask for.
MAX_CELLS = 1_000_000


def _round10(value: float) -> float:
    """Round a float to 10 significant digits (half-even): the one output rule.

    A value that is not finite once rounded, like one that rounds past the
    largest float, is a numerical failure.
    """
    rounded = float(format(value, ".10g"))
    if not math.isfinite(rounded):
        raise SolverError(f"non-finite output value {value!r} at 10 significant digits")
    return rounded


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(_round10(value), ".10g")


_json_str = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` with every float rounded by `_round10`.

    One pass over the payload with json's own scalar encodings; `indent` is
    the newline and indentation of the value's own depth.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(_round10(value))
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_str(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        floats = set(map(type, value)) == {float}
        items = _float_texts(value, "json") if floats else [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _check_cells(count) -> None:
    if count > MAX_CELLS:
        raise ValueError(f"request exceeds the limit of {MAX_CELLS} cells")


def _finite_float(text) -> float:
    """Parse one float flag value; inf and nan are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be a:b:step, got {text!r}")
        a, b, step = (_finite_float(v) for v in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        span = (b - a) / step + 1e-9
        count = math.floor(span) + 1 if span < MAX_CELLS else math.inf
        _check_cells(count)
        if count < 1:
            raise ValueError(f"empty range {text!r}")
        return [a + i * step for i in range(count)]
    parts = [v for v in text.split(",") if v.strip()]
    _check_cells(len(parts))
    values = [_finite_float(v) for v in parts]
    if not values:
        raise ValueError("empty value list")
    return values


def _parse_levels(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"descending level range {text!r}")
        _check_cells(hi_i - lo_i + 1)
        values = list(range(lo_i, hi_i + 1))
    else:
        parts = [v for v in text.split(",") if v.strip()]
        _check_cells(len(parts))
        values = [int(v) for v in parts]
        if not values:
            raise ValueError("empty level list")
    if min(values) < 0:
        raise ValueError("levels must be non-negative")
    return values


def _level_grid(args, **meta_fields):
    """``(k, g, lams, levels, scale, meta)`` of a level command's coupling x level grid.

    ``meta_fields`` sit between ``levels`` and ``convention`` in ``meta``.
    """
    k, sign = _KINDS[args.kind]
    if args.g is None:
        g = sign
    else:
        g = _finite_float(args.g)
        if g != 0.0 and (g > 0) != (sign > 0):
            raise ValueError(
                f"--g {g} conflicts with --kind {args.kind}: "
                f"expected {'positive' if sign > 0 else 'negative'} curvature"
            )
    lams, levels = _parse_float_list(args.lam), _parse_levels(args.levels)
    _check_cells(len(lams) * len(levels))
    meta = {"kind": args.kind, "g": g, "lambda": lams, "levels": levels, **meta_fields,
            "convention": args.convention}
    return k, g, lams, levels, _scale_for(args.convention, k), meta


def _scale_for(convention: str, k: int) -> float:
    return _PAPER_SCALE[k] if convention == "paper" else 1.0


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    out_path = os.path.abspath(out_path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out_path), prefix=".effosc-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # a missing directory, a directory at the path, no permission
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _columns(records: list[dict]) -> dict:
    """Records as columns: each key of the first record with its values in order."""
    return {key: [rec[key] for rec in records] for key in records[0]} if records else {}


class _Tiled:
    """A grid column given by its distinct values and how they repeat: record
    i holds ``distinct[(i // each) % len(distinct)]``, through `tiles` runs
    of the values.  It reads as the sequence of its records' values."""

    def __init__(self, distinct, each=1, tiles=1):
        self.distinct, self.each, self.tiles = distinct, each, tiles

    def __len__(self):
        return len(self.distinct) * self.each * self.tiles

    def __iter__(self):
        return iter(self.lay_out(self.distinct))

    def lay_out(self, items):
        """`items`, one per distinct value, in the column's record order."""
        if self.each > 1:
            items = list(chain.from_iterable(zip(*repeat(items, self.each))))
        return items * self.tiles


_RECORD_INDENT = "\n      "  # the depth of a record's values in the JSON document


def _column_texts(values, fmt: str) -> list[str] | str:
    """Each value's text in one pass over the column: as `_json` writes it in a
    record, or as its CSV cell (10-digit numbers, lists joined by ';').  A
    `_Tiled` column's distinct values are written once and laid out record by
    record.  A column whose records hold one object, a one-value `_Tiled` or
    a list of one object repeated like `_columns` builds of a constant field,
    gives its one text."""
    if isinstance(values, _Tiled):
        texts = _column_texts(values.distinct, fmt)
        if len(values.distinct) == 1:
            return texts[0]
        return texts if isinstance(texts, str) else values.lay_out(texts)
    if len(values) > 1 and all(map(is_, values, repeat(values[0]))):
        return _column_texts(values[:1], fmt)[0]
    kinds = set(map(type, values))
    if kinds == {float}:
        return _float_texts(values, fmt)
    if kinds == {str} and fmt != "json":
        return values
    if kinds == {str} or kinds == {int}:  # few distinct values: one text object each
        text_of = {v: (_json_str if kinds == {str} else int.__repr__)(v) for v in set(values)}
        return list(map(text_of.__getitem__, values))
    if kinds <= {list, tuple}:
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) <= {float}:
            texts = iter(_float_texts(flat, fmt))
            if fmt != "json":
                return [";".join(islice(texts, len(value))) for value in values]
            inner = _RECORD_INDENT + "  "
            return ["[" + inner + ("," + inner).join(islice(texts, len(value))) + _RECORD_INDENT + "]"
                    if value else "[]" for value in values]
    if fmt == "json":
        return [_json(v, _RECORD_INDENT) for v in values]
    return [";".join(map(_fmt, v)) if isinstance(v, (list, tuple))
            else _fmt(v) if isinstance(v, (int, float)) else str(v) for v in values]


# "%.10g" texts that the per-value writers spell otherwise or refuse, loosely:
# in JSON an integral text, e+10..e+15 and a subnormal; inf, nan and e+308 in both.
_SUSPECT = {"json": re.compile(r"^[^.e\n]*$|^.*e(?:\+1|[+-]3).*$", re.M),
            "csv": re.compile(r"^.*(?:n|e\+3).*$", re.M)}


def _float_texts(values: list[float], fmt: str) -> list[str]:
    """`_round10` of a column of floats, written for JSON or CSV by one `%` call;
    each distinct suspect text t is then rewritten from float(t), `_round10`'s
    value for every float printed as t."""
    text = "\n".join(["%.10g"] * len(values)) % tuple(values)
    texts = text.split("\n") if values else []
    if "e" not in text and "n" not in text and (fmt == "csv" or text.count(".") == len(texts)):
        return texts  # the common case: no suspect text
    suspects = set(_SUSPECT[fmt].findall(text))
    write = float.__repr__ if fmt == "json" else "{:.10g}".format
    try:
        fixed = {t: write(_round10(float(t))) for t in suspects}
    except SolverError:
        list(map(_round10, values))  # raises for the first value that fails, by its own repr
        raise
    return list(map(fixed.get, texts, texts))


def _render(meta: dict, table: dict, fmt: str, columns=None) -> str:
    """JSON, or CSV whose columns default to the table's, in order.

    `table` maps each record key to its column of values: a list, or a
    `_Tiled` column of distinct values.  Each column is encoded in one pass,
    a `_Tiled` one over its distinct values only, and one str.join writes
    every record: the texts of the columns that vary, interleaved with the
    fixed text between them, in which a column of one object in every record
    is written once.  The first value that is not finite once rounded, in
    record order, fails the request, as in the per-value writer `_json`.
    """
    # CSV prints no meta; rounding it anyway fails a request alike in both formats
    meta_text = _json(meta, "\n  ")
    keys = list(table) if columns is None or fmt == "json" else columns
    try:
        cells = [_column_texts(table[key], fmt) for key in keys]
    except SolverError:
        for row in zip(*(table[key] for key in keys)):
            for value in row:
                _json(value)  # raises for the first value in record order
        raise
    size = len(table[keys[0]]) if keys else 0
    if fmt == "json":
        head = '{\n  "meta": ' + meta_text + ',\n  "records": '
        if not size:
            return head + "[]\n}\n"
        head += "[\n    {"
        labels = [_RECORD_INDENT + _json_str(key) + ": " for key in keys]
        between, tail = "\n    },\n    {", "\n    }\n  ]\n}\n"
    else:
        head = ",".join(keys) + "\n"
        if not size:
            return head
        labels, between, tail = [""] * len(keys), "\n", "\n"
    parts, fixed = [], ""  # per record: fixed text, a varying column's text, ..., fixed text
    for j, (label, texts) in enumerate(zip(labels, cells)):
        fixed += ("," if j else "") + label
        if isinstance(texts, str):
            fixed += texts
        else:
            parts += [[fixed] * size, texts]
            fixed = ""
    parts.append([fixed + between] * size)
    items = [None] * (len(parts) * size)
    for j, texts in enumerate(parts):
        items[j::len(parts)] = texts  # record by record
    items[0], items[-1] = head + items[0], fixed + tail
    return "".join(items)


def _output(args, subcommand: str, meta: dict, table: dict, columns=None) -> int:
    """The one output path: stamp meta, render, emit."""
    meta = {"tool": "effosc", "version": __version__, "subcommand": subcommand, **meta}
    _emit(_render(meta, table, args.format, columns), args.out)
    return 0


def _level_record(kind, g, lam, n, phase, convention, w, e0, corrections, **after_lambda) -> dict:
    """The fields every level record opens with, in order; ``after_lambda``
    fields (``lambda_table``, ``b``) sit between ``lambda`` and ``n``.  Each
    value is one record's, or a grid's column of them."""
    return {"kind": kind, "g": g, "lambda": lam, **after_lambda, "n": n, "phase": phase,
            "convention": convention, "w": w, "E0": e0, "corrections": corrections}


def _grid_table(kind, g, lams, levels, grid, convention, scale=1.0, **after_lambda) -> dict:
    """The level columns of a solved coupling-major grid.  λ, n, the
    ``after_lambda`` columns (values per coupling) and the constant columns are
    `_Tiled` by their distinct values; phase, w and E0 are the grid's lists."""
    size = len(lams) * len(levels)
    sr = Phase.SYMMETRY_RESTORED  # matched by identity: a Phase hashes in Python
    per_row = {key: _Tiled(values, len(levels)) for key, values in after_lambda.items()}
    return _level_record(
        _Tiled([kind], tiles=size), _Tiled([g], tiles=size), _Tiled(lams, len(levels)),
        _Tiled(levels, tiles=len(lams)), ["SR" if phase is sr else "SSB" for phase in grid.phase],
        _Tiled([convention], tiles=size), grid.w,
        grid.E0 if scale == 1.0 else [scale * e0 for e0 in grid.E0], _Tiled([[]], tiles=size),
        **per_row)


def _forced_grid(k, g, lams, levels, phase) -> LevelGrid:
    """The grid of one forced phase: w from `phase_solution`, E0 from its closed
    form, cell by cell up to the first failure."""
    grid = LevelGrid(phase=[phase] * (len(lams) * len(levels)), w=[], E0=[], failures={})
    for lam in lams:
        try:
            spec = OscillatorSpec(k, g, lam)
            for n in levels:
                w = phase_solution(spec, n, phase).w
                grid.E0.append(lo_energy_closed_form(spec, n, phase))
                grid.w.append(w)
        except Exception as exc:  # raised when the record loop reaches the cell
            grid.failures[len(grid.E0)] = exc
            break
    return grid


def _cmd_spectrum(args) -> int:
    k, g, lams, levels, scale, meta = _level_grid(args, order=args.order)
    phase = None if args.phase == "auto" else Phase(args.phase.upper())
    grid = level_grid(k, g, lams, levels) if phase is None else _forced_grid(k, g, lams, levels, phase)
    if args.order == 0:
        grid.raise_failure()
        return _output(args, "spectrum", meta, _grid_table(
            args.kind, g, lams, levels, grid, args.convention, scale))
    corrections, e_ipt = [], []
    for i, (lam, n) in enumerate((lam, n) for lam in lams for n in levels):
        grid.raise_failure(i)
        if phase is Phase.SPONTANEOUSLY_BROKEN:
            raise SSBUnsupported(
                "--phase ssb: perturbative corrections are defined about an "
                "undisplaced solution; request --order 0")
        series = rs_corrections(OscillatorSpec(k, g, lam), n, max_order=args.order)
        corrections.append([scale * c for c in series.corrections])
        e_ipt.append(scale * series.partial_sums[-1])
    table = _grid_table(args.kind, g, lams, levels, grid, args.convention, scale)
    table["corrections"], table["E_ipt"] = corrections, e_ipt
    return _output(args, "spectrum", meta, table)


def _cmd_ipt(args) -> int:
    k, g, lams, levels, scale, meta = _level_grid(args, order=args.order)
    records = []
    for lam in lams:
        spec = OscillatorSpec(k, g, lam)
        for n in levels:
            series = rs_corrections(spec, n, max_order=args.order)
            sol = level_solution(spec, n)
            rec = _level_record(args.kind, g, lam, n, sol.phase.value, args.convention, sol.w,
                                scale * series.partial_sums[0],
                                [scale * c for c in series.corrections])
            rec["partial_sums"] = [scale * p for p in series.partial_sums]
            rec["basis_dim"] = series.basis_dim
            records.append(rec)
    return _output(args, "ipt", meta, _columns(records))


def _cmd_oracle(args) -> int:
    k, g, lams, levels, scale, meta = _level_grid(args, rel_tol=_finite_float(args.rel_tol))
    records = []
    for lam in lams:
        spec = OscillatorSpec(k, g, lam)
        spectrum = exact_levels(spec, max(levels), rel_tol=meta["rel_tol"])
        for n in levels:
            sol = level_solution(spec, n)
            rec = _level_record(args.kind, g, lam, n, sol.phase.value, args.convention, sol.w,
                                scale * sol.E0, [])
            rec["oracle"] = scale * spectrum.eigenvalues[n]
            rec["oracle_convergence"] = scale * spectrum.convergence_estimate[n]
            rec["basis_dim"] = spectrum.dim
            records.append(rec)
    return _output(args, "oracle", meta, _columns(records))


# --- published-table reproduction -------------------------------------------
#
# Each table bakes in the published grid and unit convention:
#   1: quartic, g=+1, native units.
#   2: quartic, g=-1, energies measured from the classical well bottom.
#   3: sextic, g=+1, table coupling L maps to native lambda = L/2, energy x2.
#   4: sextic partner pair at b=1 (lambda=1/2, g=+/-3), energy x2; the
#      double-well column is shifted one level up (its n=0 state pairs with
#      nothing by construction).
#   5: octic, g=+1, table coupling maps to native lambda unchanged, energy x2.
# Conventions 3 and 5 disagree about the coupling map; both were validated
# cell-by-cell against the published grids before being frozen here.


def _doubled(spec, e0):
    return 2.0 * e0


# id -> (kind, k, g, native lambda per table coupling, table couplings,
#        levels, table value from (spec, E0)); table 4 is built from its
#        partner pair in `table_records`.
_TABLES = {
    1: ("quartic-aho", 4, 1.0, 1.0, (0.1, 1.0, 10.0, 100.0), (0, 1, 2, 4, 10, 40),
        lambda spec, e0: e0),
    2: ("quartic-dwo", 4, -1.0, 1.0, (0.1, 1.0, 10.0, 100.0), (0, 1, 2, 4, 10),
        well_referenced_energy),
    3: ("sextic-aho", 6, 1.0, 0.5, (0.2, 2.0, 10.0, 100.0, 400.0, 2000.0),
        (0, 1, 2, 4, 6, 10, 14, 17), _doubled),
    5: ("octic-aho", 8, 1.0, 1.0, (0.1, 1.0, 5.0, 50.0, 200.0),
        (0, 1, 2, 4, 6, 8, 9, 10, 11, 12, 13, 14), _doubled),
}
_TABLE4_LEVELS = range(20)


def table_records(table_id: int) -> dict:
    """One published table's columns, in row-major printed order."""
    if table_id == 4:
        pair = partner_specs(1.0)
        parts = [("sextic-aho", pair.aho, list(_TABLE4_LEVELS)),
                 ("sextic-dwo", pair.dwo, [n + 1 for n in _TABLE4_LEVELS])]
        parts = [(kind, 6, spec.g, [spec.lam], [spec.lam], levels) for kind, spec, levels in parts]
        value_of = _doubled
    elif table_id in _TABLES:
        kind, k, g, lam_per_table, lams, levels, value_of = _TABLES[table_id]
        parts = [(kind, k, g, [lam_per_table * lam for lam in lams], lams, levels)]
    else:
        raise ValueError(f"unknown table id {table_id}")
    table = {}
    for kind, k, g, lams, lams_table, levels in parts:
        grid = level_grid(k, g, lams, levels)
        grid.raise_failure()
        part = _grid_table(kind, g, lams, levels, grid, f"paper-table-{table_id}",
                           lambda_table=lams_table)
        specs = [OscillatorSpec(k, g, lam) for lam in lams for _ in levels]
        part["value"] = [value_of(spec, e0) for spec, e0 in zip(specs, grid.E0)]
        for key, column in part.items():
            table.setdefault(key, []).extend(column)
    return table


def _cmd_table(args) -> int:
    meta = {"id": args.id, "convention": f"paper-table-{args.id}"}
    return _output(args, "table", meta, table_records(args.id))


def _cmd_vacuum(args) -> int:
    lams = _parse_float_list(args.lam)
    records = []
    for lam in lams:
        vac = vacuum_structure(lam)
        rec = _level_record("quartic-aho", 1.0, lam, 0, Phase.SYMMETRY_RESTORED.value, "half",
                            vac.w, vac.E0, [])
        rec.update(w0=vac.w0, alpha=vac.alpha, n0=vac.n0, E0_pert=vac.E0_pert,
                   stability_gap=vac.E0 - vac.E0_pert)
        records.append(rec)
    return _output(args, "vacuum", {"lambda": lams}, _columns(records))


def _cmd_effective_potential(args) -> int:
    lams = _parse_float_list(args.lam)
    s_values = _parse_float_list(args.grid)
    _check_cells(len(lams) * len(s_values))
    records = [
        {"kind": "quartic-aho", "g": 1.0, "lambda": lam, "s": s,
         "v_variational": effective_potential(lam, s, "variational"),
         "v_perturbative": effective_potential(lam, s, "perturbative")}
        for lam in lams for s in s_values
    ]
    meta = {"lambda": lams, "grid": [s_values[0], s_values[-1]]}
    return _output(args, "effective-potential", meta, _columns(records))


def _cmd_susy(args) -> int:
    b_values = _parse_float_list(args.b)
    if args.mode == "wavefunction":
        grid = _parse_float_list(args.grid)
        _check_cells(len(b_values) * len(grid))
        records = []
        for b in b_values:
            for curve in ("susy_exact", "effective_gaussian"):
                amps = ground_wavefunction(curve, b, grid)
                records += [{"curve": curve, "b": b, "f": f, "psi": float(amp)}
                            for f, amp in zip(grid, amps)]
        meta = {"b": b_values}
        try:
            meta["overlap"], meta["l2_distance"] = wavefunction_distance(b_values[0], grid)
        except ValueError:
            meta["overlap"] = meta["l2_distance"] = None
        return _output(args, "susy-wavefunction", meta, _columns(records))

    levels = _parse_levels(args.levels)
    _check_cells(len(b_values) * len(levels))
    units = args.convention
    scale = _scale_for(units, 6)
    pair_1 = partner_specs(1.0)
    e0_at_1 = {}  # (partner, n) -> its b = 1 level, solved once for every b
    records = []
    for b in b_values:
        pair = partner_specs(b)
        for n in levels:
            if args.mode == "ispp":
                # interlacing defect E_{n+1}(well) - E_n(single well), as `susy.ispp_residual`
                aho = level_solution(pair.aho, n)
                dwo = level_solution(pair.dwo, n + 1)
                rec = _level_record("sextic-dwo", pair.dwo.g, pair.dwo.lam, n, dwo.phase.value,
                                    units, dwo.w, scale * dwo.E0, [], b=b)
                rec["partner_E0"] = scale * aho.E0
                rec["residual"] = scale * (dwo.E0 - aho.E0)
                records.append(rec)
            else:
                # scaling defect E_n(b) - sqrt(b) E_n(1), as `susy.scaling_residual`
                for which, spec, spec_1 in (("aho", pair.aho, pair_1.aho),
                                            ("dwo", pair.dwo, pair_1.dwo)):
                    sol = level_solution(spec, n)
                    if (which, n) not in e0_at_1:
                        at_1 = sol if spec == spec_1 else level_solution(spec_1, n)
                        e0_at_1[which, n] = at_1.E0
                    rec = _level_record(f"sextic-{which}", spec.g, spec.lam, n, sol.phase.value,
                                        "half", sol.w, sol.E0, [], b=b)
                    rec["residual"] = sol.E0 - math.sqrt(b) * e0_at_1[which, n]
                    records.append(rec)
    meta = {"b": b_values, "levels": levels}
    # the one CSV whose order differs from the JSON's: b follows corrections there
    columns = [key for key in records[0] if key != "b"]
    columns.insert(columns.index("corrections") + 1, "b")
    return _output(args, f"susy-{args.mode}", meta, _columns(records), columns)


def _add_level_flags(parser, *, order=None) -> None:
    """Level flags; ``order`` = (choices, default) adds ``--order`` for the
    perturbative series."""
    parser.add_argument("--kind", choices=sorted(_KINDS), required=True)
    parser.add_argument("--g", type=float, default=None,
                        help="curvature coefficient; sign must match --kind")
    parser.add_argument("--lambda", dest="lam", required=True,
                        help="coupling: single value, comma list, or a:b:step")
    parser.add_argument("--levels", default="0", help="level n or a..b or list")
    if order is not None:
        choices, default = order
        parser.add_argument("--order", type=int, choices=choices, default=default)


def _add_output_flags(parser, *, fmt="json", convention=None) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=fmt)
    if convention is not None:
        parser.add_argument("--convention", choices=("half", "paper"), default=convention)
    parser.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache  # built on the first `run`, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effosc",
        description="Self-consistent effective-oscillator spectra for "
                    "quartic, sextic, and octic self-interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="leading-order spectra with optional corrections")
    _add_level_flags(p, order=(range(0, 5), 0))
    _add_output_flags(p, convention="half")
    p.add_argument("--phase", choices=("auto", "sr", "ssb"), default="auto",
                   help="force a phase instead of selecting by energy")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("--id", type=int, choices=(1, 2, 3, 4, 5), required=True)
    _add_output_flags(p, fmt="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", help="matrix-diagonalization reference eigenvalues")
    _add_level_flags(p)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    _add_output_flags(p, convention="half")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ipt", help="perturbative correction series per level")
    _add_level_flags(p, order=(range(1, 5), 4))
    _add_output_flags(p, convention="half")
    p.set_defaults(func=_cmd_ipt)

    p = sub.add_parser("vacuum", help="vacuum structure diagnostics (quartic, g=1)")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_vacuum)

    p = sub.add_parser("effective-potential",
                       help="displacement-resolved vacuum energy (quartic, g=1)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--grid", default="-2:2:0.05", help="displacement grid a:b:step")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_effective_potential)

    p = sub.add_parser("susy", help="partner-potential checks for the sextic pair")
    p.add_argument("mode", choices=("ispp", "scaling", "wavefunction"))
    p.add_argument("--b", default="1", help="super-potential coefficient(s)")
    p.add_argument("--levels", default="0..20")
    p.add_argument("--grid", default="-2:2:0.005", help="position grid a:b:step")
    _add_output_flags(p, convention="paper")
    p.set_defaults(func=_cmd_susy)

    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -2:2:0.005`` as ``--flag=-2:2:0.005`` so argparse does
    not mistake a leading-minus value for an option string."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (token.startswith("--") and "=" not in token and nxt is not None
                and len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == ".")):
            merged.append(f"{token}={nxt}")
            skip = True
        else:
            merged.append(token)
    return merged


def run(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (SolverError, OverflowError) as exc:
        print(f"effosc: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("effosc: numerical failure: out of memory", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"effosc: invalid request: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
