"""Output checks: parsing CLI output, the reference comparator, invariants.

Every invocation's first output is checked in full:

* against the reference frozen for its argv, when there is one (all of the
  default seed's invocations, and every fixed-grid invocation): strings
  must match exactly and numbers agree to 1e-9 relative;
* for any argv: the record count, that every number is finite, and, for
  each leading-order SR record and each SSB record of a quartic or sextic
  double well, that its frequency satisfies the frequency condition
  d<H>/dw = 0 and its E0 equals <H>, both to 1e-9, recomputed from the
  public `gap.gap_polynomial`, `spectrum.ssb_displacement` and
  `model.hamiltonian_average`.  The printed w carries 10 significant
  digits, so the frequency condition is held to a root error
  |P(w)| / |w P'(w)| of 1e-9, not to a raw residual.  Where the CLI chose
  the phase by energy, no stationary state of the double well, found by a
  root search of the benchmark's own, may lie lower than the record.

A reference may record a known failure instead of records (an exit code or
an exception name).  Reproducing it passes; if a later fix makes the
invocation succeed, its output is held to the count, finiteness and
variational checks instead.
"""
from __future__ import annotations

import csv
import gzip
import io
import json
import math
import os

import numpy as np

REL_TOL = 1e-9
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
_POWER = {"quartic": 4, "sextic": 6, "octic": 8}
_SR_CHECKED = {"spectrum", "ipt", "oracle", "table", "vacuum"}



def argv_key(argv) -> str:
    return " ".join(argv)


def load_refs(workload: str) -> dict:
    with gzip.open(os.path.join(REFS_DIR, f"{workload}.json.gz"), "rt") as handle:
        return json.load(handle)


def save_refs(workload: str, refs: dict) -> None:
    os.makedirs(REFS_DIR, exist_ok=True)
    path = os.path.join(REFS_DIR, f"{workload}.json.gz")
    with gzip.GzipFile(path, "wb", mtime=0) as raw, io.TextIOWrapper(raw) as handle:
        json.dump(refs, handle, separators=(",", ":"))


def _cell(text: str):
    if ";" in text:
        return [float(v) for v in text.split(";")]
    try:
        return float(text)
    except ValueError:
        return text


def parse_records(text: str) -> list[dict]:
    """Records of one CLI output, JSON or CSV; CSV numbers become floats."""
    if text.startswith("{"):
        return json.loads(text)["records"]
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def same_value(a, b) -> bool:
    """Exact match for strings, 1e-9 relative for numbers, elementwise for lists."""
    if _is_number(a) and _is_number(b):
        scale = max(abs(a), abs(b))
        return a == b or abs(a - b) <= REL_TOL * scale + 4 * math.ulp(scale)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def compare_records(got: list[dict], want: list[dict]) -> str | None:
    """None when the records match, else a description of the first mismatch."""
    if len(got) != len(want):
        return f"{len(got)} records, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if list(g) != list(w):
            return f"record {i}: fields {list(g)} != {list(w)}"
        for key in w:
            if not same_value(g[key], w[key]):
                return f"record {i} field {key}: {g[key]!r} != {w[key]!r}"
    return None


def _numbers(value):
    if _is_number(value):
        yield value
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _count_list(text: str) -> int | None:
    if text is None or ":" in text:
        return None
    if ".." in text:
        lo, hi = text.split("..")
        return int(hi) - int(lo) + 1
    return len(text.split(","))


def expected_count(argv) -> int | None:
    """Record count implied by a (lambda x levels) argv, or None where only the reference knows it."""
    if argv[0] not in ("spectrum", "ipt", "oracle"):
        return None
    lams, levels = _count_list(_option(argv, "--lambda")), _count_list(_option(argv, "--levels") or "0")
    return lams * levels if lams and levels else None


def frequency_condition(spec, x: float, phase, s_sq: float) -> list[float]:
    """Ascending coefficients in w of d<H>/dw = 0 at displacement s² (times 2w^(k/2)/x).

    The SR and quartic SSB conditions are the public `gap.gap_polynomial`.
    The displaced sextic condition has no fixed polynomial; it is the SR one
    plus the displacement terms of d<H>/dw, with s² held at its value.
    """
    from effosc.gap import gap_polynomial
    from effosc.model import Phase

    if phase is Phase.SYMMETRY_RESTORED or spec.k == 4:
        return list(gap_polynomial(spec, x, phase).coefficients)
    coeffs = list(gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients)
    coeffs[1] -= _sextic_shift(spec.lam, x) * s_sq
    coeffs[2] -= 30.0 * spec.lam * s_sq * s_sq
    return coeffs


def _sextic_shift(lam: float, x: float) -> float:
    return 22.5 * lam * (1.0 + 4.0 * x * x) / x


def _poly(coeffs, w: float) -> float:
    return sum(a * w ** j for j, a in enumerate(coeffs))


def _energy(spec, x: float, w: float, s_sq: float):
    """<H> and the sum of its terms' magnitudes, the scale its tolerance is taken on."""
    from effosc.model import hamiltonian_average, moment

    s = math.sqrt(s_sq)
    size = (abs(0.5 * w * x) + abs(0.5 * spec.g * (s_sq + x / w))
            + abs(spec.lam * moment(spec.k, s, w, x)))
    return hamiltonian_average(spec, s, w, x), size


def _sextic_displaced_roots(spec, x: float, points: int = 1024) -> list[float]:
    """Frequencies of the displaced sextic states, from a scan of its own.

    s²(w) exists from w_min on, where the stationarity quadratic's constant
    term changes sign, and grows to sqrt(|g| / 6 lam); the Cauchy bound of
    the condition at that s² caps the scan.
    """
    from scipy.optimize import brentq

    from effosc.errors import NoSSBSolution
    from effosc.model import Phase
    from effosc.spectrum import ssb_displacement

    lam, big = spec.lam, -spec.g
    undisplaced = frequency_condition(spec, x, Phase.SYMMETRY_RESTORED, 0.0)
    shift = _sextic_shift(lam, x)

    def residual(w):  # frequency_condition(spec, x, SSB, s²(w)) at w, unrolled
        try:
            s_sq = ssb_displacement(spec, x, w)
        except NoSSBSolution:
            return None
        return _poly(undisplaced, w) - (shift + 30.0 * lam * s_sq * w) * s_sq * w

    w_min = math.sqrt(45.0 * lam * (1.0 + 4.0 * x * x) / (4.0 * big)) * (1.0 + 1e-12)
    top = frequency_condition(spec, x, Phase.SPONTANEOUSLY_BROKEN, math.sqrt(big / (6.0 * lam)))
    grid = [float(w) for w in np.geomspace(w_min, 2.0 * (1.0 + max(map(abs, top))), points)]
    values = [residual(w) for w in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa is not None and fb is not None and fa * fb < 0.0:
            roots.append(brentq(residual, a, b, xtol=1e-14, rtol=8.9e-16))
    return roots


def lowest_energy(spec, x: float) -> float:
    """Lowest <H> over every stationary state of a double well at level factor x.

    Computed apart from `spectrum`: the SR and quartic SSB frequencies are
    all positive real roots of `gap.gap_polynomial` (numpy.roots), the
    sextic SSB ones come from `_sextic_displaced_roots`, and each displaced
    state needs a non-negative s² from `spectrum.ssb_displacement`.
    """
    from effosc.errors import NoSSBSolution
    from effosc.model import Phase
    from effosc.spectrum import ssb_displacement

    def positive_roots(coeffs):
        return [float(r.real) for r in np.roots(coeffs[::-1])
                if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0]

    states = [(w, 0.0) for w in positive_roots(frequency_condition(spec, x, Phase.SYMMETRY_RESTORED, 0.0))]
    if spec.k == 4:
        displaced = positive_roots(frequency_condition(spec, x, Phase.SPONTANEOUSLY_BROKEN, 0.0))
    else:
        displaced = _sextic_displaced_roots(spec, x)
    for w in displaced:
        try:
            states.append((w, ssb_displacement(spec, x, w)))
        except NoSSBSolution:
            pass
    return min(_energy(spec, x, w, s_sq)[0] for w, s_sq in states)


def stationary_problems(records, argv) -> list[str]:
    """Checks of each leading-order record against the variational conditions.

    Every SR record, and every SSB record of a quartic or sextic double
    well: the frequency condition, and E0 = <H> at s² from the public
    `spectrum.ssb_displacement` (0 for SR).  Every double-well record whose
    phase the CLI chose by energy: no stationary state lies lower.
    """
    from effosc.errors import NoSSBSolution
    from effosc.model import OscillatorSpec, Phase
    from effosc.spectrum import ssb_displacement

    problems = []
    if argv[0] not in _SR_CHECKED:
        return problems
    choose = _option(argv, "--phase") in (None, "auto")
    lowest = {}
    for i, rec in enumerate(records):
        if rec.get("phase") not in ("SR", "SSB") or not all(
                _is_number(rec.get(key)) for key in ("g", "lambda", "n", "w", "E0")):
            continue
        k = _POWER[rec["kind"].split("-")[0]]
        scale = 2.0 if rec.get("convention") == "paper" and k in (6, 8) else 1.0
        spec = OscillatorSpec(k, float(rec["g"]), float(rec["lambda"]))
        phase = Phase(rec["phase"])
        x, w, e0 = int(rec["n"]) + 0.5, float(rec["w"]), rec["E0"] / scale
        s_sq = 0.0
        if rec["phase"] == "SSB":
            if spec.g >= 0.0 or k == 8:
                problems.append(f"record {i}: no displaced state exists for {rec['kind']}")
                continue
            try:
                s_sq = ssb_displacement(spec, x, w)
            except NoSSBSolution:
                problems.append(f"record {i}: SSB at w={w} has no real displacement")
                continue
        coeffs = frequency_condition(spec, x, phase, s_sq)
        # The residual as a Newton step: how far, relative to w, the root lies.
        slope = sum(j * a * w ** (j - 1) for j, a in enumerate(coeffs) if j)
        if abs(_poly(coeffs, w)) > REL_TOL * abs(w * slope):
            problems.append(f"record {i}: w={w} misses the {rec['phase']} frequency condition")
        h, size = _energy(spec, x, w, s_sq)
        if abs(e0 - h) > REL_TOL * size:
            problems.append(f"record {i}: E0={rec['E0']} != <H>={h * scale}")
        if choose and spec.g < 0.0 and k in (4, 6):
            key = (k, spec.g, spec.lam, x)
            if key not in lowest:
                lowest[key] = lowest_energy(spec, x)
            if e0 > lowest[key] + REL_TOL * size:
                problems.append(f"record {i}: a stationary state lies lower, "
                                f"<H>={lowest[key] * scale} < E0={rec['E0']}")
    return problems


def check_output(argv, status: str, text: str, ref: dict | None):
    """Check one invocation's outcome; return (problems, records emitted)."""
    if ref is not None and ref["status"] != "exit 0" and status == ref["status"]:
        return [], 0  # the recorded known failure, reproduced
    if status != "exit 0":
        return [f"outcome {status}, expected {ref['status'] if ref else 'exit 0'}"], 0
    try:
        records = parse_records(text)
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"], 0
    problems = []
    want = expected_count(argv)
    if ref is not None and ref["status"] == "exit 0":
        want = len(ref["records"])
        mismatch = compare_records(records, ref["records"])
        if mismatch:
            problems.append("reference: " + mismatch)
    if want is not None and len(records) != want:
        problems.append(f"{len(records)} records, expected {want}")
    if want is None and not records:
        problems.append("no records")
    bad = sum(1 for rec in records for v in rec.values() for x in _numbers(v) if not math.isfinite(x))
    if bad:
        problems.append(f"{bad} non-finite numbers")
    problems += stationary_problems(records, argv)
    return problems, len(records)
