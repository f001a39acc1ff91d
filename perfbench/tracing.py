"""In-memory span tracing of effosc's public functions, and per-layer metrics.

`Tracer.install` wraps every public function of the layer modules and
rebinds the wrapper at every module attribute that held the original, so
calls made through ``from .spectrum import level_solution`` inside `cli`,
`ipt`, `oracle` and `susy` are traced too.  Spans are plain tuples kept in
memory and written out once, when the run ends.

A span whose thread has no open span (a thread-pool worker) takes the open
`cli.run` span as its parent.  Self time is a span's duration minus the
union of its children's intervals, so overlapping pool-thread children are
not subtracted twice.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict

# Layer modules whose public functions are wrapped.  `model` is not: its
# functions take about 1 us and run ~1e5 times per pass, so their time is
# left in their callers' self time.  `errors` does no work.
LAYERS = ("spectrum", "gap", "ipt", "oracle", "vacuum", "susy")
BINDING_MODULES = ("effosc", "effosc.cli") + tuple(f"effosc.{m}" for m in LAYERS)

_GAP_FAMILY = {(4, "SR"): "quartic_sr", (4, "SSB"): "quartic_ssb",
               (6, "SR"): "sextic_sr", (8, "SR"): "octic_sr"}

# Span tuple fields.
SID, NAME, START, END, PARENT, INVOCATION, EXTRA = range(7)


def _solve_gap_name(args, kwargs):
    spec, phase = args[0], (args[2] if len(args) > 2 else kwargs["phase"])
    return "gap.solve_gap." + _GAP_FAMILY.get((spec.k, phase.value), "other")


def _position_power_extra(args, kwargs, result, exc):
    k, dim = args[0], (args[2] if len(args) > 2 else kwargs["dim"])
    return {"k": k, "dim": dim, "built": exc is None}


def _exact_levels_extra(args, kwargs, result, exc):
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    spectrum = result if exc is None else getattr(exc, "spectrum", None)
    return {"n_max": n_max, "dim": spectrum.dim if spectrum is not None else 0,
            "converged": exc is None}


_NAMERS = {"gap.solve_gap": _solve_gap_name}
_EXTRAS = {"ipt.position_power_matrix": _position_power_extra,
           "oracle.exact_levels": _exact_levels_extra}


class Tracer:
    """Records spans for wrapped calls; `install`/`uninstall` swap bindings."""

    def __init__(self):
        self.spans = []
        self.invocation = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._swapped = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, root=False):
        namer, extra_of = _NAMERS.get(name), _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            if root:
                self._root = sid
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = None
                self.spans.append((
                    sid, namer(args, kwargs) if namer else name, start, end, parent,
                    self.invocation, extra_of(args, kwargs, result, exc) if extra_of else None,
                ))

        return traced

    def install(self):
        """Wrap `cli.run` and every public layer function at all its bindings."""
        modules = [importlib.import_module(m) for m in BINDING_MODULES]
        originals = {}
        cli = importlib.import_module("effosc.cli")
        originals[id(cli.run)] = (cli.run, self.wrap("cli.run", cli.run, root=True))
        for layer in LAYERS:
            mod = importlib.import_module(f"effosc.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    self._swapped.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._swapped):
            setattr(mod, attr, value)
        self._swapped.clear()


def union_length(intervals, lo=-math.inf, hi=math.inf) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        start, end = max(start, lo, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[SID]: (s[END] - s[START]) - union_length(children[s[SID]], s[START], s[END])
            for s in spans}


def has_ancestor(span, name, by_id):
    parent = span[PARENT]
    while parent is not None:
        above = by_id.get(parent)
        if above is None:
            return False
        if above[NAME] == name:
            return True
        parent = above[PARENT]
    return False


# Per-layer metrics reported as `<name>.calls` and `<name>.self_s`.
TIMED_NAMES = (
    "cli.run",
    "spectrum.level_solution", "spectrum.sextic_ssb_solutions", "spectrum.lo_energy_closed_form",
    *(f"gap.solve_gap.{fam}" for fam in _GAP_FAMILY.values()),
    "gap.positive_real_roots",
    "ipt.rs_corrections", "ipt.perturbation_matrix", "ipt.position_power_matrix",
    "oracle.exact_levels",
    "vacuum.vacuum_structure", "vacuum.effective_potential",
    "susy.ispp_residual", "susy.scaling_residual", "susy.ground_wavefunction",
    "susy.wavefunction_distance",
)


def layer_metrics(spans, passes: int, records_per_pass: float) -> dict:
    """Per-pass per-layer metrics from the spans of `passes` traced passes."""
    by_id = {s[SID]: s for s in spans}
    own = self_times(spans)
    calls, busy = defaultdict(int), defaultdict(float)
    for s in spans:
        calls[s[NAME]] += 1
        busy[s[NAME]] += own[s[SID]]
    out = {}
    for name in TIMED_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = busy[name] / passes

    kids = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None and by_id.get(s[PARENT], (None, None))[NAME] == "cli.run":
            kids[s[PARENT]].append((s[START], s[END]))
    summed = sum(e - b for iv in kids.values() for b, e in iv)
    covered = sum(union_length(iv) for iv in kids.values())
    out["cli.overlap"] = summed / covered if covered > 0 else 0.0

    out["spectrum.level_solution.per_record"] = (
        calls["spectrum.level_solution"] / passes / records_per_pass if records_per_pass else 0.0)

    # Completed builds only: a request that fails to allocate holds no matrix.
    builds = [s[EXTRA] for s in spans if s[NAME] == "ipt.position_power_matrix" and s[EXTRA]["built"]]
    out["ipt.matrix_bytes"] = sum((b["dim"] + b["k"]) ** 2 * 8 for b in builds) / passes
    out["ipt.basis_dim_max"] = max((b["dim"] for b in builds), default=0)
    series = calls["ipt.rs_corrections"]
    nested = sum(1 for s in spans if s[NAME] == "spectrum.level_solution"
                 and has_ancestor(s, "ipt.rs_corrections", by_id))
    out["ipt.level_solution_per_series"] = nested / series if series else 0.0

    runs = [s[EXTRA] for s in spans if s[NAME] == "oracle.exact_levels"]
    out["oracle.doublings"] = (
        sum(math.log2(r["dim"] / (4 * (r["n_max"] + 1))) for r in runs if r["dim"]) / len(runs)
        if runs else 0.0)
    out["oracle.final_dim_max"] = max((r["dim"] for r in runs), default=0)
    out["oracle.converged_frac"] = (
        sum(r["converged"] for r in runs) / len(runs) if runs else 0.0)
    return out


def call_counts(spans) -> dict:
    counts = defaultdict(int)
    for s in spans:
        counts[s[NAME]] += 1
    return dict(counts)


def write_spans(path, spans) -> None:
    """Write spans as gzipped JSON lines, one span per line."""
    keys = ("id", "name", "start", "end", "parent", "invocation", "extra")
    with gzip.open(path, "wt") as handle:
        for s in spans:
            handle.write(json.dumps(dict(zip(keys, s))) + "\n")


def read_spans(path):
    with gzip.open(path, "rt") as handle:
        return [tuple(json.loads(line).values()) for line in handle]
