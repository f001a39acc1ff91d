"""Frequency self-consistency ("gap") equations and their root solvers.

Minimizing the averaged Hamiltonian over the trial frequency w yields, per
level x = n + 1/2, a low-degree polynomial condition in w:

    quartic, undisplaced:   w**3 - g w - 6 lam f(x)            = 0
    quartic, displaced:     w**3 + 2 g w + 6 lam p(x)          = 0   (g < 0)
    sextic, undisplaced:    w**4 - g w**2 - (15 lam/4)(5+4x²)  = 0
    octic, undisplaced:     w**5 - g w**3 - 35 lam h(x)        = 0

with the level factors f, p, h of `model`.  The displaced sextic condition
couples w to the displacement; `spectrum.sextic_ssb_solutions` eliminates
the displacement, which leaves a quartic in w² whose coefficients depend on
the level.

The cubic and biquadratic conditions are solved in closed form, followed by
a Newton polish against the exact polynomial.  The octic quintic has
exactly one positive root (g >= 0, one sign change), which a Newton
iteration safeguarded by its sign-change bracket finds directly.  That
bracketed Newton, `_refine_bracket`, is one kernel for every root the code
brackets: the octic's, on one level or on an array of cells
(`spectrum.level_grid`), and the outer displaced sextic state's.  The
Newton polish, `_newton_polish`, is likewise one kernel for one level and
for a grid's cells.  A cell stops when an iterate repeats one of the three
before it, which returns what the 12-step budget would: Newton's next
iterate depends on the current one only.  The closed-form seeds are one
kernel each as well.

On an array, a kernel takes each cell's float steps in the same
operations: + - * / and sqrt in numpy, which rounds them correctly, and
the transcendental steps (pow, acos, asin, cos) through libm, cell by
cell.  numpy's SIMD pow and arccos differ from libm in the last bits,
which would move seeds and, through the polish, some frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .errors import NoPhysicalRoot, SolverError
from .model import OscillatorSpec, Phase, factor_f, factor_h, factor_p

__all__ = [
    "GapProblem",
    "gap_polynomial",
    "solve_gap",
    "critical_coupling",
]


@dataclass(frozen=True)
class GapProblem:
    """A per-level frequency condition, as polynomial coefficients in w.

    `coefficients` are ascending (constant term first) and monic at the top
    degree: 3 for quartic, 4 for sextic, 5 for octic interactions.
    """

    spec: OscillatorSpec
    x: float
    phase: Phase
    coefficients: tuple


def gap_polynomial(spec: OscillatorSpec, x: float, phase: Phase) -> GapProblem:
    """Coefficient vector of the frequency condition for (spec, x, phase)."""
    return GapProblem(spec=spec, x=x, phase=phase, coefficients=_checked_coefficients(spec, x, phase))


def _checked_coefficients(spec: OscillatorSpec, x: float, phase: Phase) -> tuple:
    """`gap_polynomial`'s coefficients, after its checks of x and of the
    (k, g, phase) support."""
    if not (x > 0.0):
        raise ValueError("level factor x must be positive, got %r" % (x,))
    g, k = spec.g, spec.k
    if phase is Phase.SPONTANEOUSLY_BROKEN:
        if g >= 0.0:
            raise ValueError("a displaced (broken-symmetry) solution requires g < 0")
        if k != 4:
            raise ValueError(
                "no fixed-polynomial frequency condition for the displaced k=%d well; "
                "use `spectrum.sextic_ssb_solutions`" % k
            )
    elif phase is not Phase.SYMMETRY_RESTORED:
        raise ValueError("unknown phase %r" % (phase,))
    return _coefficients(k, g, spec.lam, _level_factor(k, phase, x), phase)


def _level_factor(k: int, phase: Phase, x: float) -> float:
    """The level's factor in the condition's constant term: f(x), 5 + 4x² or
    h(x) undisplaced, p(x) displaced."""
    if phase is Phase.SPONTANEOUSLY_BROKEN:
        return factor_p(x)
    if k == 4:
        return factor_f(x)
    if k == 6:
        return 5.0 + 4.0 * x * x
    return factor_h(x)


def _coefficients(k: int, g: float, lam, factor, phase: Phase) -> tuple:
    """Ascending coefficients of the (k, phase) condition; elementwise in lam
    and the level factor, so arrays of cells give every cell's polynomial."""
    if phase is Phase.SPONTANEOUSLY_BROKEN:
        return (6.0 * lam * factor, 2.0 * g, 0.0, 1.0)
    if k == 4:
        return (-6.0 * lam * factor, -g, 0.0, 1.0)
    if k == 6:
        return (-(15.0 * lam / 4.0) * factor, 0.0, -g, 0.0, 1.0)
    return (-35.0 * lam * factor, 0.0, 0.0, -g, 0.0, 1.0)


def critical_coupling(g: float, x: float) -> float:
    """Largest coupling at which the displaced quartic condition has a real root.

    `g` is the magnitude of the (negative) quadratic coefficient.  Above the
    returned value the broken-symmetry cubic loses its pair of positive real
    roots (the discriminant changes sign); at it, the physical root is the
    tangency point w = sqrt(2g/3).
    """
    if not (g > 0.0):
        raise ValueError("critical coupling is defined for a positive well magnitude g, got %r" % (g,))
    if not (x > 0.0):
        raise ValueError("level factor x must be positive, got %r" % (x,))
    return (2.0 * g / 3.0) ** 1.5 / (3.0 * factor_p(x))


# ---------------------------------------------------------------------------
# polynomial evaluation and bracketed Newton (ascending coefficients)


def _poly_eval(coeffs, t: float) -> float:
    r = 0.0
    for a in reversed(coeffs):
        r = r * t + a
    return r


def _poly_derivative(coeffs):
    return [i * coeffs[i] for i in range(1, len(coeffs))]


def _poly_with_derivative(coeffs):
    """t -> (p(t), p'(t)) of the ascending coefficients, for `_refine_bracket`."""
    dcoeffs = _poly_derivative(coeffs)
    return lambda t: (_poly_eval(coeffs, t), _poly_eval(dcoeffs, t))


def _on_cells(f):
    """The `math` (libm) function f on each cell of an array."""
    return lambda a, *args: np.fromiter(map(f, a.tolist(), *map(repeat, args)), float, a.size)


# (where, not, any, math) on floats and on per-cell arrays.  An array's math
# is numpy's sqrt, which rounds correctly as libm's does, and libm's pow,
# acos, asin and cos taken cell by cell: numpy's SIMD versions of those
# differ from libm in the last bits.
_FLOAT_OPS = (lambda c, x, y: x if c else y), (lambda c: not c), bool, math
_CELL_OPS = np.where, np.logical_not, np.any, SimpleNamespace(
    sqrt=np.sqrt, **{f.__name__: _on_cells(f) for f in (math.pow, math.acos, math.asin, math.cos)})


def _ops(*values):
    """(where, not, any, math) for the kernels below: the per-cell forms if a
    value is an array, and the float forms otherwise.  On arrays, one entry
    per cell, each cell takes the float steps in the same operations, and a
    cell that stops keeps its value while the others go on."""
    for v in values:
        if isinstance(v, np.ndarray):
            return _CELL_OPS
    return _FLOAT_OPS


def _refine_bracket(f, a, b, t=None):
    """Root of f by Newton from t (the midpoint by default), kept inside the
    sign-change bracket [a, b]; f(t) returns (f(t), f'(t)).

    A step that leaves the bracket, or has no finite slope, is replaced by
    the bracket's midpoint.  Stops when a step moves the iterate by at most
    5e-16 of its size, so a root far below 1 is found to full relative
    precision too.  Finishes by bisection when Newton has not converged in
    200 steps.  a, b and t are floats or per-cell arrays (`_ops`).
    """
    where, not_, any_, _ = _ops(a, b)
    fa = f(a)[0]
    at_a, at_b = fa == 0.0, f(b)[0] == 0.0
    t = where(at_a, a, where(at_b, b, 0.5 * (a + b) if t is None else t))
    open_ = not_(at_a | at_b)
    for _ in range(200):
        if not any_(open_):
            return t
        ft, dft = f(t)
        hit = ft == 0.0
        same = (ft < 0.0) == (fa < 0.0)
        a, fa, b = where(same, t, a), where(same, ft, fa), where(same, b, t)
        tn = t - ft / where(dft != 0.0, dft, math.nan)
        tn = where((a < tn) & (tn < b), tn, 0.5 * (a + b))
        stop = hit | (abs(tn - t) <= 5e-16 * abs(tn))
        t = where(open_ & not_(hit), tn, t)
        open_ = open_ & not_(stop)
    while any_(open_):  # Newton budget spent (a start far above a huge root): bisect
        t = where(open_, 0.5 * (a + b), t)
        open_ = open_ & (a < t) & (t < b)
        ft = f(t)[0]
        open_ = open_ & (ft != 0.0)
        same = (ft < 0.0) == (fa < 0.0)
        a, b = where(same, t, a), where(same, b, t)
    return t


# ---------------------------------------------------------------------------
# closed-form branches


def _quartic_sr_root(g: float, q0):
    """Positive root of w^3 - g w + q0 = 0 with q0 = -6 lam f(x) < 0; elementwise
    in q0, a float or a per-cell array.  On an array both branches run on
    every cell; numpy warns at the square roots of the other branch's cells,
    which `spectrum.level_grid` runs under ``np.errstate``.

    Where g^3 overflows (|g| above ~5.6e102), the root is sqrt|g| t, with t
    the root of the cubic scaled to g = +-1 and q = q0 / |g|^(3/2).
    """
    p, q = -g, q0
    try:
        p3 = p**3
    except OverflowError:
        scale = math.sqrt(abs(g))
        q = q / scale / scale / scale
        return scale * _quartic_sr_root(math.copysign(1.0, g), q)
    where, not_, any_, m = _ops(q)
    disc = 0.25 * q * q + p3 / 27.0
    one = disc >= 0.0  # a single real root, always for g < 0
    root = q * math.nan  # NaN, as a float or in each cell
    if any_(one):
        u = m.pow(-0.5 * q + m.sqrt(disc), 1.0 / 3.0)
        if g < 0.0:  # Cardano's u - p/(3u) cancels; its product form does not
            root = -q / (u * u + p / 3.0 + p * p / (9.0 * u * u))
        else:
            root = u - p / (3.0 * u)  # both terms non-negative, no cancellation
    if any_(not_(one)):  # three real roots: the largest, trigonometrically
        r = math.sqrt(-p / 3.0)
        cosarg = (-0.5 * q) / r**3
        cosarg = where(cosarg < 1.0, cosarg, 1.0)  # max(-1, min(1, .)), NaN to 1
        cosarg = where(cosarg > -1.0, cosarg, -1.0)
        root = where(one, root, 2.0 * r * m.cos(m.acos(cosarg) / 3.0))
    return root


def _sextic_sr_root(g: float, c0):
    """Positive root of the biquadratic w^4 - g w^2 + c0 = 0 with c0 <= 0, taken
    without cancellation; elementwise in c0, a float or a per-cell array."""
    sqrt = _ops(c0)[3].sqrt
    c = -c0
    disc = sqrt(g * g + 4.0 * c)
    return sqrt(0.5 * (g + disc) if g >= 0.0 else 2.0 * c / (disc - g))


def _quartic_ssb_root(G: float, lam, lam_c):
    """Largest root of w^3 - 2 G w + 6 lam p(x) = 0 (G = |g| > 0, lam <= lam_c);
    elementwise in lam and lam_c, floats or per-cell arrays.

    Parametrized trigonometrically; continuous with sqrt(2G) at lam -> 0 and
    degenerating to the tangency value sqrt(2G/3) at the critical coupling.
    """
    where, _, _, m = _ops(lam)
    ratio = lam / lam_c
    ratio = where(ratio < 1.0, ratio, 1.0)  # min(1, .), NaN to 1
    theta = 0.5 * math.pi + m.asin(ratio)
    return 2.0 * math.sqrt(2.0 * G / 3.0) * m.cos(theta / 3.0)


def _newton_polish(coeffs, w):
    """The iterate of least residual, under strict <, of at most 12 Newton
    steps on the ascending coefficients from w (a float or per-cell array).

    Stops at a zero slope, at a step to w <= 0 or to NaN, at a step of at
    most 1e-16 of w, or at an iterate equal to one of the three before it.
    The NaN and revisit stops are exact: the next iterate depends on the
    current one only, so the steps would stay at NaN, whose residual never
    wins, or cycle through iterates already compared.
    """
    where, not_, any_, _ = _ops(w)
    dcoeffs = _poly_derivative(coeffs)
    fw = _poly_eval(coeffs, w)
    best, best_res = w, abs(fw)
    open_, seen = True, (w, math.nan, math.nan)
    for _ in range(12):
        dfw = _poly_eval(dcoeffs, w)
        step = fw / where(dfw != 0.0, dfw, math.nan)
        wn = w - step
        open_ = open_ & (dfw != 0.0) & (wn > 0.0)
        w = where(open_, wn, w)
        fw = _poly_eval(coeffs, w)
        res = abs(fw)
        better = open_ & (res < best_res)
        best, best_res = where(better, w, best), where(better, res, best_res)
        cycle = (w == seen[0]) | (w == seen[1]) | (w == seen[2])
        open_ = open_ & not_(cycle | (abs(step) <= 1e-16 * abs(w)))
        if not any_(open_):
            return best
        seen = (w, seen[0], seen[1])
    return best


def solve_gap(spec: OscillatorSpec, x: float, phase: Phase) -> float:
    """Positive frequency solving the (spec, x, phase) self-consistency condition.

    Closed forms (polished by Newton on the exact polynomial) for the cubic
    and biquadratic families.  The octic quintic's one positive root lies
    above the positive critical point sqrt(3g/5), where the polynomial is
    negative, and below the Cauchy bound 1 + max(c, g); bracketed Newton
    solves it on that interval.  Raises NoPhysicalRoot when the displaced
    quartic branch is requested above its critical coupling, ValueError for
    a displaced phase of a single well (the free oscillator included), and
    SolverError when the root is not finite or negative, or w^(k/2)
    overflows or underflows to 0.
    """
    g, lam, k = spec.g, spec.lam, spec.k
    if phase is Phase.SPONTANEOUSLY_BROKEN and k == 4 and g < 0.0:
        # above the critical coupling there is no root: say so before building the polynomial
        lam_c = critical_coupling(-g, x)
        if lam > lam_c * (1.0 + 1e-12):
            raise NoPhysicalRoot(lam, lam_c)
    coeffs = _checked_coefficients(spec, x, phase)  # validates (k, g) support
    if lam == 0.0:
        w = math.sqrt(g)  # g > 0 enforced by OscillatorSpec
    elif phase is Phase.SPONTANEOUSLY_BROKEN:
        w = _newton_polish(coeffs, _quartic_ssb_root(-g, lam, lam_c))
    elif k == 4:
        w = _newton_polish(coeffs, _quartic_sr_root(g, coeffs[0]))
    elif k == 6:
        w = _newton_polish(coeffs, _sextic_sr_root(g, coeffs[0]))
    else:
        w = _refine_bracket(_poly_with_derivative(coeffs), math.sqrt(0.6 * g), 1.0 + max(-coeffs[0], g))
    if not math.isfinite(w):
        raise SolverError("non-finite frequency %r at coupling %g, x = %g" % (w, lam, x))
    if w < 0.0:  # w = 0 fails below, as an underflow
        raise SolverError("negative frequency %r at coupling %g, x = %g" % (w, lam, x))
    try:
        w_power = w ** (k // 2)  # the moments divide by w^(k/2)
    except OverflowError:
        raise SolverError("frequency %r at coupling %g, x = %g overflows: w^%d is not finite"
                          % (w, lam, x, k // 2)) from None
    if w_power == 0.0:
        raise SolverError("frequency %r at coupling %g, x = %g underflows: w^%d is 0"
                          % (w, lam, x, k // 2))
    return w
