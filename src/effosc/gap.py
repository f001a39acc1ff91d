"""Frequency self-consistency ("gap") equations and their root solvers.

Minimizing the averaged Hamiltonian over the trial frequency w yields, per
level x = n + 1/2, a low-degree polynomial condition in w:

    quartic, undisplaced:   w**3 - g w - 6 lam f(x)            = 0
    quartic, displaced:     w**3 + 2 g w + 6 lam p(x)          = 0   (g < 0)
    sextic, undisplaced:    w**4 - g w**2 - (15 lam/4)(5+4x²)  = 0
    octic, undisplaced:     w**5 - g w**3 - 35 lam h(x)        = 0

with the level factors f, p, h of `model.level_factors`.  The displaced
sextic condition does not reduce to a fixed polynomial (the displacement
cannot be eliminated); it is handled by the nested solver in `spectrum`.

Closed forms are used where the cubic/biquadratic structure gives them,
always followed by a Newton polish against the exact polynomial; the
generic `positive_real_roots` bracketing solver provides the independent
route and covers the quintic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoPhysicalRoot, SolverError
from .model import OscillatorSpec, Phase

__all__ = [
    "GapProblem",
    "gap_polynomial",
    "solve_gap",
    "critical_coupling",
    "positive_real_roots",
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


def _fx(x: float) -> float:
    return x + 1.0 / (4.0 * x)


def _px(x: float) -> float:
    return 5.0 * x - 1.0 / (4.0 * x)


def _hx(x: float) -> float:
    return x**3 + 3.5 * x + 9.0 / (16.0 * x)


def gap_polynomial(spec: OscillatorSpec, x: float, phase: Phase) -> GapProblem:
    """Coefficient vector of the frequency condition for (spec, x, phase)."""
    if not (x > 0.0):
        raise ValueError("level factor x must be positive, got %r" % (x,))
    g, lam, k = spec.g, spec.lam, spec.k
    if phase is Phase.SYMMETRY_RESTORED:
        if k == 4:
            coeffs = (-6.0 * lam * _fx(x), -g, 0.0, 1.0)
        elif k == 6:
            coeffs = (-(15.0 * lam / 4.0) * (5.0 + 4.0 * x * x), 0.0, -g, 0.0, 1.0)
        else:
            coeffs = (-35.0 * lam * _hx(x), 0.0, 0.0, -g, 0.0, 1.0)
    elif phase is Phase.SPONTANEOUSLY_BROKEN:
        if g >= 0.0:
            raise ValueError("a displaced (broken-symmetry) solution requires g < 0")
        if k != 4:
            raise ValueError(
                "no fixed-polynomial frequency condition for the displaced k=%d well; "
                "use the nested displaced solver in `spectrum`" % k
            )
        coeffs = (6.0 * lam * _px(x), 2.0 * g, 0.0, 1.0)
    else:
        raise ValueError("unknown phase %r" % (phase,))
    return GapProblem(spec=spec, x=x, phase=phase, coefficients=coeffs)


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
    return (2.0 * g / 3.0) ** 1.5 / (3.0 * _px(x))


# ---------------------------------------------------------------------------
# generic real-root machinery (ascending coefficients, degree <= 5)


def _poly_eval(coeffs, t: float) -> float:
    r = 0.0
    for a in reversed(coeffs):
        r = r * t + a
    return r


def _poly_derivative(coeffs):
    return [i * coeffs[i] for i in range(1, len(coeffs))]


def _refine_bracket(coeffs, dcoeffs, a, b, fa, fb):
    """Newton iteration safeguarded by the sign-change bracket [a, b].

    Finishes by bisection when Newton has not converged in 200 steps.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    t = 0.5 * (a + b)
    for _ in range(200):
        ft = _poly_eval(coeffs, t)
        if ft == 0.0:
            return t
        if (ft < 0.0) == (fa < 0.0):
            a, fa = t, ft
        else:
            b, fb = t, ft
        dft = _poly_eval(dcoeffs, t)
        tn = t - ft / dft if dft != 0.0 else 0.5 * (a + b)
        if not (a < tn < b):
            tn = 0.5 * (a + b)
        if abs(tn - t) <= 5e-16 * max(1.0, abs(tn)):
            return tn
        t = tn
    # Newton budget spent (a start far above a huge root): bisect the bracket
    while True:
        t = 0.5 * (a + b)
        if not (a < t < b):
            return t
        ft = _poly_eval(coeffs, t)
        if ft == 0.0:
            return t
        if (ft < 0.0) == (fa < 0.0):
            a = t
        else:
            b = t


def _real_roots(coeffs):
    """All real roots, via recursive subdivision at the derivative's roots."""
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0.0:
        deg -= 1
    coeffs = list(coeffs[: deg + 1])
    if deg < 1:
        return []
    lead = coeffs[-1]
    cn = [a / lead for a in coeffs]
    if deg == 1:
        return [-cn[0]]
    bound = 1.0 + max(abs(a) for a in cn[:-1])
    dcn = _poly_derivative(cn)
    crit = sorted(t for t in _real_roots(dcn) if -bound < t < bound)
    pts = [-bound] + crit + [bound]
    roots = []
    vals = [_poly_eval(cn, t) for t in pts]
    for i in range(len(pts) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            roots.append(_refine_bracket(cn, dcn, pts[i], pts[i + 1], vals[i], vals[i + 1]))
    if vals[-1] == 0.0:
        roots.append(pts[-1])
    # tangency (multiple-root) detection at interior critical points: accept a
    # critical point as a root when the residual there is at evaluation noise
    for t in crit:
        v = _poly_eval(cn, t)
        scale = sum(abs(a) * abs(t) ** i for i, a in enumerate(cn))
        if abs(v) <= 1e-11 * (1.0 + scale):
            roots.append(t)
    roots.sort()
    merged = []
    for t in roots:
        if merged and abs(t - merged[-1]) <= 1e-9 * (1.0 + abs(t)):
            continue
        merged.append(t)
    return merged


def positive_real_roots(coefficients):
    """Sorted positive real roots of an ascending-coefficient polynomial.

    Degree at most 5, nonzero leading coefficient.  Zero roots are factored
    out first and are not reported (the physical frequency is positive).
    """
    coeffs = [float(a) for a in coefficients]
    if not coeffs or coeffs[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    if len(coeffs) - 1 > 5:
        raise ValueError("degree above 5 is not supported")
    while len(coeffs) > 1 and coeffs[0] == 0.0:
        coeffs.pop(0)  # root at w = 0, outside the physical domain
    return [t for t in _real_roots(coeffs) if t > 1e-300]


# ---------------------------------------------------------------------------
# closed-form branches


def _quartic_sr_root(g: float, q0: float) -> float:
    """Positive root of w^3 - g w + q0 = 0 with q0 = -6 lam f(x) < 0."""
    p, q = -g, q0
    disc = 0.25 * q * q + p**3 / 27.0
    if disc >= 0.0:
        # single real root; both Cardano terms positive, no cancellation
        u = (-0.5 * q + math.sqrt(disc)) ** (1.0 / 3.0)
        return u - p / (3.0 * u)
    r = math.sqrt(-p / 3.0)
    cosarg = max(-1.0, min(1.0, (-0.5 * q) / r**3))
    return 2.0 * r * math.cos(math.acos(cosarg) / 3.0)


def _quartic_ssb_root(G: float, lam: float, lam_c: float) -> float:
    """Largest root of w^3 - 2 G w + 6 lam p(x) = 0 (G = |g| > 0, lam <= lam_c).

    Parametrized trigonometrically; continuous with sqrt(2G) at lam -> 0 and
    degenerating to the tangency value sqrt(2G/3) at the critical coupling.
    """
    ratio = min(1.0, lam / lam_c)
    theta = 0.5 * math.pi + math.asin(ratio)
    return 2.0 * math.sqrt(2.0 * G / 3.0) * math.cos(theta / 3.0)


def _newton_polish(coeffs, w: float) -> float:
    dcoeffs = _poly_derivative(coeffs)
    best, best_res = w, abs(_poly_eval(coeffs, w))
    for _ in range(12):
        fw = _poly_eval(coeffs, w)
        dfw = _poly_eval(dcoeffs, w)
        if dfw == 0.0:
            break
        step = fw / dfw
        wn = w - step
        if wn <= 0.0:
            break
        w = wn
        res = abs(_poly_eval(coeffs, w))
        if res < best_res:
            best, best_res = w, res
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    return best


def solve_gap(spec: OscillatorSpec, x: float, phase: Phase) -> float:
    """Positive frequency solving the (spec, x, phase) self-consistency condition.

    Closed forms (polished by Newton on the exact polynomial) for the cubic
    and biquadratic families; bracketed root-finding for the octic quintic.
    Raises NoPhysicalRoot when the displaced quartic branch is requested
    above its critical coupling, and SolverError when the root overflows.
    """
    g, lam, k = spec.g, spec.lam, spec.k
    if lam == 0.0:
        return math.sqrt(g)  # g > 0 enforced by OscillatorSpec
    problem = gap_polynomial(spec, x, phase)  # validates (k, g) support
    if phase is Phase.SPONTANEOUSLY_BROKEN:
        G = -g
        lam_c = critical_coupling(G, x)
        if lam > lam_c * (1.0 + 1e-12):
            raise NoPhysicalRoot(lam, lam_c)
        w = _newton_polish(problem.coefficients, _quartic_ssb_root(G, lam, lam_c))
    elif k == 4:
        w = _newton_polish(problem.coefficients, _quartic_sr_root(g, problem.coefficients[0]))
    elif k == 6:
        c = -problem.coefficients[0]
        disc = math.sqrt(g * g + 4.0 * c)
        wsq = 0.5 * (g + disc) if g >= 0.0 else 2.0 * c / (disc - g)
        w = _newton_polish(problem.coefficients, math.sqrt(wsq))
    else:
        roots = positive_real_roots(problem.coefficients)
        if not roots:
            raise NoPhysicalRoot(lam, float("nan"))
        w = roots[-1]
    if not math.isfinite(w):
        raise SolverError("non-finite frequency %r at coupling %g, x = %g" % (w, lam, x))
    return w
