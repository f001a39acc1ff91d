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
iteration safeguarded by its sign-change bracket finds directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    if not (x > 0.0):
        raise ValueError("level factor x must be positive, got %r" % (x,))
    g, lam, k = spec.g, spec.lam, spec.k
    if phase is Phase.SYMMETRY_RESTORED:
        if k == 4:
            coeffs = (-6.0 * lam * factor_f(x), -g, 0.0, 1.0)
        elif k == 6:
            coeffs = (-(15.0 * lam / 4.0) * (5.0 + 4.0 * x * x), 0.0, -g, 0.0, 1.0)
        else:
            coeffs = (-35.0 * lam * factor_h(x), 0.0, 0.0, -g, 0.0, 1.0)
    elif phase is Phase.SPONTANEOUSLY_BROKEN:
        if g >= 0.0:
            raise ValueError("a displaced (broken-symmetry) solution requires g < 0")
        if k != 4:
            raise ValueError(
                "no fixed-polynomial frequency condition for the displaced k=%d well; "
                "use `spectrum.sextic_ssb_solutions`" % k
            )
        coeffs = (6.0 * lam * factor_p(x), 2.0 * g, 0.0, 1.0)
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


def _refine_bracket(coeffs, a, b):
    """Root of the polynomial by Newton, safeguarded by the sign-change bracket [a, b].

    Stops when a step moves the iterate by at most 5e-16 of its size, so a
    root far below 1 is found to full relative precision too.  Finishes by
    bisection when Newton has not converged in 200 steps.
    """
    dcoeffs = _poly_derivative(coeffs)
    fa = _poly_eval(coeffs, a)
    if fa == 0.0:
        return a
    if _poly_eval(coeffs, b) == 0.0:
        return b
    t = 0.5 * (a + b)
    for _ in range(200):
        ft = _poly_eval(coeffs, t)
        if ft == 0.0:
            return t
        if (ft < 0.0) == (fa < 0.0):
            a, fa = t, ft
        else:
            b = t
        dft = _poly_eval(dcoeffs, t)
        tn = t - ft / dft if dft != 0.0 else 0.5 * (a + b)
        if not (a < tn < b):
            tn = 0.5 * (a + b)
        if abs(tn - t) <= 5e-16 * abs(tn):
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
    and biquadratic families.  The octic quintic's one positive root lies
    above the positive critical point sqrt(3g/5), where the polynomial is
    negative, and below the Cauchy bound 1 + max(c, g); bracketed Newton
    solves it on that interval.  Raises NoPhysicalRoot when the displaced
    quartic branch is requested above its critical coupling, ValueError for
    a displaced phase of a single well (the free oscillator included), and
    SolverError when the root overflows, or is so small (0 included) that
    w^(k/2) underflows.
    """
    g, lam, k = spec.g, spec.lam, spec.k
    if phase is Phase.SPONTANEOUSLY_BROKEN and k == 4 and g < 0.0:
        # above the critical coupling there is no root: say so before building the polynomial
        lam_c = critical_coupling(-g, x)
        if lam > lam_c * (1.0 + 1e-12):
            raise NoPhysicalRoot(lam, lam_c)
    problem = gap_polynomial(spec, x, phase)  # validates (k, g) support
    if lam == 0.0:
        w = math.sqrt(g)  # g > 0 enforced by OscillatorSpec
    elif phase is Phase.SPONTANEOUSLY_BROKEN:
        w = _newton_polish(problem.coefficients, _quartic_ssb_root(-g, lam, lam_c))
    elif k == 4:
        w = _newton_polish(problem.coefficients, _quartic_sr_root(g, problem.coefficients[0]))
    elif k == 6:
        c = -problem.coefficients[0]
        disc = math.sqrt(g * g + 4.0 * c)
        wsq = 0.5 * (g + disc) if g >= 0.0 else 2.0 * c / (disc - g)
        w = _newton_polish(problem.coefficients, math.sqrt(wsq))
    else:
        coeffs = problem.coefficients
        w = _refine_bracket(coeffs, math.sqrt(0.6 * g), 1.0 + max(-coeffs[0], g))
    if not math.isfinite(w):
        raise SolverError("non-finite frequency %r at coupling %g, x = %g" % (w, lam, x))
    if w < 1.0 and w ** (k // 2) == 0.0:  # the moments divide by w^(k/2)
        raise SolverError("frequency %r at coupling %g, x = %g underflows: w^%d is 0"
                          % (w, lam, x, k // 2))
    return w
