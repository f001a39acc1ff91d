"""Per-level self-consistent effective-oscillator solutions.

For a given level n the scheme replaces lam*f^k by the quadratic potential
lam*(A f**2 - B f + C) whose parameters make the replacement exact in
quantum average, with the frequency w and displacement s fixed by the
stationarity conditions of `gap`.  The resulting effective Hamiltonian

    H0 = p**2/2 + (w**2/2)(f - s)**2 + h0,   h0 = lam*C - w**2 s**2 / 2

carries the whole leading-order spectrum: E0 = w*x + h0 with x = n + 1/2.

For a double well (g < 0) two families of stationary points compete: the
undisplaced, symmetry-restored one (s = 0) and displaced, broken-symmetry
ones (s != 0).  `level_solution` solves every available family and keeps
the lowest-energy candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NoSSBSolution
from .gap import critical_coupling, solve_gap
from .model import OscillatorSpec, Phase, hamiltonian_average, level_factors, moment

__all__ = [
    "EffectiveSolution",
    "ssb_displacement",
    "potential_params",
    "level_solution",
    "sextic_ssb_solutions",
    "lo_energy_closed_form",
    "well_referenced_energy",
    "cea_residual",
]


@dataclass(frozen=True)
class EffectiveSolution:
    """One level's solved effective oscillator.

    s is reported non-negative (the two displaced minima are mirror images;
    only s**2 is observable).  E0 = w*x + h0 and equals the averaged full
    Hamiltonian in the trial state by construction.
    """

    spec: OscillatorSpec
    n: int
    phase: Phase
    w: float
    s: float
    s_sq: float
    A: float
    B: float
    C: float
    h0: float
    E0: float


def _effective_curvature_param(spec: OscillatorSpec, s: float, w: float, x: float) -> float:
    """Quadratic-term parameter A(s, w, x): minus (w²/x) d<f^k>/dw.

    At a frequency solving the gap condition this coincides with
    (w² - g)/(2 lam); away from it, it is the explicit closed form.
    """
    k = spec.k
    s2 = s * s
    if k == 4:
        return 6.0 * s2 + (3.0 + 12.0 * x * x) / (4.0 * x * w)
    if k == 6:
        return (
            15.0 * s2 * s2
            + 45.0 * s2 * (1.0 + 4.0 * x * x) / (4.0 * x * w)
            + 15.0 * (5.0 + 4.0 * x * x) / (8.0 * w * w)
        )
    if s != 0.0:
        raise ValueError("octic potential parameters are only defined for s = 0")
    h = x**3 + 3.5 * x + 9.0 / (16.0 * x)
    return 35.0 * h / (2.0 * w**3)


def potential_params(spec: OscillatorSpec, s: float, w: float, x: float):
    """Effective-potential parameters (A, B, C) for a trial state (s, w, x).

    Constructed so the quadratic replacement has the same quantum average
    as f^k in that state: C absorbs the residual exactly, and B carries the
    displacement (B = w² s / lam, zero in every undisplaced phase).
    """
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    A = _effective_curvature_param(spec, s, w, x)
    B = 0.0 if (s == 0.0 or spec.lam == 0.0) else w * w * s / spec.lam
    C = moment(spec.k, s, w, x) - A * moment(2, s, w, x) + B * s
    return A, B, C


def ssb_displacement(spec: OscillatorSpec, x: float, w: float) -> float:
    """Squared displacement s² of the broken-symmetry stationary state at frequency w.

    Quartic well: the stationarity condition is linear in s²,
        s² = (|g| - 12 lam x / w) / (4 lam).
    Sextic well: it is quadratic in s²; the larger root is returned.
    Raises NoSSBSolution when no non-negative solution exists.
    """
    if spec.g >= 0.0:
        raise ValueError("displaced solutions require g < 0")
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    g, lam, k = spec.g, spec.lam, spec.k
    if k == 4:
        s_sq = (-g - 12.0 * lam * x / w) / (4.0 * lam)
        if s_sq < 0.0:
            raise NoSSBSolution(
                "no displaced quartic solution at w=%g (s² would be %g)" % (w, s_sq)
            )
        return s_sq
    u = _sextic_s_sq(w, x, g, lam)
    if math.isnan(u):
        raise NoSSBSolution("displaced sextic stationarity roots are negative at w=%g" % w)
    return float(u)


def _sextic_s_sq(w, x, g, lam):
    """Larger root u = s² of the sextic stationarity quadratic, elementwise in w.

        u² + (10x/w) u + [g/(6 lam) + 15(1+4x²)/(8w²)] = 0

    NaN where that root is negative (below the frequency w_min of
    `sextic_ssb_solutions`).  For g < 0 the discriminant
    (70x² - 15/2)/w² + 2|g|/(3 lam) is positive, so the root is always real.
    """
    b = 10.0 * x / w
    q = g / (6.0 * lam) + 15.0 * (1.0 + 4.0 * x * x) / (8.0 * w * w)
    u = 0.5 * (-b + np.sqrt(b * b - 4.0 * q))
    return np.where(u >= 0.0, u, np.nan)


def _sextic_ssb_residual(w, x, g, lam):
    """Monic form of w² = g + 2 lam A(s(w), w) with s² = u(w) substituted.

    Zero at a displaced sextic solution, NaN where no displacement exists;
    works on a float and elementwise on an array of frequencies.
    """
    u = _sextic_s_sq(w, x, g, lam)
    return (
        w**4
        - w * w * (g + 30.0 * lam * u * u)
        - 45.0 * lam * u * w * (1.0 + 4.0 * x * x) / (2.0 * x)
        - (15.0 * lam / 4.0) * (5.0 + 4.0 * x * x)
    )


def _assemble(spec: OscillatorSpec, n: int, phase: Phase, w: float, s_sq: float) -> EffectiveSolution:
    x = level_factors(n).x
    s = math.sqrt(s_sq)
    A, B, C = potential_params(spec, s, w, x)
    h0 = spec.lam * C - 0.5 * w * w * s_sq
    return EffectiveSolution(
        spec=spec, n=n, phase=phase, w=w, s=s, s_sq=s_sq,
        A=A, B=B, C=C, h0=h0, E0=w * x + h0,
    )


def sextic_ssb_solutions(spec: OscillatorSpec, n: int):
    """All displaced stationary solutions of a sextic double well at level n.

    The displacement cannot be eliminated from the sextic frequency
    condition, so this solves the nested system: for each frequency w the
    stationary s²(w) is substituted back, leaving a one-dimensional root
    problem.  Returns a (possibly empty) list sorted by energy; shallow
    wells that cannot bind a displaced state yield [].
    """
    if spec.k != 6:
        raise ValueError("nested displaced solver applies to sextic wells only")
    if spec.g >= 0.0:
        raise ValueError("displaced solutions require g < 0")
    x = level_factors(n).x
    g, lam = spec.g, spec.lam
    G = -g
    # below w_min the stationarity quadratic has no non-negative root
    w_min = math.sqrt(45.0 * lam * (1.0 + 4.0 * x * x) / (4.0 * G))

    w_sr = solve_gap(spec, x, Phase.SYMMETRY_RESTORED)
    upper = 2.0 * max(2.0 * math.sqrt(G), w_min, w_sr, 1.0)
    for _ in range(60):
        if _sextic_ssb_residual(upper, x, g, lam) > 0.0 and upper > w_min * 4.0:
            break
        upper *= 2.0
    grid = np.linspace(w_min * (1.0 + 1e-12), upper, 512)
    vals = _sextic_ssb_residual(grid, x, g, lam)
    a, b = vals[:-1], vals[1:]
    cells = np.flatnonzero(((a == 0.0) | (a * b < 0.0)) & ~np.isnan(b))
    solutions = []
    for i in cells:
        if a[i] == 0.0:
            root = grid[i]
        else:
            root = brentq(_sextic_ssb_residual, grid[i], grid[i + 1], args=(x, g, lam),
                          xtol=1e-14, rtol=8.9e-16)
        u = _sextic_s_sq(root, x, g, lam)
        if not u > 1e-12 * (1.0 + abs(g) / lam):
            continue  # degenerate with the undisplaced family
        if solutions and any(abs(root - s.w) <= 1e-8 * (1.0 + root) for s in solutions):
            continue
        solutions.append(_assemble(spec, n, Phase.SPONTANEOUSLY_BROKEN, float(root), float(u)))
    solutions.sort(key=lambda sol: sol.E0)
    return solutions


def level_solution(spec: OscillatorSpec, n: int) -> EffectiveSolution:
    """Lowest-energy stationary solution for level n.

    g >= 0 has only the undisplaced family.  For a quartic well below its
    critical coupling, and for sextic wells deep enough to bind a displaced
    state, the competing families are all solved and the energy decides.
    """
    x = level_factors(n).x
    candidates = [_assemble(spec, n, Phase.SYMMETRY_RESTORED,
                            solve_gap(spec, x, Phase.SYMMETRY_RESTORED), 0.0)]
    if spec.g < 0.0 and spec.lam > 0.0:
        if spec.k == 4:
            if spec.lam <= critical_coupling(-spec.g, x) * (1.0 + 1e-12):
                w_b = solve_gap(spec, x, Phase.SPONTANEOUSLY_BROKEN)
                try:
                    s_sq = ssb_displacement(spec, x, w_b)
                except NoSSBSolution:
                    pass
                else:
                    candidates.append(_assemble(spec, n, Phase.SPONTANEOUSLY_BROKEN, w_b, s_sq))
        else:
            candidates.extend(sextic_ssb_solutions(spec, n))
    return min(candidates, key=lambda sol: sol.E0)


def lo_energy_closed_form(spec: OscillatorSpec, n: int, phase: Phase) -> float:
    """Leading-order energy of the requested phase from its closed form.

    Undisplaced families (signed g):
        quartic (x/4)(3w + g/w),  sextic (x/3)(2w + g/w),  octic (x/8)(5w + 3g/w).
    Displaced quartic: (x/4)(3w + 2|g|/w) - g²/(16 lam).
    The displaced sextic has no closed form; its candidates are evaluated
    variationally.  Agrees with `level_solution(...).E0` at the same phase.
    """
    x = level_factors(n).x
    g = spec.g
    if phase is Phase.SYMMETRY_RESTORED:
        w = solve_gap(spec, x, phase)
        if spec.k == 4:
            return (x / 4.0) * (3.0 * w + g / w)
        if spec.k == 6:
            return (x / 3.0) * (2.0 * w + g / w)
        return (x / 8.0) * (5.0 * w + 3.0 * g / w)
    if spec.k == 4:
        w = solve_gap(spec, x, phase)
        return (x / 4.0) * (3.0 * w + 2.0 * abs(g) / w) - g * g / (16.0 * spec.lam)
    if spec.k == 6:
        displaced = sextic_ssb_solutions(spec, n)
        if not displaced:
            raise NoSSBSolution("no displaced sextic solution exists for this well")
        return displaced[0].E0
    raise ValueError("no displaced family for the octic oscillator")


def well_referenced_energy(spec: OscillatorSpec, e0: float) -> float:
    """Energy measured from the classical well bottom of a quartic double well.

    Adds the well depth g²/(16 lam); this is the convention used when
    quoting quartic double-well levels as positive numbers.
    """
    if spec.g >= 0.0 or spec.k != 4:
        raise ValueError("well-bottom referencing applies to quartic double wells (k=4, g<0)")
    return e0 + spec.g * spec.g / (16.0 * spec.lam)


def cea_residual(solution: EffectiveSolution) -> float:
    """Average of the residual interaction lam*(f^k - A f² + B f - C).

    Zero to rounding by the construction of C; recomputed here from scratch
    as an independent identity check.
    """
    spec = solution.spec
    x = level_factors(solution.n).x
    s, w = solution.s, solution.w
    return spec.lam * (
        moment(spec.k, s, w, x)
        - solution.A * moment(2, s, w, x)
        + solution.B * s
        - solution.C
    )


def _lo_energy_direct(solution: EffectiveSolution) -> float:
    """Averaged full Hamiltonian at a solution (second route to E0)."""
    return hamiltonian_average(
        solution.spec, solution.s, solution.w, level_factors(solution.n).x
    )
