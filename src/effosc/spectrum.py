"""Per-level self-consistent effective-oscillator solutions.

For a given level n the scheme replaces lam*f^k by the quadratic potential
lam*(A f**2 - B f + C) whose parameters make the replacement exact in
quantum average, with the frequency w and displacement s fixed by the
stationarity conditions of `gap`.  The resulting effective Hamiltonian

    H0 = p**2/2 + (w**2/2)(f - s)**2 + h0,   h0 = lam*C - w**2 s**2 / 2

carries the whole leading-order spectrum: E0 = w*x + h0 with x = n + 1/2.

For a double well (g < 0) two families of stationary points compete: the
undisplaced, symmetry-restored one (s = 0) and displaced, broken-symmetry
ones (s != 0).  `phase_solution` solves one family; `level_solution` keeps
the lower of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPhysicalRoot, NoSSBSolution
from .gap import _newton_polish, solve_gap
from .model import OscillatorSpec, Phase, factor_h, level_x, moment

__all__ = [
    "EffectiveSolution",
    "ssb_displacement",
    "potential_params",
    "level_solution",
    "phase_solution",
    "sextic_ssb_solutions",
    "lo_energy_closed_form",
    "well_referenced_energy",
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
    return 35.0 * factor_h(x) / (2.0 * w**3)


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

    NaN where that root is negative: below w_min = sqrt(45 lam (1+4x²)/(4|g|)),
    where the bracket is positive.  For g < 0 the discriminant
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


def _assemble(spec: OscillatorSpec, n: int, x: float, phase: Phase, w: float,
              s_sq: float) -> EffectiveSolution:
    s = math.sqrt(s_sq)
    A, B, C = potential_params(spec, s, w, x)
    h0 = spec.lam * C - 0.5 * w * w * s_sq
    return EffectiveSolution(
        spec=spec, n=n, phase=phase, w=w, s=s, s_sq=s_sq,
        A=A, B=B, C=C, h0=h0, E0=w * x + h0,
    )


def sextic_ssb_solutions(spec: OscillatorSpec, n: int):
    """All displaced stationary solutions of a sextic double well at level n.

    With u = s² and y = w², the stationarity quadratic u² + (10x/w)u + q(w) = 0
    turns the u² term of the frequency condition into one linear in u, so
    u = -Q(y)/(D w) with

        Q = y² + 4g y + K,   K = lam (37.5 + 210x²),   D = lam (210x - 22.5/x) > 0.

    Substituting u back into the stationarity quadratic leaves one quartic in y,

        P(y) = Q² - 10x D Q + D² (g y/(6 lam) + 15(1 + 4x²)/8),

    whose positive real roots with Q < 0 (that is, u > 0) are the displaced
    states; for K >= 4g², Q > 0 for every y and there are none.  Each root is
    polished on P and finished by one secant step on the nested residual,
    which P's expanded coefficients resolve only to ~1e-12.  Returns a
    (possibly empty) list sorted by energy.
    """
    if spec.k != 6:
        raise ValueError("the displaced sextic solver applies to sextic wells only")
    if spec.g >= 0.0:
        raise ValueError("displaced solutions require g < 0")
    x = level_x(n)
    g, lam = spec.g, spec.lam
    K = lam * (37.5 + 210.0 * x * x)
    if K >= 4.0 * g * g:
        return []
    D = lam * (210.0 * x - 22.5 / x)
    quartic = (  # P(y), ascending
        K * K - 10.0 * x * D * K + D * D * 15.0 * (1.0 + 4.0 * x * x) / 8.0,
        8.0 * g * K - 40.0 * x * D * g + D * D * g / (6.0 * lam),
        16.0 * g * g + 2.0 * K - 10.0 * x * D,
        8.0 * g,
        1.0,
    )
    solutions = []
    for root in np.roots(quartic[::-1]):
        if root.imag != 0.0 or not root.real > 0.0:
            continue
        y = _newton_polish(quartic, float(root.real))
        if not y * y + 4.0 * g * y + K < 0.0:
            continue  # u = -Q/(D w) would be negative
        w = math.sqrt(y)
        r, h = _sextic_ssb_residual(w, x, g, lam), 2.0**-24 * w
        dr = _sextic_ssb_residual(w + h, x, g, lam) - r
        if dr != 0.0:
            w -= r * h / dr
        u = _sextic_s_sq(w, x, g, lam)
        if u > 1e-12 * (1.0 + abs(g) / lam):  # not degenerate with the undisplaced family
            solutions.append(_assemble(spec, n, x, Phase.SPONTANEOUSLY_BROKEN, float(w), float(u)))
    solutions.sort(key=lambda sol: sol.E0)
    return solutions


def phase_solution(spec: OscillatorSpec, n: int, phase: Phase) -> EffectiveSolution:
    """Lowest-energy solution of level n in the given phase.

    Raises NoPhysicalRoot (quartic well above its critical coupling) or
    NoSSBSolution (no displaced sextic state) when the phase has no
    solution, and ValueError for a displaced phase of a single well.
    """
    x = level_x(n)
    if phase is Phase.SPONTANEOUSLY_BROKEN and spec.k == 6:
        displaced = sextic_ssb_solutions(spec, n)
        if not displaced:
            raise NoSSBSolution(
                f"no broken-symmetry branch for k=6, g={spec.g}, lambda={spec.lam}, n={n}")
        return displaced[0]
    w = solve_gap(spec, x, phase)
    s_sq = 0.0 if phase is Phase.SYMMETRY_RESTORED else ssb_displacement(spec, x, w)
    return _assemble(spec, n, x, phase, w, s_sq)


def level_solution(spec: OscillatorSpec, n: int) -> EffectiveSolution:
    """Lowest-energy stationary solution for level n.

    g >= 0 has only the undisplaced family.  A double well also solves the
    displaced family, where it exists, and the lower energy decides.
    """
    best = phase_solution(spec, n, Phase.SYMMETRY_RESTORED)
    if spec.g < 0.0:
        try:
            displaced = phase_solution(spec, n, Phase.SPONTANEOUSLY_BROKEN)
        except (NoPhysicalRoot, NoSSBSolution):
            pass  # above the critical coupling, or no displaced state
        else:
            if displaced.E0 < best.E0:
                best = displaced
    return best


def lo_energy_closed_form(spec: OscillatorSpec, n: int, phase: Phase) -> float:
    """Leading-order energy of the requested phase from its closed form.

    Undisplaced families (signed g):
        quartic (x/4)(3w + g/w),  sextic (x/3)(2w + g/w),  octic (x/8)(5w + 3g/w).
    Displaced quartic: (x/4)(3w + 2|g|/w) - g²/(16 lam).
    The displaced sextic has no closed form; its lowest state is evaluated
    variationally.  Displaced phases are solved by `phase_solution`, which
    rejects single wells.  Agrees with `level_solution(...).E0` at the same
    phase.
    """
    x = level_x(n)
    g = spec.g
    if phase is Phase.SPONTANEOUSLY_BROKEN:
        sol = phase_solution(spec, n, phase)
        if spec.k == 6:
            return sol.E0
        return (x / 4.0) * (3.0 * sol.w + 2.0 * abs(g) / sol.w) - g * g / (16.0 * spec.lam)
    w = solve_gap(spec, x, phase)
    if spec.k == 4:
        return (x / 4.0) * (3.0 * w + g / w)
    if spec.k == 6:
        return (x / 3.0) * (2.0 * w + g / w)
    return (x / 8.0) * (5.0 * w + 3.0 * g / w)


def well_referenced_energy(spec: OscillatorSpec, e0: float) -> float:
    """Energy measured from the classical well bottom of a quartic double well.

    Adds the well depth g²/(16 lam); this is the convention used when
    quoting quartic double-well levels as positive numbers.
    """
    if spec.g >= 0.0 or spec.k != 4:
        raise ValueError("well-bottom referencing applies to quartic double wells (k=4, g<0)")
    return e0 + spec.g * spec.g / (16.0 * spec.lam)

