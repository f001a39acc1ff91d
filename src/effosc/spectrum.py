"""Per-level self-consistent effective-oscillator solutions.

For a given level n the scheme replaces lam*f^k by the quadratic potential
lam*(A f**2 - B f + C) whose parameters make the replacement exact in
quantum average, with the frequency w and displacement s fixed by the
stationarity conditions of `gap`.  The resulting effective Hamiltonian

    H0 = p**2/2 + (w**2/2)(f - s)**2 + h0,   h0 = lam*C - w**2 s**2 / 2

carries the whole leading-order spectrum: E0 = w*x + h0 with x = n + 1/2,
which at a root of the gap condition reduces to a closed form in w for
every family but the displaced sextic.

For a double well (g < 0) two families of stationary points compete: the
undisplaced, symmetry-restored one (s = 0) and displaced, broken-symmetry
ones (s != 0).  `phase_solution` solves one family; `level_solution` keeps
the lower of the two.  `level_grid` does what `level_solution` does on a
whole coupling x level grid at once, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPhysicalRoot, NoSSBSolution, SolverError
from .gap import (
    _coefficients,
    _level_factor,
    _newton_polish,
    _quartic_sr_root,
    _quartic_ssb_root,
    _poly_with_derivative,
    _refine_bracket,
    _sextic_sr_root,
    critical_coupling,
    solve_gap,
)
from .model import OscillatorSpec, Phase, factor_h, factor_p, level_x, moment

__all__ = [
    "EffectiveSolution",
    "LevelGrid",
    "ssb_displacement",
    "potential_params",
    "level_solution",
    "level_grid",
    "phase_solution",
    "sextic_ssb_solutions",
    "lo_energy_closed_form",
    "well_referenced_energy",
]


@dataclass(frozen=True)
class EffectiveSolution:
    """One level's solved effective oscillator.

    s is reported non-negative (the two displaced minima are mirror images;
    only s**2 is observable).  E0, the averaged full Hamiltonian in the trial
    state, is exact: the closed form in w of `_closed_form_energy`, or w*x + h0
    for the displaced sextic, which has none.  Elsewhere w*x + h0 matches E0
    only to the round-off of C, a difference of moments (NaN at extremes).
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
        s_sq = _quartic_s_sq(g, lam, x, w)
        if s_sq < 0.0:
            raise NoSSBSolution(
                "no displaced quartic solution at w=%g (s² would be %g)" % (w, s_sq)
            )
        return s_sq
    u = _sextic_s_sq(w, x, g, lam)
    if math.isnan(u):
        raise NoSSBSolution("displaced sextic stationarity roots are negative at w=%g" % w)
    return float(u)


def _quartic_s_sq(g, lam, x, w):
    """`ssb_displacement`'s quartic s², elementwise in lam, x and w."""
    return (-g - 12.0 * lam * x / w) / (4.0 * lam)


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


def _closed_form_energy(k: int, g: float, lam, x, w, phase: Phase):
    """E0 at a root w of the gap condition, elementwise in lam, x and w: (x/4)(3w + g/w),
    (x/3)(2w + g/w), (x/8)(5w + 3g/w) undisplaced for k = 4, 6, 8, and for the displaced
    quartic (x/4)(3w + 2|g|/w) - g (g/(16 lam)), finite where g² overflows.  The
    displaced sextic has no closed form."""
    if phase is Phase.SPONTANEOUSLY_BROKEN:
        assert k == 4, "the displaced sextic has no closed-form energy"
        return (x / 4.0) * (3.0 * w + 2.0 * abs(g) / w) - g * (g / (16.0 * lam))
    if k == 4:
        return (x / 4.0) * (3.0 * w + g / w)
    if k == 6:
        return (x / 3.0) * (2.0 * w + g / w)
    return (x / 8.0) * (5.0 * w + 3.0 * g / w)


def _assemble(spec: OscillatorSpec, n: int, x: float, phase: Phase, w: float,
              s_sq: float) -> EffectiveSolution:
    """The record of a solved (w, s²): A, B, C and h0 from `potential_params`;
    E0 from `_closed_form_energy`, or w x + h0 for the displaced sextic."""
    s = math.sqrt(s_sq)
    A, B, C = potential_params(spec, s, w, x)
    h0 = spec.lam * C - 0.5 * w * w * s_sq
    if phase is Phase.SPONTANEOUSLY_BROKEN and spec.k == 6:
        E0 = w * x + h0
    else:
        E0 = _closed_form_energy(spec.k, spec.g, spec.lam, x, w, phase)
    return EffectiveSolution(
        spec=spec, n=n, phase=phase, w=w, s=s, s_sq=s_sq,
        A=A, B=B, C=C, h0=h0, E0=E0,
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
    states; for K >= 4g², Q > 0 for every y and there are none.  Q < 0 holds
    between the roots 2|g| -+ sqrt(4g² - K) of Q.  Above 2|g| there is at
    most one such root, solved in Q by `_outer_displaced_state`: in a deep
    well it sits next to a root of P with Q > 0, and the roots of P's
    expanded coefficients lose the pair.  The roots below 2|g| come from P's
    roots, each polished on P and finished by one secant step on the nested
    residual, which P's expanded coefficients resolve only to ~1e-12.
    Returns a (possibly empty) list sorted by energy.
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
    failure = f"broken-symmetry branch for k=6, g={g}, lambda={lam}, n={n}"
    if not all(map(math.isfinite, quartic)):
        raise SolverError(f"{failure}: its quartic in w^2 has a coefficient that is not finite")
    states = []  # (w, u = s²)
    for root in np.roots(quartic[::-1]):
        if root.imag != 0.0 or not root.real > 0.0:
            continue
        y = _newton_polish(quartic, float(root.real))
        if not y < -2.0 * g:
            continue  # above 2|g|: the outer root, solved in Q below
        if not y * y + 4.0 * g * y + K < 0.0:
            continue  # u = -Q/(D w) would be negative
        w = math.sqrt(y)
        with np.errstate(all="ignore"):  # in a deep well r * h overflows: no step then
            r, h = _sextic_ssb_residual(w, x, g, lam), 2.0**-24 * w
            dr = _sextic_ssb_residual(w + h, x, g, lam) - r
            step = r * h / dr if dr != 0.0 else 0.0
        if math.isfinite(step):
            w -= step
        u = _sextic_s_sq(w, x, g, lam)
        if u > 1e-12 * (1.0 + abs(g) / lam):  # not degenerate with the undisplaced family
            states.append((float(w), float(u)))
    outer = _outer_displaced_state(g, lam, x, K, D, failure)
    if outer is not None:  # u > 0 to full relative precision
        states.append(outer)
    solutions = [_assemble(spec, n, x, Phase.SPONTANEOUSLY_BROKEN, w, u) for w, u in states]
    solutions.sort(key=lambda sol: sol.E0)
    return solutions


def _outer_displaced_state(g: float, lam: float, x: float, K: float, D: float, failure: str):
    """(w, u) of the displaced sextic state with w² above 2|g|, or None if there is none.

    On that side y = 2|g| + sqrt(E + Q) with E = 4g² - K.  In t = Q/S, with
    S = D|g| / sqrt(3 lam) the scale of Q (t ~ -sqrt 2 in a deep well),
    P(y) = 0 reads

        F(t) = t² - beta t + gamma + sqrt(E + S t) / (2g) = 0,
        beta = 10x sqrt(3 lam) / |g|,   gamma = 3 lam (15(1 + 4x²)/8) / g² - 1.

    F falls and is convex on the branch -E/S <= t <= 0, so it has a root
    there when F(-E/S) >= 0 > F(0), and only one; both signs are read from
    the F that `gap._refine_bracket` then solves on that bracket.  F resolves
    t to full relative precision, and y and u = -Q/(D w) follow without
    cancellation, with E + Q = S (t + E/S).  Newton starts from the negative
    root of F with y frozen at its value at t = 0, which lies left of the
    root, so its steps rise to the root.
    """
    E = 4.0 * g * g - K
    S = D / math.sqrt(3.0 * lam) * -g
    beta = 10.0 * x * math.sqrt(3.0 * lam) / -g
    gamma = 3.0 * lam * (15.0 * (1.0 + 4.0 * x * x) / 8.0) / (g * g) - 1.0
    if not (math.isfinite(E) and math.isfinite(S) and S > 0.0):
        raise SolverError(f"{failure}: its stationarity condition in Q is not finite")
    lo = -E / S

    def F(t):  # (F, F') for t >= lo; at t = lo, r = 0 and F' is infinite, which the kernel bisects
        r = math.sqrt(S * (t - lo))
        return t * t - beta * t + gamma + r / (2.0 * g), (
            2.0 * t - beta + S / (4.0 * g * r) if r > 0.0 else math.nan)

    f_lo, f_hi = F(lo)[0], F(0.0)[0]
    if not (f_lo >= 0.0 > f_hi):
        return None
    t = _refine_bracket(F, lo, 0.0, max(lo, f_hi / (0.5 * beta + math.sqrt(0.25 * beta * beta - f_hi))))
    w = math.sqrt(-2.0 * g + math.sqrt(S * (t - lo)))
    return w, g * t / (math.sqrt(3.0 * lam) * w)


def phase_solution(spec: OscillatorSpec, n: int, phase: Phase) -> EffectiveSolution:
    """Lowest-energy solution of level n in the given phase.

    Raises NoPhysicalRoot (quartic well above its critical coupling) or
    NoSSBSolution (no displaced sextic state) when the phase has no
    solution, ValueError for a displaced phase of a single well, and
    SolverError where a power of a float (a moment, the critical coupling)
    overflows.
    """
    x = level_x(n)
    try:
        if phase is Phase.SPONTANEOUSLY_BROKEN and spec.k == 6:
            displaced = sextic_ssb_solutions(spec, n)
            if not displaced:
                raise NoSSBSolution(
                    f"no broken-symmetry branch for k=6, g={spec.g}, lambda={spec.lam}, n={n}")
            return displaced[0]
        w = solve_gap(spec, x, phase)
        s_sq = 0.0 if phase is Phase.SYMMETRY_RESTORED else ssb_displacement(spec, x, w)
        return _assemble(spec, n, x, phase, w, s_sq)
    except OverflowError:  # Python's float ** raises where * and + give inf
        raise SolverError(f"{phase.value} state of k={spec.k} at g={spec.g}, lambda={spec.lam}, "
                          f"x = {x}: a power of a float is not finite") from None


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


@dataclass(frozen=True)
class LevelGrid:
    """`level_solution`'s (phase, w, E0) on every cell of a coupling x level grid.

    Cells run coupling-major: cell i holds coupling i // len(levels) and
    level levels[i % len(levels)].  `failures` maps a cell to the exception
    `level_solution` raises there (an invalid coupling fails the first cell
    of its row, and no other cell of the row is solved); the entries of a
    failed cell are placeholders.
    """

    phase: list
    w: list
    E0: list
    failures: dict

    def raise_failure(self, cell=None) -> None:
        """Raise the failure of `cell`, or with no cell the first in cell order."""
        if cell is None and self.failures:
            cell = min(self.failures)
        if cell in self.failures:
            raise self.failures[cell]


# A plain value lies strictly inside (1/_PLAIN, _PLAIN): no power the scalar
# solve takes of it (w^(k/2), w^3, w^4, x^3, s^4, (2|g|/3)^1.5) overflows or
# reaches 0.
_PLAIN = 2.0**250


def _plain(v):
    """Where v, a float or an array, lies strictly inside (1/_PLAIN, _PLAIN)."""
    return (v > 1.0 / _PLAIN) & (v < _PLAIN)


def level_grid(k: int, g: float, lams, levels) -> LevelGrid:
    """`level_solution(OscillatorSpec(k, g, lam), n)` on every (lam, n) cell, in one numpy pass.

    The pass solves the plain cells, those whose x, |g| (unless 0) and w, and
    the displaced quartic's w and s² where it is solvable, are plain values.
    There it is bit for bit the scalar solve: its seeds (`_quartic_sr_root`,
    `_sextic_sr_root`, `_quartic_ssb_root`), Newton polish and octic
    bracket, each one kernel run on arrays, and `_closed_form_energy`,
    elementwise in + - * / and sqrt, which round correctly.  A displaced sextic cell calls `sextic_ssb_solutions`.  Every
    other cell is handed to `level_solution`, which gives its solution or
    its failure.
    """
    rows, width = len(lams), len(levels)
    failures, specs = {}, []
    for row, lam in enumerate(lams):
        try:
            specs.append(OscillatorSpec(k, g, lam))
        except ValueError as exc:
            specs.append(None)
            failures[row * width] = exc
    # per level: x and the undisplaced level factor; the displaced quartic's
    # level factor p(x) and critical coupling; NaN where the level is not plain
    displaced_quartic = g < 0.0 and k == 4
    per_level = []
    for n in levels:
        try:
            x = level_x(n)
        except (ValueError, ArithmeticError):  # level_solution raises it for the level's cells
            x = math.nan
        if _plain(x) and (g == 0.0 or _plain(abs(g))):
            per_level.append((x, _level_factor(k, Phase.SYMMETRY_RESTORED, x),
                              *((factor_p(x), critical_coupling(-g, x)) if displaced_quartic
                                else (0.0, 0.0))))
        else:
            per_level.append((math.nan,) * 4)
    per_level = np.array(per_level).reshape(width, 4)
    valid = np.repeat(np.array([spec is not None for spec in specs], dtype=bool), width)
    cells = np.flatnonzero(valid & np.tile(~np.isnan(per_level[:, 0]), rows))
    lam = np.asarray(lams, dtype=float)[cells // width]
    x, factor, factor_p_, lam_c = per_level[cells % width].T
    with np.errstate(all="ignore"):
        w, e0 = _undisplaced_cells(k, g, lam, x, factor)
        plain = _plain(w)
        ssb = np.zeros(cells.size, dtype=bool)
        if displaced_quartic:
            w_ssb, e0_ssb, plain_ssb = _displaced_quartic_cells(g, lam, x, factor_p_, lam_c)
            plain &= plain_ssb
            ssb = e0_ssb < e0
            w, e0 = np.where(ssb, w_ssb, w), np.where(ssb, e0_ssb, e0)
    cells, w, e0, ssb = cells[plain], w[plain], e0[plain], ssb[plain]
    w_all, e0_all = np.full(rows * width, math.nan), np.full(rows * width, math.nan)
    ssb_all = np.zeros(rows * width, dtype=bool)
    w_all[cells], e0_all[cells], ssb_all[cells] = w, e0, ssb
    grid = LevelGrid(
        phase=[Phase.SPONTANEOUSLY_BROKEN if b else Phase.SYMMETRY_RESTORED for b in ssb_all.tolist()],
        w=w_all.tolist(), E0=e0_all.tolist(), failures=failures)
    if g < 0.0 and k == 6:  # the displaced family competes as in level_solution
        for i in cells.tolist():
            try:
                sol = phase_solution(specs[i // width], levels[i % width], Phase.SPONTANEOUSLY_BROKEN)
            except (NoPhysicalRoot, NoSSBSolution):
                continue
            except Exception as exc:  # raised when the caller reaches the cell
                grid.failures[i] = exc
                continue
            if sol.E0 < grid.E0[i]:
                grid.phase[i], grid.w[i], grid.E0[i] = sol.phase, sol.w, sol.E0
    valid[cells] = False
    for i in np.flatnonzero(valid).tolist():  # the cells the pass did not solve
        try:
            sol = level_solution(specs[i // width], levels[i % width])
        except Exception as exc:
            grid.failures[i] = exc
        else:
            grid.phase[i], grid.w[i], grid.E0[i] = sol.phase, sol.w, sol.E0
    return grid


def _undisplaced_cells(k, g, lam, x, factor):
    """(w, E0) of the undisplaced family, elementwise as `solve_gap` and `_assemble`,
    on cells whose x and |g| are plain, where no seed raises."""
    coeffs = _coefficients(k, g, lam, factor, Phase.SYMMETRY_RESTORED)
    if k == 4:
        w = _newton_polish(coeffs, _quartic_sr_root(g, coeffs[0]))
    elif k == 6:
        w = _newton_polish(coeffs, _sextic_sr_root(g, coeffs[0]))
    else:
        c = -coeffs[0]
        w = _refine_bracket(_poly_with_derivative(coeffs), np.sqrt(0.6 * g), 1.0 + np.where(g > c, g, c))
    if g > 0.0:
        w = np.where(lam == 0.0, np.sqrt(g), w)
    return w, _closed_form_energy(k, g, lam, x, w, Phase.SYMMETRY_RESTORED)


def _displaced_quartic_cells(g, lam, x, factor, lam_c):
    """(w, E0, plain) of the displaced quartic family, elementwise as `solve_gap`,
    `ssb_displacement` and `_assemble`, given each cell's critical coupling.
    E0 is NaN where the family has no solution; a cell is plain unless it has
    one whose w or s² is not plain."""
    solvable = ~(lam > lam_c * (1.0 + 1e-12))
    cells = np.flatnonzero(solvable)
    w = np.full(lam.size, math.nan)
    coeffs = _coefficients(4, g, lam[cells], factor[cells], Phase.SPONTANEOUSLY_BROKEN)
    w[cells] = _newton_polish(coeffs, _quartic_ssb_root(-g, lam[cells], lam_c[cells]))
    s_sq = _quartic_s_sq(g, lam, x, w)
    plain = ~solvable | (_plain(w) & ((s_sq < 0.0) | _plain(s_sq)))
    e0 = _closed_form_energy(4, g, lam, x, w, Phase.SPONTANEOUSLY_BROKEN)
    return w, np.where(s_sq < 0.0, math.nan, e0), plain


def lo_energy_closed_form(spec: OscillatorSpec, n: int, phase: Phase) -> float:
    """Leading-order energy of level n in the requested phase: the E0 of
    `phase_solution`, which raises as it does."""
    return phase_solution(spec, n, phase).E0


def well_referenced_energy(spec: OscillatorSpec, e0: float) -> float:
    """Energy measured from the classical well bottom of a quartic double well.

    Adds the well depth g²/(16 lam); this is the convention used when
    quoting quartic double-well levels as positive numbers.
    """
    if spec.g >= 0.0 or spec.k != 4:
        raise ValueError("well-bottom referencing applies to quartic double wells (k=4, g<0)")
    return e0 + spec.g * spec.g / (16.0 * spec.lam)

