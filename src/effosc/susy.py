"""Partner-potential cross-checks for the sextic oscillator family.

The superpotential W(f) = b f³ generates the partner pair

    H± = p²/2 + (W² ± W')/2  =  p²/2 ± (3b/2) f² + (b²/2) f⁶,

i.e. a sextic single well (+) and double well (-) differing only in the
sign of the quadratic coefficient.  Exact facts about this pair make sharp
cross-checks: the exact spectra interlace (level n+1 of the well equals
level n of the single well), the well's exact ground energy is exactly
zero with the normalizable ground state ~ exp(-b f⁴ / 4), and the whole
spectrum scales as sqrt(b).  The approximate per-level solutions satisfy
the scaling law exactly but the interlacing only approximately; both
residuals are exposed here.

Energies are in this package's half units, H = p²/2 + ...; references that
use H = p² + W² ± W' quote twice these values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gap import solve_gap
from .model import OscillatorSpec, Phase
from .spectrum import level_solution

__all__ = [
    "PartnerPair",
    "partner_specs",
    "ispp_residual",
    "scaling_residual",
    "ground_wavefunction",
    "wavefunction_distance",
]


@dataclass(frozen=True)
class PartnerPair:
    """The two sextic partners generated by W = b f³."""

    b: float
    aho: OscillatorSpec
    dwo: OscillatorSpec


def partner_specs(b: float) -> PartnerPair:
    """Partner pair at superpotential coefficient b > 0: lam = b²/2, g = ±3b."""
    if not (b > 0.0):
        raise ValueError("superpotential coefficient b must be positive, got %r" % (b,))
    lam = 0.5 * b * b
    return PartnerPair(
        b=b,
        aho=OscillatorSpec(6, 3.0 * b, lam),
        dwo=OscillatorSpec(6, -3.0 * b, lam),
    )


def ispp_residual(b: float, n: int) -> float:
    """Interlacing defect E_{n+1}(well) - E_n(single well) of the approximate levels.

    Exactly zero for the true spectra (unbroken partner symmetry); the
    approximate value measures the scheme's error and shrinks with n.
    """
    pair = partner_specs(b)
    return level_solution(pair.dwo, n + 1).E0 - level_solution(pair.aho, n).E0


def scaling_residual(b: float, n: int, which: str = "aho") -> float:
    """Defect of the exact scaling law E_n(b) = sqrt(b) E_n(1), in half units.

    Zero to rounding for every b, n and partner: the frequency condition at
    coupling-pair (b²/2, ±3b) maps onto itself under w -> sqrt(b) w.
    """
    if which not in ("aho", "dwo"):
        raise ValueError("which must be 'aho' or 'dwo', got %r" % (which,))
    pair_b = partner_specs(b)
    pair_1 = partner_specs(1.0)
    spec_b = pair_b.aho if which == "aho" else pair_b.dwo
    spec_1 = pair_1.aho if which == "aho" else pair_1.dwo
    return level_solution(spec_b, n).E0 - math.sqrt(b) * level_solution(spec_1, n).E0


def _susy_exact_amplitude(b: float):
    norm = (8.0 * b) ** 0.125 / math.sqrt(math.gamma(0.25))
    return lambda f: norm * np.exp(-b * np.asarray(f, dtype=float) ** 4 / 4.0)


def _gaussian_amplitude(b: float):
    w_a = solve_gap(partner_specs(b).dwo, 0.5, Phase.SYMMETRY_RESTORED)
    norm = (w_a / math.pi) ** 0.25
    return lambda f: norm * np.exp(-0.5 * w_a * np.asarray(f, dtype=float) ** 2)


def ground_wavefunction(kind: str, b: float, grid) -> np.ndarray:
    """Samples of a normalized ground-state amplitude on the given grid.

    kind "susy_exact": the zero-energy well ground state
    (8b)^{1/8} exp(-b f⁴/4) / sqrt(Gamma(1/4)).  kind "effective_gaussian": the
    level-0 effective-oscillator Gaussian of the well (undisplaced branch).
    """
    if not (b > 0.0):
        raise ValueError("superpotential coefficient b must be positive, got %r" % (b,))
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a finite, non-empty sequence")
    # far out, f^k overflows and the amplitude is 0; an infinite norm (b above
    # ~2.2e307) times that 0 is NaN, which the output rule refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "susy_exact":
            return _susy_exact_amplitude(b)(grid)
        if kind == "effective_gaussian":
            return _gaussian_amplitude(b)(grid)
    raise ValueError("kind must be 'susy_exact' or 'effective_gaussian', got %r" % (kind,))


def wavefunction_distance(b: float, grid):
    """(overlap, L2 distance) between the exact and Gaussian ground amplitudes.

    Integrates the analytic amplitudes by composite 20-point Gauss-Legendre
    quadrature over the grid's window, which must span at least +-4 standard
    deviations of the wider density, clipped to +-64 of them, where both
    amplitudes are 0.  The panels are at most one standard deviation wide;
    the change when they are halved, the error estimate, is held below 1e-8.
    """
    if not (b > 0.0):
        raise ValueError("superpotential coefficient b must be positive, got %r" % (b,))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a finite sequence with at least two points")
    lo, hi = float(grid[0]), float(grid[-1])
    # <f²> of the quartic-exponential density: (Gamma(3/4)/Gamma(1/4)) sqrt(2/b)
    sigma_exact = math.sqrt(
        math.gamma(0.75) / math.gamma(0.25) * math.sqrt(2.0 / b)
    )
    w_a = solve_gap(partner_specs(b).dwo, 0.5, Phase.SYMMETRY_RESTORED)
    sigma = max(sigma_exact, 1.0 / math.sqrt(2.0 * w_a))
    if lo > -4.0 * sigma or hi < 4.0 * sigma:
        raise ValueError(
            "insufficient grid span: need at least [%.6g, %.6g], got [%.6g, %.6g]"
            % (-4.0 * sigma, 4.0 * sigma, lo, hi)
        )
    # Beyond 64 sigma both amplitudes underflow to 0 (the Gaussian's at
    # sqrt(2 * 745) = 54.6 of its own widths), so a wider window would add
    # only panels of zeros.
    lo, hi = max(lo, -64.0 * sigma), min(hi, 64.0 * sigma)
    psi1 = _susy_exact_amplitude(b)
    psi2 = _gaussian_amplitude(b)
    panels = math.ceil((hi - lo) / sigma)
    coarse, fine = (_panel_integrals(psi1, psi2, lo, hi, m) for m in (panels, 2 * panels))
    if np.any(np.abs(fine - coarse) > 1e-8):
        raise ValueError("quadrature error above 1e-8; widen or refine the window")
    overlap, l2sq = fine
    return float(overlap), float(math.sqrt(max(l2sq, 0.0)))


@functools.cache
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss  # here, so that importing effosc skips it
    return leggauss(20)


def _panel_integrals(psi1, psi2, lo: float, hi: float, panels: int) -> np.ndarray:
    """[overlap, squared L2 distance] of the amplitudes psi1 and psi2 by the
    20-point Gauss-Legendre rule on `panels` equal panels of [lo, hi]."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo) / panels
    centers = lo + half * np.arange(1, 2 * panels, 2)
    f = (centers[:, None] + half * nodes).ravel()
    with np.errstate(over="ignore"):
        a, g = psi1(f), psi2(f)
    return np.stack([a * g, (a - g) ** 2]) @ np.tile(half * weights, panels)
