"""Ground-state structure of the quartic oscillator's dressed vacuum.

The self-consistent frequency w differs from the bare w0 = sqrt(g); the
two vacua are related by a squeezing transformation whose single parameter
alpha = (1/2) ln(w0/w) fixes the density of bare quanta condensed in the
dressed ground state, n0 = sinh²(alpha).  Comparing the self-consistent
ground energy with the first-order perturbative one at the same coupling
quantifies how unstable the bare vacuum is.

Effective potentials in the displacement s are provided in two flavours:
the self-consistent one (re-optimizing w at every s) and the perturbative
one (frozen bare frequency).  Scope is the quartic oscillator at g = 1,
where the bare vacuum exists; wells (g < 0) have no bare reference vacuum
and are handled by the phase comparison in `spectrum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gap import solve_gap
from .model import OscillatorSpec, Phase, hamiltonian_average

__all__ = [
    "VacuumStructure",
    "bogoliubov_alpha",
    "condensate_density",
    "effective_potential",
    "stability_gap",
    "vacuum_structure",
]


@dataclass(frozen=True)
class VacuumStructure:
    """Dressed-vacuum summary of the quartic oscillator at g = 1."""

    lam: float
    w: float
    w0: float
    alpha: float
    n0: float
    E0: float
    E0_pert: float


def bogoliubov_alpha(g: float, w: float) -> float:
    """Squeezing parameter relating the bare (sqrt(g)) and dressed (w) vacua.

    Negative when the interaction stiffens the frequency (w > w0).
    """
    if not (g > 0.0):
        raise ValueError("bare vacuum requires g > 0 (a well has no bare frequency)")
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    return 0.5 * math.log(math.sqrt(g) / w)


def condensate_density(g: float, w: float) -> float:
    """Bare-quanta density in the dressed vacuum: sinh²(alpha).

    Evaluated in the algebraically equivalent form (w/w0 + w0/w - 2)/4,
    which is exact at w = w0 instead of cancelling.
    """
    if not (g > 0.0):
        raise ValueError("bare vacuum requires g > 0 (a well has no bare frequency)")
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    w0 = math.sqrt(g)
    return 0.25 * (w / w0 + w0 / w - 2.0)


def effective_potential(lam: float, s: float, kind: str) -> float:
    """Ground-state energy surface over the displacement s (quartic, g = 1).

    kind "variational": the frequency is re-optimized at each s (root of
    w³ - w(1 + 12 lam s²) - 6 lam = 0) and the averaged Hamiltonian is
    evaluated there.  kind "perturbative": the bare frequency w = 1 is
    kept, giving 1/2 + 3 lam (s² + 1/4) plus the classical s²/2 + lam s⁴.
    Both are even in s with their minimum at s = 0.
    """
    if not (lam > 0.0):
        raise ValueError("coupling lam must be positive, got %r" % (lam,))
    if kind == "perturbative":
        return 0.5 + 3.0 * lam * (s * s + 0.25) + (0.5 * s * s + lam * s**4)
    if kind != "variational":
        raise ValueError("kind must be 'variational' or 'perturbative', got %r" % (kind,))
    # w³ - (1 + 12 lam s²) w - 6 lam = 0 is the ground-level quartic condition
    # (f(1/2) = 1 exactly) with the displacement folded into the curvature
    w = solve_gap(OscillatorSpec(4, 1.0 + 12.0 * lam * s * s, lam), 0.5, Phase.SYMMETRY_RESTORED)
    return hamiltonian_average(OscillatorSpec(4, 1.0, lam), s, w, 0.5)


def stability_gap(lam: float) -> float:
    """Self-consistent minus perturbative ground energy; negative for lam > 0."""
    if not (lam > 0.0):
        raise ValueError("coupling lam must be positive, got %r" % (lam,))
    return effective_potential(lam, 0.0, "variational") - (0.5 + 0.75 * lam)


def vacuum_structure(lam: float) -> VacuumStructure:
    """Full dressed-vacuum summary at coupling lam (quartic, g = 1)."""
    if not (lam > 0.0):
        raise ValueError("coupling lam must be positive, got %r" % (lam,))
    spec = OscillatorSpec(4, 1.0, lam)
    w = solve_gap(spec, 0.5, Phase.SYMMETRY_RESTORED)
    return VacuumStructure(
        lam=lam,
        w=w,
        w0=1.0,
        alpha=bogoliubov_alpha(1.0, w),
        n0=condensate_density(1.0, w),
        E0=hamiltonian_average(spec, 0.0, w, 0.5),
        E0_pert=0.5 + 0.75 * lam,
    )
