"""Domain types and state averages for polynomial self-interacting oscillators.

The system is a single quantum degree of freedom

    H = p**2/2 + (g/2) f**2 + lam * f**k,      k in {4, 6, 8}

with a signed quadratic coefficient g (negative g gives a double well for
k in {4, 6}).  The approximation replaces the interaction by a quadratic
potential A f**2 - B f + C whose parameters are fixed self-consistently per
level; everything downstream needs the averages of powers of f in a
displaced harmonic-oscillator eigenstate, which live here.

Conventions: the trial state is the n-th eigenstate of an oscillator with
frequency w, displaced to sit at <f> = s.  The combination x = n + 1/2
appears everywhere and is carried explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "OscillatorSpec",
    "LevelFactors",
    "Phase",
    "level_factors",
    "factor_f",
    "factor_p",
    "factor_h",
    "moment",
    "hamiltonian_average",
]


class Phase(enum.Enum):
    """Ground-state symmetry sector of a candidate solution."""

    SYMMETRY_RESTORED = "SR"
    SPONTANEOUSLY_BROKEN = "SSB"


@dataclass(frozen=True)
class OscillatorSpec:
    """Defining parameters of the oscillator H = p²/2 + (g/2)f² + λ f^k.

    k must be 4, 6 or 8.  lam >= 0, with lam == 0 admitted only for g > 0
    (the free oscillator); g < 0 (double well) is supported for k in {4, 6}.
    """

    k: int
    g: float
    lam: float

    def __post_init__(self):
        if self.k not in (4, 6, 8):
            raise ValueError("anharmonic power k must be 4, 6 or 8, got %r" % (self.k,))
        if not (self.lam >= 0.0):
            raise ValueError("coupling lam must be non-negative, got %r" % (self.lam,))
        if self.lam == 0.0 and self.g <= 0.0:
            raise ValueError(
                "lam = 0 is only meaningful for g > 0 (free oscillator); "
                "a double well has no free limit"
            )
        if self.g < 0.0 and self.k == 8:
            raise ValueError("double-well quadratic coefficient (g < 0) is only supported for k in {4, 6}")


def factor_f(x: float) -> float:
    """Quartic level factor f(x) = x + 1/(4x)."""
    return x + 1.0 / (4.0 * x)


def factor_p(x: float) -> float:
    """Broken-quartic level factor p(x) = 5x - 1/(4x)."""
    return 5.0 * x - 1.0 / (4.0 * x)


def factor_h(x: float) -> float:
    """Octic level factor h(x) = x³ + (7/2)x + 9/(16x)."""
    return x**3 + 3.5 * x + 9.0 / (16.0 * x)


@dataclass(frozen=True)
class LevelFactors:
    """Per-level combinations that recur in the gap equations.

    x = n + 1/2; f, p and h are the level-dependent prefactors of the
    quartic, broken-quartic and octic frequency conditions.  All three are
    strictly increasing in n, and are evaluated by `factor_f`, `factor_p`
    and `factor_h`, the one definition every solver and moment shares
    (h with its last term as 9/(16x)).
    """

    n: int
    x: float
    f: float
    p: float
    h: float


def level_factors(n: int) -> LevelFactors:
    """Level factors for the n-th state (n >= 0)."""
    if n < 0 or n != int(n):
        raise ValueError("level index must be a non-negative integer, got %r" % (n,))
    n = int(n)
    x = n + 0.5
    return LevelFactors(n=n, x=x, f=factor_f(x), p=factor_p(x), h=factor_h(x))


# Central moments <(f - s)^j> of the displaced oscillator eigenstate:
# odd ones vanish; the even ones depend only on x = n + 1/2 and w.
#   <q^2> = x/w
#   <q^4> = (3 + 12 x^2) / (8 w^2)
#   <q^6> = (25 x + 20 x^3) / (8 w^3)
#   <q^8> = 35 x h(x) / (8 w^4)
# The octic one reduces to <0|(b+b')^8|0>/(2w)^4 = 105/(2w)^4 at n = 0.


def _central_moment(j: int, w: float, x: float) -> float:
    if j == 2:
        return x / w
    if j == 4:
        return (3.0 + 12.0 * x * x) / (8.0 * w * w)
    if j == 6:
        return (25.0 * x + 20.0 * x**3) / (8.0 * w**3)
    if j == 8:
        return 35.0 * x * factor_h(x) / (8.0 * w**4)
    raise ValueError("unsupported central moment order %r" % (j,))


def moment(k: int, s: float, w: float, x: float) -> float:
    """Average <f^k> in the displaced-oscillator eigenstate (s, w, x).

    Supported k: 1, 2, 3, 4, 6, 8.  The octic average is only available
    about an undisplaced state (s = 0); there is no closed displaced form
    in this scheme.
    """
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    if k == 1:
        return s
    if k == 2:
        return s * s + _central_moment(2, w, x)
    if k == 3:
        return s**3 + 3.0 * s * _central_moment(2, w, x)
    if k == 4:
        return s**4 + 6.0 * s * s * _central_moment(2, w, x) + _central_moment(4, w, x)
    if k == 6:
        return (
            s**6
            + 15.0 * s**4 * _central_moment(2, w, x)
            + 15.0 * s * s * _central_moment(4, w, x)
            + _central_moment(6, w, x)
        )
    if k == 8:
        if s != 0.0:
            raise ValueError("octic moment is only defined for an undisplaced state (s = 0)")
        return _central_moment(8, w, x)
    raise ValueError("unsupported moment power %r" % (k,))


def hamiltonian_average(spec: OscillatorSpec, s: float, w: float, x: float) -> float:
    """Average of the full Hamiltonian in the displaced-oscillator state.

    <H> = w x / 2  +  (g/2)(s² + x/w)  +  lam <f^k>.

    The kinetic term uses <p²> = w x for the frequency-w eigenstate.
    """
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    return (
        0.5 * w * x
        + 0.5 * spec.g * (s * s + x / w)
        + spec.lam * moment(spec.k, s, w, x)
    )
