"""Perturbative corrections about the per-level effective oscillator.

The residual interaction after the quadratic replacement,

    lam * H' = lam * (f**k - A f**2 + B f - C),

has vanishing average in the expansion level by construction, so its
Rayleigh-Schrodinger series starts at second order.  The unperturbed basis
is the eigenbasis of that level's effective oscillator (frequency w(n),
undisplaced), which makes every energy denominator w(n) * (n - m).

Matrix elements are exact: powers of the position operator are computed as
matrix powers of the tridiagonal ladder-sum matrix in a basis padded by k
states on each side, so no truncation leaks into the retained block.

The series works on a window of states.  lam * H' couples |m> only to
|m +- j>, j <= k, and its (n, n) element vanishes, so through fourth order
the wavefunction corrections reach no state with |m - n| > 3k.  The
recursion therefore runs on states [max(0, n - 3k), n + 3k + 1), at most
6k + 1 of them, which makes it exact, and the enlargement cross-check on
the same window grown by k at the top.  Cost and memory per level do not
depend on n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SSBUnsupported
from .model import OscillatorSpec
from .spectrum import level_solution

__all__ = [
    "IPTSeries",
    "TruncationWarning",
    "position_power_matrix",
    "perturbation_matrix",
    "rs_corrections",
    "ipt_energy",
    "second_order_sum",
    "third_order_sum",
]


class TruncationWarning(RuntimeWarning):
    """A correction moved when the n +- 3k series window grew: the window was not exact."""


@dataclass(frozen=True)
class IPTSeries:
    """Per-level correction series.

    corrections holds (dE1, ..., dEK); partial_sums holds the K+1 running
    energies starting from the effective-oscillator E0.  dE1 is zero to
    rounding because the residual interaction averages to zero in the
    expansion level.
    """

    spec: OscillatorSpec
    n: int
    basis_dim: int
    corrections: tuple
    partial_sums: tuple


def position_power_matrix(k: int, w: float, dim: int, start: int = 0) -> np.ndarray:
    """Matrix of f^k in the `dim` oscillator states from `start` at frequency w.

    Built as the k-th matrix power of the tridiagonal position matrix on the
    block padded by k states on each side (as far as state 0 allows), then
    cut back: the retained block then carries the exact operator elements (a
    k-step ladder path between two block states never leaves the padding).
    Result is exactly symmetric.

    It forms np.linalg.matrix_power's products: f^3 = (f f) f, else squares
    multiplied in from k's lowest set bit (f^6 = f^2 f^4, f^7 = (f f^2) f^4).
    The `series` references freeze the last bits of that association.
    """
    if not (1 <= k <= 8):
        raise ValueError("power k must be between 1 and 8, got %r" % (k,))
    if dim < 1:
        raise ValueError("dimension must be at least 1, got %r" % (dim,))
    if start < 0:
        raise ValueError("window start must be non-negative, got %r" % (start,))
    if not (w > 0.0):
        raise ValueError("frequency w must be positive, got %r" % (w,))
    below = min(start, k)
    pad = below + dim + k
    f = np.zeros((pad, pad))
    first = start - below
    off = np.sqrt(np.arange(first + 1, first + pad) / (2.0 * w))
    f.flat[1::pad + 1] = f.flat[pad::pad + 1] = off
    m, bits = (f @ f @ f, 0) if k == 3 else (None, k)
    while bits:
        if bits & 1:
            m = f if m is None else m @ f
        bits >>= 1
        if bits:
            f = f @ f
    m = m[below:below + dim, below:below + dim]
    return 0.5 * (m + m.T)


def perturbation_matrix(spec: OscillatorSpec, n: int, dim: int, start: int = 0) -> np.ndarray:
    """Matrix of the residual interaction lam*H' in level n's oscillator basis,
    on the `dim` states from `start`.

    Only defined about an undisplaced solution; the (n, n) entry vanishes
    to rounding by the construction of C.
    """
    sol = level_solution(spec, n)
    if sol.s != 0.0:
        raise SSBUnsupported(
            "perturbative corrections are defined about an undisplaced solution; "
            "level %d of this spec selects a displaced one" % n
        )
    if not (start <= n < start + dim):
        raise ValueError("basis dimension %d cannot hold the expansion level %d"
                         % (start + dim, n))
    w = sol.w
    v = position_power_matrix(spec.k, w, dim, start)
    v -= sol.A * position_power_matrix(2, w, dim, start)
    # B = 0 for an undisplaced solution, so no linear-in-f term survives
    v.flat[::dim + 1] -= sol.C
    v *= spec.lam
    return v


def _denominators(w: float, n: int, dim: int, start: int = 0) -> np.ndarray:
    """Unperturbed energy gaps E0(n) - E0(m) = w (n - m) for the `dim` states
    m from `start`; zero slot at m = n."""
    return w * (n - np.arange(start, start + dim, dtype=float))


def _rs_run(v: np.ndarray, w: float, n: int, max_order: int, start: int = 0):
    """RS energies through `max_order` from the matrix v on the states from `start`."""
    dim = v.shape[0]
    at = n - start
    gaps = _denominators(w, n, dim, start)
    gaps[at] = np.inf  # its reciprocal, the n slot, is 0
    inv = 1.0 / gaps
    psi = [np.zeros(dim)]
    psi[0][at] = 1.0
    energies = []
    for order in range(1, max_order):
        vc = v @ psi[-1]
        energies.append(float(vc[at]))
        for back in range(1, order):
            vc -= energies[back - 1] * psi[order - back]
        vc *= inv
        vc[at] = 0.0
        psi.append(vc)
    return energies + [float((v @ psi[-1])[at])]  # the last order needs no vector


def rs_corrections(spec: OscillatorSpec, n: int, max_order: int = 4) -> IPTSeries:
    """Rayleigh-Schrodinger corrections dE1..dE`max_order` for level n.

    The series runs on the states |m - n| <= 3k, which hold every state it
    reaches through fourth order (module docstring); `basis_dim` reports the
    n + 3k + 1 states from 0 that cover them.  The series is recomputed on
    that window enlarged by k; any correction that moves by more than 1e-10
    relative triggers a TruncationWarning.
    """
    if not (1 <= max_order <= 4):
        raise ValueError("correction order must be between 1 and 4, got %r" % (max_order,))
    sol = level_solution(spec, n)
    lo, top = max(0, n - 3 * spec.k), n + 3 * spec.k + 1
    v = perturbation_matrix(spec, n, top - lo, lo)
    energies = _rs_run(v, sol.w, n, max_order, lo)
    v = perturbation_matrix(spec, n, top + spec.k - lo, lo)
    enriched = _rs_run(v, sol.w, n, max_order, lo)
    scale0 = max(1.0, abs(sol.E0), max(abs(e) for e in energies))
    for small, large in zip(energies, enriched):
        diff = abs(large - small)
        if diff > 1e-10 * max(abs(small), abs(large)) and diff > 1e-13 * scale0:
            warnings.warn(
                "correction series changed when its window grew by %d states: "
                "the n +- 3k window was not exact" % spec.k,
                TruncationWarning,
                stacklevel=2,
            )
            break
    sums = [sol.E0]
    for e in energies:
        sums.append(sums[-1] + e)
    return IPTSeries(
        spec=spec, n=n, basis_dim=top,
        corrections=tuple(energies), partial_sums=tuple(sums),
    )


def ipt_energy(spec: OscillatorSpec, n: int, order: int) -> float:
    """Level energy through the given correction order (0 = effective oscillator)."""
    if not (0 <= order <= 4):
        raise ValueError("order must be between 0 and 4, got %r" % (order,))
    if order == 0:
        return level_solution(spec, n).E0
    return rs_corrections(spec, n, max_order=order).partial_sums[order]


def second_order_sum(spec: OscillatorSpec, n: int, dim=None) -> float:
    """Explicit second-order sum over intermediate states (recursion cross-check)."""
    if dim is None:
        dim = n + 3 * spec.k + 1
    sol = level_solution(spec, n)
    v = perturbation_matrix(spec, n, dim)
    gaps = _denominators(sol.w, n, dim)
    mask = np.arange(dim) != n
    return float(np.sum(v[n, mask] ** 2 / gaps[mask]))


def third_order_sum(spec: OscillatorSpec, n: int, dim=None) -> float:
    """Explicit third-order double sum (recursion cross-check).

    The diagonal elements of the residual interaction in OTHER levels'
    slots are nonzero (C is tuned to level n only) and enter here; the
    first-order term that would usually correct the double sum vanishes
    with the (n, n) element.
    """
    if dim is None:
        dim = n + 3 * spec.k + 1
    sol = level_solution(spec, n)
    v = perturbation_matrix(spec, n, dim)
    gaps = _denominators(sol.w, n, dim)
    mask = np.arange(dim) != n
    row = v[n, mask]
    inner = v[np.ix_(mask, mask)]
    ig = 1.0 / gaps[mask]
    return float((row * ig) @ inner @ (row * ig))
