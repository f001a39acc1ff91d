"""Independent eigenvalues by direct diagonalization in an oscillator basis.

This module never uses the self-consistent formulas to compute energies:
the full Hamiltonian is assembled from exact operator matrix elements in a
truncated oscillator basis of adjustable frequency and diagonalized.  Every
truncated eigenvalue is a variational upper bound that decreases
monotonically as the basis grows, so doubling the basis until the levels
stop moving gives controlled "exact" values to compare everything against.

The basis frequency only affects the convergence rate, not the limit; it
is warm-started from the level-0 effective frequency.  Doubling stops
helping once the truncation error falls below the round-off floor
~eps*||H||, which grows like dim**(k/2): when the movement stops shrinking,
the doubling is run once more at the effective frequency of the middle
requested level (the optimally scaled basis of Banerjee et al., Proc. R.
Soc. A 360, 575 (1978)), which resolves the high octic levels at a size
where that floor is still below the tolerance.  All our Hamiltonians are
even in f, so the basis splits into parity blocks, which halves the
bandwidth and cleanly separates near-degenerate well doublets.  The bands
are multiplied out in numpy; SciPy supplies only the banded eigensolver
(`scipy.linalg`), loaded when the oracle first runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleConvergenceError
from .model import OscillatorSpec
from .spectrum import level_solution

__all__ = [
    "OracleSpectrum",
    "hamiltonian_matrix",
    "exact_levels",
]

DIM_CAP = 4096  # largest parity block the doubling builds


@dataclass(frozen=True)
class OracleSpectrum:
    """Converged eigenvalues, their last basis-doubling movement and the basis used."""

    spec: OscillatorSpec
    basis_w: float
    dim: int
    eigenvalues: tuple
    convergence_estimate: tuple


def _band_product(a, b, descending=False):
    """Upper diagonals {offset: values} of A·B, for commuting symmetric banded A and B.

    Entry (i, i+o) sums A[i, j] B[j, i+o] over j in ascending (or descending)
    order, leaving out each j outside the matrix, which must be larger than
    the product's bandwidth.
    """
    n, pa, pb = len(a[0]), max(a), max(b)
    out = {o: np.zeros(n - o) for o in range(0, pa + pb + 1, 2)}
    for o, c in out.items():
        for p in sorted(range(max(-pa, o - pb), min(pa, o + pb) + 1, 2), reverse=descending):
            lo, hi = max(0, -p), min(n - o, n - p)
            av = a[p][lo:hi] if p >= 0 else a[-p][lo + p:hi + p]
            bv = b[o - p][lo + p:hi + p] if o >= p else b[p - o][lo + o:hi + o]
            c[lo:hi] += av * bv
    return out


def _position_power_diagonals(k: int, basis_w: float, dim: int):
    """Diagonals (offsets 0, 2, ...) of f² and of f^k, exact in the retained block."""
    if k not in (4, 6, 8):
        raise ValueError("unsupported even power %r" % (k,))
    off = np.sqrt(np.arange(1, dim + k) / (2.0 * basis_w))  # <i|f|i+1>, in a block padded by k states
    sq = np.concatenate(([0.0], off * off, [0.0]))
    f2 = {0: sq[:-1] + sq[1:], 2: off[:-1] * off[1:]}
    # Each entry sums up to 5 positive products, so its last bits depend on the
    # order of summation.  These orders reproduce the SciPy sparse products the
    # elements were first built with, bit for bit: the octic Table-5 run misses
    # its 1e-10 tolerance at 480 states by only 2.3e-11.
    with np.errstate(over="ignore"):  # an inf element is refused before the eigensolver
        f4 = _band_product(f2, f2, descending=True)
        fk = f4 if k == 4 else _band_product(f4, f2 if k == 6 else f4)
    return tuple({o: v[: max(dim - o, 0)] for o, v in m.items()} for m in (f2, fk))


def _hamiltonian_diagonals(spec: OscillatorSpec, basis_w: float, dim: int):
    """Upper diagonals of H = p²/2 + (g/2) f² + lam f^k in the frequency-basis_w basis."""
    n = np.arange(dim, dtype=float)
    f2, fk = _position_power_diagonals(spec.k, basis_w, dim)
    ladder2 = np.sqrt((n[: dim - 2] + 1.0) * (n[: dim - 2] + 2.0))
    diags = {o: spec.lam * fk[o].copy() for o in fk}
    # kinetic part: <m|p²|m> = basis_w (m + 1/2); <m|p²|m+2> = -basis_w sqrt((m+1)(m+2))/2
    diags[0] += 0.5 * basis_w * (n + 0.5) + 0.5 * spec.g * f2[0]
    diags[2] += -0.25 * basis_w * ladder2 + 0.5 * spec.g * f2[2]
    return diags


def hamiltonian_matrix(spec: OscillatorSpec, basis_w: float, dim: int) -> np.ndarray:
    """Dense symmetric matrix of the full Hamiltonian (bandwidth = k)."""
    if dim < 4:
        raise ValueError("basis dimension must be at least 4, got %r" % (dim,))
    if not (basis_w > 0.0):
        raise ValueError("basis frequency must be positive, got %r" % (basis_w,))
    diags = _hamiltonian_diagonals(spec, basis_w, dim)
    h = np.zeros((dim, dim))
    for o, vals in diags.items():
        idx = np.arange(dim - o)
        h[idx, idx + o] = vals
        h[idx + o, idx] = vals
    return h


def _parity_block_eigenvalues(diags, dim: int, k: int):
    """All eigenvalues, computed per parity block in banded storage."""
    import scipy.linalg
    merged = []
    for parity in (0, 1):
        m = (dim - parity + 1) // 2
        if m <= 0:
            continue
        # k/2 superdiagonals, but fewer than m: LAPACK's rescaling of a band
        # whose norm is huge rejects a bandwidth as wide as the block
        kb = min(k // 2, m - 1)
        band = np.zeros((kb + 1, m))
        for d in range(kb + 1):
            band[kb - d, d:] = diags[2 * d][parity::2]  # H[parity + 2(c - d), parity + 2c] at c
        if not np.isfinite(band).all():  # LAPACK would print its own complaint to stdout
            r, c = np.argwhere(~np.isfinite(band))[0]
            raise OracleConvergenceError(
                "the %d-state Hamiltonian has a non-finite element H[%d, %d] = %r"
                % (dim, parity + 2 * (c - kb + r), parity + 2 * c, float(band[r, c])))
        try:
            merged.append(
                scipy.linalg.eig_banded(band, lower=False, eigvals_only=True, check_finite=False)
            )
        except np.linalg.LinAlgError as exc:  # a ValueError, which would read as a bad request
            raise OracleConvergenceError(
                "diagonalizing the %d-state basis failed: %s" % (dim, exc)) from exc
    return np.sort(np.concatenate(merged))


def _spectrum(spec: OscillatorSpec, basis_w: float, dim: int, levels, est) -> OracleSpectrum:
    return OracleSpectrum(
        spec=spec,
        basis_w=float(basis_w),
        dim=dim,
        eigenvalues=tuple(float(v) for v in levels),
        convergence_estimate=tuple(float(v) for v in est) if est is not None else (),
    )


def _doubled_spectrum(spec: OscillatorSpec, n_max: int, rel_tol: float, basis_w: float):
    """(spectrum, at_floor) of levels 0..n_max, doubling the frequency-basis_w basis.

    Starts from 4*(n_max+1) states and doubles until every level moves by
    less than rel_tol (relative, floored at unit scale) between consecutive
    sizes; at_floor is False then.  If the worst such movement does not
    shrink from one doubling to the next, the round-off floor has been
    reached: the last spectrum is returned with at_floor True.  A size whose
    even parity block would pass DIM_CAP is not built; OracleConvergenceError
    is raised instead, with the last spectrum built, if there is one.
    """
    dim, prev, est, prev_worst = 4 * (n_max + 1), None, None, None
    while (dim + 1) // 2 <= DIM_CAP:
        levels = _parity_block_eigenvalues(
            _hamiltonian_diagonals(spec, basis_w, dim), dim, spec.k
        )[: n_max + 1]
        if prev is not None:
            est = np.abs(levels - prev)
            scale = np.maximum(1.0, np.abs(levels))
            with np.errstate(over="ignore"):  # an inf bound near the largest rel_tol passes
                converged = np.all(est < rel_tol * scale)
            if converged:
                return _spectrum(spec, basis_w, dim, levels, est), False
            worst = float(np.max(est / scale))
            if prev_worst is not None and worst >= prev_worst:
                return _spectrum(spec, basis_w, dim, levels, est), True
            prev_worst = worst
        prev = levels
        dim *= 2
    if prev is None:
        raise OracleConvergenceError(
            "the %d-state starting basis exceeds the cap of %d states per parity block"
            % (dim, DIM_CAP)
        )
    raise OracleConvergenceError(
        "eigenvalues still moving at the %d-state cap (worst estimate %s)"
        % (dim // 2, "%.3g" % float(np.max(est)) if est is not None else "unknown"),
        spectrum=_spectrum(spec, basis_w, dim // 2, prev, est),
    )


def exact_levels(spec: OscillatorSpec, n_max: int, rel_tol: float = 1e-10) -> OracleSpectrum:
    """Eigenvalues E_0..E_{n_max}, basis-doubled until stable to rel_tol.

    Doubles the basis at level 0's effective frequency.  If that stops at
    the round-off floor (~eps*||H||, growing like dim**(k/2)), the doubling
    is run once more at level n_max // 2's frequency.  Raises
    OracleConvergenceError when that basis stops at the floor too, or when
    either reaches the cap; the error carries the last spectrum built, if
    there is one.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative, got %r" % (n_max,))
    if rel_tol < 1e-12:
        raise ValueError("rel_tol below 1e-12 is not resolvable by this solver")
    result, at_floor = _doubled_spectrum(spec, n_max, rel_tol, level_solution(spec, 0).w)
    if at_floor:
        mid_w = level_solution(spec, n_max // 2).w
        result, at_floor = _doubled_spectrum(spec, n_max, rel_tol, mid_w)
    if at_floor:
        raise OracleConvergenceError(
            "eigenvalues stopped converging at the round-off floor, %d states "
            "(worst estimate %.3g)" % (result.dim, max(result.convergence_estimate)),
            spectrum=result,
        )
    return result
