"""Independent eigenvalues by direct diagonalization in an oscillator basis.

This module never uses the self-consistent formulas to compute energies:
the full Hamiltonian is assembled from exact operator matrix elements in a
truncated oscillator basis of adjustable frequency and diagonalized.  Every
truncated eigenvalue is a variational upper bound that decreases
monotonically as the basis grows, so doubling the basis until the levels
stop moving gives controlled "exact" values to compare everything against.

The basis frequency only affects the convergence rate, not the limit; by
default it is warm-started from the level-0 effective frequency.  Doubling
stops helping once the truncation error falls below the round-off floor
~eps*||H||, which grows like dim**(k/2): when the movement stops shrinking,
the default basis is moved once to the effective frequency of the middle
requested level (the optimally scaled basis of Banerjee et al., Proc. R.
Soc. A 360, 575 (1978)), which resolves the high octic levels at a size
where that floor is still below the tolerance.  All our Hamiltonians are
even in f, so the basis splits into parity blocks, which halves the
bandwidth and cleanly separates near-degenerate well doublets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import OracleConvergenceError
from .model import OscillatorSpec
from .spectrum import level_solution

__all__ = [
    "OracleSpectrum",
    "hamiltonian_matrix",
    "exact_levels",
]


@dataclass(frozen=True)
class OracleSpectrum:
    """Converged eigenvalues, their last basis-doubling movement and the basis used."""

    spec: OscillatorSpec
    basis_w: float
    dim: int
    eigenvalues: tuple
    convergence_estimate: tuple


def _position_power_diagonals(k: int, basis_w: float, dim: int):
    """Diagonals (offsets 0, 2, ...) of f² and of f^k, exact in the retained block."""
    pad = dim + k
    off = np.sqrt(np.arange(1, pad) / (2.0 * basis_w))
    f = scipy.sparse.diags([off, off], [1, -1], format="csr")
    f2 = f @ f
    f4 = f2 @ f2
    if k == 4:
        fk = f4
    elif k == 6:
        fk = f4 @ f2
    elif k == 8:
        fk = f4 @ f4
    else:
        raise ValueError("unsupported even power %r" % (k,))

    def diagonals(m, power):
        return {o: np.asarray(m.diagonal(o))[: max(dim - o, 0)] for o in range(0, power + 1, 2)}

    return diagonals(f2, 2), diagonals(fk, k)


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
    kb = k // 2
    merged = []
    for parity in (0, 1):
        m = (dim - parity + 1) // 2
        if m <= 0:
            continue
        band = np.zeros((kb + 1, m))
        for d in range(kb + 1):
            o = 2 * d
            cols = np.arange(d, m)
            band[kb - d, cols] = diags[o][parity + 2 * (cols - d)]
        merged.append(
            scipy.linalg.eig_banded(band, lower=False, eigvals_only=True, check_finite=False)
        )
    return np.sort(np.concatenate(merged))


def exact_levels(
    spec: OscillatorSpec,
    n_max: int,
    rel_tol: float = 1e-10,
    basis_w=None,
    dim_cap: int = 4096,
) -> OracleSpectrum:
    """Eigenvalues E_0..E_{n_max}, basis-doubled until stable to rel_tol.

    Starts from 4*(n_max+1) basis states and doubles until every retained
    level moves by less than rel_tol (relative, floored at unit scale)
    between consecutive sizes.

    If the worst such movement does not shrink from one doubling to the
    next, the round-off floor (~eps*||H||, growing like dim**(k/2)) has
    been reached and more states cannot help.  A default basis, at level
    0's frequency, is then moved once to level n_max // 2's frequency and
    the doubling restarts from 4*(n_max+1) states.  An explicit `basis_w`,
    or a basis already moved, raises OracleConvergenceError at the floor.

    `dim_cap` bounds the parity-block size: a size whose even block would
    exceed it is not built, and OracleConvergenceError is raised instead.
    Both errors carry the last spectrum built, if there is one.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative, got %r" % (n_max,))
    if rel_tol < 1e-12:
        raise ValueError("rel_tol below 1e-12 is not resolvable by this solver")
    movable = basis_w is None
    if movable:
        basis_w = level_solution(spec, 0).w
    start = 4 * (n_max + 1)
    dim, prev, est, prev_worst = start, None, None, None

    def spectrum(size, levels):
        return OracleSpectrum(
            spec=spec,
            basis_w=float(basis_w),
            dim=size,
            eigenvalues=tuple(float(v) for v in levels),
            convergence_estimate=tuple(float(v) for v in est) if est is not None else (),
        )

    def failure(reason, size, levels):
        return OracleConvergenceError(
            "eigenvalues %s (worst estimate %s)"
            % (reason, "%.3g" % float(np.max(est)) if est is not None else "unknown"),
            spectrum=spectrum(size, levels),
        )

    while True:
        if (dim + 1) // 2 > dim_cap:  # the even parity block would pass the cap
            if prev is None:
                raise OracleConvergenceError(
                    "the %d-state starting basis exceeds the cap of %d states per parity block"
                    % (dim, dim_cap)
                )
            raise failure("still moving at the %d-state cap" % (dim // 2), dim // 2, prev)
        levels = _parity_block_eigenvalues(
            _hamiltonian_diagonals(spec, basis_w, dim), dim, spec.k
        )[: n_max + 1]
        if prev is not None:
            est = np.abs(levels - prev)
            scale = np.maximum(1.0, np.abs(levels))
            if np.all(est < rel_tol * scale):
                return spectrum(dim, levels)
            worst = float(np.max(est / scale))
            if prev_worst is not None and worst >= prev_worst:
                if not movable:
                    raise failure("stopped converging at the round-off floor, %d states" % dim,
                                  dim, levels)
                basis_w, movable = level_solution(spec, n_max // 2).w, False
                dim, prev, est, prev_worst = start, None, None, None
                continue
            prev_worst = worst
        prev = levels
        dim *= 2
