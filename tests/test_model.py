import math

import numpy as np
import pytest

from effosc.model import (
    OscillatorSpec,
    factor_f,
    factor_h,
    factor_p,
    hamiltonian_average,
    level_x,
    moment,
)
from effosc.oracle import hamiltonian_matrix


def numeric_moment(j: int, s: float, w: float, n: int) -> float:
    """<(s+q)^j> in the n-th frequency-w oscillator state, by Gauss-Hermite.

    Independent route: Hermite-polynomial densities integrated exactly
    (polynomial degree 2n + j << quadrature order), no shared code with
    the closed-form moment table.
    """
    t, wt = np.polynomial.hermite.hermgauss(48)
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    hn = np.polynomial.hermite.hermval(t, coef)
    dens = wt * hn**2 / (math.sqrt(math.pi) * 2.0**n * math.factorial(n))
    return float(np.sum(dens * (s + t / math.sqrt(w)) ** j))


def test_spec_validation():
    OscillatorSpec(4, 1.0, 0.1)
    OscillatorSpec(6, -3.0, 0.5)
    OscillatorSpec(4, -1.0, 0.0625)
    OscillatorSpec(8, 1.0, 2.0)
    OscillatorSpec(4, 2.5, 0.0)  # free oscillator admitted for g > 0
    with pytest.raises(ValueError):
        OscillatorSpec(5, 1.0, 0.1)
    with pytest.raises(ValueError):
        OscillatorSpec(4, 1.0, -0.1)
    with pytest.raises(ValueError):
        OscillatorSpec(4, -1.0, 0.0)  # no free limit for a double well
    with pytest.raises(ValueError):
        OscillatorSpec(4, 0.0, 0.0)
    with pytest.raises(ValueError):
        OscillatorSpec(8, -1.0, 0.1)  # octic double well unsupported


def test_level_factor_values():
    x0 = level_x(0)
    assert x0 == 0.5
    assert factor_f(x0) == 1.0
    assert factor_p(x0) == 2.0
    assert factor_h(x0) == 3.0
    x1 = level_x(1)
    assert x1 == 1.5
    assert factor_h(x1) == pytest.approx(9.0, abs=1e-15)
    assert factor_f(x1) == pytest.approx(1.5 + 1.0 / 6.0, abs=1e-15)
    assert factor_p(x1) == pytest.approx(7.5 - 1.0 / 6.0, abs=1e-15)
    with pytest.raises(ValueError):
        level_x(-1)
    with pytest.raises(ValueError):
        level_x(1.5)


def test_level_factors_monotone():
    prev = level_x(0)
    for n in range(1, 60):
        cur = level_x(n)
        assert factor_f(cur) > factor_f(prev)
        assert factor_p(cur) > factor_p(prev)
        assert factor_h(cur) > factor_h(prev)
        prev = cur


@pytest.mark.parametrize("w", [0.7, 1.0, 2.3])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_moments_match_quadrature(n, w):
    x = n + 0.5
    for s in (0.0, 0.8, -1.3):
        for j in (1, 2, 3, 4, 6):
            want = numeric_moment(j, s, w, n)
            got = moment(j, s, w, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (j, s, w, n)
    # octic: undisplaced only
    assert moment(8, 0.0, w, x) == pytest.approx(numeric_moment(8, 0.0, w, n), rel=1e-12)


def test_octic_ground_moment_closed_value():
    # <q^8> at n=0 reduces to 105/(2w)^4
    for w in (0.5, 1.0, 3.0):
        assert moment(8, 0.0, w, 0.5) == pytest.approx(105.0 / (2.0 * w) ** 4, rel=1e-14)


def test_moment_error_paths():
    with pytest.raises(ValueError):
        moment(8, 0.5, 1.0, 0.5)  # displaced octic average has no closed form
    with pytest.raises(ValueError):
        moment(5, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        moment(2, 0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        hamiltonian_average(OscillatorSpec(4, 1.0, 0.1), 0.0, 0.0, 0.5)


def test_hamiltonian_average_matches_matrix_diagonal():
    # Second route: the Fock-basis Hamiltonian diagonal at basis frequency w
    # is the same expectation value, assembled from ladder algebra instead
    # of the moment table.
    cases = [
        (OscillatorSpec(4, 1.0, 0.3), 1.3),
        (OscillatorSpec(6, -3.0, 0.5), 2.1),
        (OscillatorSpec(8, 1.0, 0.2), 1.7),
    ]
    for spec, w in cases:
        mat = hamiltonian_matrix(spec, w, 12)
        for n in (0, 2, 5):
            want = mat[n, n]
            got = hamiltonian_average(spec, 0.0, w, n + 0.5)
            assert got == pytest.approx(want, rel=1e-13), (spec, w, n)


def test_hamiltonian_average_displaced_decomposition():
    # <H> = w x/2 + (g/2)<f^2> + lam <f^k> with the quadrature moments;
    # the kinetic part w x/2 is displacement-invariant.
    spec = OscillatorSpec(4, -1.0, 0.05)
    for n, w, s in [(0, 1.1, 0.9), (2, 0.8, 1.7)]:
        x = n + 0.5
        want = 0.5 * w * x + 0.5 * spec.g * numeric_moment(2, s, w, n) + spec.lam * numeric_moment(4, s, w, n)
        got = hamiltonian_average(spec, s, w, x)
        assert got == pytest.approx(want, rel=1e-12), (n, w, s)
