import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effosc.errors import NoPhysicalRoot, SolverError
from effosc.gap import critical_coupling, gap_polynomial, solve_gap
from effosc.model import OscillatorSpec, Phase, level_factors


def poly_residual(coeffs, w):
    """|p(w)| scaled by the largest term magnitude."""
    terms = [c * w**i for i, c in enumerate(coeffs)]
    return abs(sum(terms)) / max(abs(t) for t in terms)


def test_gap_polynomial_families():
    for n in (0, 3):
        lf = level_factors(n)
        x = lf.x
        p4 = gap_polynomial(OscillatorSpec(4, 2.0, 0.7), x, Phase.SYMMETRY_RESTORED)
        assert p4.coefficients == (-6.0 * 0.7 * lf.f, -2.0, 0.0, 1.0)
        b4 = gap_polynomial(OscillatorSpec(4, -2.0, 0.01), x, Phase.SPONTANEOUSLY_BROKEN)
        assert b4.coefficients == (6.0 * 0.01 * lf.p, -4.0, 0.0, 1.0)
        p6 = gap_polynomial(OscillatorSpec(6, 1.5, 0.4), x, Phase.SYMMETRY_RESTORED)
        assert p6.coefficients == (-(15.0 * 0.4 / 4.0) * (5.0 + 4.0 * x * x), 0.0, -1.5, 0.0, 1.0)
        p8 = gap_polynomial(OscillatorSpec(8, 3.0, 0.2), x, Phase.SYMMETRY_RESTORED)
        assert p8.coefficients == (-35.0 * 0.2 * lf.h, 0.0, 0.0, -3.0, 0.0, 1.0)


def test_gap_polynomial_rejections():
    with pytest.raises(ValueError):
        gap_polynomial(OscillatorSpec(4, 1.0, 0.1), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    with pytest.raises(ValueError):
        gap_polynomial(OscillatorSpec(6, -3.0, 0.5), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    with pytest.raises(ValueError):
        gap_polynomial(OscillatorSpec(4, 1.0, 0.1), -0.5, Phase.SYMMETRY_RESTORED)


def test_quartic_sr_exact_rational_root():
    # w^3 - w - 6 = 0 factors as (w-2)(w^2+2w+3): the root is exactly 2
    w = solve_gap(OscillatorSpec(4, 1.0, 1.0), 0.5, Phase.SYMMETRY_RESTORED)
    assert w == pytest.approx(2.0, abs=1e-14)


def test_solution_satisfies_polynomial():
    cases = [
        (OscillatorSpec(4, 1.0, 0.1), Phase.SYMMETRY_RESTORED),
        (OscillatorSpec(4, -1.0, 0.05), Phase.SYMMETRY_RESTORED),
        (OscillatorSpec(4, -1.0, 0.05), Phase.SPONTANEOUSLY_BROKEN),
        (OscillatorSpec(6, 1.0, 0.5), Phase.SYMMETRY_RESTORED),
        (OscillatorSpec(6, -3.0, 0.5), Phase.SYMMETRY_RESTORED),
        (OscillatorSpec(8, 1.0, 0.1), Phase.SYMMETRY_RESTORED),
        (OscillatorSpec(8, 1.0, 1000.0), Phase.SYMMETRY_RESTORED),
    ]
    for spec, phase in cases:
        for n in (0, 5, 40):
            x = n + 0.5
            if phase is Phase.SPONTANEOUSLY_BROKEN and spec.lam > critical_coupling(-spec.g, x):
                continue
            w = solve_gap(spec, x, phase)
            assert w > 0.0
            res = poly_residual(gap_polynomial(spec, x, phase).coefficients, w)
            assert res < 1e-12, (spec, phase, n, res)


def test_free_oscillator_limit():
    for k in (4, 6, 8):
        assert solve_gap(OscillatorSpec(k, 4.0, 0.0), 0.5, Phase.SYMMETRY_RESTORED) == 2.0


def test_frequency_monotone_in_coupling():
    for k in (4, 6, 8):
        ws = [solve_gap(OscillatorSpec(k, 1.0, lam), 2.5, Phase.SYMMETRY_RESTORED)
              for lam in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(ws, ws[1:]))


def test_critical_coupling_value():
    # (2/3)^{3/2} / 6 for the ground level of the unit-depth well
    assert critical_coupling(1.0, 0.5) == pytest.approx(0.09072184232530289, rel=1e-13)
    # scales as g^{3/2}
    assert critical_coupling(4.0, 0.5) == pytest.approx(8.0 * critical_coupling(1.0, 0.5), rel=1e-13)
    # shrinks with the level
    assert critical_coupling(1.0, 1.5) < critical_coupling(1.0, 0.5)
    with pytest.raises(ValueError):
        critical_coupling(-1.0, 0.5)
    with pytest.raises(ValueError):
        critical_coupling(1.0, 0.0)


def positive_real_roots(coeffs):
    """Positive real roots of an ascending-coefficient polynomial, by np.roots."""
    roots = np.roots(coeffs[::-1])
    return sorted(r.real for r in roots if r.real > 0.0 and abs(r.imag) <= 1e-7 * abs(r))


def test_critical_coupling_is_discriminant_boundary():
    # the displaced cubic keeps its positive real pair just below lam_c and
    # loses it just above — the defining property, checked via the companion
    # matrix rather than the closed form
    lam_c = critical_coupling(1.0, 0.5)
    below = gap_polynomial(OscillatorSpec(4, -1.0, lam_c * (1.0 - 1e-6)), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    above = gap_polynomial(OscillatorSpec(4, -1.0, lam_c * (1.0 + 1e-6)), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    assert len(positive_real_roots(below.coefficients)) == 2
    assert positive_real_roots(above.coefficients) == []


def test_ssb_solver_respects_critical_coupling():
    lam_c = critical_coupling(1.0, 0.5)
    w = solve_gap(OscillatorSpec(4, -1.0, 0.99 * lam_c), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    assert w > math.sqrt(2.0 / 3.0)  # physical branch sits above the tangency point
    with pytest.raises(NoPhysicalRoot) as err:
        solve_gap(OscillatorSpec(4, -1.0, 1.01 * lam_c), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    assert "critical" in str(err.value)


def test_overflowing_root_raises():
    # the quartic frequency overflows from lam ~ 1e155 on; 1e150 is still finite
    assert math.isfinite(solve_gap(OscillatorSpec(4, 1.0, 1e150), 0.5, Phase.SYMMETRY_RESTORED))
    for lam in (1e155, 1e200, 1e300):
        with pytest.raises(SolverError, match="non-finite"):
            solve_gap(OscillatorSpec(4, 1.0, lam), 0.5, Phase.SYMMETRY_RESTORED)


@pytest.mark.parametrize("n", [0, 3])
def test_octic_root_at_huge_coupling(n):
    # Newton from the bracket midpoint runs out of steps from lam ~ 1e23 on;
    # bisection must finish the root instead of returning the last iterate
    x = level_factors(n).x
    for lam in (1e23, 1e30, 1e100, 1e300):
        spec = OscillatorSpec(8, 1.0, lam)
        w = solve_gap(spec, x, Phase.SYMMETRY_RESTORED)
        coeffs = gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients
        p = math.fsum(c * w**i for i, c in enumerate(coeffs))
        dp = math.fsum(i * c * w ** (i - 1) for i, c in enumerate(coeffs) if i)
        assert abs(p) <= 1e-14 * abs(w * dp)
        assert w == pytest.approx((35.0 * level_factors(n).h * lam) ** 0.2, rel=1e-9)


def test_ssb_frequency_frozen_value():
    w = solve_gap(OscillatorSpec(4, -1.0, 0.02), 0.5, Phase.SPONTANEOUSLY_BROKEN)
    assert w == pytest.approx(1.349891839256335, abs=1e-12)


def octic_residual_bound(coeffs, w):
    """Exact |P(w)| and |w P'(w)| of the float coefficients at the float w."""
    wq = Fraction(w)
    p = sum(Fraction(c) * wq**i for i, c in enumerate(coeffs))
    dp = sum(i * Fraction(c) * wq ** (i - 1) for i, c in enumerate(coeffs) if i)
    return abs(p), abs(wq * dp)


@pytest.mark.parametrize("g", [0.0, 1e-6, 0.01, 0.3])
def test_octic_root_for_shallow_wells(g):
    # below g = 1 the root can sit far below 1 and next to the critical
    # point 0, so it must be found to relative, not absolute, precision
    for n in (0, 7):
        x = level_factors(n).x
        for lam in (1e-300, 1e-200, 1e-100, 1e-60, 1e-20, 1e-6, 1e-2, 1.0, 1e6):
            spec = OscillatorSpec(8, g, lam)
            w = solve_gap(spec, x, Phase.SYMMETRY_RESTORED)
            p, wdp = octic_residual_bound(gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients, w)
            assert w > 0.0 and p <= Fraction(1e-15) * wdp, (g, n, lam, w)


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=10.0),
    log_lam=st.floats(min_value=-6.0, max_value=6.0),
    n=st.integers(min_value=0, max_value=1000),
)
def test_octic_root_against_companion_matrix(g, log_lam, n):
    # the quintic has exactly one positive root (one sign change); the
    # bracketed solve must find the one np.roots finds
    spec = OscillatorSpec(8, g, 10.0**log_lam)
    x = level_factors(n).x
    want = positive_real_roots(gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients)
    assert len(want) == 1
    assert solve_gap(spec, x, Phase.SYMMETRY_RESTORED) == pytest.approx(want[0], rel=1e-9)
