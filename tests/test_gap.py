import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effosc.errors import NoPhysicalRoot, SolverError
from effosc.gap import critical_coupling, gap_polynomial, positive_real_roots, solve_gap
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


def test_critical_coupling_is_discriminant_boundary():
    # the displaced cubic keeps its positive real pair just below lam_c and
    # loses it just above — the defining property, checked via the generic
    # root finder rather than the closed form
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


def test_positive_real_roots_planted():
    # (w-2)(w+3)(w^2+1) = w^4 + w^3 - 5 w^2 + w - 6
    roots = positive_real_roots((-6.0, 1.0, -5.0, 1.0, 1.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.0, rel=1e-12)
    # (w-1)(w-4)(w+2) = w^3 - 3 w^2 - 6 w + 8
    roots = positive_real_roots((8.0, -6.0, -3.0, 1.0))
    assert [pytest.approx(1.0, rel=1e-10), pytest.approx(4.0, rel=1e-10)] == roots
    # no positive roots
    assert positive_real_roots((1.0, 1.0, 1.0)) == []


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=5))
def test_positive_real_roots_against_companion_matrix(tail):
    coeffs = tuple(tail) + (1.0,)
    ref = np.roots(coeffs[::-1])
    scale = max(1.0, max(abs(c) for c in coeffs))
    # skip ill-conditioned cases: near-real complex pairs or clustered roots
    near_real = np.abs(ref.imag) < 1e-2 * scale
    truly_real = np.abs(ref.imag) <= 1e-9 * scale
    if np.any(near_real & ~truly_real):
        return
    real = np.sort(ref.real[truly_real])
    if real.size > 1 and np.min(np.diff(real)) < 1e-2:
        return
    if real.size and np.min(np.abs(real)) < 1e-6:
        return  # sign of a near-zero root is ill-conditioned
    want = [r for r in real if r > 0.0]
    got = positive_real_roots(coeffs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-6, abs=1e-6)
