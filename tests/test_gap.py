import importlib.util
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effosc import gap, spectrum
from effosc.errors import NoPhysicalRoot, SolverError
from effosc.gap import critical_coupling, gap_polynomial, solve_gap
from effosc.model import OscillatorSpec, Phase, factor_f, factor_h, factor_p, level_x


def poly_residual(coeffs, w):
    """|p(w)| scaled by the largest term magnitude."""
    terms = [c * w**i for i, c in enumerate(coeffs)]
    return abs(sum(terms)) / max(abs(t) for t in terms)


def test_gap_polynomial_families():
    for n in (0, 3):
        x = level_x(n)
        p4 = gap_polynomial(OscillatorSpec(4, 2.0, 0.7), x, Phase.SYMMETRY_RESTORED)
        assert p4.coefficients == (-6.0 * 0.7 * factor_f(x), -2.0, 0.0, 1.0)
        b4 = gap_polynomial(OscillatorSpec(4, -2.0, 0.01), x, Phase.SPONTANEOUSLY_BROKEN)
        assert b4.coefficients == (6.0 * 0.01 * factor_p(x), -4.0, 0.0, 1.0)
        p6 = gap_polynomial(OscillatorSpec(6, 1.5, 0.4), x, Phase.SYMMETRY_RESTORED)
        assert p6.coefficients == (-(15.0 * 0.4 / 4.0) * (5.0 + 4.0 * x * x), 0.0, -1.5, 0.0, 1.0)
        p8 = gap_polynomial(OscillatorSpec(8, 3.0, 0.2), x, Phase.SYMMETRY_RESTORED)
        assert p8.coefficients == (-35.0 * 0.2 * factor_h(x), 0.0, 0.0, -3.0, 0.0, 1.0)


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
        assert solve_gap(OscillatorSpec(k, 2.0, 0.0), 0.5, Phase.SYMMETRY_RESTORED) == math.sqrt(2.0)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_free_oscillator_has_no_displaced_phase(k):
    with pytest.raises(ValueError, match="requires g < 0"):
        solve_gap(OscillatorSpec(k, 1.0, 0.0), 0.5, Phase.SPONTANEOUSLY_BROKEN)


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
    x = level_x(n)
    for lam in (1e23, 1e30, 1e100, 1e300):
        spec = OscillatorSpec(8, 1.0, lam)
        w = solve_gap(spec, x, Phase.SYMMETRY_RESTORED)
        coeffs = gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients
        p = math.fsum(c * w**i for i, c in enumerate(coeffs))
        dp = math.fsum(i * c * w ** (i - 1) for i, c in enumerate(coeffs) if i)
        assert abs(p) <= 1e-14 * abs(w * dp)
        assert w == pytest.approx((35.0 * factor_h(x) * lam) ** 0.2, rel=1e-9)


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
        x = level_x(n)
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
    x = level_x(n)
    want = positive_real_roots(gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients)
    assert len(want) == 1
    assert solve_gap(spec, x, Phase.SYMMETRY_RESTORED) == pytest.approx(want[0], rel=1e-9)


def test_quartic_sr_root_past_the_cube_overflow():
    # (-g)^3 overflows past |g| ~ 5.6e102; the cubic scaled by sqrt|g| gives
    # the root, to the exact residual of the float coefficients, or w^2 = 0
    # where 6 lam f(x) / |g|, the double well's root, underflows
    for g in (1e103, 1e150, 1e300, -1e103, -1e150, -1e300):
        for n in (0, 3):
            x = level_x(n)
            for lam in (1e-300, 1e-100, 1e-5, 1.0, 1e5, 1e100):
                spec = OscillatorSpec(4, g, lam)
                try:
                    w = solve_gap(spec, x, Phase.SYMMETRY_RESTORED)
                except SolverError as exc:
                    assert g < 0.0 and "underflows: w^2 is 0" in str(exc), (g, n, lam)
                    assert (6.0 * lam * factor_f(x) / -g) ** 2 < 1e-300, (g, n, lam)
                    continue
                coeffs = gap_polynomial(spec, x, Phase.SYMMETRY_RESTORED).coefficients
                p, wdp = octic_residual_bound(coeffs, w)
                assert w > 0.0 and p <= Fraction(1e-15) * wdp, (g, n, lam, w)


@pytest.mark.parametrize("g, lam, n", [
    (1e-300, 1e-300, 0), (1e-300, 1e-300, 3),
    (-1.0, 1e-150, 0), (-1e30, 1.0, 0), (-1e30, 1.0, 3),
])
def test_tiny_quartic_roots_to_full_relative_precision(g, lam, n):
    # w^3 - g w = c with c = 6 lam f(x): at these couplings the closed-form
    # root is cbrt(c) (g w is 1e-100 of c) or, in the double well, c/|g|
    # (w^3 is below 1e-88 of |g| w), which Cardano's u - p/(3u) cancelled
    # out; the Newton polish then stops on a step relative to w below w = 1
    x = level_x(n)
    c = 6.0 * lam * factor_f(x)
    want = float(mpmath.cbrt(c)) if g > 0.0 else c / -g
    w = solve_gap(OscillatorSpec(4, g, lam), x, Phase.SYMMETRY_RESTORED)
    assert abs(w - want) <= 1e-15 * want, (w, want)


def test_negative_root_is_a_solver_error(monkeypatch):
    # `spectrum.level_grid` hands such a cell, whose w is not plain, to this scalar solve
    monkeypatch.setattr(gap, "_quartic_sr_root", lambda g, q0: -2.25)
    with pytest.raises(SolverError, match="negative frequency -2.25 at coupling 1, x = 0.5"):
        solve_gap(OscillatorSpec(4, -1e30, 1.0), 0.5, Phase.SYMMETRY_RESTORED)


def _octic_cells(g, lams, levels):
    """Coefficients (per-cell arrays) and bracket of the octic condition on
    every (lam, n) cell, as `level_grid` builds them, and each cell's (lam, x)."""
    lam = np.repeat(np.asarray(lams, dtype=float), len(levels))
    x = np.tile([level_x(n) for n in levels], len(lams))
    coeffs = gap._coefficients(8, g, lam, np.array([factor_h(v) for v in x]), Phase.SYMMETRY_RESTORED)
    c = -coeffs[0]
    return coeffs, np.sqrt(0.6 * g), 1.0 + np.where(g > c, g, c), list(zip(lam.tolist(), x.tolist()))


@pytest.mark.parametrize("g", [0.0, 1e-3, 1.0, 1e3])
def test_refine_bracket_on_an_array_is_the_float_solve_of_each_cell(g):
    # lam = 1e100 and 1e200 spend the 200 Newton steps and finish by bisection
    lams = [1e-300, 1e-6, 1e-2, 1.0, 1e6, 1e23, 1e100, 1e200]
    coeffs, a, b, cells = _octic_cells(g, lams, [0, 1, 7, 1000])
    with np.errstate(all="ignore"):  # as in level_grid: p(b) overflows at a huge b
        got = gap._refine_bracket(gap._poly_with_derivative(coeffs), a, b)
    for i, (lam, x) in enumerate(cells):
        want = solve_gap(OscillatorSpec(8, g, lam), x, Phase.SYMMETRY_RESTORED)
        assert got[i].hex() == want.hex(), (g, lam, x)


def _outer_sextic_condition(g, lam, x):
    """`spectrum._outer_displaced_state`'s F(t) -> (F, F') with its bracket
    [lo, 0] and Newton start, in numpy operations on floats or per-cell arrays."""
    K = lam * (37.5 + 210.0 * x * x)
    D = lam * (210.0 * x - 22.5 / x)
    E = 4.0 * g * g - K
    S = D / np.sqrt(3.0 * lam) * -g
    beta = 10.0 * x * np.sqrt(3.0 * lam) / -g
    gamma = 3.0 * lam * (15.0 * (1.0 + 4.0 * x * x) / 8.0) / (g * g) - 1.0
    lo = -E / S

    def F(t):
        with np.errstate(divide="ignore", invalid="ignore"):  # no bracket where E <= 0; r = 0 at lo
            r = np.sqrt(S * (t - lo))
            slope = np.where(r > 0.0, 2.0 * t - beta + S / (4.0 * g * r), np.nan)
        return t * t - beta * t + gamma + r / (2.0 * g), slope

    f_hi = F(0.0)[0]
    with np.errstate(invalid="ignore"):
        start = np.maximum(lo, f_hi / (0.5 * beta + np.sqrt(0.25 * beta * beta - f_hi)))
    return F, lo, start, (K, D, S)


def test_refine_bracket_on_the_outer_sextic_condition_is_the_float_solve():
    # a non-polynomial F whose slope is infinite at the bracket's left end
    g, lam, n = np.meshgrid([-0.3, -1.0, -3.0, -1e3, -1e11, -1e13], [1e-5, 1e-2, 1.0], [0, 3, 20])
    g, lam, x = g.ravel(), lam.ravel(), np.array([level_x(int(v)) for v in n.ravel()])
    F, lo, start, _ = _outer_sextic_condition(g, lam, x)
    has_root = (F(lo)[0] >= 0.0) & (F(0.0)[0] < 0.0)
    assert has_root.sum() == 36
    got = gap._refine_bracket(F, lo, np.zeros_like(lo), start)
    for i in np.flatnonzero(has_root):
        Fi, lo_i, start_i, (K, D, S) = _outer_sextic_condition(float(g[i]), float(lam[i]), float(x[i]))
        t = gap._refine_bracket(lambda t: tuple(map(float, Fi(t))), float(lo_i), 0.0, float(start_i))
        assert got[i].hex() == t.hex(), (g[i], lam[i], x[i])
        w, _ = spectrum._outer_displaced_state(float(g[i]), float(lam[i]), float(x[i]), K, D, "")
        assert math.sqrt(-2.0 * g[i] + math.sqrt(S * (t - lo_i))) == w


def _newton_polish_reference(coeffs, w):
    """The polish evaluating the polynomial twice at each accepted iterate."""
    dcoeffs = gap._poly_derivative(coeffs)
    best, best_res = w, abs(gap._poly_eval(coeffs, w))
    for _ in range(12):
        fw = gap._poly_eval(coeffs, w)
        dfw = gap._poly_eval(dcoeffs, w)
        if dfw == 0.0:
            break
        step = fw / dfw
        wn = w - step
        if wn <= 0.0:
            break
        w = wn
        res = abs(gap._poly_eval(coeffs, w))
        if res < best_res:
            best, best_res = w, res
        if abs(step) <= 1e-16 * abs(w):
            break
    return best


def _reference_iterates(coeffs, w):
    """The reference's iterates from w, and whether a stop rule ended them
    before its 12 steps."""
    dcoeffs = gap._poly_derivative(coeffs)
    seen = [w]
    for _ in range(12):
        dfw = gap._poly_eval(dcoeffs, w)
        if dfw == 0.0:
            return seen, True
        step = gap._poly_eval(coeffs, w) / dfw
        if w - step <= 0.0:
            return seen, True
        w -= step
        seen.append(w)
        if abs(step) <= 1e-16 * abs(w):
            return seen, True
    return seen, False


def _cycle_period(seen):
    """Period of the cycle 13 iterates end in, 0 if the last is not a repeat."""
    repeats = [j for j in range(12) if seen[j] == seen[12]]
    return 12 - repeats[-1] if repeats else 0


def _sweep_cells(k, g):
    """Coefficients and seeds of the undisplaced condition on a benchmark
    sweep's grid shape, 1000 lam log-spaced over [0.01, 10] x levels 0..9,
    as `level_grid` builds them."""
    lam = np.repeat(np.geomspace(0.01, 10.0, 1000), 10)
    x = np.tile([level_x(n) for n in range(10)], 1000)
    factor = np.array([gap._level_factor(k, Phase.SYMMETRY_RESTORED, v) for v in x.tolist()])
    coeffs = gap._coefficients(k, g, lam, factor, Phase.SYMMETRY_RESTORED)
    if k == 4:
        return coeffs, np.array([gap._quartic_sr_root(g, c0) for c0 in coeffs[0].tolist()])
    return coeffs, gap._sextic_sr_root(g, coeffs[0])


# 1201 lam over [1e-300, 1e300] x levels up to 1e6: cells whose iterates
# overflow to NaN, where the NaN stop ends them early
_WIDE_LAMBDAS = np.geomspace(1e-300, 1e300, 1201).tolist()
_WIDE_LEVELS = [0, 1, 3, 10, 100, 10**3, 10**5, 10**6]


def test_newton_polish_on_floats_and_arrays_is_bit_identical_to_the_reference(monkeypatch):
    # record the (coefficients, seed) pairs the solvers pass: quartic SR and
    # SSB, the sextic, and the displaced sextic's P(y)
    calls = []
    original = gap._newton_polish

    def spy(coeffs, w):
        calls.append((tuple(coeffs), w))
        return original(coeffs, w)

    monkeypatch.setattr(gap, "_newton_polish", spy)
    monkeypatch.setattr(spectrum, "_newton_polish", spy)
    rng = np.random.default_rng(7)
    for lam in 10.0 ** rng.uniform(-3.0, 3.0, 24):
        for n in (0, 1, 2, 5, 17, 400):
            x = level_x(n)
            for k, g in ((4, 1.0), (4, -1.0), (6, 1.0), (6, -3.0)):
                solve_gap(OscillatorSpec(k, g, lam), x, Phase.SYMMETRY_RESTORED)
            g = -float(10.0 ** rng.uniform(-1.0, 1.0))
            lam_c = critical_coupling(-g, x)
            solve_gap(OscillatorSpec(4, g, lam_c * rng.uniform(0.0, 1.0)), x,
                      Phase.SPONTANEOUSLY_BROKEN)
    for g in (-0.3, -1.0, -3.0, -10.0):
        for lam in 10.0 ** rng.uniform(-5.0, 0.0, 24):
            for n in (0, 1, 3):
                spectrum.sextic_ssb_solutions(OscillatorSpec(6, g, lam), n)
    assert {len(c) for c, _ in calls} == {4, 5}  # cubics and quartics
    assert sum(1 for c, _ in calls if c[-2] != 0.0) > 20  # the displaced sextic's P(y)
    scalar_calls = len(calls)
    for k, g in ((4, 1.0), (4, 0.3), (4, -1.0), (6, 1.0), (6, -3.0)):
        spectrum.level_grid(k, g, _WIDE_LAMBDAS, _WIDE_LEVELS)
    wide = [(list(c), w) for c, w in calls[scalar_calls:] if isinstance(w, np.ndarray)]
    del calls[scalar_calls:]
    assert len(wide) == 6  # five undisplaced grids and the displaced quartic
    samples = [_sweep_cells(4, 1.0), _sweep_cells(4, -1.0), _sweep_cells(6, 1.0), *wide]
    for degree in (4, 5):
        cells = [(c, w) for c, w in calls if len(c) == degree]
        samples.append(([np.array([c[i] for c, _ in cells]) for i in range(degree)],
                        np.array([w for _, w in cells])))
    periods, nan_cells = set(), 0
    for coeffs, seeds in samples:
        cells = [([float(a[i]) if isinstance(a, np.ndarray) else a for a in coeffs], w)
                 for i, w in enumerate(seeds.tolist())]
        want = np.array([_newton_polish_reference(c, w) for c, w in cells])
        on_floats = np.array([original(c, w) for c, w in cells])
        assert on_floats.tobytes() == want.tobytes()
        with np.errstate(all="ignore"):  # the wide grids overflow, as in level_grid
            assert original(coeffs, seeds).tobytes() == want.tobytes()
        iterates = [_reference_iterates(c, w) for c, w in cells]
        periods.update(_cycle_period(seen) for seen, stopped in iterates if not stopped)
        nan_cells += sum(math.isnan(seen[-1]) for seen, _ in iterates)
    assert {1, 2, 3} <= periods  # the cells the revisit stop ends early
    assert nan_cells > 100  # and the NaN stop


def _quartic_sr_root_reference(g, q0):
    """The undisplaced quartic seed as written for one float, in Python's
    float operations: the kernel must give its bits on floats and on arrays."""
    p, q = -g, q0
    try:
        p3 = p**3
    except OverflowError:
        scale = math.sqrt(abs(g))
        q = q / scale / scale / scale
        return scale * _quartic_sr_root_reference(math.copysign(1.0, g), q)
    disc = 0.25 * q * q + p3 / 27.0
    if disc >= 0.0:
        u = (-0.5 * q + math.sqrt(disc)) ** (1.0 / 3.0)
        if g < 0.0:
            return -q / (u * u + p / 3.0 + p * p / (9.0 * u * u))
        return u - p / (3.0 * u)
    r = math.sqrt(-p / 3.0)
    cosarg = max(-1.0, min(1.0, (-0.5 * q) / r**3))
    return 2.0 * r * math.cos(math.acos(cosarg) / 3.0)


def _quartic_ssb_root_reference(G, lam, lam_c):
    """The displaced quartic seed as written for one float."""
    ratio = min(1.0, lam / lam_c)
    theta = 0.5 * math.pi + math.asin(ratio)
    return 2.0 * math.sqrt(2.0 * G / 3.0) * math.cos(theta / 3.0)


def _sweep_couplings(kind, seed):
    """The couplings of the benchmark sweep's `kind` request at `seed`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argv = next(a for a in workloads.build_argvs("sweep", seed) if a[2] == kind)
    return [float(v) for v in argv[argv.index("--lambda") + 1].split(",")]


def _quartic_seed_cells():
    """(g, q0, lam, lam_c) per-cell arrays of the quartic seeds, as `level_grid`
    builds them: the benchmark sweep's quartic-aho and quartic-dwo grids at
    seeds 0-2, the wide grids at g in {0, +-0.3, +-1} and past the g^3
    overflow, and for g > 0 the special values -0.0, -inf and NaN of q0."""
    grids = [(g, _sweep_couplings(kind, seed), range(10))
             for kind, g in (("quartic-aho", 1.0), ("quartic-dwo", -1.0)) for seed in range(3)]
    grids += [(g, _WIDE_LAMBDAS, _WIDE_LEVELS) for g in (0.0, 0.3, -0.3, 1.0, -1.0, 1e200, -1e200)]
    for g, lams, levels in grids:
        lam = np.repeat(np.asarray(lams, dtype=float), len(levels))
        x = np.tile([level_x(n) for n in levels], len(lams))
        factor = np.array([factor_f(v) for v in x.tolist()])
        q0 = gap._coefficients(4, g, lam, factor, Phase.SYMMETRY_RESTORED)[0]
        if g > 0.0:
            q0 = np.concatenate([q0, [-0.0, -math.inf, math.nan]])
        lam_c = np.array([critical_coupling(-g, v) for v in x.tolist()]) if 0.0 > g > -1e100 else None
        yield g, q0, lam, lam_c


_NUMPY_MATH = {"pow": np.power, "acos": np.arccos, "asin": np.arcsin}


def _with_numpy(name):
    """The per-cell ops of the kernels with numpy's own version of one libm function."""
    *ops, cell_math = gap._CELL_OPS
    return (*ops, SimpleNamespace(**{**vars(cell_math), name: _NUMPY_MATH[name]}))


def test_quartic_seeds_on_floats_and_arrays_are_the_scalar_seed_bit_for_bit(monkeypatch):
    # every branch of the undisplaced seed, both Cardano forms and the
    # trigonometric one, and the displaced seed wherever the sample reaches
    branches = {"product": 0, "difference": 0, "trigonometric": 0}
    numpy_differs = dict.fromkeys(_NUMPY_MATH, 0)
    for g, q0, lam, lam_c in _quartic_seed_cells():
        cases = [(lambda *a: gap._quartic_sr_root(g, *a), lambda *a: _quartic_sr_root_reference(g, *a),
                  [q0])]
        if lam_c is not None:
            cases.append((lambda *a: gap._quartic_ssb_root(-g, *a),
                          lambda *a: _quartic_ssb_root_reference(-g, *a), [lam, lam_c]))
        for kernel, reference, args in cases:
            cells = list(zip(*(a.tolist() for a in args)))
            want = np.array([reference(*cell) for cell in cells])
            assert np.array([kernel(*cell) for cell in cells]).tobytes() == want.tobytes(), g
            with np.errstate(all="ignore"):  # as in level_grid
                assert kernel(*args).tobytes() == want.tobytes(), g
                for name in _NUMPY_MATH:
                    with monkeypatch.context() as patch:
                        patch.setattr(gap, "_CELL_OPS", _with_numpy(name))
                        moved = kernel(*args).view(np.int64) != want.view(np.int64)
                    numpy_differs[name] += int(moved.sum())
        if abs(g) < 1e100:
            with np.errstate(all="ignore"):
                one = 0.25 * q0 * q0 + (-g) ** 3 / 27.0 >= 0.0
            branches["product" if g < 0.0 else "difference"] += int(one.sum())
            branches["trigonometric"] += int((~one).sum())
    assert min(branches.values()) > 1000, branches
    # numpy's SIMD pow, arccos and arcsin each move seeds here that libm's do
    # not: 2819, 20 and 9 of them with numpy 2.4 on an AVX-512 x86-64 host
    assert min(numpy_differs.values()) > 0, numpy_differs
