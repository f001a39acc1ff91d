import math

import mpmath
import numpy as np
import pytest

from effosc.gap import solve_gap
from effosc.model import OscillatorSpec, Phase
from effosc.spectrum import level_solution, sextic_ssb_solutions
from effosc.susy import (
    ground_wavefunction,
    ispp_residual,
    partner_specs,
    scaling_residual,
    wavefunction_distance,
)

WIDE = np.arange(-6.0, 6.0 + 1e-9, 0.005)


def test_partner_specs():
    p1 = partner_specs(1.0)
    assert p1.aho == OscillatorSpec(6, 3.0, 0.5)
    assert p1.dwo == OscillatorSpec(6, -3.0, 0.5)
    p100 = partner_specs(100.0)
    assert p100.aho == OscillatorSpec(6, 300.0, 5000.0)
    assert p100.dwo == OscillatorSpec(6, -300.0, 5000.0)
    with pytest.raises(ValueError):
        partner_specs(-1.0)
    with pytest.raises(ValueError):
        partner_specs(0.0)


def test_interlacing_residual_frozen():
    assert ispp_residual(1.0, 0) == pytest.approx(0.43113320853060055 / 2.0, abs=1e-10)


def test_interlacing_relative_error_shrinks_with_level():
    # the defect's absolute size grows slowly, but relative to the level it
    # decays: the pairing becomes exact high in the spectrum
    pair = partner_specs(1.0)
    rel = []
    for n in (0, 3, 8, 15):
        e_ref = level_solution(pair.aho, n).E0
        rel.append(abs(ispp_residual(1.0, n)) / e_ref)
    assert all(a > b for a, b in zip(rel, rel[1:])), rel


def test_scaling_covariance():
    # E_n(b) = sqrt(b) E_n(1) exactly for both partners: the frequency
    # condition maps onto itself under w -> sqrt(b) w
    for b in (0.25, 1.0, 4.0, 100.0):
        for which in ("aho", "dwo"):
            pair = partner_specs(b)
            spec = pair.aho if which == "aho" else pair.dwo
            for n in (0, 7, 20):
                res = scaling_residual(b, n, which=which)
                scale = abs(level_solution(spec, n).E0)
                assert abs(res) <= 1e-10 * max(1.0, scale), (b, which, n)
    with pytest.raises(ValueError):
        scaling_residual(1.0, 0, which="bogus")


def test_no_displaced_solutions_on_partner_family():
    # the partner double wells sit in the coupling regime where the
    # displaced solver finds nothing, for every b (scaling covariance makes
    # existence b-independent)
    for b in (0.25, 1.0, 4.0, 100.0):
        dwo = partner_specs(b).dwo
        for n in (0, 1, 5):
            assert sextic_ssb_solutions(dwo, n) == [], (b, n)


def test_ground_wavefunction_center_values():
    # (8b)^{1/8}/sqrt(Gamma(1/4)) at the origin for the closed-form state
    got = float(ground_wavefunction("susy_exact", 100.0, np.array([0.0]))[0])
    want = 800.0**0.125 / math.sqrt(math.gamma(0.25))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.2111438015128775, rel=1e-10)
    # the Gaussian at the origin carries the symmetric-branch frequency
    w_a = solve_gap(partner_specs(100.0).dwo, 0.5, Phase.SYMMETRY_RESTORED)
    assert w_a == pytest.approx(14.745286074453649, rel=1e-10)
    got_g = float(ground_wavefunction("effective_gaussian", 100.0, np.array([0.0]))[0])
    assert got_g == pytest.approx((w_a / math.pi) ** 0.25, rel=1e-12)
    assert got_g == pytest.approx(1.471891619326629, rel=1e-10)
    with pytest.raises(ValueError):
        ground_wavefunction("bogus", 1.0, np.array([0.0]))
    with pytest.raises(ValueError):
        ground_wavefunction("susy_exact", -1.0, np.array([0.0]))
    with pytest.raises(ValueError):
        ground_wavefunction("susy_exact", 1.0, np.array([]))


def test_amplitudes_normalized():
    from scipy.integrate import quad

    for b in (0.25, 1.0, 100.0):
        for kind in ("susy_exact", "effective_gaussian"):
            def dens(f, b=b, kind=kind):
                return float(ground_wavefunction(kind, b, np.array([f]))[0]) ** 2

            total, err = quad(dens, -np.inf, np.inf, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8), (b, kind)


def test_wavefunction_distance_frozen_and_b_invariant():
    ov, l2 = wavefunction_distance(1.0, WIDE)
    assert ov == pytest.approx(0.9842922250633706, abs=1e-10)
    assert l2 == pytest.approx(0.17724432254168, abs=1e-10)
    for b in (0.25, 4.0, 100.0):
        o2, d2 = wavefunction_distance(b, WIDE)
        assert abs(o2 - ov) <= 1e-8
        assert abs(d2 - l2) <= 1e-8
    # overlap and L2 distance are consistent for normalized states:
    # |psi - phi|^2 = 2 (1 - overlap)
    assert l2**2 == pytest.approx(2.0 * (1.0 - ov), abs=1e-9)


@pytest.mark.parametrize("b", [0.25, 1.0, 100.0])
def test_wavefunction_distance_on_a_window_far_wider_than_the_peak(b):
    # past 64 sigma both amplitudes are 0, so the window is clipped there
    # and the quadrature still samples the O(sigma) peak
    wide = wavefunction_distance(b, [-1e6, 1e6])
    narrow = wavefunction_distance(b, [-10.0 / b**0.25, 10.0 / b**0.25])
    assert np.allclose(wide, narrow, rtol=0.0, atol=1e-9), (wide, narrow)


def _mp_distance(b, lo, hi, w_a):
    """(overlap, L2 distance) of the two amplitudes on [lo, hi] at 40 digits."""
    with mpmath.workdps(40):
        b, w_a = mpmath.mpf(b), mpmath.mpf(w_a)
        n1 = (8 * b) ** mpmath.mpf(0.125) / mpmath.sqrt(mpmath.gamma(0.25))
        n2 = (w_a / mpmath.pi) ** mpmath.mpf(0.25)

        def psi1(f):
            return n1 * mpmath.exp(-b * f**4 / 4)

        def psi2(f):
            return n2 * mpmath.exp(-w_a * f**2 / 2)

        # past 20 widths of either amplitude both are below exp(-200)
        cut = 20 * (b ** mpmath.mpf(-0.25) + 1 / mpmath.sqrt(w_a))
        a, z = max(mpmath.mpf(lo), -cut), min(mpmath.mpf(hi), cut)
        points = mpmath.linspace(a, z, 21)  # tanh-sinh on 80 panels gives the same floats
        overlap = mpmath.quad(lambda f: psi1(f) * psi2(f), points, method="gauss-legendre")
        l2sq = mpmath.quad(lambda f: (psi1(f) - psi2(f)) ** 2, points, method="gauss-legendre")
        return float(overlap), float(mpmath.sqrt(l2sq))


_MP_WINDOWS = [
    (b, lo * b**-0.25, hi * b**-0.25)
    for b in (1e-3, 1.0, 100.0, 1e5)
    for lo, hi in ((-6.0, 6.0), (-7.0, 1e6), (-1e6, 5.0))
] + [
    # scipy's adaptive quad raised "quadrature error above 1e-8" here,
    (0.7468497328968295, -6.522521847042514, 5.35777947018355),
    # and gave overlap 0.9842922245 here, against 0.9842922251
    (1597.6629122743716, -15.740649059582681, 6.176997279824269),
]


@pytest.mark.parametrize("b, lo, hi", _MP_WINDOWS)
def test_wavefunction_distance_matches_mpmath(b, lo, hi):
    w_a = solve_gap(partner_specs(b).dwo, 0.5, Phase.SYMMETRY_RESTORED)
    want = _mp_distance(b, lo, hi, w_a)
    got = wavefunction_distance(b, [lo, hi])
    assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)


def test_wavefunction_distance_span_guard():
    with pytest.raises(ValueError):
        wavefunction_distance(1.0, np.linspace(-2.0, 2.0, 801))
    with pytest.raises(ValueError):
        wavefunction_distance(-1.0, WIDE)


def test_oracle_interlacing(oracle):
    # exact spectra pair up: E_{n+1} of the well equals E_n of its partner,
    # and the well's ground state sits at zero (doubled units)
    pair = partner_specs(1.0)
    aho = oracle(pair.aho, 6)
    dwo = oracle(pair.dwo, 7)
    for n in range(6):
        assert abs(dwo.eigenvalues[n + 1] - aho.eigenvalues[n]) <= 1e-8, n
    assert abs(2.0 * dwo.eigenvalues[0]) <= 1e-6
