import math

import numpy as np
import pytest

from effosc.errors import SSBUnsupported
from effosc.ipt import (
    TruncationWarning,
    _rs_run,
    ipt_energy,
    perturbation_matrix,
    position_power_matrix,
    rs_corrections,
    second_order_sum,
    third_order_sum,
)
from effosc.model import OscillatorSpec, moment
from effosc.spectrum import level_solution


def test_position_matrix_first_power():
    for w in (0.5, 1.0, 2.0):
        m = position_power_matrix(1, w, 8)
        for n in range(7):
            assert m[n, n + 1] == pytest.approx(math.sqrt((n + 1) / (2.0 * w)), rel=1e-14)
        assert np.all(np.diag(m) == 0.0)


def test_position_matrix_square():
    for w in (0.5, 1.0, 2.0):
        m = position_power_matrix(2, w, 8)
        for n in range(8):
            assert m[n, n] == pytest.approx((2 * n + 1) / (2.0 * w), rel=1e-14)
        for n in range(6):
            assert m[n, n + 2] == pytest.approx(
                math.sqrt((n + 1) * (n + 2)) / (2.0 * w), rel=1e-14
            )
    assert position_power_matrix(2, 1.0, 4)[0, 2] == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)


def test_position_matrix_fourth_power_elements():
    # operator-power values: <n|f^4|n+2> = (4n+6) sqrt((n+1)(n+2)) / (2w)^2
    for w in (1.0, 1.7):
        m = position_power_matrix(4, w, 10)
        for n in range(6):
            assert m[n, n + 2] == pytest.approx(
                (4 * n + 6) * math.sqrt((n + 1) * (n + 2)) / (2.0 * w) ** 2, rel=1e-13
            )
            assert m[n, n + 4] == pytest.approx(
                math.sqrt((n + 1) * (n + 2) * (n + 3) * (n + 4)) / (2.0 * w) ** 2, rel=1e-13
            )
    assert position_power_matrix(4, 1.0, 6)[0, 4] == pytest.approx(math.sqrt(24.0) / 4.0, rel=1e-14)


def test_position_matrix_diagonal_matches_moments():
    # two routes to <n|f^k|n>: operator powers vs the closed moment table
    for k in (2, 4, 6, 8):
        for w in (0.8, 1.0, 2.3):
            m = position_power_matrix(k, w, 12)
            for n in (0, 1, 4, 9):
                assert m[n, n] == pytest.approx(moment(k, 0.0, w, n + 0.5), rel=1e-12), (k, w, n)


def test_octic_ground_diagonal_value():
    # <0|f^8|0> = 105/(2w)^4; 105/16 at w=1
    assert position_power_matrix(8, 1.0, 12)[0, 0] == pytest.approx(105.0 / 16.0, rel=1e-13)


def test_position_matrix_bandwidth_and_symmetry():
    for k in (1, 2, 4, 6, 8):
        m = position_power_matrix(k, 1.3, 14)
        assert np.array_equal(m, m.T)
        for i in range(14):
            for j in range(14):
                if abs(i - j) > k:
                    assert m[i, j] == 0.0
                if (i - j) % 2 != k % 2:
                    assert m[i, j] == 0.0  # parity selection


def test_perturbation_matrix_diagonal_and_symmetry():
    for spec, n in [
        (OscillatorSpec(4, 1.0, 0.1), 0),
        (OscillatorSpec(4, 1.0, 10.0), 3),
        (OscillatorSpec(6, 1.0, 0.5), 2),
        (OscillatorSpec(8, 1.0, 0.2), 1),
        (OscillatorSpec(4, -1.0, 0.2), 0),
    ]:
        v = perturbation_matrix(spec, n, 16)
        assert abs(v[n, n]) <= 1e-12 * max(1.0, np.max(np.abs(v)))
        assert np.max(np.abs(v - v.T)) <= 1e-14 * max(1.0, np.max(np.abs(v)))


def test_perturbation_matrix_near_band_vanishes_for_low_levels():
    # for the quartic the (n, n+2) element is proportional to
    # (2n+3) - 3x - 3/(4x) with x = n + 1/2: exactly zero at n = 0 and 1,
    # nonzero from n = 2 on
    for lam in (0.1, 1.0, 10.0):
        spec = OscillatorSpec(4, 1.0, lam)
        for n in (0, 1):
            v = perturbation_matrix(spec, n, 12)
            assert v[n, n + 2] == pytest.approx(0.0, abs=1e-15 * max(1.0, np.max(np.abs(v))))
        v2 = perturbation_matrix(spec, 2, 12)
        assert abs(v2[2, 4]) > 1e-6 * np.max(np.abs(v2))


def test_free_limit_zero_matrix():
    spec = OscillatorSpec(4, 2.0, 0.0)
    v = perturbation_matrix(spec, 0, 10)
    assert np.all(v == 0.0)
    series = rs_corrections(spec, 0, max_order=4)
    assert all(c == 0.0 for c in series.corrections)


def test_first_order_vanishes():
    for spec, n in [
        (OscillatorSpec(4, 1.0, 0.1), 0),
        (OscillatorSpec(4, 1.0, 100.0), 10),
        (OscillatorSpec(6, 1.0, 0.5), 4),
        (OscillatorSpec(8, 1.0, 1.0), 2),
        (OscillatorSpec(4, -1.0, 0.3), 1),
    ]:
        series = rs_corrections(spec, n, max_order=4)
        assert abs(series.corrections[0]) <= 1e-14 * max(1.0, abs(series.partial_sums[0]))


def test_second_order_closed_forms():
    # level-resolved second order in units of lam^2 / (8 w^5): exact
    # rationals -3, -15, -33/5, 225/7, 113 for n = 0..4
    want = {0: -3.0, 1: -15.0, 2: -33.0 / 5.0, 3: 225.0 / 7.0, 4: 113.0}
    for lam in (0.1, 1.0):
        spec = OscillatorSpec(4, 1.0, lam)
        for n, r in want.items():
            sol = level_solution(spec, n)
            c2 = rs_corrections(spec, n, max_order=2).corrections[1]
            assert c2 * 8.0 * sol.w**5 / lam**2 == pytest.approx(r, rel=1e-11), (lam, n)


def test_recursion_matches_explicit_sums():
    for spec, n in [
        (OscillatorSpec(4, 1.0, 0.1), 0),
        (OscillatorSpec(4, 1.0, 1.0), 3),
        (OscillatorSpec(6, 1.0, 0.5), 2),
        (OscillatorSpec(8, 1.0, 0.3), 1),
        (OscillatorSpec(4, -1.0, 0.5), 2),
    ]:
        series = rs_corrections(spec, n, max_order=3)
        e2 = second_order_sum(spec, n)
        e3 = third_order_sum(spec, n)
        scale = max(1e-30, abs(e2))
        assert series.corrections[1] == pytest.approx(e2, rel=1e-12), (spec, n)
        assert abs(series.corrections[2] - e3) <= 1e-12 * max(scale, abs(e3)), (spec, n)


def test_basis_exactness_order_two():
    # f^k couples |n> to |n +- j>, j <= k: order-2 is exact once
    # dim >= n + k + 1 and must not move at all beyond that
    for spec, n in [(OscillatorSpec(4, 1.0, 1.0), 0), (OscillatorSpec(6, 1.0, 0.5), 2)]:
        dims = (n + spec.k + 1, n + spec.k + 9, n + 3 * spec.k + 1)
        vals = [second_order_sum(spec, n, dim=d) for d in dims]
        assert vals[0] == vals[1] == vals[2], (spec, n, vals)
        assert rs_corrections(spec, n, max_order=2).corrections[1] == pytest.approx(
            vals[0], rel=1e-12), (spec, n)


def test_corrections_frozen_quartic():
    c = rs_corrections(OscillatorSpec(4, 1.0, 0.1), 0, max_order=4)
    assert c.basis_dim == 13
    want = (-0.0013807122628070444, 0.00034116058028088977, -0.0002058002889054422)
    for got, exp in zip(c.corrections[1:], want):
        assert got == pytest.approx(exp, rel=1e-10)
    assert c.partial_sums[0] == pytest.approx(0.5603073711386635, rel=1e-12)
    assert c.partial_sums[-1] == pytest.approx(0.5590620191672319, rel=1e-12)
    # exact rationals at lam = 1: dE2 = -3/256, dE3 = 27/4096
    c1 = rs_corrections(OscillatorSpec(4, 1.0, 1.0), 0, max_order=4)
    assert c1.corrections[1] == pytest.approx(-3.0 / 256.0, rel=1e-12)
    assert c1.corrections[2] == pytest.approx(27.0 / 4096.0, rel=1e-12)
    assert c1.corrections[3] == pytest.approx(-0.009052276611328128, rel=1e-10)


@pytest.mark.parametrize("spec", [OscillatorSpec(4, 1.0, 0.1), OscillatorSpec(6, -3.0, 0.5),
                                  OscillatorSpec(8, 1.0, 1.0)])
def test_series_fields_are_python_floats(spec):
    # the CLI writes a list column with its one-call column writer only when
    # every element is exactly a float, not a numpy.float64
    for order in (1, 4):
        series = rs_corrections(spec, 1, max_order=order)
        assert {type(v) for v in series.corrections + series.partial_sums} == {float}


def test_ipt_energy_partial_sums():
    spec = OscillatorSpec(4, 1.0, 0.1)
    e0 = level_solution(spec, 0).E0
    assert ipt_energy(spec, 0, 0) == e0
    assert ipt_energy(spec, 0, 1) == pytest.approx(e0, abs=1e-14)
    assert ipt_energy(spec, 0, 2) == pytest.approx(0.5589266588758565, rel=1e-12)
    assert ipt_energy(spec, 0, 4) == pytest.approx(0.5590620191672319, rel=1e-12)
    with pytest.raises(ValueError):
        ipt_energy(spec, 0, 5)


def test_order_decay_true_behaviour():
    # the claimed strict decay |dE4| < |dE3| < |dE2| holds at weak coupling
    # but breaks for lam >= ~0.3 at low n (order 4 overtakes order 3);
    # both regimes are pinned here
    weak = rs_corrections(OscillatorSpec(4, 1.0, 0.1), 0, max_order=4).corrections
    assert abs(weak[3]) < abs(weak[2]) < abs(weak[1])
    strong = rs_corrections(OscillatorSpec(4, 1.0, 1.0), 0, max_order=4).corrections
    assert abs(strong[2]) < abs(strong[1])
    assert abs(strong[3]) > abs(strong[2])  # the documented violation


# lam = 1, n = 0, partial sums E0, E0 + dE2, + dE3, + dE4 (dE1 = 0 by EQA)
# of the fixed-frequency series, and the oracle's level
FIXED_FREQUENCY_SERIES = {
    6: ((0.8377971826847219, 0.7694236702098914, 0.9801521445431676, -0.5358915250443541),
        0.8049659760115407),
    8: ((0.8896909146595636, 0.6436080825783602, 3.913638008873552, -114.90166949260883),
        0.8206851785664024),
}


def test_sextic_and_octic_series_do_not_decay_at_unit_coupling(oracle):
    # unlike the quartic (criterion 09), the sextic and octic series about
    # the level's own frequency grow at fourth order: the order-4 sum lies
    # farther from the exact level than E0 does
    for k, (sums, exact) in FIXED_FREQUENCY_SERIES.items():
        spec = OscillatorSpec(k, 1.0, 1.0)
        series = rs_corrections(spec, 0, max_order=4)
        got = [series.partial_sums[i] for i in (0, 2, 3, 4)]
        assert got == pytest.approx(sums, rel=1e-9), k
        assert oracle(spec, 0).eigenvalues[0] == pytest.approx(exact, rel=1e-9), k
        d = series.corrections
        assert abs(d[3]) > abs(d[2]), k
        assert abs(got[-1] - exact) > abs(got[0] - exact), k


def test_series_window_is_quiet():
    # the n +- 3k window holds every state the series reaches: growing it by
    # k states moves no correction, so no warning of any kind is raised
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, g in ((4, 1.0), (6, 1.0), (8, 1.0), (4, -1.0)):
            for n in (0, 1, 7, 100):
                rs_corrections(OscillatorSpec(k, g, 1.0), n, max_order=4)


def test_series_window_takes_no_dimension():
    # the window is fixed by (n, k); only the dense reference sums take a dim
    spec = OscillatorSpec(4, 1.0, 0.1)
    with pytest.raises(TypeError):
        rs_corrections(spec, 0, max_order=4, dim=20)
    with pytest.raises(TypeError):
        ipt_energy(spec, 0, 4, dim=20)


def test_displaced_expansion_rejected():
    with pytest.raises(SSBUnsupported):
        rs_corrections(OscillatorSpec(4, -1.0, 0.05), 0, max_order=2)
    # same well above the phase boundary expands fine (symmetric solution)
    series = rs_corrections(OscillatorSpec(4, -1.0, 0.2), 0, max_order=2)
    assert series.corrections[1] < 0.0


def test_position_matrix_window_matches_full_block():
    # a block built on its own, padded k states each side, carries the same
    # elements as that block of the matrix built from state 0
    for k in range(1, 9):
        for w in (0.7, 2.3):
            full = position_power_matrix(k, w, 90)
            for start in (0, 1, k - 1, k, k + 3, 37, 60):
                dim = min(3 * k + 5, 90 - start)
                block = position_power_matrix(k, w, dim, start)
                want = full[start:start + dim, start:start + dim]
                scale = np.max(np.abs(want))
                assert np.max(np.abs(block - want)) <= 1e-14 * scale, (k, w, start)
    with pytest.raises(ValueError):
        position_power_matrix(4, 1.0, 5, -1)


def test_windowed_recursion_matches_dense_sums_at_high_level():
    # the recursion runs on the 6k+1 states around n; the explicit sums and
    # the dense recursion build the basis from state 0
    n = 400
    spec = OscillatorSpec(4, 1.0, 0.1)
    series = rs_corrections(spec, n, max_order=3)
    assert series.basis_dim == n + 13
    assert series.corrections[1] == pytest.approx(second_order_sum(spec, n), rel=1e-12)
    assert series.corrections[2] == pytest.approx(third_order_sum(spec, n), rel=1e-12)
    # every well and coupling against the dense recursion (the explicit
    # third-order double sum itself drifts from the dense recursion by up to
    # 3e-11 relative at n = 400, e.g. quartic lam = 1, so it is no finer check)
    for k in (4, 6, 8):
        for lam in (0.1, 1.0, 10.0):
            spec = OscillatorSpec(k, 1.0, lam)
            sol = level_solution(spec, n)
            dense = _rs_run(perturbation_matrix(spec, n, n + 3 * k + 1), sol.w, n, 4)
            got = rs_corrections(spec, n, max_order=4).corrections
            assert got[1] == pytest.approx(second_order_sum(spec, n), rel=1e-12), (k, lam)
            for order in (1, 2, 3):
                assert got[order] == pytest.approx(dense[order], rel=1e-13), (k, lam, order)


def test_series_blocks_do_not_grow_with_level(monkeypatch):
    import effosc.ipt as ipt_module

    built = []
    original = ipt_module.position_power_matrix

    def spy(k, w, dim, start=0):
        built.append(dim)
        return original(k, w, dim, start)

    monkeypatch.setattr(ipt_module, "position_power_matrix", spy)
    for k in (4, 6, 8):
        spec = OscillatorSpec(k, 1.0, 0.1)
        for n in (10**5, 10**6):
            built.clear()
            series = rs_corrections(spec, n, max_order=4)
            assert series.basis_dim == n + 3 * k + 1
            assert all(math.isfinite(c) for c in series.partial_sums)
            # two builds for the series on the 6k+1 states |m - n| <= 3k,
            # two for the enlargement check on that window grown by k
            assert built == [6 * k + 1] * 2 + [7 * k + 1] * 2, built


# Bit-identity guards.  The `series` references hold round-off first-order
# terms, so the kernels must reproduce the last bit of the formulas they
# replaced: those formulas are kept here as references and compared with
# tobytes(), where -0.0 differs from 0.0.

def _position_power_reference(k, w, dim, start):
    """f^k as np.linalg.matrix_power of the padded ladder, cut and symmetrized."""
    below = min(start, k)
    pad = below + dim + k
    f = np.zeros((pad, pad))
    first = start - below
    off = np.sqrt(np.arange(first + 1, first + pad) / (2.0 * w))
    idx = np.arange(pad - 1)
    f[idx, idx + 1] = off
    f[idx + 1, idx] = off
    m = np.linalg.matrix_power(f, k)[below:below + dim, below:below + dim]
    return 0.5 * (m + m.T)


def _rs_run_reference(v, w, n, max_order, start=0):
    """The RS recursion with a copied correction vector per order."""
    dim = v.shape[0]
    at = n - start
    gaps = w * (n - np.arange(start, start + dim, dtype=float))
    inv = np.zeros(dim)
    nz = np.arange(dim) != at
    inv[nz] = 1.0 / gaps[nz]
    psi = [np.zeros(dim)]
    psi[0][at] = 1.0
    energies = []
    for order in range(1, max_order + 1):
        vc = v @ psi[order - 1]
        energies.append(float(vc[at]))
        correction = vc.copy()
        for back in range(1, order):
            correction -= energies[back - 1] * psi[order - back]
        new = correction * inv
        new[at] = 0.0
        psi.append(new)
    return energies


def _series_windows(k, n):
    """(start, dim) of the two windows `rs_corrections` builds for level n."""
    lo, top = max(0, n - 3 * k), n + 3 * k + 1
    return [(lo, top - lo), (lo, top + k - lo)]


def test_position_power_matrix_is_bit_identical_to_matrix_power():
    rng = np.random.default_rng(25)
    windows = sorted({win for k in (4, 6, 8) for n in (0, 1, 2, 5, 20, 400, 2000, 10**5)
                      for win in _series_windows(k, n)})
    ws = list(10.0 ** np.arange(-3, 4)) + list(10.0 ** rng.uniform(-3.0, 3.0, 5))
    for k in range(1, 9):
        for start, dim in windows + [(0, 1), (1, 1), (3, 2)]:
            for w in ws:
                got = position_power_matrix(k, w, dim, start)
                want = _position_power_reference(k, w, dim, start)
                assert np.array_equal(got, want), (k, w, dim, start)
                assert got.tobytes() == want.tobytes(), (k, w, dim, start)


def test_rs_corrections_are_bit_identical_to_the_copying_recursion():
    rng = np.random.default_rng(2025)
    for _ in range(60):
        k = int(rng.choice([4, 6, 8]))
        lam = float(10.0 ** rng.uniform(-2.0, 1.0))
        n = int(rng.choice([0, 1, 2, 3, 7, 20, 100, 400, 2000]))
        spec = OscillatorSpec(k, 1.0, lam)
        sol = level_solution(spec, n)
        (lo, dim), _ = _series_windows(k, n)
        want = _rs_run_reference(perturbation_matrix(spec, n, dim, lo), sol.w, n, 4, lo)
        sums = [sol.E0]
        for e in want:
            sums.append(sums[-1] + e)
        for order in range(1, 5):
            series = rs_corrections(spec, n, max_order=order)
            ident = (k, lam, n, order)
            assert np.array(series.corrections).tobytes() == np.array(want[:order]).tobytes(), ident
            assert np.array(series.partial_sums).tobytes() == np.array(sums[:order + 1]).tobytes(), ident
