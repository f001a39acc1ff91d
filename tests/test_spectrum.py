import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_tables as ref
import effosc.spectrum as spectrum
from effosc.errors import NoPhysicalRoot, NoSSBSolution, SolverError
from effosc.gap import critical_coupling
from effosc.ipt import rs_corrections
from effosc.model import OscillatorSpec, Phase, hamiltonian_average, level_x
from effosc.spectrum import (
    _sextic_ssb_residual,
    level_grid,
    level_solution,
    lo_energy_closed_form,
    phase_solution,
    sextic_ssb_solutions,
    ssb_displacement,
    well_referenced_energy,
)


def solution_families(lam_grid=(1e-3, 1e-1, 1e1, 1e3)):
    """(spec, n, solution) across all supported (k, g-sign, phase) families."""
    out = []
    for k in (4, 6, 8):
        for lam in lam_grid:
            for n in (0, 1, 5, 40):
                out.append((OscillatorSpec(k, 1.0, lam), n))
    for lam in (0.02, 0.05, 0.2, 10.0):
        for n in (0, 1, 5, 40):
            out.append((OscillatorSpec(4, -1.0, lam), n))
    for lam in (0.005, 0.05, 0.5, 10.0):
        for n in (0, 1, 5, 40):
            out.append((OscillatorSpec(6, -3.0, lam), n))
    return [(spec, n, level_solution(spec, n)) for spec, n in out]


def test_invariant_chain():
    # w^2 = g + 2 lam A;  s = lam B / w^2;  E0 = w x + h0 = <H>, which
    # holds only if C makes the residual-interaction average vanish (EQA).
    for spec, n, sol in solution_families():
        x = level_x(n)
        scale = max(1.0, abs(sol.E0))
        assert sol.w > 0.0
        assert sol.w**2 == pytest.approx(spec.g + 2.0 * spec.lam * sol.A, rel=1e-11), (spec, n)
        assert sol.s == pytest.approx(spec.lam * sol.B / sol.w**2, abs=1e-12 * max(1.0, abs(sol.s)))
        assert sol.s_sq == pytest.approx(sol.s * sol.s, rel=1e-13)
        assert sol.E0 == pytest.approx(sol.w * x + sol.h0, abs=1e-13 * scale)
        assert sol.E0 == pytest.approx(
            hamiltonian_average(spec, sol.s, sol.w, x), abs=1e-9 * scale
        ), (spec, n)


def test_closed_form_energies_match_assembled():
    # the closed form against w x + h0, assembled from the A, B, C moments
    for spec, n, sol in solution_families():
        if spec.k == 6 and sol.phase is Phase.SPONTANEOUSLY_BROKEN:
            continue  # no fixed closed form for the displaced sextic branch; E0 is w x + h0
        e = lo_energy_closed_form(spec, n, sol.phase)
        assembled = sol.w * level_x(n) + sol.h0
        assert e == pytest.approx(assembled, abs=1e-9 * max(1.0, abs(e))), (spec, n)


def test_energy_is_the_closed_form_where_C_is_not_finite():
    # w = 4.7e-104: A = 5e207 and C = NaN, so w x + h0 is NaN; E0 is the
    # closed form (x/3)(2w + g/w) that the forced-SR CLI path prints
    spec = OscillatorSpec(6, -1e-92, 1e-300)
    sol = phase_solution(spec, 0, Phase.SYMMETRY_RESTORED)
    assert math.isnan(sol.C) and math.isnan(sol.w * 0.5 + sol.h0)
    assert sol.E0 == (0.5 / 3.0) * (2.0 * sol.w + spec.g / sol.w)
    assert format(sol.E0, ".10g") == "-3.513641845e+10"
    assert lo_energy_closed_form(spec, 0, Phase.SYMMETRY_RESTORED) == sol.E0


def test_contract_examples_quartic_single_well():
    sol = level_solution(OscillatorSpec(4, 1.0, 0.1), 0)
    assert sol.phase is Phase.SYMMETRY_RESTORED
    assert sol.s == 0.0
    assert sol.w == pytest.approx(1.2211966861810775, rel=1e-12)
    assert sol.E0 == pytest.approx(0.5603, abs=1e-4)


def test_contract_examples_well_referenced():
    d = OscillatorSpec(4, -1.0, 0.1)
    sol = level_solution(d, 0)
    assert well_referenced_energy(d, sol.E0) == pytest.approx(0.5496, abs=1e-4)
    d10 = OscillatorSpec(4, -1.0, 10.0)
    assert well_referenced_energy(d10, level_solution(d10, 0).E0) == pytest.approx(1.4098, abs=1e-4)
    # lam=1, n=1 sits on the rational root w=2: the level is exactly 33/16
    d1 = OscillatorSpec(4, -1.0, 1.0)
    sol11 = level_solution(d1, 1)
    assert sol11.w == pytest.approx(2.0, abs=1e-14)
    assert sol11.E0 == pytest.approx(2.0625, abs=1e-13)
    assert well_referenced_energy(d1, sol11.E0) == pytest.approx(2.125, abs=1e-13)
    with pytest.raises(ValueError):
        well_referenced_energy(OscillatorSpec(4, 1.0, 0.1), 1.0)
    with pytest.raises(ValueError):
        well_referenced_energy(OscillatorSpec(6, -3.0, 0.1), 1.0)


def test_phase_selection_is_argmin():
    for lam in (0.02, 0.05, 0.08, 0.09):
        spec = OscillatorSpec(4, -1.0, lam)
        sr = lo_energy_closed_form(spec, 0, Phase.SYMMETRY_RESTORED)
        ssb = lo_energy_closed_form(spec, 0, Phase.SPONTANEOUSLY_BROKEN)
        sol = level_solution(spec, 0)
        want = Phase.SYMMETRY_RESTORED if sr <= ssb else Phase.SPONTANEOUSLY_BROKEN
        assert sol.phase is want, lam
        assert sol.E0 == pytest.approx(min(sr, ssb), rel=1e-12)
    # above the critical coupling only the symmetric branch exists
    spec = OscillatorSpec(4, -1.0, 0.12)
    assert level_solution(spec, 0).phase is Phase.SYMMETRY_RESTORED
    with pytest.raises(NoPhysicalRoot):
        lo_energy_closed_form(spec, 0, Phase.SPONTANEOUSLY_BROKEN)
    # a single well, the free oscillator included, has no displaced family
    for k in (4, 6, 8):
        for lam in (0.0, 0.1):
            with pytest.raises(ValueError):
                lo_energy_closed_form(OscillatorSpec(k, 1.0, lam), 0, Phase.SPONTANEOUSLY_BROKEN)


def test_quartic_phase_crossover_frozen():
    # the displaced branch wins through lam = 0.08 and loses by 0.09
    s08 = level_solution(OscillatorSpec(4, -1.0, 0.08), 0)
    assert s08.phase is Phase.SPONTANEOUSLY_BROKEN
    assert s08.E0 == pytest.approx(-0.1514296488780913, abs=1e-12)
    s09 = level_solution(OscillatorSpec(4, -1.0, 0.09), 0)
    assert s09.phase is Phase.SYMMETRY_RESTORED
    assert s09.E0 == pytest.approx(-0.10972330433625682, abs=1e-12)
    assert lo_energy_closed_form(
        OscillatorSpec(4, -1.0, 0.08), 0, Phase.SYMMETRY_RESTORED
    ) == pytest.approx(-0.15032709966689445, abs=1e-12)
    assert lo_energy_closed_form(
        OscillatorSpec(4, -1.0, 0.09), 0, Phase.SPONTANEOUSLY_BROKEN
    ) == pytest.approx(-0.0805924074571589, abs=1e-12)


def test_sextic_displaced_solutions_frozen():
    frozen = {
        0.005: (3.335652622313663, 9.261749534843007, -8.299761031968364),
        0.01: (3.280142015923354, 6.325316727158006, -5.384368479625142),
        0.02: (3.198818263320245, 4.242834084990774, -3.332869053853825),
        0.05: (3.0247159486156976, 2.378668254174938, -1.5357343831656807),
        0.1: (2.7960893758402667, 1.4123567932016399, -0.6591481806922359),
        0.2: (2.2916048067951595, 0.6341871834408335, -0.08850662231867146),
    }
    for lam, (w, s_sq, e0) in frozen.items():
        sols = sextic_ssb_solutions(OscillatorSpec(6, -3.0, lam), 0)
        assert len(sols) == 2
        assert sols[0].E0 <= sols[1].E0  # sorted by energy
        best = sols[0]
        assert best.w == pytest.approx(w, rel=1e-10)
        assert best.s_sq == pytest.approx(s_sq, rel=1e-10)
        assert best.E0 == pytest.approx(e0, rel=1e-10)
        assert best.s > 0.0
        # each displaced solution closes the variational identities
        x = 0.5
        assert best.E0 == pytest.approx(
            hamiltonian_average(best.spec, best.s, best.w, x), abs=1e-9
        )
    assert sextic_ssb_solutions(OscillatorSpec(6, -3.0, 0.5), 0) == []
    with pytest.raises(ValueError):
        sextic_ssb_solutions(OscillatorSpec(4, -1.0, 0.02), 0)
    with pytest.raises(ValueError):
        sextic_ssb_solutions(OscillatorSpec(6, 1.0, 0.5), 0)


def test_sextic_residual_on_array_matches_scalar_calls():
    # the nested residual works elementwise on a grid and on one float; the
    # displaced solver's last secant step evaluates it on floats
    for lam, n in ((0.005, 0), (0.05, 3), (0.5, 9), (0.2, 0), (1e-5, 5)):
        spec = OscillatorSpec(6, -3.0, lam)
        x = level_x(n)
        w_min = math.sqrt(45.0 * lam * (1.0 + 4.0 * x * x) / (4.0 * 3.0))
        grid = np.linspace(0.2 * w_min, 5.0 * w_min, 301)
        vals = _sextic_ssb_residual(grid, x, spec.g, lam)
        for w, v in zip(grid, vals):
            one = _sextic_ssb_residual(float(w), x, spec.g, lam)
            try:
                s_sq = ssb_displacement(spec, x, float(w))
            except NoSSBSolution:
                assert math.isnan(v) and math.isnan(one)  # no displacement below w_min
                continue
            assert s_sq >= 0.0
            assert v == pytest.approx(one, rel=1e-14, abs=1e-14 * w**4)
        assert np.isnan(vals).any() and not np.isnan(vals).all()
        # every displaced root the solver returns zeroes the nested residual
        for sol in sextic_ssb_solutions(spec, n):
            assert abs(_sextic_ssb_residual(sol.w, x, spec.g, lam)) <= 1e-12 * sol.w**4, (lam, n)


def _nested_residual_mp(mp, w, x, g, lam):
    """The nested residual of `_sextic_ssb_residual` in mpmath arithmetic."""
    b = 10 * x / w
    q = g / (6 * lam) + 15 * (1 + 4 * x * x) / (8 * w * w)
    u = (-b + mp.sqrt(b * b - 4 * q)) / 2
    return (w**4 - w * w * (g + 30 * lam * u * u)
            - 45 * lam * u * w * (1 + 4 * x * x) / (2 * x) - 15 * lam / 4 * (5 + 4 * x * x))


def test_sextic_displaced_roots_match_50_digit_nested_solve():
    # the roots come from one quartic in w² and a secant step on the nested
    # residual; a 50-digit Newton solve of the nested system itself, started
    # at each root, must agree to 1e-13 relative
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    worst, count = 0.0, 0
    for g in (-0.5, -3.0, -30.0, -1000.0):
        for lam in np.logspace(-5.0, math.log10(30.0), 20):
            lam = float(lam)
            for n in (0, 1, 5, 20):
                x = mp.mpf(n) + mp.mpf(1) / 2
                for sol in sextic_ssb_solutions(OscillatorSpec(6, g, lam), n):
                    ref = mp.findroot(lambda w: _nested_residual_mp(mp, w, x, g, mp.mpf(lam)),
                                      mp.mpf(sol.w))
                    worst = max(worst, float(abs(sol.w - ref) / ref))
                    count += 1
    assert count == 358
    assert worst <= 1e-13


def _displaced_state_mp(mp, g, lam, x, w0, u0):
    """(w, E0) of the displaced sextic state next to (w0, u0), solving the two
    stationarity conditions in (w, u = s²) at mp's precision, each condition
    and variable scaled to O(1) at the start."""
    g, lam, x = mp.mpf(g), mp.mpf(lam), mp.mpf(x)
    w0, u0 = mp.mpf(w0), mp.mpf(u0)

    def conditions(a, b):
        w, u = a * w0, b * u0
        displacement = u * u + 10 * x * u / w + g / (6 * lam) + 15 * (1 + 4 * x * x) / (8 * w * w)
        frequency = w * w - g - 2 * lam * (15 * u * u + 45 * u * (1 + 4 * x * x) / (4 * x * w)
                                           + 15 * (5 + 4 * x * x) / (8 * w * w))
        return [displacement / (u0 * u0), frequency / (w0 * w0)]

    a, b = mp.findroot(lambda a, b: conditions(a, b), (mp.mpf(1), mp.mpf(1)))
    w, u = a * w0, b * u0
    assert u > 0
    e0 = (w * x / 2 + g / 2 * (u + x / w)
          + lam * (u**3 + 15 * u * u * x / w + 15 * u * (3 + 12 * x * x) / (8 * w * w)
                   + (25 * x + 20 * x**3) / (8 * w**3)))
    return w, e0


@pytest.mark.parametrize("lam", [1e-5, 1.0])
@pytest.mark.parametrize("n", [0, 3])
def test_deep_sextic_well_keeps_its_displaced_branch(lam, n):
    # near y = w² ~ 4|g| the displaced root of P(y) and a root with Q > 0
    # are a near-double root; np.roots made them a complex pair (g = -1e11,
    # lam = 1) or an exact double root with Q > 0 (g = -1e20), and the level
    # fell back to the symmetric one, ~4x too high
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    x = level_x(n)
    cells = []
    for e in range(1, 31):
        g = -(10.0**e)
        if lam * (37.5 + 210.0 * x * x) >= 4.0 * g * g:
            continue  # K >= 4g²: no displaced state
        spec = OscillatorSpec(6, g, lam)
        outer = [sol for sol in sextic_ssb_solutions(spec, n) if sol.w * sol.w > -2.0 * g]
        assert len(outer) == 1, (g, lam, n)
        sol = outer[0]
        w, e0 = _displaced_state_mp(mp, g, lam, x, sol.w, sol.s_sq)
        assert abs(sol.w - w) <= 1e-10 * w, (g, lam, n)
        assert abs(sol.E0 - e0) <= 1e-10 * abs(e0), (g, lam, n)
        lowest = min(sextic_ssb_solutions(spec, n), key=lambda s: s.E0)
        sr = phase_solution(spec, n, Phase.SYMMETRY_RESTORED)
        want = Phase.SPONTANEOUSLY_BROKEN if lowest.E0 < sr.E0 else Phase.SYMMETRY_RESTORED
        assert level_solution(spec, n).phase is want, (g, lam, n)
        cells.append(g)
    assert len(cells) >= 29
    assert_grid_matches_level_solution(6, -1e11, [lam], [n])
    assert level_grid(6, -1e20, [lam], [n]).phase == [Phase.SPONTANEOUSLY_BROKEN]


def _outer_states_mp(mp, g, lam, x):
    """(w, u) of every root y = w² > 2|g| of the eliminated quartic P(y) with
    Q(y) < 0, from mp's roots of P at its precision."""
    g, lam, x = mp.mpf(g), mp.mpf(lam), mp.mpf(x)
    K = lam * (mp.mpf(75) / 2 + 210 * x * x)
    D = lam * (210 * x - mp.mpf(45) / 2 / x)
    P = [1, 8 * g, 16 * g * g + 2 * K - 10 * x * D,
         8 * g * K - 40 * x * D * g + D * D * g / (6 * lam),
         K * K - 10 * x * D * K + D * D * 15 * (1 + 4 * x * x) / 8]
    states = []
    for y in mp.polyroots(P, maxsteps=500, extraprec=500):
        if abs(mp.im(y)) <= mp.mpf(10) ** -40 * abs(y):
            y = mp.re(y)
            Q = y * y + 4 * g * y + K
            if y > -2 * g and Q < 0:
                states.append((mp.sqrt(y), -Q / (D * mp.sqrt(y))))
    return states


def test_outer_displaced_sextic_state_matches_a_50_digit_root_of_its_quartic():
    # the state above w² = 2|g|, solved by bracketed Newton in t = Q/S, deep
    # wells included, where P's double-precision roots lose it
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    count = 0
    for g in (-0.5, -3.0, -30.0, -1e4, -1e11, -1e13):
        for lam in (1e-5, 1e-2, 1.0):
            for n in (0, 3, 20):
                want = _outer_states_mp(mp, g, lam, level_x(n))
                got = [sol for sol in sextic_ssb_solutions(OscillatorSpec(6, g, lam), n)
                       if sol.w * sol.w > -2.0 * g]
                assert len(got) == len(want), (g, lam, n)
                for sol, (w, u) in zip(got, want):
                    assert abs(sol.w - w) <= 4 * math.ulp(float(w)), (g, lam, n)
                    assert abs(sol.s_sq - u) <= 1e-13 * u, (g, lam, n)
                    count += 1
    assert count == 39


def test_outer_displaced_sextic_state_at_its_branch_end():
    # next to the coupling where the outer state reaches w² = 2|g| and
    # vanishes, F(t) has an infinite slope at the root; Newton used to run
    # out of steps there and fail the level (g = -0.3, n = 1 below).  In t
    # the state is resolved to about sqrt(eps) at that end, not to full
    # precision, and whether the state exists is decided only to round-off.
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    for g, n, edge in [(-0.3, 1, 8.770570628532761e-05), (-0.3, 0, 0.0017459666924148343)]:
        x = level_x(n)
        for step in range(-20, 21):
            lam = edge * (1.0 + step * 2.0**-52)
            got = [sol for sol in sextic_ssb_solutions(OscillatorSpec(6, g, lam), n)
                   if sol.w * sol.w > -2.0 * g]
            for sol, (w, u) in zip(got, _outer_states_mp(mp, g, lam, x)):
                assert abs(sol.w - w) <= 2e-8 * w and abs(sol.s_sq - u) <= 2e-8 * u, (g, lam, n)


# Coupling at which the two displaced sextic states of g = -3, n = 0 merge
# and vanish: a double root of the eliminated quartic, solved at 40 digits.
SEXTIC_MERGE_LAMBDA = 0.22507567689200275662


def test_sextic_displaced_pair_found_up_to_its_merge():
    # just below the merge the pair is 3e-5 apart in w, narrower than the
    # former 512-point scan could resolve; just above it is gone
    below = OscillatorSpec(6, -3.0, SEXTIC_MERGE_LAMBDA * (1.0 - 1e-9))
    above = OscillatorSpec(6, -3.0, SEXTIC_MERGE_LAMBDA * (1.0 + 1e-6))
    pair = sextic_ssb_solutions(below, 0)
    assert len(pair) == 2
    assert pair[0].w != pair[1].w
    for sol in pair:
        assert sol.w == pytest.approx(1.9266918512745580, rel=1e-4)
    assert sextic_ssb_solutions(above, 0) == []
    # the pair lies above the symmetric state, so the selected level is the
    # symmetric one on both sides of the merge
    for spec, e0 in ((below, -0.0897570721181481), (above, -0.08975675254873472)):
        chosen = level_solution(spec, 0)
        assert chosen.phase is Phase.SYMMETRY_RESTORED
        assert chosen == phase_solution(spec, 0, Phase.SYMMETRY_RESTORED)
        assert chosen.E0 == pytest.approx(e0, rel=1e-12)


# Ground level of the sextic double well at g = -3 where the displaced
# branch lies below the symmetric one: lam -> (E_symmetric, E_displaced).
SEXTIC_DISPLACED_LOWER = {
    0.005: (-2.5337257352403384, -8.299761031968364),
    0.01: (-1.7576924896898047, -5.384368479625142),
    0.02: (-1.1953152087812091, -3.332869053853825),
    0.05: (-0.6676119898781985, -1.5357343831656807),
    0.1: (-0.37157931516393417, -0.6591481806922359),
}


def test_sextic_symmetric_branch_below_displaced_branch(oracle):
    # Contract claim: the symmetric solution is energetically favoured
    # wherever displaced solutions exist.  At g = -3 it holds at lam = 0.2,
    # and at lam = 0.5 no displaced solution exists.  In the deep wells of
    # lam <= 0.1 it is false for the true Hamiltonian: the displaced branch
    # is far lower, its energies are pinned, and the oracle ground level
    # lies just below them, as the variational principle requires.  At
    # every lam the selector keeps the lower branch.  See README "Known
    # deviations".
    failures = []
    for lam in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
        spec = OscillatorSpec(6, -3.0, lam)
        sols = sextic_ssb_solutions(spec, 0)
        sr = lo_energy_closed_form(spec, 0, Phase.SYMMETRY_RESTORED)
        chosen = level_solution(spec, 0)
        lowest = min([sr] + [sol.E0 for sol in sols])
        want = Phase.SPONTANEOUSLY_BROKEN if lowest < sr else Phase.SYMMETRY_RESTORED
        if chosen.phase is not want or abs(chosen.E0 - lowest) > 1e-12 * abs(lowest):
            failures.append("lam=%g: selector kept %s %.15g, the lowest branch is %s %.15g"
                            % (lam, chosen.phase.value, chosen.E0, want.value, lowest))
        if lam in SEXTIC_DISPLACED_LOWER:
            pin_sr, pin_displaced = SEXTIC_DISPLACED_LOWER[lam]
            if not sols:
                failures.append("lam=%g: the displaced branch vanished" % lam)
                continue
            displaced = sols[0].E0
            if not displaced < sr:
                failures.append("lam=%g: displaced %.10g no longer below symmetric %.10g"
                                % (lam, displaced, sr))
            if abs(sr - pin_sr) > 1e-10 * abs(pin_sr):
                failures.append("lam=%g: symmetric %.15g drifted from pinned %.15g"
                                % (lam, sr, pin_sr))
            if abs(displaced - pin_displaced) > 1e-10 * abs(pin_displaced):
                failures.append("lam=%g: displaced %.15g drifted from pinned %.15g"
                                % (lam, displaced, pin_displaced))
            exact = oracle(spec, 0).eigenvalues[0]
            if not exact < displaced:
                failures.append("lam=%g: oracle ground %.10g is not below the displaced "
                                "upper bound %.10g" % (lam, exact, displaced))
        elif lam == 0.5:
            if sols:
                failures.append("lam=0.5: unexpected displaced solutions %r"
                                % [sol.E0 for sol in sols])
        elif not sols or not all(sr <= sol.E0 for sol in sols):
            failures.append("lam=%g: symmetric %.10g is not below every displaced branch %r"
                            % (lam, sr, [sol.E0 for sol in sols]))
    assert not failures, "\n".join(failures)


def test_sextic_dwo_level_ordering_exceptions_documented():
    # True behaviour: per-level variational minima of the sextic double well
    # are NOT monotone in n near the boundary where the displaced branch
    # disappears — the first symmetric level can sit above the next one.
    # The claimed strict increase fails in a small-lam pocket; frozen here
    # as a regression guard.
    spec = OscillatorSpec(6, -3.0, 0.01)
    e1 = level_solution(spec, 1).E0
    e2 = level_solution(spec, 2).E0
    assert e1 == pytest.approx(-3.2762309708640904, rel=1e-10)
    assert e2 == pytest.approx(-3.3380599493909933, rel=1e-10)
    assert e1 > e2  # the documented ordering violation
    spec2 = OscillatorSpec(6, -3.0, 0.002)
    assert level_solution(spec2, 2).E0 > level_solution(spec2, 3).E0


def test_level_monotonicity_single_wells_and_quartic_dwo():
    specs = [
        OscillatorSpec(4, 1.0, 1.0),
        OscillatorSpec(6, 1.0, 0.5),
        OscillatorSpec(8, 1.0, 0.1),
        OscillatorSpec(4, -1.0, 0.005),
        OscillatorSpec(4, -1.0, 0.02),
        OscillatorSpec(4, -1.0, 0.08),
        OscillatorSpec(4, -1.0, 10.0),
        OscillatorSpec(6, -3.0, 0.0005),
        OscillatorSpec(6, -3.0, 0.05),
        OscillatorSpec(6, -3.0, 0.5),
    ]
    for spec in specs:
        es = [level_solution(spec, n).E0 for n in range(13)]
        assert all(a < b for a, b in zip(es, es[1:])), spec


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([4, 6, 8]),
    loglam=st.floats(min_value=-3.0, max_value=3.0),
    n=st.integers(min_value=0, max_value=30),
)
def test_level_monotonicity_single_well_property(k, loglam, n):
    spec = OscillatorSpec(k, 1.0, 10.0**loglam)
    assert level_solution(spec, n).E0 < level_solution(spec, n + 1).E0


def test_strong_coupling_ratio():
    e0 = level_solution(OscillatorSpec(4, 1.0, 1e9), 0).E0
    ratio = e0 / 1e9 ** (1.0 / 3.0)
    assert ratio == pytest.approx(0.6814203598923477, abs=1e-10)
    assert ratio == pytest.approx(0.68143, abs=1e-4)


def test_free_oscillator_levels():
    spec = OscillatorSpec(4, 4.0, 0.0)
    for n in (0, 3):
        sol = level_solution(spec, n)
        assert sol.w == 2.0
        assert sol.E0 == pytest.approx(2.0 * (n + 0.5), rel=1e-14)


def test_known_deviant_reference_cells_regression_guard():
    # Full-precision recomputations of every reference-table cell that
    # disagrees with its printed value beyond one unit in the last digit.
    # Guards against silent drift; the printed values are listed next to
    # each for audit (the T1 and T2 pins live in reference_tables).
    for (lam, n), want in ref.T1_LO_DEVIANT.items():
        got = level_solution(OscillatorSpec(4, 1.0, lam), n).E0
        assert got == pytest.approx(want, rel=1e-10)
        assert abs(got - float(ref.T1_LO[lam][n])) > ref.printed_tol(ref.T1_LO[lam][n])
    for (lam, n), want in ref.T2_LO_DEVIANT.items():
        spec = OscillatorSpec(4, -1.0, lam)
        got = well_referenced_energy(spec, level_solution(spec, n).E0)
        assert got == pytest.approx(want, rel=1e-10), (lam, n)
        assert abs(got - float(ref.T2_LO[lam][n])) > ref.printed_tol(ref.T2_LO[lam][n])
    t3 = {
        (0.2, 2): 7.4202523934958275,    # printed 7.240 (digit transposition)
        (0.2, 17): 111.88795298331698,   # printed 111.92
        (2000.0, 17): 1081.7141405582188,  # printed 1082.0
    }
    for (lamt, n), want in t3.items():
        got = 2.0 * level_solution(OscillatorSpec(6, 1.0, lamt / 2.0), n).E0
        assert got == pytest.approx(want, rel=1e-10), (lamt, n)
    t5 = {
        (1.0, 6): 52.6994622024399,      # printed 52.669 (digit transposition)
        (50.0, 1): 13.172228581368291,   # printed 13.1724
        (50.0, 10): 241.63916958218422,  # printed 242.64
        (200.0, 11): 368.00079155055454,  # printed 368.06
    }
    for (lamt, n), want in t5.items():
        got = 2.0 * level_solution(OscillatorSpec(8, 1.0, lamt), n).E0
        assert got == pytest.approx(want, rel=1e-10), (lamt, n)


def test_clean_reference_cells_spot():
    assert level_solution(OscillatorSpec(4, 1.0, 0.1), 0).E0 == pytest.approx(0.5603, abs=1e-4)
    spec = OscillatorSpec(4, -1.0, 1.0)
    assert well_referenced_energy(spec, level_solution(spec, 1).E0) == pytest.approx(2.1250, abs=1e-4)
    assert 2.0 * level_solution(OscillatorSpec(6, 1.0, 1.0), 0).E0 == pytest.approx(1.676, abs=1e-3)
    assert 2.0 * level_solution(OscillatorSpec(8, 1.0, 0.1), 0).E0 == pytest.approx(1.3005, abs=1e-4)
    assert 2.0 * level_solution(OscillatorSpec(6, 3.0, 0.5), 0).E0 == pytest.approx(1.9560824269169255, rel=1e-10)
    assert 2.0 * level_solution(OscillatorSpec(6, -3.0, 0.5), 1).E0 == pytest.approx(2.387215635447526, rel=1e-10)


QUARTIC_WELL = OscillatorSpec(4, 1.0, 0.1)
SEXTIC_DOUBLE_WELL = OscillatorSpec(6, -3.0, 0.001)
LEVEL_ENTRY_POINTS = {
    "level_solution": lambda n: level_solution(QUARTIC_WELL, n),
    "phase_solution": lambda n: phase_solution(QUARTIC_WELL, n, Phase.SYMMETRY_RESTORED),
    "sextic_ssb_solutions": lambda n: sextic_ssb_solutions(SEXTIC_DOUBLE_WELL, n),
    "lo_energy_closed_form": lambda n: lo_energy_closed_form(QUARTIC_WELL, n, Phase.SYMMETRY_RESTORED),
    "rs_corrections": lambda n: rs_corrections(QUARTIC_WELL, n),
    "level_grid": lambda n: _raised(level_grid(4, QUARTIC_WELL.g, [QUARTIC_WELL.lam], [n])),
}


def _raised(grid):
    grid.raise_failure()
    return grid


def _bits(value):
    """Value with every float replaced by its exact hex form, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {name: _bits(getattr(value, name)) for name in value.__dataclass_fields__}
    return value


@pytest.mark.parametrize("name", sorted(LEVEL_ENTRY_POINTS))
def test_level_index_checked_at_entry_points(name):
    call = LEVEL_ENTRY_POINTS[name]
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="level index"):
            call(bad)
    # a numpy integer level is the same level, bit for bit
    want = call(3)
    assert want != []
    assert _bits(call(np.int64(3))) == _bits(want)


# --- the batched grid solve against the per-level one -------------------------

KINDS = [(4, 1.0), (4, -1.0), (6, 1.0), (6, -1.0), (8, 1.0)]


def assert_grid_matches_level_solution(k, g, lams, levels, grid=None):
    """Every cell of `level_grid` (or of `grid`, its result on these cells) is
    `level_solution`'s (phase, w, E0) bit for bit, or fails with its error; an
    invalid coupling fails its row's first cell."""
    if grid is None:
        grid = level_grid(k, g, lams, levels)
    for i, (lam, n) in enumerate((lam, n) for lam in lams for n in levels):
        try:
            spec = OscillatorSpec(k, g, lam)
        except ValueError as exc:
            if i % len(levels) == 0:
                got = grid.failures.get(i)
                assert (type(got), str(got)) == (ValueError, str(exc)), (lam, n)
            continue
        try:
            sol = level_solution(spec, n)
        except Exception as exc:
            got = grid.failures.get(i)
            assert (type(got), str(got)) == (type(exc), str(exc)), (k, g, lam, n)
            continue
        assert i not in grid.failures, (k, g, lam, n, grid.failures.get(i))
        want = (sol.phase, sol.w.hex(), sol.E0.hex())
        assert (grid.phase[i], grid.w[i].hex(), grid.E0[i].hex()) == want, (k, g, lam, n)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    log_g=st.one_of(st.floats(min_value=-6.0, max_value=6.0), st.sampled_from([-300.0, 300.0])),
    g_zero=st.booleans(),
    loglams=st.lists(st.one_of(st.floats(min_value=-300.0, max_value=300.0), st.none()),
                     min_size=1, max_size=6),
    levels=st.lists(st.one_of(st.integers(min_value=0, max_value=12),
                              st.integers(min_value=0, max_value=10**6)), min_size=1, max_size=5),
)
def test_level_grid_matches_level_solution(kind, log_g, g_zero, loglams, levels):
    # None stands for lambda = 0: the free oscillator, and an invalid request for a double well
    k, sign = kind
    g = 0.0 if g_zero and sign > 0 and log_g > 0 else sign * 10.0**log_g
    lams = [0.0 if v is None else 10.0**v for v in loglams]
    assert_grid_matches_level_solution(k, g, lams, levels)


@pytest.mark.parametrize("k, g", KINDS + [(6, -3.0)])
def test_level_grid_matches_on_a_dense_grid(k, g):
    lams = [10.0**e for e in np.linspace(-4.0, 4.0, 41)]
    assert_grid_matches_level_solution(k, g, lams, list(range(12)) + [40, 1000])


def test_level_grid_at_the_quartic_critical_couplings():
    # the displaced branch ends at lambda_c(n), with a 1e-12 relative margin
    levels = list(range(8))
    for n in levels:
        lam_c = critical_coupling(1.0, level_x(n))
        lams = [lam_c * (1.0 + d) for d in (-2e-12, -1e-12, 0.0, 1e-12, 2e-12)]
        assert_grid_matches_level_solution(4, -1.0, lams, levels)


def test_level_grid_octic_roots_at_huge_and_shallow_couplings():
    # the lambda ranges of test_gap's huge-coupling and shallow-well root tests:
    # Newton runs out of steps from lambda ~ 1e23 on and bisection finishes
    assert_grid_matches_level_solution(8, 1.0, [1e23, 1e30, 1e100, 1e300], [0, 1, 7, 100])
    for g in (0.0, 1e-6, 0.01, 0.3):
        lams = [1e-300, 1e-200, 1e-100, 1e-60, 1e-20, 1e-6, 1e-2, 1.0, 1e6]
        assert_grid_matches_level_solution(8, g, lams, [0, 7])


@pytest.mark.parametrize("k, g, lam", [
    (6, -3.0, 1e-250),  # w^3 underflows
    (6, -1e300, 1.0),  # sqrt(g^2 + 4c) overflows, which leaves w = 0
    (6, 1e-300, 0.0),
    (8, 1e300, 1.0),  # w^4 overflows
    (6, -1e64, 1e125),  # the displaced branch's quartic overflows
    (4, -1e210, 1e100),  # the critical coupling's (2|g|/3)^1.5 overflows
    (4, -1e-100, 1e-300),  # the SR root 6e-200: w^2 underflows
    (4, -1.0, 1e-160),  # s^4 of the displaced quartic state overflows
])
def test_level_grid_failures_are_level_solutions(k, g, lam):
    assert_grid_matches_level_solution(k, g, [lam, 0.5], [0, 1])
    grid = level_grid(k, g, [lam, 0.5], [0, 1])
    with pytest.raises(SolverError) as raised:
        grid.raise_failure()
    with pytest.raises(SolverError) as want:
        level_solution(OscillatorSpec(k, g, lam), 0)
    assert str(raised.value) == str(want.value)


def test_level_grid_sextic_level_past_the_cube_overflow():
    # <f^6> takes x**3, which overflows for n ~ 1e103 in every row
    assert_grid_matches_level_solution(6, 1.0, [1.0, 1e-300], [3, 10**103])


def test_level_grid_quartic_past_the_cube_overflow():
    # (-g)^3 overflows past |g| ~ 5.6e102: the scaled cubic gives the seeds
    for g in (1e103, 1e150, 1e300, -1e103, -1e150):
        assert_grid_matches_level_solution(4, g, [1e-300, 1e-5, 1.0, 1e5, 1e300], [0, 3, 1000])


def _handed_over(monkeypatch, k, g, lams, levels):
    """The (lam, n) cells `level_grid` hands to `level_solution`, in order."""
    handed = []

    def counted(spec, n):
        handed.append((spec.lam, n))
        return level_solution(spec, n)

    monkeypatch.setattr(spectrum, "level_solution", counted)
    level_grid(k, g, lams, levels)
    monkeypatch.undo()
    return handed


@pytest.mark.parametrize("k, g, lo, hi", [
    (4, 1.0, 0.01, 10.0), (4, -1.0, 0.01, 10.0), (6, 1.0, 0.01, 10.0),
    (8, 1.0, 0.01, 1.0), (6, -3.0, 0.005, 0.1),
])
def test_level_grid_solves_the_sweep_shapes_in_its_pass(monkeypatch, k, g, lo, hi):
    # the couplings and levels of the benchmark's `spectrum` sweeps: a handed
    # over cell costs a scalar solve on top of the pass
    lams = np.geomspace(lo, hi, 400).tolist()
    assert _handed_over(monkeypatch, k, g, lams, range(10)) == []


EDGE = 2.0**250  # the plain range is (1/EDGE, EDGE)
# (k, g, lams, levels, the cells handed over): each grid mixes plain cells
# with cells just inside and just outside an edge of the plain range
PLAIN_EDGES = [
    # w: the sextic root of w^4 = 22.5 lam at x = 1/2, on both edges
    (6, 0.0, [EDGE**4 / 22.5 * (1.0 - 1e-12), EDGE**4 / 22.5 * (1.0 + 1e-12), 0.5], [0],
     [(EDGE**4 / 22.5 * (1.0 + 1e-12), 0)]),
    (6, 0.0, [EDGE**-4 / 22.5 * (1.0 + 1e-12), EDGE**-4 / 22.5 * (1.0 - 1e-12), 0.5], [0],
     [(EDGE**-4 / 22.5 * (1.0 - 1e-12), 0)]),
    # w: the quartic root of w^3 = 6 lam at x = 1/2 (its upper edge is past
    # the overflow of the seed's q^2, which fails the cell)
    (4, 0.0, [EDGE**-3 / 6.0 * (1.0 + 1e-12), EDGE**-3 / 6.0 * (1.0 - 1e-12), 0.5], [0],
     [(EDGE**-3 / 6.0 * (1.0 - 1e-12), 0)]),
    # x: a level whose x is the float just below EDGE, and x = EDGE
    (4, 1.0, [0.5, 2.0], [0, 2**250 - 2**197, 2**250], [(0.5, 2**250), (2.0, 2**250)]),
    # s^2 = (|g| - 12 lam x / w) / (4 lam) of the displaced quartic, about
    # 1/(4 lam) at g = -1; below the critical coupling s^2 is at least of
    # order |g|^(-1/2), so a plain |g| never reaches the lower edge
    (4, -1.0, [2.0**-252 * (1.0 + 1e-12), 2.0**-252 * (1.0 - 1e-12), 0.5], [10],
     [(2.0**-252 * (1.0 - 1e-12), 10)]),
    # lam = 1e300: the quartic seed's q^2 overflows, which leaves w = inf;
    # an octic root (w ~ 2.5e20) that the bracket's 200 Newton steps leave
    # open is finished by the kernel's bisection in the pass itself
    (4, 1.0, [0.5, 1e300], [0, 1], [(1e300, 0), (1e300, 1)]),
    (8, 1.0, [0.5, 1e100], [0, 1], []),
] + [
    # |g| just inside either edge, and on it: every cell or none
    (k, sign * g, [0.5, 1.0], [0, 1], [] if inside else [(0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)])
    for k, sign in [(4, 1.0), (4, -1.0), (6, 1.0), (6, -1.0)]
    for g, inside in [(np.nextafter(EDGE, 0.0), True), (EDGE, False),
                      (np.nextafter(1.0 / EDGE, 1.0), True), (1.0 / EDGE, False)]
]


@pytest.mark.parametrize("k, g, lams, levels, handed", PLAIN_EDGES)
def test_level_grid_hands_over_exactly_the_cells_outside_the_plain_range(
        monkeypatch, k, g, lams, levels, handed):
    assert _handed_over(monkeypatch, k, float(g), lams, levels) == handed
    assert_grid_matches_level_solution(k, float(g), lams, levels)


def test_level_grid_raises_the_first_failure_in_cell_order():
    # an invalid coupling in row 1 comes after the failure of row 0's second level
    grid = level_grid(6, -3.0, [1e-250, -1.0], [1, 0])
    assert sorted(grid.failures) == [0, 1, 2]
    with pytest.raises(SolverError, match="underflows"):
        grid.raise_failure()
    with pytest.raises(ValueError, match="non-negative"):
        grid.raise_failure(2)
    grid.raise_failure(3)  # a cell without a failure of its own
