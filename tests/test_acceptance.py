"""Acceptance gate: one check per published claim, at the stated tolerance.

Each test collects every cell/clause verdict first and raises a single
composite assertion, so `pytest -v` shows exactly one pass/fail line per
claim with full diagnostics.  Where a published cell or closed form
disagrees with what the equations actually give (README "Known
deviations"), the check asserts the computed value instead, as a named and
closed exception: pinned at full precision, confirmed by a route that does
not go through the code under test, and guarded so that a drift toward the
published value fails.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import reference_tables as ref
from effosc.cli import run as cli_run
from effosc.errors import NoPhysicalRoot
from effosc.gap import critical_coupling, solve_gap
from effosc.ipt import ipt_energy, rs_corrections, second_order_sum
from effosc.model import OscillatorSpec, Phase, hamiltonian_average
from effosc.oracle import hamiltonian_matrix
from effosc.spectrum import (
    level_solution,
    lo_energy_closed_form,
    sextic_ssb_solutions,
    well_referenced_energy,
)
from effosc.susy import ground_wavefunction, partner_specs, scaling_residual, wavefunction_distance
from effosc.vacuum import condensate_density, stability_gap, vacuum_structure


def _report(title, failures, notes=()):
    lines = [title, ""]
    if notes:
        lines.append("context:")
        lines.extend("  " + n for n in notes)
        lines.append("")
    lines.append("failing checks (%d):" % len(failures))
    lines.extend("  " + f for f in failures)
    lines.append("analysis: README 'Known deviations' and the design ledger")
    return "\n".join(lines)


def _lo_minimum(spec, n):
    """Leading-order energy of level n found without the gap solver.

    Minimizes the averaged Hamiltonian of the undisplaced n-th oscillator
    state over its frequency with scipy's Brent search on log w.  The energy
    is flat at the minimum, so it is exact to rounding even though the
    minimizing w is only good to ~1e-8.
    """
    x = n + 0.5
    res = minimize_scalar(
        lambda log_w: hamiltonian_average(spec, 0.0, math.exp(log_w), x),
        bracket=(-5.0, 5.0), method="brent", tol=1e-12,
    )
    return float(res.fun)


def _lo_grid_failures(table, deviant, g, computed, referenced):
    """Verdicts for a quartic leading-order grid against its printed digits.

    `computed` maps (lam, n) to the solver's energy in the table's
    convention; `referenced(spec, e)` maps a raw energy to that convention.
    Cells named in `deviant` are printed off: each must instead equal its
    full-precision pin, equal the independent minimum of the averaged
    Hamiltonian, and still lie outside the printed tolerance, so a drift
    toward the printed value fails as surely as a drift away from the pin.
    """
    failures = []
    for lam, row in table.items():
        spec = OscillatorSpec(4, g, lam)
        for n, printed in row.items():
            got = computed[lam, n]
            tol = ref.printed_tol(printed)
            off = abs(got - float(printed))
            if (lam, n) not in deviant:
                if off > tol:
                    failures.append(
                        "lam=%g n=%d: computed %.12g vs printed %s (tol %g, off by %.2e)"
                        % (lam, n, got, printed, tol, off)
                    )
                continue
            pinned = deviant[lam, n]
            if abs(got - pinned) > 1e-10 * abs(pinned):
                failures.append(
                    "deviant cell lam=%g n=%d drifted: computed %.15g, pinned %.15g"
                    % (lam, n, got, pinned)
                )
            minimum = referenced(spec, _lo_minimum(spec, n))
            if abs(got - minimum) > 1e-12 * abs(minimum):
                failures.append(
                    "deviant cell lam=%g n=%d: computed %.15g but the minimum of <H> "
                    "over w is %.15g" % (lam, n, got, minimum)
                )
            if off <= tol:
                failures.append(
                    "deviant cell lam=%g n=%d moved onto the printed %s: computed %.15g"
                    % (lam, n, printed, got)
                )
    return failures


def test_criterion_01_quartic_lo_grid_at_printed_digits():
    t0 = time.perf_counter()
    computed = {}
    for lam, row in ref.T1_LO.items():
        spec = OscillatorSpec(4, 1.0, lam)
        for n in row:
            computed[lam, n] = level_solution(spec, n).E0
    elapsed = time.perf_counter() - t0
    failures = _lo_grid_failures(
        ref.T1_LO, ref.T1_LO_DEVIANT, 1.0, computed, lambda spec, e: e
    )
    if elapsed >= 1.0:
        failures.append("runtime %.2f s exceeds the 1 s budget" % elapsed)
    assert not failures, _report(
        "quartic single-well leading-order grid vs the printed 5-digit table",
        failures,
        notes=[
            "23/24 cells agree to +-1 in the last printed digit; the deviant cell",
            "(lam=0.1, n=40) is printed 94.843 but computed 94.8403450372, which",
            "the independent minimum of <H> over w reproduces to machine precision",
        ],
    )


def test_criterion_02_quartic_exact_grid_via_oracle(oracle):
    t0 = time.perf_counter()
    failures = []
    suspect_value = None
    for lam, row in ref.T1_EXACT.items():
        spec = OscillatorSpec(4, 1.0, lam)
        spectrum = oracle(spec, max(row))
        for n, printed in row.items():
            got = spectrum.eigenvalues[n]
            if (lam, n) == ref.T1_EXACT_SUSPECT:
                suspect_value = got
                continue
            tol = ref.printed_scale_tol(printed)
            if abs(got - float(printed)) > tol:
                failures.append(
                    "lam=%g n=%d: diagonalization %.12g vs printed %s (tol %g)"
                    % (lam, n, got, printed, tol)
                )
    # The excluded cell's recomputed value is pinned so the report cannot rot:
    # printed 90.562 sits 6% below it (and below the leading order, which is
    # impossible for this level), hence the suspected-misprint exclusion.
    if suspect_value is None or abs(suspect_value - 95.56016999) > 5e-7:
        failures.append(
            "suspect-cell report drifted: recomputed %r, pinned 95.56016999"
            % (suspect_value,)
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append("runtime %.1f s exceeds the 30 s budget" % elapsed)
    assert not failures, _report(
        "quartic single-well diagonalization column at 5e-4 of printed scale",
        failures,
        notes=["suspected-misprint cell (lam=0.1, n=40): printed 90.562, recomputed %.8f"
               % suspect_value if suspect_value is not None else ""],
    )


def test_criterion_03_quartic_dwo_well_referenced_grid():
    computed = {}
    for lam, row in ref.T2_LO.items():
        spec = OscillatorSpec(4, -1.0, lam)
        for n in row:
            computed[lam, n] = well_referenced_energy(spec, level_solution(spec, n).E0)
    failures = _lo_grid_failures(
        ref.T2_LO, ref.T2_LO_DEVIANT, -1.0, computed, well_referenced_energy
    )
    # the (lam=1, n=1) cell comes from the rational root w=2 and must be
    # exact in floating point, not merely inside tolerance
    spec = OscillatorSpec(4, -1.0, 1.0)
    sol = level_solution(spec, 1)
    if sol.w != 2.0:
        failures.append("rational-root cell: w = %r instead of exactly 2.0" % sol.w)
    if well_referenced_energy(spec, sol.E0) != 2.125:
        failures.append(
            "rational-root cell: shifted energy %r instead of exactly 2.125"
            % well_referenced_energy(spec, sol.E0)
        )
    assert not failures, _report(
        "quartic double-well well-bottom-referenced grid at printed digits",
        failures,
        notes=[
            "13/20 cells agree to +-1 last digit (including the exact rational",
            "cell 2.1250); the seven deviant cells lie on the undisplaced branch,",
            "whose frequency cubic has a single positive root for g<0, and the",
            "independent minimum of <H> over w reproduces each one; the largest",
            "outlier (lam=1, n=10) disagrees with the printed value by 0.44 while",
            "the neighbouring single-well grid matches to all printed digits",
        ],
    )


def test_criterion_04_sextic_grid_convention_and_spot_cells():
    failures = []
    # the doubled-energy / halved-coupling mapping is validated on three
    # cells disjoint from the spot set before any comparisons are trusted
    for lam_t, n in [(0.2, 1), (0.2, 4), (2.0, 6)]:
        printed = ref.T3_LO[lam_t][n]
        got = 2.0 * level_solution(OscillatorSpec(6, 1.0, lam_t / 2.0), n).E0
        if abs(got - float(printed)) > ref.printed_tol(printed):
            failures.append(
                "mapping validation lam_t=%g n=%d: 2*E(lam_t/2) = %.10g vs printed %s"
                % (lam_t, n, got, printed)
            )
    spots = [(0.2, 0), (2.0, 0), (10.0, 0), (2.0, 10),
             (100.0, 0), (400.0, 0), (2000.0, 0), (10.0, 4)]
    for lam_t, n in spots:
        printed = ref.T3_LO[lam_t][n]
        got = 2.0 * level_solution(OscillatorSpec(6, 1.0, lam_t / 2.0), n).E0
        if abs(got - float(printed)) > ref.printed_tol(printed):
            failures.append(
                "spot cell lam_t=%g n=%d: computed %.10g vs printed %s"
                % (lam_t, n, got, printed)
            )
    assert not failures, _report(
        "sextic single-well doubled-convention spot cells", failures
    )


def test_criterion_05_octic_grid_spot_cells():
    failures = []
    for lam_t, n in [(0.1, 0), (1.0, 0), (1.0, 1)]:
        printed = ref.T5_LO[lam_t][n]
        got = 2.0 * level_solution(OscillatorSpec(8, 1.0, lam_t), n).E0
        if abs(got - float(printed)) > ref.printed_tol(printed):
            failures.append(
                "spot cell lam_t=%g n=%d: computed %.10g vs printed %s"
                % (lam_t, n, got, printed)
            )
    assert not failures, _report(
        "octic single-well doubled-energy spot cells", failures
    )


def test_criterion_06_partner_grids_and_exact_interlacing(oracle):
    failures = []
    pair = partner_specs(1.0)
    for n in range(20):
        got = 2.0 * level_solution(pair.aho, n).E0
        want = float(ref.T4_AHO[n])
        if abs(got - want) > 1e-4 * abs(want):
            failures.append("single-well level %d: %.8g vs printed %s" % (n, got, ref.T4_AHO[n]))
        got = 2.0 * level_solution(pair.dwo, n + 1).E0
        want = float(ref.T4_DWO[n])
        if abs(got - want) > 1e-4 * abs(want):
            failures.append("well level %d: %.8g vs printed %s" % (n + 1, got, ref.T4_DWO[n]))
    aho = oracle(pair.aho, 6)
    dwo = oracle(pair.dwo, 7)
    for n in range(6):
        residual = 2.0 * (dwo.eigenvalues[n + 1] - aho.eigenvalues[n])
        if abs(residual) > 1e-8:
            failures.append("exact interlacing defect at n=%d: %.3e" % (n, residual))
    ground = 2.0 * dwo.eigenvalues[0]
    if abs(ground) > 1e-6:
        failures.append("exact well ground level %.3e not within 1e-6 of zero" % ground)
    assert not failures, _report(
        "partner-pair doubled grids at 1e-4 relative plus exact interlacing", failures
    )


def test_criterion_07_strong_coupling_ratio(oracle):
    failures = []
    lam = 1e9
    scale = lam ** (1.0 / 3.0)
    spec = OscillatorSpec(4, 1.0, lam)
    lo = level_solution(spec, 0).E0 / scale
    if abs(lo - 0.68143) > 1e-4:
        failures.append("leading-order ratio %.8f vs 0.68143 +- 1e-4" % lo)
    exact = oracle(spec, 0).eigenvalues[0] / scale
    if abs(exact - 0.668) > 2e-3:
        failures.append("diagonalization ratio %.8f vs 0.668 +- 2e-3" % exact)
    assert not failures, _report("strong-coupling cube-root scaling ratios", failures)


def test_criterion_08_critical_coupling_value_and_boundary():
    failures = []
    lam_c = critical_coupling(1.0, 0.5)
    if abs(lam_c - 0.0907218) > 1e-7:
        failures.append("computed critical coupling %.10f vs 0.0907218 +- 1e-7" % lam_c)
    # the published 0.0362886 is a flagged discrepancy (ratio 2/5 of ours);
    # this guard fails if the code ever drifts toward reproducing it
    if abs(lam_c - 0.0362886) < 1e-3:
        failures.append("critical coupling collapsed onto the published 0.0362886")
    spec_below = OscillatorSpec(4, -1.0, 0.99 * lam_c)
    try:
        w = solve_gap(spec_below, 0.5, Phase.SPONTANEOUSLY_BROKEN)
        if not w > 0.0:
            failures.append("displaced root below the boundary is not positive: %r" % w)
    except NoPhysicalRoot as exc:
        failures.append("displaced solve failed just below the boundary: %s" % exc)
    try:
        solve_gap(OscillatorSpec(4, -1.0, 1.01 * lam_c), 0.5, Phase.SPONTANEOUSLY_BROKEN)
        failures.append("displaced solve just above the boundary did not raise")
    except NoPhysicalRoot as exc:
        if "critical" not in str(exc):
            failures.append("boundary diagnostic does not name the critical coupling: %s" % exc)
    assert not failures, _report(
        "discriminant critical coupling and displaced-branch boundary",
        failures,
        notes=["computed lambda_c = %.10f; published value 0.0362886 recorded as a"
               % lam_c,
               "flagged discrepancy (it equals 2/5 of the computed one)"],
    )


# Domain points (lam, n) of the quartic single well where strict decay
# |dE4| < |dE3| < |dE2| fails.  The claim promises convergence and
# improvement, not monotone decay of the first three terms, and these are
# the true series: criterion 09 reproduces each one by a contour integral.
DECAY_EXCEPTIONS = frozenset(
    [(0.1, 2), (0.3, 0), (0.3, 2), (0.5, 0), (0.5, 2)]
    + [(lam, n) for lam in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0) for n in (0, 1, 2)]
)


def _rs_by_contour(spec, n, nodes=64, radius=0.1):
    """RS corrections dE1..dE4 of level n without the recursion or its matrices.

    The full Hamiltonian is assembled by the oracle in level n's oscillator
    basis and split as H0 + lam H', with H0 the harmonic oscillator at the
    effective frequency shifted so its n-th level matches <n|H|n>.  The
    eigenvalue E(mu) of H0 + mu lam H' is tracked around the circle |mu| =
    radius, and its Taylor coefficients are the trapezoid sums of
    E(mu) / mu^j.  The basis of n + 3k + 1 states holds every state that
    orders 1..4 reach, and the parity block of n is used alone.
    """
    w = level_solution(spec, n).w
    dim = n + 3 * spec.k + 1
    keep = np.arange(n % 2, dim, 2)
    h = hamiltonian_matrix(spec, w, dim)[np.ix_(keep, keep)]
    i = n // 2
    h0 = w * (keep + 0.5)
    h0 += h[i, i] - h0[i]
    v = h - np.diag(h0)
    mu = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    eig = np.linalg.eigvals(np.diag(h0)[None] + mu[:, None, None] * v[None])
    level = eig[np.arange(nodes), np.argmin(np.abs(eig - h0[i]), axis=1)]
    return tuple(float(np.mean(level * mu ** -j).real) for j in range(1, 5))


def test_criterion_09_ipt_first_second_order_and_decay(oracle):
    failures = []
    notes = []
    # (a) the first-order correction vanishes identically
    for spec, n in [
        (OscillatorSpec(4, 1.0, 0.1), 0), (OscillatorSpec(4, 1.0, 10.0), 5),
        (OscillatorSpec(6, 1.0, 0.5), 2), (OscillatorSpec(8, 1.0, 1.0), 1),
        (OscillatorSpec(4, -1.0, 0.2), 3),
    ]:
        c1 = rs_corrections(spec, n, max_order=1).corrections[0]
        scale = max(1.0, abs(level_solution(spec, n).E0))
        if abs(c1) > 1e-14 * scale:
            failures.append("first-order correction %e survives at k=%d lam=%g n=%d"
                            % (c1, spec.k, spec.lam, n))
    # (b) second-order closed form vs the brute-force sum, ground level.  The
    # published -15 lam^2/(16 w^5) is a closed exception: at n=0 the matrix
    # element <2|lam H'|0> = -(sqrt(2)/(4 w^2))(w^3 - g w - 6 lam) carries the
    # n=0 gap equation as a factor, so that channel vanishes and only n -> n+4
    # survives, giving -lam^2 (24/(2w)^4)/(4w) = -3 lam^2/(8 w^5).  Halving
    # <n+2|f^4|n> reproduces the published form (-6/16 - 9/16 = -15/16).
    for lam in (0.1, 1.0):
        spec = OscillatorSpec(4, 1.0, lam)
        sol = level_solution(spec, 0)
        w = sol.w
        c2_recursion = rs_corrections(spec, 0, max_order=2).corrections[1]
        c2_sum = second_order_sum(spec, 0)
        stated = -15.0 * lam ** 2 / (16.0 * w ** 5)
        actual_form = -3.0 * lam ** 2 / (8.0 * w ** 5)
        if abs(c2_recursion - c2_sum) > 1e-12 * max(1.0, abs(c2_sum)):
            failures.append(
                "independent second-order routes disagree at lam=%g: %.15g vs %.15g"
                % (lam, c2_recursion, c2_sum)
            )
        if abs(c2_sum - actual_form) > 1e-12:
            failures.append(
                "lam=%g: brute-force sum %.15g and recursion %.15g do not match the "
                "derived -3 lam^2/(8 w^5) = %.15g" % (lam, c2_sum, c2_recursion, actual_form)
            )
        # guard: the published form is 5/2 of the derived one; a result that
        # drifts past halfway toward it fails
        if abs(c2_sum - stated) <= 0.5 * abs(stated - actual_form):
            failures.append(
                "lam=%g: second-order sum %.15g drifted toward the published "
                "-15 lam^2/(16 w^5) = %.15g" % (lam, c2_sum, stated)
            )
        # the oracle sides with the derived form
        exact = oracle(spec, 0).eigenvalues[0]
        if not abs(sol.E0 + actual_form - exact) < abs(sol.E0 + stated - exact):
            failures.append(
                "lam=%g: E0 - 3 lam^2/(8 w^5) = %.10f is not closer to the exact %.10f "
                "than the published form's %.10f"
                % (lam, sol.E0 + actual_form, exact, sol.E0 + stated)
            )
    # (c) order-2 beats the effective oscillator against diagonalization on
    # at least 80% of the published single-well and well grids
    wins, losses = 0, []
    cells = 0
    for table, g in ((ref.T1_LO, 1.0), (ref.T2_LO, -1.0)):
        for lam, row in table.items():
            spec = OscillatorSpec(4, g, lam)
            spectrum = oracle(spec, max(row))
            for n in row:
                exact = spectrum.eigenvalues[n]
                lo = level_solution(spec, n).E0
                e2 = ipt_energy(spec, n, order=2)
                cells += 1
                if abs(e2 - exact) < abs(lo - exact):
                    wins += 1
                else:
                    losses.append("g=%g lam=%g n=%d" % (g, lam, n))
    notes.append("order-2 improves on the effective oscillator at %d/%d cells (%.1f%%)"
                 % (wins, cells, 100.0 * wins / cells))
    if losses:
        notes.append("cells where it does not: " + ", ".join(losses))
    if wins < 0.80 * cells:
        failures.append("improvement fraction %.1f%% below the 80%% bar"
                        % (100.0 * wins / cells))
    # (d) strict order decay over the stated domain, except at the closed set
    # of low levels where the true series does not decay monotonically
    violations = set()
    corrections = {}
    for lam in (0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
        spec = OscillatorSpec(4, 1.0, lam)
        for n in range(11):
            c = rs_corrections(spec, n, max_order=4).corrections
            corrections[lam, n] = c
            if not (abs(c[3]) < abs(c[2]) < abs(c[1])):
                violations.add((lam, n))
    notes.append(
        "strict order decay |dE4| < |dE3| < |dE2| holds at %d/99 domain points"
        % (99 - len(violations))
    )
    for label, cells in (("new", violations - DECAY_EXCEPTIONS),
                         ("missing", DECAY_EXCEPTIONS - violations)):
        for lam, n in sorted(cells):
            c = corrections[lam, n]
            failures.append(
                "%s decay exception lam=%g n=%d: |dE2|=%.3e |dE3|=%.3e |dE4|=%.3e"
                % (label, lam, n, abs(c[1]), abs(c[2]), abs(c[3]))
            )
    for lam, n in sorted(DECAY_EXCEPTIONS):
        c = corrections[lam, n]
        contour = _rs_by_contour(OscillatorSpec(4, 1.0, lam), n)
        worst = max(abs(a - b) for a, b in zip(c, contour))
        if worst > 1e-9:
            failures.append(
                "decay exception lam=%g n=%d: recursion %s vs contour %s (off by %.2e)"
                % (lam, n, ["%.10g" % v for v in c], ["%.10g" % v for v in contour], worst)
            )
        if abs(contour[3]) < abs(contour[2]) < abs(contour[1]):
            failures.append(
                "decay exception lam=%g n=%d: the contour series decays strictly" % (lam, n)
            )
    # (e) the ground-cell order-2 value is reported, not hidden
    spec = OscillatorSpec(4, 1.0, 0.1)
    sol = level_solution(spec, 0)
    computed = ipt_energy(spec, 0, order=2)
    stated_form_value = sol.E0 - 15.0 * 0.1 ** 2 / (16.0 * sol.w ** 5)
    notes.append(
        "ground-cell order-2 energy: %.10f computed; %.6f if the stated closed "
        "form were substituted; 0.5591 printed" % (computed, stated_form_value)
    )
    if abs(computed - 0.5589266589) > 1e-9:
        failures.append("computed order-2 ground energy drifted from 0.5589266589")
    if abs(stated_form_value - 0.556855) > 5e-6:
        failures.append("stated-form reconstruction drifted from 0.556855")
    assert not failures, _report(
        "improved-perturbation-series properties", failures, notes
    )


def test_criterion_10_effective_vacuum_properties():
    failures = []
    for lam in np.logspace(-3.0, 3.0, 25):
        gap = stability_gap(float(lam))
        if not gap < 0.0:
            failures.append("stability gap %.3e not negative at lam=%g" % (gap, lam))
    vs = vacuum_structure(0.1)
    if abs(vs.n0 - 0.010016) > 1e-6:
        failures.append("condensate density %.8f vs 0.010016 +- 1e-6 at lam=0.1" % vs.n0)
    big = vacuum_structure(1e9)
    ratio = big.n0 / 1e9 ** (1.0 / 3.0)
    want = 6.0 ** (1.0 / 3.0) / 4.0
    if abs(ratio - want) > 0.01 * want:
        failures.append("asymptotic density ratio %.8f vs %.8f within 1%%" % (ratio, want))
    for lam in np.logspace(-3.0, 3.0, 19):
        v = vacuum_structure(float(lam))
        via_angle = math.sinh(v.alpha) ** 2
        via_freqs = condensate_density(1.0, v.w)
        if abs(via_angle - via_freqs) > 1e-14:
            failures.append(
                "density expressions disagree at lam=%g: sinh^2 %.17g vs ratio form %.17g"
                % (lam, via_angle, via_freqs)
            )
    via_angle = math.sinh(big.alpha) ** 2
    via_freqs = condensate_density(1.0, big.w)
    if abs(via_angle - via_freqs) > 1e-14 * abs(via_freqs):
        failures.append("density expressions disagree in relative terms at lam=1e9")
    assert not failures, _report("squeezed-vacuum structure properties", failures)


def test_criterion_11_partner_scaling_and_branch_ordering():
    failures = []
    for b in (0.25, 1.0, 4.0, 100.0):
        pair = partner_specs(b)
        for which, spec in (("aho", pair.aho), ("dwo", pair.dwo)):
            for n in range(21):
                e_b = level_solution(spec, n).E0
                rel = abs(scaling_residual(b, n, which)) / abs(e_b)
                if rel >= 1e-10:
                    failures.append(
                        "scaling defect %.3e at b=%g n=%d (%s)" % (rel, b, n, which)
                    )
    displaced = []
    for b in (0.25, 1.0, 4.0, 100.0):
        dwo = partner_specs(b).dwo
        for n in (0, 1, 5):
            for sol in sextic_ssb_solutions(dwo, n):
                sr = lo_energy_closed_form(dwo, n, Phase.SYMMETRY_RESTORED)
                displaced.append((b, n, sr, sol.E0))
                if sr > sol.E0:
                    failures.append(
                        "displaced branch undercuts the symmetric one at b=%g n=%d: "
                        "%.10g vs %.10g" % (b, n, sol.E0, sr)
                    )
    assert not failures, _report(
        "partner-family square-root scaling law and branch ordering",
        failures,
        notes=[
            "no displaced-branch solution exists anywhere on this family "
            "(checked b in {0.25, 1, 4, 100}, n in {0, 1, 5}; %d found), so the "
            "required ordering holds vacuously here; off this family the "
            "sextic-well ordering claim fails in deep wells - see the pinned "
            "exceptions in test_spectrum.py" % len(displaced),
        ],
    )


def test_criterion_12_wavefunction_norms_overlap_and_emission(capsys):
    failures = []
    for b in (0.25, 1.0, 100.0):
        for kind in ("susy_exact", "effective_gaussian"):
            total, err = quad(
                lambda f: float(ground_wavefunction(kind, b, [f])[0]) ** 2,
                -np.inf, np.inf,
            )
            if abs(total - 1.0) > 1e-8:
                failures.append(
                    "squared %s amplitude at b=%g integrates to %.12f" % (kind, b, total)
                )
    overlaps = {}
    for b in (0.25, 1.0, 4.0, 100.0):
        span = 6.0 / b ** 0.25
        grid = np.linspace(-span, span, 1201)
        overlaps[b], _ = wavefunction_distance(b, grid)
    spread = max(overlaps.values()) - min(overlaps.values())
    if spread > 1e-8:
        failures.append("overlap varies with b by %.3e: %r" % (spread, overlaps))
    if abs(overlaps[1.0] - 0.9842922250633706) > 1e-8:
        failures.append("overlap value drifted: %.12f" % overlaps[1.0])
    argv = ["susy", "wavefunction", "--b", "100", "--grid", "-2:2:0.005"]
    code1 = cli_run(argv)
    out1 = capsys.readouterr().out
    code2 = cli_run(argv)
    out2 = capsys.readouterr().out
    if code1 != 0 or code2 != 0:
        failures.append("sample emission exited %r/%r" % (code1, code2))
    if out1 != out2:
        failures.append("sample emission is not byte-identical across runs")
    assert not failures, _report(
        "ground-amplitude normalization, shape-invariant overlap, emission", failures
    )


def _even_block_eigenvalues_mp(spec, basis_w, size, digits):
    """Eigenvalues of the even parity block of H at `digits` digits, with mpmath.

    Built from the band alone: each column's f^k and f² elements come from
    applying the ladder form of f to one basis state, so no dense power of
    f is formed.  Independent of the float oracle's assembly.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = digits
    w = mp.mpf(basis_w)
    unit = 1 / (2 * w)  # f = sqrt(unit) (a + a†)

    def ladder_powers(j, power):
        state, powers = {j: mp.mpf(1)}, {}
        for p in range(1, power + 1):
            nxt = {}
            for i, c in state.items():
                if i > 0:
                    nxt[i - 1] = nxt.get(i - 1, 0) + c * mp.sqrt(i)
                nxt[i + 1] = nxt.get(i + 1, 0) + c * mp.sqrt(i + 1)
            state = powers[p] = nxt
        return powers

    half = spec.k // 2
    h = mp.zeros(size, size)
    for col in range(size):
        j = 2 * col
        powers = ladder_powers(j, spec.k)
        for row in range(max(0, col - half), min(size, col + half + 1)):
            i = 2 * row
            elem = spec.lam * powers[spec.k].get(i, 0) * unit ** half
            elem += mp.mpf(spec.g) / 2 * powers[2].get(i, 0) * unit
            if i == j:  # p²/2 = -(w/4)(a - a†)²
                elem += w / 2 * (j + mp.mpf(1) / 2)
            elif abs(i - j) == 2:
                elem -= w / 4 * mp.sqrt((max(i, j) - 1) * max(i, j))
            h[row, col] = elem
    return sorted(mp.eigsy(h, eigvals_only=True))


# Worst leading-order deviation (E_LO - E_exact) / E_exact on the Table 5
# grid: the ground level at lam = 200, pinned at full precision.
T5_WORST_LO_DEVIATION = ((200.0, 0), 0.11969846400225512)


def test_criterion_13_octic_lo_against_exact_grid_via_oracle(oracle):
    t0 = time.perf_counter()
    failures = []
    worst_cell, worst_dev, worst_from_n2 = None, 0.0, 0.0
    for lam in ref.T5_LO:
        spec = OscillatorSpec(8, 1.0, lam)
        spectrum = oracle(spec, 14)
        for n in range(15):
            exact = spectrum.eigenvalues[n]
            est = spectrum.convergence_estimate[n]
            if not est < 1e-10:
                failures.append("lam=%g n=%d: oracle estimate %.3g not below 1e-10" % (lam, n, est))
            dev = (level_solution(spec, n).E0 - exact) / exact
            if n == 0 and dev < 0.0:
                failures.append("lam=%g: leading-order ground level below the exact one" % lam)
            if abs(dev) > abs(worst_dev):
                worst_cell, worst_dev = (lam, n), dev
            if n >= 2:
                worst_from_n2 = max(worst_from_n2, abs(dev))
    want_cell, want_dev = T5_WORST_LO_DEVIATION
    if worst_cell != want_cell or abs(worst_dev - want_dev) > 1e-9:
        failures.append("worst leading-order deviation drifted: %r at %r, pinned %r at %r"
                        % (worst_dev, worst_cell, want_dev, want_cell))
    # spot level lam=1, n=14 (the even block's 8th level) in 30-digit arithmetic;
    # 80 even states leave a truncation error near 1e-25
    spec = OscillatorSpec(8, 1.0, 1.0)
    spectrum = oracle(spec, 14)
    spot = _even_block_eigenvalues_mp(spec, spectrum.basis_w, 80, 30)[7]
    spot_err = abs(spectrum.eigenvalues[14] - float(spot)) / float(spot)
    if spot_err > 1e-12:
        failures.append("lam=1 n=14: oracle %.17g vs 30-digit %s (relative %.2e)"
                        % (spectrum.eigenvalues[14], spot, spot_err))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append("runtime %.1f s exceeds the 30 s budget" % elapsed)
    assert not failures, _report(
        "octic single-well leading order against the converged oracle, Table 5 grid",
        failures,
        notes=["worst |E_LO/E_exact - 1| = %.4f at %r (ground levels, 4.8%%-12%%);"
               % (abs(worst_dev), worst_cell),
               "at n >= 2 it stays within %.4f" % worst_from_n2,
               "30-digit spot level lam=1 n=14 agrees to %.2e relative" % spot_err],
    )
