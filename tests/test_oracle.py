import math

import numpy as np
import pytest

import effosc.oracle as oracle_module
from reference_tables import qes_levels
from effosc.errors import OracleConvergenceError
from effosc.model import OscillatorSpec
from effosc.oracle import exact_levels, hamiltonian_matrix
from effosc.spectrum import level_solution


def _doubled(spec, n_max, rel_tol, basis_w):
    """The oracle's doubling in one explicit basis, which must converge there."""
    res, at_floor = oracle_module._doubled_spectrum(spec, n_max, rel_tol, basis_w)
    assert not at_floor
    return res


def _sparse_position_power_diagonals(k, basis_w, dim):
    """The oracle's f² and f^k diagonals as first built, from SciPy CSR products."""
    import scipy.sparse

    pad = dim + k
    off = np.sqrt(np.arange(1, pad) / (2.0 * basis_w))
    f = scipy.sparse.diags([off, off], [1, -1], format="csr")
    f2 = f @ f
    f4 = f2 @ f2
    fk = {4: f4, 6: f4 @ f2, 8: f4 @ f4}[k]

    def diagonals(m, power):
        return {o: np.asarray(m.diagonal(o))[: max(dim - o, 0)] for o in range(0, power + 1, 2)}

    return diagonals(f2, 2), diagonals(fk, k)


def test_band_products_match_the_sparse_products_bit_for_bit():
    # the octic Table-5 stopping margin (pinned by
    # test_default_basis_moves_to_mid_spectrum_at_the_floor) needs the
    # matrix elements exact to the last bit, not merely close
    rng = np.random.default_rng(20)
    cases = [(k, 1.0, dim) for k in (4, 6, 8) for dim in range(4, k + 2)]  # bands cut off
    cases += [(int(rng.choice([4, 6, 8])), float(10.0 ** rng.uniform(-3, 3)),
               int(np.exp(rng.uniform(np.log(4), np.log(1313))))) for _ in range(3000)]
    for k, w, dim in cases:
        got = oracle_module._position_power_diagonals(k, w, dim)
        for built, ref in zip(got, _sparse_position_power_diagonals(k, w, dim)):
            assert built.keys() == ref.keys(), (k, w, dim)
            for o in ref:
                assert np.array_equal(built[o], ref[o]), (k, w, dim, o)


def test_hamiltonian_matrix_ground_diagonal():
    # <0|H|0> in the unit-frequency basis: 1/4 + g/4 + 3 lam/4
    m = hamiltonian_matrix(OscillatorSpec(4, 1.0, 0.1), 1.0, 6)
    assert m[0, 0] == pytest.approx(0.575, rel=1e-13)
    m2 = hamiltonian_matrix(OscillatorSpec(4, -1.0, 0.1), 1.0, 6)
    assert m2[0, 0] == pytest.approx(0.25 - 0.25 + 0.075, rel=1e-12)


def test_hamiltonian_matrix_structure():
    for spec in (OscillatorSpec(4, 1.0, 0.5), OscillatorSpec(6, -3.0, 0.5), OscillatorSpec(8, 1.0, 0.2)):
        full = hamiltonian_matrix(spec, 1.4, 18)
        # 4..k+1 states: bands that reach past the block are cut off, not misaligned
        for dim in (*range(4, spec.k + 2), 18):
            m = hamiltonian_matrix(spec, 1.4, dim)
            assert np.array_equal(m, full[:dim, :dim])
            assert np.array_equal(m, m.T)
            for i in range(dim):
                for j in range(dim):
                    if abs(i - j) > spec.k:
                        assert m[i, j] == 0.0
                    if (i - j) % 2 == 1:
                        assert m[i, j] == 0.0  # even interaction preserves parity


def test_parity_blocks_match_dense_diagonalization():
    # the production path splits even/odd sectors; cross-check against a
    # dense solve of the same truncated matrix
    for spec, basis_w in [
        (OscillatorSpec(4, 1.0, 1.0), 1.5),
        (OscillatorSpec(6, -3.0, 0.5), 2.0),
        (OscillatorSpec(8, 1.0, 0.3), 1.8),
    ]:
        # loose rel_tol: the comparison is block-vs-dense at the same
        # truncation, so convergence of the truncation itself is immaterial
        res = _doubled(spec, 5, 1e-6, basis_w)
        # the upper triangle: at k = 8 and 192 states the lower one is 1e-8 off
        dense = np.linalg.eigvalsh(hamiltonian_matrix(spec, basis_w, res.dim), UPLO="U")
        for got, want in zip(res.eigenvalues, dense):
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want))), spec


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("offset, i, bad", [(0, 0, math.inf), (0, 9, -math.inf), (2, 5, math.nan),
                                            (4, 2, math.inf)])
def test_non_finite_element_is_refused_by_name(k, offset, i, bad):
    # LAPACK would print to stdout on it; the message names the element
    diags = oracle_module._hamiltonian_diagonals(OscillatorSpec(k, 1.0, 1.0), 1.5, 12)
    diags[offset][i] = bad
    with pytest.raises(OracleConvergenceError) as exc:
        oracle_module._parity_block_eigenvalues(diags, 12, k)
    assert str(exc.value) == ("the 12-state Hamiltonian has a non-finite element H[%d, %d] = %r"
                              % (i, i + offset, bad))


def test_ground_state_variational_bound():
    # the optimized Gaussian expectation is a rigorous upper bound on E_0
    for spec in (
        OscillatorSpec(4, 1.0, 0.1),
        OscillatorSpec(4, 1.0, 100.0),
        OscillatorSpec(4, -1.0, 0.05),
        OscillatorSpec(6, 1.0, 0.5),
        OscillatorSpec(6, -3.0, 0.5),
        OscillatorSpec(8, 1.0, 1.0),
    ):
        e_lo = level_solution(spec, 0).E0
        e_exact = exact_levels(spec, 0).eigenvalues[0]
        assert e_lo >= e_exact - 1e-10, spec


def test_basis_frequency_independence():
    spec = OscillatorSpec(4, 1.0, 1.0)
    a = exact_levels(spec, 6)  # default basis_w from the level-0 solution
    b = _doubled(spec, 6, 1e-10, 1.0)
    c = _doubled(spec, 6, 1e-10, 3.0)
    for i in range(7):
        scale = max(1.0, abs(a.eigenvalues[i]))
        assert abs(a.eigenvalues[i] - b.eigenvalues[i]) < 1e-8 * scale
        assert abs(a.eigenvalues[i] - c.eigenvalues[i]) < 1e-8 * scale


def test_truncation_is_monotone_from_above():
    # Rayleigh-Ritz: enlarging the basis can only lower each level
    spec = OscillatorSpec(4, 1.0, 10.0)
    small = np.linalg.eigvalsh(hamiltonian_matrix(spec, 2.0, 24))[:5]
    large = np.linalg.eigvalsh(hamiltonian_matrix(spec, 2.0, 48))[:5]
    assert np.all(small >= large - 1e-12)


def test_frozen_exact_levels():
    ev = exact_levels(OscillatorSpec(4, 1.0, 0.1), 40).eigenvalues
    want = {0: 0.55914633, 1: 1.76950264, 2: 3.13862431, 4: 6.22030090, 10: 17.35190764, 40: 95.56016999}
    for n, e in want.items():
        assert ev[n] == pytest.approx(e, abs=5e-8), n
    ev1 = exact_levels(OscillatorSpec(4, 1.0, 1.0), 10).eigenvalues
    assert ev1[0] == pytest.approx(0.80377065, abs=5e-8)
    assert ev1[10] == pytest.approx(32.93326304, abs=5e-8)


def test_convergence_metadata():
    res = exact_levels(OscillatorSpec(4, 1.0, 0.1), 3, rel_tol=1e-10)
    assert res.dim >= 16
    assert len(res.eigenvalues) == 4
    assert len(res.convergence_estimate) == 4
    for e, est in zip(res.eigenvalues, res.convergence_estimate):
        assert est < 1e-10 * max(1.0, abs(e))


def test_input_validation():
    spec = OscillatorSpec(4, 1.0, 0.1)
    with pytest.raises(ValueError):
        exact_levels(spec, -1)
    with pytest.raises(ValueError):
        exact_levels(spec, 0, rel_tol=1e-13)


def test_dimension_cap_raises_with_partial_spectrum(monkeypatch):
    monkeypatch.setattr(oracle_module, "DIM_CAP", 32)
    with pytest.raises(OracleConvergenceError) as err:
        exact_levels(OscillatorSpec(4, 1.0, 100.0), 40)
    part = err.value.spectrum
    if part is not None:
        assert len(part.eigenvalues) == 41


def _counting_blocks(monkeypatch):
    dims = []
    real = oracle_module._parity_block_eigenvalues

    def counted(diags, dim, k):
        dims.append(dim)
        return real(diags, dim, k)

    monkeypatch.setattr(oracle_module, "_parity_block_eigenvalues", counted)
    return dims


def test_dimension_cap_bounds_the_parity_block(monkeypatch):
    # quartic lam=100 converges at 656 states, whose even block has 328
    spec = OscillatorSpec(4, 1.0, 100.0)
    dims = _counting_blocks(monkeypatch)
    monkeypatch.setattr(oracle_module, "DIM_CAP", 81)  # the 164-state start has blocks of 82
    with pytest.raises(OracleConvergenceError) as err:
        exact_levels(spec, 40)
    assert err.value.spectrum is None and dims == []
    monkeypatch.setattr(oracle_module, "DIM_CAP", 328)
    assert exact_levels(spec, 40).dim == 656
    monkeypatch.setattr(oracle_module, "DIM_CAP", 327)
    with pytest.raises(OracleConvergenceError) as err:
        exact_levels(spec, 40)
    part = err.value.spectrum
    assert part.dim == 328
    assert len(part.eigenvalues) == len(part.convergence_estimate) == 41


def test_explicit_basis_stops_at_the_round_off_floor(monkeypatch):
    # at level 0's frequency the octic levels 0..14 stop converging near 480
    # states; the doubling must stop there, not run on to the cap
    spec = OscillatorSpec(8, 1.0, 1.0)
    dims = _counting_blocks(monkeypatch)
    part, at_floor = oracle_module._doubled_spectrum(spec, 14, 1e-10, level_solution(spec, 0).w)
    assert at_floor
    assert max(dims) <= 960 and len(dims) <= 5
    assert part.dim == max(dims)
    assert part.basis_w == level_solution(spec, 0).w
    assert len(part.eigenvalues) == len(part.convergence_estimate) == 15


def test_default_basis_moves_to_mid_spectrum_at_the_floor(monkeypatch):
    # the Table-5 run misses the tolerance at 480 states in the level-0 basis
    # by only 2.3e-11, so a round-off change in the matrix elements can stop
    # it there instead: pin every size built, in both bases
    spec = OscillatorSpec(8, 1.0, 1.0)
    dims = _counting_blocks(monkeypatch)
    res = exact_levels(spec, 14)
    assert res.dim == 240
    assert res.basis_w == level_solution(spec, 7).w
    assert dims == [60, 120, 240, 480, 960, 60, 120, 240]  # restarted from 4 (n_max + 1) states
    assert max(res.convergence_estimate) < 1e-10


def test_floor_in_the_moved_basis_raises_with_its_spectrum(monkeypatch):
    # a floor in both bases is an error, reported with the moved basis's spectrum
    spec = OscillatorSpec(8, 1.0, 1.0)
    real = oracle_module._doubled_spectrum
    bases = []

    def always_at_floor(spec, n_max, rel_tol, basis_w):
        bases.append(basis_w)
        return real(spec, n_max, rel_tol, basis_w)[0], True

    monkeypatch.setattr(oracle_module, "_doubled_spectrum", always_at_floor)
    with pytest.raises(OracleConvergenceError, match="round-off floor, 240 states") as err:
        exact_levels(spec, 14)
    assert bases == [level_solution(spec, 0).w, level_solution(spec, 7).w]
    assert err.value.spectrum.basis_w == bases[-1] and err.value.spectrum.dim == 240


# The oracle runs on the published grids, with the dimension each converges
# at from the level-0 basis; a change of basis or stopping rule shows here.
_PUBLISHED_GRID_DIMS = [
    (4, 1.0, 40, {0.1: 328, 1.0: 328, 10.0: 656, 100.0: 656}),
    (4, -1.0, 10, {0.1: 352, 1.0: 176, 10.0: 176, 100.0: 176}),
    (6, 1.0, 17, {0.1: 288, 1.0: 288, 5.0: 288, 50.0: 288, 200.0: 288}),
    (6, 3.0, 19, {0.5: 320}),
    (6, -3.0, 20, {0.5: 672}),
]


@pytest.mark.parametrize("k, g, n_max, dims", _PUBLISHED_GRID_DIMS)
def test_published_grids_keep_the_level0_basis(k, g, n_max, dims):
    for lam, dim in dims.items():
        spec = OscillatorSpec(k, g, lam)
        res = exact_levels(spec, n_max)
        assert res.basis_w == level_solution(spec, 0).w, lam
        assert res.dim == dim, lam


def test_exact_levels_hold_the_quasi_exactly_solvable_sextic_levels():
    # every level n = 2j + p of the QES sextic wells lam = a²/2, g = -(4J+3+2p)a;
    # worst 1.5e-12 of max(1, |E|), at the J = 0 zero energies (8e-15 for J >= 1)
    for a in (0.1, 1.0, 10.0):
        for J in range(8):
            for p in (0, 1):
                spec = OscillatorSpec(6, -(4 * J + 3 + 2 * p) * a, a * a / 2.0)
                got = exact_levels(spec, 2 * J + p).eigenvalues
                for j, want in enumerate(qes_levels(a, J, p)):
                    assert abs(got[2 * j + p] - want) <= 5e-12 * max(1.0, abs(want)), (a, J, p, j)
