"""Self-consistent effective-oscillator approximation for quartic, sextic,
and octic self-interacting oscillators: leading-order spectra via gap
equations, perturbative improvement, vacuum-structure diagnostics,
partner-potential cross-checks, and an independent diagonalization oracle.
"""

__version__ = "0.1.0"

from .errors import (
    NoPhysicalRoot,
    NoSSBSolution,
    OracleConvergenceError,
    SolverError,
    SSBUnsupported,
)
from .gap import (
    GapProblem,
    critical_coupling,
    gap_polynomial,
    solve_gap,
)
from .ipt import (
    IPTSeries,
    TruncationWarning,
    ipt_energy,
    perturbation_matrix,
    position_power_matrix,
    rs_corrections,
)
from .model import (
    LevelFactors,
    OscillatorSpec,
    Phase,
    hamiltonian_average,
    level_factors,
    moment,
)
from .oracle import (
    OracleSpectrum,
    exact_levels,
    hamiltonian_matrix,
    lowest_eigenvalues,
)
from .spectrum import (
    EffectiveSolution,
    cea_residual,
    level_solution,
    lo_energy_closed_form,
    potential_params,
    sextic_ssb_solutions,
    ssb_displacement,
    well_referenced_energy,
)
from .susy import (
    PartnerPair,
    ground_wavefunction,
    ispp_residual,
    partner_specs,
    scaling_residual,
    wavefunction_distance,
)
from .vacuum import (
    VacuumStructure,
    bogoliubov_alpha,
    condensate_density,
    effective_potential,
    stability_gap,
    vacuum_structure,
)

__all__ = [
    "__version__",
    "SolverError", "NoPhysicalRoot", "NoSSBSolution", "SSBUnsupported",
    "OracleConvergenceError",
    "OscillatorSpec", "Phase", "LevelFactors", "level_factors", "moment",
    "hamiltonian_average",
    "GapProblem", "gap_polynomial", "critical_coupling", "solve_gap",
    "EffectiveSolution", "ssb_displacement", "potential_params",
    "level_solution", "lo_energy_closed_form", "well_referenced_energy",
    "cea_residual", "sextic_ssb_solutions",
    "IPTSeries", "TruncationWarning", "position_power_matrix",
    "perturbation_matrix", "rs_corrections", "ipt_energy",
    "OracleSpectrum", "hamiltonian_matrix", "lowest_eigenvalues",
    "exact_levels",
    "VacuumStructure", "bogoliubov_alpha", "condensate_density",
    "effective_potential", "stability_gap", "vacuum_structure",
    "PartnerPair", "partner_specs", "ispp_residual", "scaling_residual",
    "ground_wavefunction", "wavefunction_distance",
]
