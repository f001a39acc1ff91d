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
    OscillatorSpec,
    Phase,
    hamiltonian_average,
    level_x,
    moment,
)
from .oracle import (
    OracleSpectrum,
    exact_levels,
    hamiltonian_matrix,
)
from .spectrum import (
    EffectiveSolution,
    level_solution,
    lo_energy_closed_form,
    phase_solution,
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
    "OscillatorSpec", "Phase", "level_x", "moment",
    "hamiltonian_average",
    "GapProblem", "gap_polynomial", "critical_coupling", "solve_gap",
    "EffectiveSolution", "ssb_displacement", "potential_params",
    "level_solution", "phase_solution", "lo_energy_closed_form",
    "well_referenced_energy", "sextic_ssb_solutions",
    "IPTSeries", "TruncationWarning", "position_power_matrix",
    "perturbation_matrix", "rs_corrections", "ipt_energy",
    "OracleSpectrum", "hamiltonian_matrix", "exact_levels",
    "VacuumStructure", "bogoliubov_alpha", "condensate_density",
    "effective_potential", "stability_gap", "vacuum_structure",
    "PartnerPair", "partner_specs", "ispp_residual", "scaling_residual",
    "ground_wavefunction", "wavefunction_distance",
]
