"""Exception types shared across the solver modules."""


class SolverError(Exception):
    """Base class for numerical failures tied to a violated precondition."""


class NoPhysicalRoot(SolverError):
    """Broken-symmetry frequency equation has no real root at this coupling.

    Carries the critical coupling so callers can report how far out of
    range the request was.
    """

    def __init__(self, lam, lam_c):
        self.lam = lam
        self.lam_c = lam_c
        super().__init__(
            "no physical broken-symmetry root: coupling %g exceeds the "
            "critical coupling %.7g" % (lam, lam_c)
        )


class NoSSBSolution(SolverError):
    """No non-negative displacement-squared solves the stationarity condition."""


class SSBUnsupported(SolverError):
    """Operation is only defined about an undisplaced (s = 0) ground state."""


class OracleConvergenceError(SolverError):
    """Basis-doubling diagonalization hit the dimension cap or the round-off floor.

    The partially converged spectrum (if any) is attached for diagnostics.
    """

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum
