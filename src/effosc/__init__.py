"""Self-consistent effective-oscillator approximation for quartic, sextic,
and octic self-interacting oscillators: leading-order spectra via gap
equations, perturbative improvement, vacuum-structure diagnostics,
partner-potential cross-checks, and an independent diagonalization oracle.

The package re-exports each module's `__all__`, which is the one list of
that module's public names.
"""

__version__ = "0.1.0"

from . import errors, gap, ipt, model, oracle, spectrum, susy, vacuum
from .errors import *
from .model import *
from .gap import *
from .spectrum import *
from .ipt import *
from .oracle import *
from .vacuum import *
from .susy import *

__all__ = ["__version__"] + [
    name
    for module in (errors, model, gap, spectrum, ipt, oracle, vacuum, susy)
    for name in module.__all__
]
