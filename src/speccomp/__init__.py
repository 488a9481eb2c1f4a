"""Spectral projectors and component matrices of dense complex matrices.

The package computes, for an arbitrary square complex matrix, the
eigenprojection at 0 and the full family of component matrices Z_kj (one
projector plus nilpotent ladder per distinct eigenvalue) through products
of polynomial factors in the matrix itself — no eigenvector bases needed
once the eigenvalues, multiplicities and indices are known. On top of the
components sit matrix functions, the Drazin inverse, and limiting matrices
of row-stochastic chains. An independent oracle module provides ground
truth for testing, and a CLI exposes everything for batch use.
"""

from . import applications, components, exceptions, linalg, oracle, spectrum
from .applications import *  # noqa: F401,F403
from .components import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *applications.__all__,
    *components.__all__,
    *exceptions.__all__,
    *linalg.__all__,
    *oracle.__all__,
    *spectrum.__all__,
    "__version__",
]
