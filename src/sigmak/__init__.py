"""Non-polynomial entire solutions of sigma_k(D^2 u) = 1 for 2k = n + 1.

Constructs the explicit solution family u(x, t) = r^2 e^t + h(t), decides
ellipticity-cone membership, and verifies the construction both by seeded
numerical scans and by exact rational expansion of sigma_k.

The package exports what the ``sigmak`` command, the acceptance checks, the
README's quick start and the benchmark call; import the rest from its module.
"""

from .cone import ConeVerdict, gamma_k
from .errors import ConvergenceError
from .solution import (
    Point,
    SolutionParams,
    cancellation_coefficient,
    derive_constants,
    eval_jet,
    h_formula,
)
from .symbolic import Certification, verify_exact
from .symfunc import eigenvalues_symmetric, elementary_symmetric
from .verify import ResidualReport, SampleBox, residual_scan, sl_phase

__version__ = "0.1.0"

__all__ = [
    "Certification",
    "ConeVerdict",
    "ConvergenceError",
    "Point",
    "ResidualReport",
    "SampleBox",
    "SolutionParams",
    "cancellation_coefficient",
    "derive_constants",
    "eigenvalues_symmetric",
    "elementary_symmetric",
    "eval_jet",
    "gamma_k",
    "h_formula",
    "residual_scan",
    "sl_phase",
    "verify_exact",
]
