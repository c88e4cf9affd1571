"""Non-polynomial entire solutions of sigma_k(D^2 u) = 1 for 2k = n + 1.

Constructs the explicit solution family u(x, t) = r^2 e^t + h(t), decides
ellipticity-cone membership, and verifies the construction both by seeded
numerical scans and by exact rational expansion of sigma_k.
"""

from .cone import (
    ConeVerdict,
    cone_verdicts,
    deformation_monotonicity_check,
    gamma_k,
)
from .errors import CapabilityError, ConvergenceError
from .solution import (
    Jet2,
    Point,
    SolutionParams,
    cancellation_coefficient,
    derive_constants,
    eval_jet,
    extend,
    h_eval,
    h_formula,
    solution_value,
)
from .symbolic import (
    Certification,
    SymMatrix,
    build_rotated_hessian,
    sym_add,
    sym_det,
    sym_mul,
    sym_sigma_k,
    sym_sigmas,
    verify_exact,
)
from .symfunc import (
    SigmaVector,
    Spectrum,
    SymmetricMatrix,
    eigenvalues_symmetric,
    elementary_symmetric,
    sigma_all_via_charpoly,
    sigma_via_minors,
)
from .verify import (
    ResidualReport,
    SampleBox,
    fd_hessian,
    nonpoly_witness,
    residual_scan,
    sl_phase,
    split_indicator,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "Certification",
    "ConeVerdict",
    "ConvergenceError",
    "Jet2",
    "Point",
    "ResidualReport",
    "SampleBox",
    "SigmaVector",
    "SolutionParams",
    "Spectrum",
    "SymMatrix",
    "SymmetricMatrix",
    "build_rotated_hessian",
    "cancellation_coefficient",
    "cone_verdicts",
    "deformation_monotonicity_check",
    "derive_constants",
    "eigenvalues_symmetric",
    "elementary_symmetric",
    "eval_jet",
    "extend",
    "fd_hessian",
    "gamma_k",
    "h_eval",
    "h_formula",
    "nonpoly_witness",
    "residual_scan",
    "sigma_all_via_charpoly",
    "sigma_via_minors",
    "sl_phase",
    "solution_value",
    "split_indicator",
    "sym_add",
    "sym_det",
    "sym_mul",
    "sym_sigma_k",
    "sym_sigmas",
    "verify_exact",
]
