"""Ellipticity-cone membership for the k-Hessian operator.

The cone is the connected component of {sigma_k > 0} containing the positive
definite matrices; we use the standard characterization "sigma_j > 0 for
j = 1..k" as the authority, plus the cheaper sufficient test "sigma_k > 0 and
at most one negative eigenvalue".  Boundary values (sigma_j numerically zero)
count as outside: the equation must stay strictly elliptic.

Both verdicts read one set of eigenvalues and their e_1..e_n
(``cone_verdicts``): the scan passes its double-double values rounded to
float64, ``gamma_k`` (behind ``cone-check``) one float Jacobi of the matrix.
The characteristic polynomial and the principal-minor sums stay in
``sigmak.symfunc`` as the test oracles of these sigmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .symfunc import (
    SigmaVector,
    SymmetricMatrix,
    eigenvalues_symmetric,
    elementary_symmetric,
)

SIGMA_BOUNDARY_REL_TOL = 1e-12  # sigma_j <= tol*(1+fro^j) is not in the open cone
NEGATIVE_EIG_REL_TOL = 1e-10  # lambda < -tol*(1+fro) counts as negative

METHOD_SIGMA_POSITIVITY = "sigma_positivity"
METHOD_LEMMA = "lemma"


@dataclass(frozen=True)
class ConeVerdict:
    in_cone: bool
    sigmas: SigmaVector
    negative_count: int
    method: str

    def __post_init__(self):
        if self.method not in (METHOD_SIGMA_POSITIVITY, METHOD_LEMMA):
            raise ValueError(f"unknown cone method {self.method!r}")
        if not 0 <= self.negative_count <= self.sigmas.n:
            raise ValueError(
                f"negative_count {self.negative_count} out of range 0..{self.sigmas.n}"
            )
        if self.method == METHOD_LEMMA and self.in_cone and self.negative_count > 1:
            raise ValueError("lemma verdict cannot accept more than one negative eigenvalue")


def count_negative_eigenvalues(values, fro: float) -> int:
    """Count eigenvalues below the scale-aware negativity threshold."""
    thr = -NEGATIVE_EIG_REL_TOL * (1.0 + fro)
    return sum(1 for v in values if v < thr)


def cone_verdicts(values, sigmas, k: int) -> tuple[ConeVerdict, ConeVerdict]:
    """The sigma-positivity and lemma verdicts of a matrix, in that order.

    `values` are its eigenvalues and `sigmas` its sigma_1..sigma_n.  Both
    thresholds scale with the Frobenius norm, here sqrt(sum of values^2):
    sigma_j must exceed 1e-12 * (1 + fro^j), and an eigenvalue counts as
    negative below -1e-10 * (1 + fro).  A True lemma verdict implies
    membership (and the sigma-positivity verdict); a False one only means
    its hypotheses were not met.
    """
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    sv = SigmaVector(sigmas=tuple(sigmas), n=n)
    fro = math.sqrt(sum(v * v for v in values))
    neg = count_negative_eigenvalues(values, fro)
    positive = [
        sv.sigma(j) > SIGMA_BOUNDARY_REL_TOL * (1.0 + fro**j) for j in range(1, k + 1)
    ]
    return (
        ConeVerdict(all(positive), sv, neg, METHOD_SIGMA_POSITIVITY),
        ConeVerdict(neg <= 1 and positive[-1], sv, neg, METHOD_LEMMA),
    )


def gamma_k(m: SymmetricMatrix, k: int) -> tuple[ConeVerdict, ConeVerdict]:
    """Both cone verdicts of m from one Jacobi diagonalization.

    The sigmas are e_1..e_n of its eigenvalues; see cone_verdicts.
    """
    values = eigenvalues_symmetric(m).values
    return cone_verdicts(values, elementary_symmetric(values), k)


def deformation_monotonicity_check(lambdas, k: int, s_grid) -> bool:
    """Check that shifting the one possibly-negative eigenvalue upward never
    decreases e_k.

    Requires lambdas[1:] >= 0 (only the first entry may be negative).  The
    grid evaluation and the closed-form slope e_(k-1)(lambdas[1:]) must agree;
    disagreement indicates a broken invariant and raises.
    """
    lams = [float(v) for v in lambdas]
    n = len(lams)
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if any(v < 0.0 for v in lams[1:]):
        raise ValueError("all eigenvalues after the first must be nonnegative")
    grid = sorted(float(s) for s in s_grid)
    if any(s < 0.0 for s in grid):
        raise ValueError("deformation grid must be nonnegative")

    vals = [elementary_symmetric([lams[0] + s] + lams[1:])[k - 1] for s in grid]
    slack = 1e-12 * (1.0 + max((abs(v) for v in vals), default=0.0))
    grid_monotone = all(b >= a - slack for a, b in zip(vals, vals[1:]))

    slope = ([1.0] + elementary_symmetric(lams[1:]))[k - 1]  # e_(k-1), e_0 = 1
    closed_monotone = slope >= 0.0

    if grid_monotone != closed_monotone:
        raise RuntimeError(
            "grid and closed-form monotonicity checks disagree "
            f"(grid {grid_monotone}, slope {slope})"
        )
    return grid_monotone
