"""Ellipticity-cone membership for the k-Hessian operator.

The cone is the connected component of {sigma_k > 0} containing the positive
definite matrices; we use the standard characterization "sigma_j > 0 for
j = 1..k" as the authority, plus the cheaper sufficient test "sigma_k > 0 and
at most one negative eigenvalue".  Boundary values (sigma_j numerically zero)
count as outside: the equation must stay strictly elliptic.

Both verdicts read one set of eigenvalues and their e_1..e_k.
``cone_flags`` holds both thresholds and returns the count of negative
eigenvalues, ``in_cone`` (sigma positivity) and ``lemma`` as three plain
values.  ``gamma_k`` (behind ``cone-check``) checks k, reads them off one
float Jacobi of the matrix, given as symmetric float rows, and keeps them
in one ``ConeVerdict``, beside the sigmas they were read from.  The scan
calls only ``sigma_verdicts``, the sigma threshold of ``cone_flags``, on
every sample, with its double-double sigmas and a norm read off its
spectrum's invariants.
The tests check these sigmas against the characteristic polynomial (the
trace recursion ``symfunc.faddeev_leverrier`` in float64) and against the
principal-minor sums (LAPACK determinants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .symfunc import eigenvalues_symmetric, elementary_symmetric

SIGMA_BOUNDARY_REL_TOL = 1e-12  # sigma_j <= tol*(1+fro^j) is not in the open cone
NEGATIVE_EIG_REL_TOL = 1e-10  # lambda < -tol*(1+fro) counts as negative


@dataclass(frozen=True)
class ConeVerdict:
    """Both cone verdicts of one matrix: ``in_cone`` by sigma positivity, and
    ``lemma``, which more than one negative eigenvalue cannot pass."""

    sigmas: tuple[float, ...]
    negative_count: int
    in_cone: bool
    lemma: bool

    def __post_init__(self):
        if self.lemma and self.negative_count > 1:
            raise ValueError("lemma verdict cannot accept more than one negative eigenvalue")


def cone_flags(values, sigmas, k: int) -> tuple[int, bool, bool]:
    """The count of negative eigenvalues and the sigma-positivity and lemma
    verdicts, as (negative_count, in_cone, lemma).

    `values` are a matrix's eigenvalues and `sigmas` its sigma_1..sigma_k or
    more; the caller ensures 1 <= k <= len(values) and len(sigmas) >= k.
    Both thresholds scale with the Frobenius norm, here sqrt(sum of
    values^2): sigma_j must exceed 1e-12 * (1 + fro^j), and an eigenvalue
    counts as negative below -1e-10 * (1 + fro).  A True lemma verdict
    implies membership (and the sigma-positivity verdict); a False one only
    means its hypotheses were not met.
    """
    fro = math.sqrt(sum([v * v for v in values]))
    neg_thr = -NEGATIVE_EIG_REL_TOL * (1.0 + fro)
    neg = len([v for v in values if v < neg_thr])
    in_cone, sigma_k_positive = sigma_verdicts([(v, 0.0) for v in sigmas[:k]], fro)[:2]
    return neg, in_cone, neg <= 1 and sigma_k_positive


def sigma_verdicts(sigmas, fro: float) -> tuple[bool, bool, float, float]:
    """Whether sigma_j > 1e-12 * (1 + fro^j) for every j (the sigma-positivity
    verdict) and for the last j (the lemma's sigma_k > 0), the smallest
    sigma_j and the sum of them, in one pass over sigma_1..sigma_k.

    `sigmas` are k >= 1 (hi, lo) pairs, each rounded to the float hi + lo
    once (a float s enters as (s, 0.0)), and fro is the Frobenius norm.
    """
    in_cone, smallest, total, j = True, math.inf, 0.0, 0
    for hi, lo in sigmas:
        j += 1
        sigma = hi + lo
        positive = sigma > SIGMA_BOUNDARY_REL_TOL * (1.0 + fro**j)
        if not positive:
            in_cone = False
        if sigma < smallest:
            smallest = sigma
        total += sigma
    return in_cone, positive, smallest, total


def gamma_k(rows, k: int) -> ConeVerdict:
    """Both cone verdicts of symmetric float rows from one Jacobi
    diagonalization; refuses, before the Jacobi, a k that is a bool, not an
    integer or outside 1..dim, and refuses the rows that
    eigenvalues_symmetric refuses.

    The sigmas are e_1..e_n of its eigenvalues; see cone_flags.
    """
    n = len(rows)
    # empty rows are left to eigenvalues_symmetric, which names them
    if n and (isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k!r}")
    values = eigenvalues_symmetric(rows)
    sigmas = tuple(elementary_symmetric(values))
    return ConeVerdict(sigmas, *cone_flags(values, sigmas, k))
