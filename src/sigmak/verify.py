"""Sampled numerical verification of the constructed solutions.

Reproducible sampling
---------------------
Sampling is counter-based so that identical (box, seed) pairs produce
identical points regardless of execution order.  Word number c (c = 0, 1,
2, ...) of the stream for a given 64-bit seed is the splitmix64 mix of
``seed + (c+1) * 0x9E3779B97F4A7C15``, all modulo 2^64:

    z = seed + (c+1) * 0x9E3779B97F4A7C15
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB
    word = z XOR (z >> 31)

A uniform float in [0, 1) keeps the top 53 bits: (word >> 11) * 2**-53.
Sample number i in total dimension D consumes words i*D .. i*D + D - 1, one
per coordinate, x block first, then t, then the w block.  The x and w
coordinates are uniform on [-x_radius, x_radius], t on t_range.

Precision
---------
Each sample's eigenvalues and sigma_1..sigma_k are computed once, in
double-double arithmetic, in closed form (``solution.spectrum_sigmas_dd``)
from one set of double-double terms (``solution.dd_terms``: one exponential
e^t per sample; e^(-(k-1)t) is the reciprocal of its (k-1)-th power): at
sample-box corners the cancellation in sigma_k is too severe for plain
doubles to certify a 1e-9 bound once k reaches 4.  The Hessian is an arrow
matrix, so its spectrum is a (n - 2 times), m zeros and the two roots of
mu^2 - tr mu + det, and sigma_j is read off
(1 + a x)^(n-2) (1 + tr x + det x^2) (``solution.arrow_sigmas``).  The
residual |sigma_k - 1|, the sigma vector behind the cone verdicts and
min_sigma_j, the negative eigenvalue count and the n = 3 phase all come from
those double-double values, rounded to float64 only where a float threshold
judges them.  The verdicts (``cone.cone_verdicts``) and ``sl_phase`` are the
ones that ``cone-check`` and ``phase-check`` apply to a float64 Jacobi.

Every 100th sample is audited by routes that do not assume the arrow
structure, from the same double-double terms: the double-double Hessian
(``solution.hessian_dd``) is diagonalized by the general cyclic Jacobi
(``symfunc.eigenvalues_symmetric_dd``), whose eigenvalues must match the
closed-form ones within SPECTRUM_AUDIT_REL_TOL * (1 + ||M||_F); the e_j
recurrence (``symfunc.elementary_symmetric``) over the closed-form
eigenvalues must give the structured sigma_1..sigma_k within
SIGMA_AUDIT_UNITS * d * 2^-104 * e_j(|lambda|); and, up to dimension 14,
sigma_k must match the sum of the k x k principal minors of the same
matrix.  So the scan keeps checking the arrow structure that its fast path
assumes, independently of ``symbolic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import doubledouble as dd
from .cone import cone_verdicts
from .errors import CapabilityError, ConvergenceError
from .solution import (
    Point,
    SolutionParams,
    _check_exponent,
    _check_integers,
    _check_radius,
    dd_terms,
    h_eval,
    hessian_dd,
    solution_value,
    spectrum_sigmas_dd,
)
from .symfunc import (
    MINOR_DIM_LIMIT,
    SymmetricMatrix,
    eigenvalues_symmetric_dd,
    elementary_symmetric,
    sigma_via_minors,
)

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PHASE_TOL = 1e-9
CRITICAL_PHASE_N3 = math.pi / 2
MINOR_AUDIT_STRIDE = 100  # audit the closed-form spectrum on 1% of samples
# The audit's bound on |Jacobi - closed form| per eigenvalue, relative to
# 1 + ||M||_F.  The Jacobi stops once the off-diagonal Frobenius norm of its
# rotated matrix is at most DD_JACOBI_REL_TOL * (1 + ||M||_F) = 1e-28 * (...);
# by Weyl's inequality, dropping that off-diagonal part moves no eigenvalue
# by more than its norm.  The rest is double-double rounding, a few units of
# 2^-104 ~5e-32 times ||M||_F per step: each rotation perturbs the matrix by
# that much, and even 50 sweeps of a 31 x 31 matrix (23250 rotations) stay
# below 1e-26 * ||M||_F; the closed form and the two routes' Hessian entries
# add a few more units.  A wrong closed form is wrong far above that.
SPECTRUM_AUDIT_REL_TOL = 1e-26
# The audit's bound on |structured sigma_j - recurrence e_j| over the same
# closed-form eigenvalues, in units of d * 2^-104 * e_j(|lambda|), where
# e_j(|lambda|) is the recurrence over the eigenvalues' absolute values
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  A
# double-double product or sum errs by at most ~2 units of 2^-104 relative
# to the product of the operands' magnitudes or to the sum of them.  The
# recurrence passes each product of j eigenvalues through j - 1
# multiplications and at most d additions, so it is within ~2(j + d) <= 4d
# units of e_j(|lambda|).  The structured sigma_j adds three terms of at
# most k + 1 factors each, and its tr and det are the two roots' sum and
# product up to a few units of |mu_1| + |mu_2| and |mu_1 mu_2| (the roots
# carry the rounding of one sqrt and one division); both are bounded by
# the same e_j(|lambda|).  So 8 units of d * 2^-104 * e_j(|lambda|) cover
# both routes; seeded scans at n = 3..13 stay within 1.15 units of
# 2^-104 * e_j(|lambda|).  A wrong binomial or a det off by 1e-20 relative
# misses the bound by ~10 decades.
SIGMA_AUDIT_UNITS = 8.0
WITNESS_MAX_DEGREE = 40


def splitmix64(seed: int, counter: int) -> int:
    """Word `counter` of the counter-based splitmix64 stream for `seed`."""
    z = (seed + (counter + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _unit_float(word: int) -> float:
    return (word >> 11) * 2.0**-53


@dataclass(frozen=True)
class SampleBox:
    """Axis-aligned sampling region plus the sample budget and seed."""

    x_radius: float
    t_range: tuple[float, float]
    count: int
    seed: int

    def __post_init__(self):
        _check_integers(self, "count", "seed")
        for name, values in (("x_radius", (self.x_radius,)), ("t_range", self.t_range)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_radius > 0:
            raise ValueError(f"x_radius must be positive, got {self.x_radius}")
        t_lo, t_hi = self.t_range
        if not t_lo < t_hi:
            raise ValueError(f"t_range must satisfy t_min < t_max, got {self.t_range}")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated outcome of one verification scan."""

    max_abs_residual: float
    argmax_point: Point
    cone_failures: int
    lemma_failures: int
    min_sigma_j: float
    phase_ok: bool | None


def sample_point(p: SolutionParams, box: SampleBox, index: int) -> Point:
    """Deterministic sample number `index`, uniform over the box."""
    d = p.total_dim
    base = index * d
    t_lo, t_hi = box.t_range
    coords = []
    for j in range(d):
        u = _unit_float(splitmix64(box.seed, base + j))
        if j == p.n_base - 1:
            coords.append(t_lo + (t_hi - t_lo) * u)
        else:
            coords.append(-box.x_radius + 2.0 * box.x_radius * u)
    return Point.from_coords(p, coords)


def residual_scan(p: SolutionParams, box: SampleBox) -> ResidualReport:
    """Scan `box.count` seeded points; aggregate residual, cone and phase checks.

    Every check of a sample reads the same closed-form double-double
    eigenvalues and their sigma_1..sigma_k (see the module docstring);
    every 100th sample is also audited by _audit_sample.  A ConvergenceError
    raised by a sample, including a failed audit, names its index and point.
    The report is a function of (params, box) alone.
    """
    t_lo, t_hi = box.t_range
    _check_exponent(p, t_lo)
    _check_exponent(p, t_hi)
    _check_radius(
        p, box.x_radius, math.exp(t_hi), math.exp(-(p.k - 1) * t_lo),
        f"x_radius = {box.x_radius:g} with t_range = {box.t_range}",
    )
    k = p.k
    check_phase = p.n_base == 3 and p.m == 0
    max_resid, argmax_point = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    for i in range(box.count):
        pt = sample_point(p, box, i)
        try:
            terms = dd_terms(p, pt)
            lam_dd, e = spectrum_sigmas_dd(p, terms)
            sigmas = [dd.to_float(v) for v in e]
            lam = [dd.to_float(v) for v in lam_dd]
            if i % MINOR_AUDIT_STRIDE == 0:
                _audit_sample(p, pt, terms, lam_dd, e)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"sample {i} at {pt}: {exc}", offdiag_norm=exc.offdiag_norm
            ) from exc

        resid = abs(dd.to_float(dd.add_f(e[k - 1], -1.0)))
        if resid > max_resid:
            max_resid, argmax_point = resid, pt
        verdict = cone_verdicts(lam, sigmas, k)
        cone_failures += not verdict.in_cone
        lemma_failures += not verdict.lemma
        min_sigma_j = min(min_sigma_j, *sigmas)
        if check_phase and abs(sl_phase(lam) - CRITICAL_PHASE_N3) > PHASE_TOL:
            phase_failures += 1

    return ResidualReport(
        max_abs_residual=max_resid,
        argmax_point=argmax_point,
        cone_failures=cone_failures,
        lemma_failures=lemma_failures,
        min_sigma_j=min_sigma_j,
        phase_ok=phase_failures == 0 if check_phase else None,
    )


def _audit_sample(p: SolutionParams, pt: Point, terms, lam_dd: list, sigmas: list) -> None:
    """Check one sample's closed-form spectrum and sigmas against the general routes.

    `terms` are the dd_terms(p, pt) that lam_dd and sigmas came from.  The
    cyclic Jacobi of hessian_dd(p, pt, terms) must give the eigenvalues
    lam_dd within SPECTRUM_AUDIT_REL_TOL * (1 + ||M||_F); the e_j recurrence
    over lam_dd must give sigma_1..sigma_k within
    SIGMA_AUDIT_UNITS * d * 2^-104 * e_j(|lambda|); and, up to
    MINOR_DIM_LIMIT, the sum of the k x k principal minors must give
    sigma_k within 1e-8 * (1 + ||M||_F^k).  Raises ConvergenceError otherwise.
    """
    hess = hessian_dd(p, pt, terms)
    lam = [dd.to_float(v) for v in lam_dd]
    fro = math.sqrt(sum(v * v for v in lam))
    by_jacobi = eigenvalues_symmetric_dd(hess)
    gap = max(abs(dd.to_float(dd.sub(x, y))) for x, y in zip(by_jacobi, lam_dd))
    tol = SPECTRUM_AUDIT_REL_TOL * (1.0 + fro)
    if not gap <= tol:
        raise ConvergenceError(
            f"closed-form spectrum disagrees with the double-double Jacobi by "
            f"{gap:g} (tolerance {tol:g})"
        )
    by_recurrence = elementary_symmetric(lam_dd, dd.add, dd.mul)
    scales = elementary_symmetric([abs(v) for v in lam])
    unit = SIGMA_AUDIT_UNITS * len(lam) * 2.0**-104
    for j, (x, y, scale) in enumerate(zip(sigmas, by_recurrence, scales), start=1):
        gap = abs(dd.to_float(dd.sub(x, y)))
        if not gap <= unit * scale:
            raise ConvergenceError(
                f"structured sigma_{j} disagrees with the e_j recurrence by {gap:g} "
                f"(tolerance {unit * scale:g})"
            )
    if len(hess) <= MINOR_DIM_LIMIT:
        floats = SymmetricMatrix([[dd.to_float(v) for v in row] for row in hess])
        by_minors = sigma_via_minors(floats, p.k)
        sigma_k = dd.to_float(sigmas[p.k - 1])
        if abs(by_minors - sigma_k) > 1e-8 * (1.0 + fro**p.k):
            raise ConvergenceError(f"minor-sum audit disagrees: {by_minors} vs {sigma_k}")


def central_hessian(func, coords, step: float) -> list[list[float]]:
    """Hessian of a scalar function by central second differences.

    Diagonal entries use the three-point stencil, off-diagonal entries the
    four-point cross stencil; the result is averaged with its transpose.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    base = [float(c) for c in coords]
    d = len(base)
    f0 = func(base)

    def at(*moves):
        shifted = list(base)
        for idx, delta in moves:
            shifted[idx] += delta
        return func(shifted)

    hess = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                hess[i][i] = (at((i, step)) - 2.0 * f0 + at((i, -step))) / (step * step)
            else:
                hess[i][j] = (
                    at((i, step), (j, step)) - at((i, step), (j, -step))
                    - at((i, -step), (j, step)) + at((i, -step), (j, -step))
                ) / (4.0 * step * step)
    return [[(hess[i][j] + hess[j][i]) / 2.0 for j in range(d)] for i in range(d)]


def fd_hessian(p: SolutionParams, pt: Point, step: float) -> SymmetricMatrix:
    """Finite-difference Hessian of u at pt: an oracle for eval_jet."""

    def func(flat):
        return solution_value(p, Point.from_coords(p, flat))

    coords = list(pt.x) + [pt.t] + list(pt.w)
    return SymmetricMatrix(central_hessian(func, coords, step))


def sl_phase(values) -> float:
    """Sum of arctangents of the eigenvalues (the Lagrangian phase of the graph)."""
    return sum(math.atan(v) for v in values)


def iterated_forward_difference(func, order: int) -> float:
    """Order-fold forward difference of func at 0, 1, ..., order, via the
    binomial sum."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    total = 0.0
    for j in range(order + 1):
        coeff = math.comb(order, j)
        term = coeff * func(j)
        total += term if (order - j) % 2 == 0 else -term
    return total


def nonpoly_witness(p: SolutionParams, max_degree: int) -> list[float]:
    """Divided-difference witnesses that u is not a polynomial.

    Entry d (d = 1..max_degree) is the (d+1)-fold forward difference of
    t -> u(0, t) at unit spacing from t = 0.  A polynomial of degree <= d
    would make entry d exactly zero; for the constructed solution every entry
    is a nonzero two-term exponential expression.
    """
    if p.m != 0:
        raise ValueError("the witness is defined for the core solution (m = 0)")
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    if max_degree > WITNESS_MAX_DEGREE:
        raise CapabilityError(
            f"witness degrees are capped at {WITNESS_MAX_DEGREE} "
            f"(difference magnitudes overflow usefulness), got {max_degree}"
        )
    # u(0, t) = h(t)
    samples = [h_eval(p, float(j), 0) for j in range(max_degree + 2)]
    return [
        iterated_forward_difference(samples.__getitem__, d + 1)
        for d in range(1, max_degree + 1)
    ]
