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
per coordinate, x block first, then t, then the w block.

Precision
---------
Each sample's Hessian is built and diagonalized once, in double-double
arithmetic (Jacobi, then one pass of the e_j recurrence): at sample-box
corners the cancellation in sigma_k is too severe for plain doubles to
certify a 1e-9 bound once k reaches 4.  The residual |sigma_k - 1|, the
sigma vector behind the cone verdicts and min_sigma_j, the negative
eigenvalue count and the n = 3 phase all come from those double-double
values, rounded to float64 only where a float threshold judges them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import doubledouble as dd
from .cone import (
    _lemma_verdict,
    _sigma_positivity_verdict,
    count_negative_eigenvalues,
)
from .errors import CapabilityError, ConvergenceError
from .solution import (
    Point,
    SolutionParams,
    _check_exponent,
    _check_radius,
    eval_jet,
    h_eval,
    hessian_dd,
    solution_value,
)
from .symfunc import (
    MINOR_DIM_LIMIT,
    SigmaVector,
    SymmetricMatrix,
    eigenvalues_symmetric,
    eigenvalues_symmetric_dd,
    elementary_symmetric_dd,
    sigma_via_minors,
)

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PHASE_TOL = 1e-9
CRITICAL_PHASE_N3 = math.pi / 2
MINOR_AUDIT_STRIDE = 100  # cross-check sigma_k by minors on 1% of samples
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
    w_radius: float = 0.0

    def __post_init__(self):
        for name, values in (
            ("x_radius", (self.x_radius,)),
            ("t_range", self.t_range),
            ("w_radius", (self.w_radius,)),
        ):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_radius > 0:
            raise ValueError(f"x_radius must be positive, got {self.x_radius}")
        t_lo, t_hi = self.t_range
        if not t_lo < t_hi:
            raise ValueError(f"t_range must satisfy t_min < t_max, got {self.t_range}")
        if self.w_radius < 0:
            raise ValueError(f"w_radius must be nonnegative, got {self.w_radius}")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated outcome of one verification scan."""

    params_echo: SolutionParams
    samples: int
    max_abs_residual: float
    argmax_point: Point
    cone_failures: int
    lemma_failures: int
    min_sigma_j: float
    phase_ok: bool | None
    elapsed_seconds: float


def sample_point(p: SolutionParams, box: SampleBox, index: int) -> Point:
    """Deterministic sample number `index`, uniform over the box."""
    d = p.total_dim
    base = index * d
    t_lo, t_hi = box.t_range
    coords = []
    for j in range(d):
        u = _unit_float(splitmix64(box.seed, base + j))
        if j < p.n_base - 1:
            coords.append(-box.x_radius + 2.0 * box.x_radius * u)
        elif j == p.n_base - 1:
            coords.append(t_lo + (t_hi - t_lo) * u)
        else:
            coords.append(-box.w_radius + 2.0 * box.w_radius * u)
    return Point.from_coords(p, coords)


def residual_scan(p: SolutionParams, box: SampleBox) -> ResidualReport:
    """Scan `box.count` seeded points; aggregate residual, cone and phase checks.

    Every check of a sample reads the same double-double eigenvalues and
    their e_1..e_d (see the module docstring); every 100th sample also
    compares sigma_k with the principal-minor sum of the Hessian.  A
    ConvergenceError raised by a sample names its index and point.  The
    report is identical for identical (params, box), elapsed_seconds aside.
    """
    for bound in box.t_range:
        _check_exponent(p, bound)
    _check_radius(
        p, box.x_radius, *box.t_range, f"x_radius = {box.x_radius:g} with t_range = {box.t_range}"
    )
    start = time.perf_counter()

    k = p.k
    d = p.total_dim
    check_phase = p.n_base == 3 and p.m == 0
    max_resid, argmax_point = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    for i in range(box.count):
        pt = sample_point(p, box, i)
        try:
            hess = hessian_dd(p, pt)
            lam_dd = eigenvalues_symmetric_dd(hess)
            e = elementary_symmetric_dd(lam_dd)
            sigmas = SigmaVector(sigmas=tuple(dd.to_float(v) for v in e), n=d)
            lam = [dd.to_float(v) for v in lam_dd]
            fro = math.sqrt(sum(v * v for v in lam))
            if i % MINOR_AUDIT_STRIDE == 0 and d <= MINOR_DIM_LIMIT:
                floats = SymmetricMatrix([[dd.to_float(v) for v in row] for row in hess])
                by_minors = sigma_via_minors(floats, k)
                if abs(by_minors - sigmas.sigma(k)) > 1e-8 * (1.0 + fro**k):
                    raise ConvergenceError(
                        f"minor-sum audit disagrees: {by_minors} vs {sigmas.sigma(k)}"
                    )
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"sample {i} at {pt}: {exc}", offdiag_norm=exc.offdiag_norm
            ) from exc

        resid = abs(dd.to_float(dd.add_f(e[k - 1], -1.0)))
        if resid > max_resid:
            max_resid, argmax_point = resid, pt
        neg = count_negative_eigenvalues(lam, fro)
        if not _sigma_positivity_verdict(sigmas, neg, fro, k).in_cone:
            cone_failures += 1
        if not _lemma_verdict(sigmas, neg, fro, k).in_cone:
            lemma_failures += 1
        min_sigma_j = min(min_sigma_j, *sigmas.sigmas[:k])
        if check_phase:
            phase = sum(math.atan(v) for v in lam)
            if abs(phase - CRITICAL_PHASE_N3) > PHASE_TOL:
                phase_failures += 1

    return ResidualReport(
        params_echo=p,
        samples=box.count,
        max_abs_residual=max_resid,
        argmax_point=argmax_point,
        cone_failures=cone_failures,
        lemma_failures=lemma_failures,
        min_sigma_j=min_sigma_j,
        phase_ok=phase_failures == 0 if check_phase else None,
        elapsed_seconds=time.perf_counter() - start,
    )


def central_hessian(func, coords, step: float) -> np.ndarray:
    """Hessian of a scalar function by central second differences.

    Diagonal entries use the three-point stencil, off-diagonal entries the
    four-point cross stencil; the result is averaged with its transpose.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    base = [float(c) for c in coords]
    d = len(base)
    f0 = func(base)
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                up = list(base)
                dn = list(base)
                up[i] += step
                dn[i] -= step
                hess[i, i] = (func(up) - 2.0 * f0 + func(dn)) / (step * step)
            else:
                pp = list(base)
                pm = list(base)
                mp = list(base)
                mm = list(base)
                pp[i] += step
                pp[j] += step
                pm[i] += step
                pm[j] -= step
                mp[i] -= step
                mp[j] += step
                mm[i] -= step
                mm[j] -= step
                hess[i, j] = (func(pp) - func(pm) - func(mp) + func(mm)) / (
                    4.0 * step * step
                )
    return (hess + hess.T) / 2.0


def fd_hessian(p: SolutionParams, pt: Point, step: float) -> SymmetricMatrix:
    """Finite-difference Hessian of u at pt: an oracle for eval_jet."""

    def func(flat):
        return solution_value(p, Point.from_coords(p, flat))

    coords = list(pt.x) + [pt.t] + list(pt.w)
    return SymmetricMatrix(central_hessian(func, coords, step))


def sl_phase(m: SymmetricMatrix) -> float:
    """Sum of arctangents of the eigenvalues (the Lagrangian phase of the graph)."""
    return sum(math.atan(v) for v in eigenvalues_symmetric(m).values)


def iterated_forward_difference(func, order: int, start: float = 0.0, step: float = 1.0) -> float:
    """Order-fold forward difference at unit-like spacing, via the binomial sum."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    total = 0.0
    for j in range(order + 1):
        coeff = math.comb(order, j)
        term = coeff * func(start + j * step)
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

    def at(t: float) -> float:
        return samples[int(t)]

    return [
        iterated_forward_difference(at, d + 1, start=0.0, step=1.0)
        for d in range(1, max_degree + 1)
    ]


def split_indicator(p: SolutionParams, pt: Point) -> SymmetricMatrix:
    """Absolute off-diagonal Hessian entries at pt.

    A coordinate-aligned split of u into independent variable groups would
    force all cross-group entries to vanish identically, so any nonzero
    off-diagonal entry rules the corresponding split out.  A single point
    with zeros is inconclusive.
    """
    hess = eval_jet(p, pt).hessian.entries
    indicator = np.abs(hess.copy())
    np.fill_diagonal(indicator, 0.0)
    return SymmetricMatrix(indicator)
