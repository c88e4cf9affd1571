"""Construction of the solution family u(x, t) = r^2 e^t + h(t).

For odd n and k = (n+1)/2, the k-Hessian of the radially-quadratic ansatz
collapses to A e^((k-1)t) h'' + B e^(kt) with

    A = 2^(k-1) * [C(n-2, k-2) + C(n-2, k-1)],
    B = 2^k * C(n-1, k),

so sigma_k(D^2 u) = 1 holds identically once

    h(t) = e^(-(k-1)t) / (A (k-1)^2)  -  (B/A) e^t.

The r^2 term of the expansion carries the coefficient
-C(n-2, k-2) + C(n-2, k-1), which vanishes exactly when 2k = n + 1; that
cancellation is what makes the ansatz work.  Constants are kept as exact
rationals and only converted to floating point at evaluation time.  Appending
m dummy coordinates (on which u does not depend) extends a core solution in
dimension n to dimension n + m without changing sigma_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import doubledouble as dd
from .symfunc import SymmetricMatrix

# e^x overflows double precision near x = 709; refuse slightly earlier.
OVERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class SolutionParams:
    """Constants of one member of the solution family, all exact rationals."""

    n_base: int
    k: int
    m: int
    A: Fraction
    B: Fraction
    h_coeff_decay: Fraction
    h_coeff_growth: Fraction

    def __post_init__(self):
        n, k = self.n_base, self.k
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n_base must be an odd integer >= 3, got {n}")
        if 2 * k != n + 1:
            raise ValueError(f"k must satisfy 2k = n_base + 1, got k={k}, n_base={n}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        a_expected = Fraction(2 ** (k - 1) * (math.comb(n - 2, k - 2) + math.comb(n - 2, k - 1)))
        b_expected = Fraction(2**k * math.comb(n - 1, k))
        if self.A != a_expected or self.B != b_expected:
            raise ValueError(
                f"constants (A, B) = ({self.A}, {self.B}) do not match "
                f"({a_expected}, {b_expected}) for n_base={n}"
            )
        if self.h_coeff_decay != Fraction(1, 1) / (self.A * (k - 1) ** 2):
            raise ValueError("decay coefficient inconsistent with 1/(A (k-1)^2)")
        if self.h_coeff_growth != -self.B / self.A:
            raise ValueError("growth coefficient inconsistent with -B/A")

    @property
    def total_dim(self) -> int:
        return self.n_base + self.m


@dataclass(frozen=True)
class Point:
    """An evaluation point: x block, scalar t, then the m dummy coordinates."""

    x: tuple[float, ...]
    t: float
    w: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))
        for name, values in (("x", self.x), ("t", (self.t,)), ("w", self.w)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(
                    f"point coordinate {name} must be finite, got {getattr(self, name)}"
                )

    @classmethod
    def from_coords(cls, params: SolutionParams, coords) -> "Point":
        flat = [float(v) for v in coords]
        if len(flat) != params.total_dim:
            raise ValueError(
                f"expected {params.total_dim} coordinates "
                f"({params.n_base - 1} x, 1 t, {params.m} w), got {len(flat)}"
            )
        nx = params.n_base - 1
        return cls(x=tuple(flat[:nx]), t=flat[nx], w=tuple(flat[nx + 1 :]))


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and Hessian of u at a point."""

    value: float
    gradient: tuple[float, ...]
    hessian: SymmetricMatrix


def cancellation_coefficient(n: int, k: int) -> int:
    """The exact integer -C(n-2, k-2) + C(n-2, k-1): zero iff 2k = n + 1."""
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must be in 2..{n - 1}, got {k}")
    return -math.comb(n - 2, k - 2) + math.comb(n - 2, k - 1)


def derive_constants(n_base: int) -> SolutionParams:
    """Build the exact constants for the core (m = 0) solution in dimension n_base."""
    if n_base < 3 or n_base % 2 == 0:
        raise ValueError(
            f"2k = n+1 requires odd n with n >= 3, got n = {n_base}"
        )
    k = (n_base + 1) // 2
    a = Fraction(2 ** (k - 1) * (math.comb(n_base - 2, k - 2) + math.comb(n_base - 2, k - 1)))
    b = Fraction(2**k * math.comb(n_base - 1, k))
    return SolutionParams(
        n_base=n_base,
        k=k,
        m=0,
        A=a,
        B=b,
        h_coeff_decay=Fraction(1, 1) / (a * (k - 1) ** 2),
        h_coeff_growth=-b / a,
    )


def extend(p: SolutionParams, m: int) -> SolutionParams:
    """The same solution viewed on m extra dummy coordinates (total dim n_base + m)."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return replace(p, m=m)


def _check_exponent(p: SolutionParams, t: float) -> None:
    if abs(t) * max(p.k - 1, 1) > OVERFLOW_EXPONENT:
        raise OverflowError(
            f"|t| = {abs(t):g} exceeds the exponential overflow guard "
            f"({OVERFLOW_EXPONENT / max(p.k - 1, 1):g} for k = {p.k})"
        )


def _check_radius(
    p: SolutionParams, x_radius: float, t_lo: float, t_hi: float, what: str
) -> None:
    """Refuse |x_i| <= R = x_radius, t in [t_lo, t_hi] if Hessians could overflow.

    The absolute Hessian entries sum to at most

        F = (n-1) (2 + 4R + R^2) e^t_hi + e^(-(k-1) t_lo) / A + (B/A) e^t_hi,

    which bounds ||D^2 u||_F and every eigenvalue.  In dimension d every
    partial sum and product of the e_j recurrence, and fro**j (j <= k) in the
    cone thresholds and the minor audit, is then at most (1 + F)^d.  Requiring
    (1 + F)^d <= doubledouble.SPLIT_MAX = 2^996 keeps them all finite and in
    the range where Dekker's split is exact: on t in [-2, 2], x_radius up to
    ~2e49 for n = 3 and ~5e12 for n = 11.  `what` names the input in the
    error.  Run _check_exponent on t_lo and t_hi first.
    """
    et = math.exp(t_hi)
    bound = (
        (p.n_base - 1) * (2.0 + 4.0 * x_radius + x_radius * x_radius) * et
        + math.exp(-(p.k - 1) * t_lo) / float(p.A)
        + float(p.B / p.A) * et
    )
    if p.total_dim * math.log2(1.0 + bound) > math.log2(dd.SPLIT_MAX):
        raise OverflowError(
            f"{what} lets the Hessian norm reach {bound:.3g}; sigma_1..sigma_{p.total_dim} "
            f"stay finite only while (1 + that)^{p.total_dim} <= 2^996"
        )


def h_eval(p: SolutionParams, t: float, order: int) -> float:
    """h, h' or h'' at t from the two-term closed form."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    _check_exponent(p, t)
    km1 = p.k - 1
    decay = float(p.h_coeff_decay) * math.exp(-km1 * t)
    growth = float(p.h_coeff_growth) * math.exp(t)
    if order == 0:
        return decay + growth
    if order == 1:
        return -km1 * decay + growth
    return km1 * km1 * decay + growth


def h_formula(p: SolutionParams) -> str:
    """Human-readable closed form of h, e.g. '(1/4)*exp(-t) + (-1)*exp(t)'."""
    km1 = p.k - 1
    exponent = "-t" if km1 == 1 else f"-{km1}t"
    return f"({p.h_coeff_decay})*exp({exponent}) + ({p.h_coeff_growth})*exp(t)"


def solution_value(p: SolutionParams, pt: Point) -> float:
    """u at a point: r^2 e^t + h(t); independent of the w coordinates."""
    _check_point(p, pt)
    r2 = sum(v * v for v in pt.x)
    return r2 * math.exp(pt.t) + h_eval(p, pt.t, 0)


def _check_point(p: SolutionParams, pt: Point) -> None:
    if len(pt.x) != p.n_base - 1 or len(pt.w) != p.m:
        raise ValueError(
            f"point shape ({len(pt.x)} x, {len(pt.w)} w) does not match "
            f"params ({p.n_base - 1} x, {p.m} w)"
        )


def eval_jet(p: SolutionParams, pt: Point) -> Jet2:
    """Value, gradient and Hessian of u at pt, from the closed forms.

    Coordinates are ordered x first, then t, then w; the w rows and columns
    of the Hessian are identically zero.
    """
    _check_point(p, pt)
    t = pt.t
    _check_exponent(p, t)
    _check_radius(p, max(map(abs, pt.x)), t, t, f"point x = {pt.x}, t = {t}")
    h0 = h_eval(p, t, 0)
    h1 = h_eval(p, t, 1)
    h2 = h_eval(p, t, 2)
    et = math.exp(t)
    r2 = sum(v * v for v in pt.x)

    value = r2 * et + h0
    nx = p.n_base - 1
    d = p.total_dim
    gradient = tuple(2.0 * v * et for v in pt.x) + (r2 * et + h1,) + (0.0,) * p.m

    hess = np.zeros((d, d))
    for i in range(nx):
        hess[i, i] = 2.0 * et
        cross = 2.0 * pt.x[i] * et
        hess[i, nx] = cross
        hess[nx, i] = cross
    hess[nx, nx] = r2 * et + h2
    return Jet2(value=value, gradient=gradient, hessian=SymmetricMatrix(hess))


def _dd_terms(p: SolutionParams, pt: Point) -> tuple[dd.DD, dd.DD, dd.DD]:
    """e^t, h''(t) and r^2 = |x|^2 in double-double, from e^t and e^(-(k-1)t)."""
    _check_point(p, pt)
    _check_exponent(p, pt.t)
    k = p.k
    et = dd.exp(dd.from_float(pt.t))
    e_decay = dd.exp(dd.from_product(-(k - 1.0), pt.t))
    h2 = dd.add(
        dd.mul(dd.mul_f(dd.from_fraction(p.h_coeff_decay), float((k - 1) ** 2)), e_decay),
        dd.mul(dd.from_fraction(p.h_coeff_growth), et),
    )
    r2 = dd.ZERO
    for v in pt.x:
        r2 = dd.add(r2, dd.from_product(v, v))
    return et, h2, r2


def hessian_dd(p: SolutionParams, pt: Point) -> list[list[dd.DD]]:
    """The Hessian with entries in double-double precision.

    Same closed form as eval_jet, but e^t, e^(-(k-1)t) and all entry products
    carry ~31 digits.  The verification scan diagonalizes this matrix on its
    audited samples, to check spectrum_dd against the general Jacobi.
    """
    et, h2, r2 = _dd_terms(p, pt)
    nx = p.n_base - 1
    d = p.total_dim
    hess = [[dd.ZERO] * d for _ in range(d)]
    for i in range(nx):
        hess[i][i] = dd.mul_pow2(et, 2.0)
        cross = dd.mul_f(et, 2.0 * pt.x[i])
        hess[i][nx] = cross
        hess[nx][i] = cross
    hess[nx][nx] = dd.add(dd.mul(r2, et), h2)
    return hess


def spectrum_dd(p: SolutionParams, pt: Point) -> list[dd.DD]:
    """The eigenvalues of hessian_dd(p, pt) in closed form, ascending.

    On the x, t block the Hessian is the arrow matrix [[a I, c], [c^T, d]]
    with a = 2e^t, c = 2x e^t and d = r^2 e^t + h''; the w block is zero.  So
    its eigenvalues are a, with multiplicity n - 2 (the x directions
    orthogonal to c), m zeros, and the two eigenvalues of
    [[a, |c|], [|c|, d]], the roots of mu^2 - (a + d) mu + det with

        det = a d - |c|^2 = 2e^t h'' - 2r^2 e^(2t) = a (h'' - r^2 e^t).

    The larger root is (a + d)/2 + sqrt(((a - d)/2)^2 + |c|^2) >= max(a, d) > 0,
    a sum of two terms >= 0, since a + d = (2 - B/A + r^2) e^t + e^(-(k-1)t)/A
    and B/A = 2(k-1)/k < 2.  The smaller is det / larger, with det formed as
    a (h'' - r^2 e^t), not as a d - |c|^2, whose two terms both grow like r^2
    and cancel.  Same double-double constants as hessian_dd.
    """
    et, h2, r2 = _dd_terms(p, pt)
    a = dd.mul_pow2(et, 2.0)
    r2et = dd.mul(r2, et)
    d = dd.add(r2et, h2)
    half_gap = dd.mul_pow2(dd.sub(a, d), 0.5)
    c2 = dd.mul(a, dd.mul_pow2(r2et, 2.0))  # |c|^2 = 4 r^2 e^(2t)
    larger = dd.add(
        dd.mul_pow2(dd.add(a, d), 0.5), dd.sqrt(dd.add(dd.mul(half_gap, half_gap), c2))
    )
    smaller = dd.div(dd.mul(a, dd.sub(h2, r2et)), larger)
    values = [smaller, larger] + [a] * (p.n_base - 2) + [dd.ZERO] * p.m
    values.sort()  # (hi, lo) tuples order as their values
    return values
