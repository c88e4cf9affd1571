"""Exact expansion of sigma_k over the rationals, with zero floating point.

An expression is a finite sum of terms c * r^a * e^(b*t) with rational c,
stored as a dict mapping the exponent pair (a, b) to its Fraction
coefficient.  The zero expression is the empty dict, and no zero coefficient
is ever stored, so dict equality is exact expression equality.

Example:  r^2 e^t + 1/4 e^(-t)  ->  {(2, 1): Fraction(1), (0, -1): Fraction(1, 4)}

This is enough to house every entry of the rotated Hessian of the solution
ansatz (2e^t, 2r e^t and r^2 e^t + h''(t), laid out by solution.arrow_rows)
and so to expand sigma_1..sigma_n of it exactly (`sym_sigmas`), by the
Faddeev-LeVerrier loop that also gives the float oracle
(`symfunc.faddeev_leverrier`, run over this ring): the certification that
sigma_k collapses to the constant 1, and that every sigma_j with j < k is
positive, is a finite rational computation.
The Leibniz minor sums (`sigma_k_partition`) stay as the small-n oracle that
shows where the binomial cancellation happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import CapabilityError
from .solution import SolutionParams, arrow_rows
from .symfunc import faddeev_leverrier

Monomial = tuple[int, int]  # (a, b): r^a * e^(b*t)
SymExpr = dict[Monomial, Fraction]

SIGMA_WORK_LIMIT = 10**7  # C(dim, k) * k! permutation products

# partition of the k-subsets by membership of the r-coupled row (index 0)
# and the t row (index dim-1)
CLASS_WITH_R_AND_T = "with_r_and_t"
CLASS_WITH_T_WITHOUT_R = "with_t_without_r"
CLASS_WITHOUT_T = "without_t"


def sym_zero() -> SymExpr:
    return {}


def sym_const(c) -> SymExpr:
    coeff = Fraction(c)
    return {(0, 0): coeff} if coeff else {}


def sym_term(c, a: int, b: int) -> SymExpr:
    """A single term c * r^a * e^(b*t)."""
    if a < 0:
        raise ValueError(f"r exponent must be nonnegative, got {a}")
    coeff = Fraction(c)
    return {(a, b): coeff} if coeff else {}


def sym_add(lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    out = dict(lhs)
    for mono, coeff in rhs.items():
        acc = out.get(mono)
        if acc is None:
            out[mono] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return out


def sym_neg(expr: SymExpr) -> SymExpr:
    return {mono: -coeff for mono, coeff in expr.items()}


def sym_sub(lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    return sym_add(lhs, sym_neg(rhs))


def sym_scale(expr: SymExpr, c) -> SymExpr:
    """c * expr for a rational constant c."""
    coeff = Fraction(c)
    return {mono: coeff * v for mono, v in expr.items()} if coeff else {}


def sym_mul(lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    out: SymExpr = {}
    for (a1, b1), c1 in lhs.items():
        for (a2, b2), c2 in rhs.items():
            mono = (a1 + a2, b1 + b2)
            acc = out.get(mono)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return out


@dataclass(frozen=True)
class SymMatrix:
    """Square matrix of expressions, structurally symmetric."""

    entries: tuple[tuple[SymExpr, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("matrix dimension must be >= 1")
        for row in self.entries:
            if len(row) != self.dim:
                raise ValueError("entry grid is not square")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        return cls(tuple(tuple(dict(e) for e in row) for row in rows))


def sym_sigmas(m: SymMatrix) -> list[SymExpr]:
    """Exact sigma_1..sigma_dim by ``symfunc.faddeev_leverrier`` over SymExpr.

    The ring operations are looked up on every call, never stored, so that a
    wrapper installed on ``sym_mul`` (a call counter) sees every product.
    """
    return faddeev_leverrier(
        m.entries, sym_add, sym_mul, lambda e, j: sym_scale(e, Fraction(1, j)), {}
    )


def _det_leibniz(entries, idx) -> SymExpr:
    k = len(idx)
    total: SymExpr = {}
    for perm in permutations(range(k)):
        prod: SymExpr | None = None
        for row, col in enumerate(perm):
            entry = entries[idx[row]][idx[col]]
            if not entry:
                prod = None
                break
            prod = dict(entry) if prod is None else sym_mul(prod, entry)
        if prod is None:
            continue
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        total = sym_add(total, prod if inversions % 2 == 0 else sym_neg(prod))
    return total


@dataclass(frozen=True)
class SigmaPartition:
    """sigma_k split over the three classes of principal minors.

    Minors are classified by whether they include the r-coupled row (index 0)
    and the t row (the last index); the class subtotals sum to sigma_k.
    """

    subtotals: dict[str, SymExpr]
    counts: dict[str, int]
    total: SymExpr


def sigma_k_partition(m: SymMatrix, k: int) -> SigmaPartition:
    """All k x k principal minors of m, summed per class and in total."""
    n = m.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    work = math.comb(n, k) * math.factorial(k)
    if work > SIGMA_WORK_LIMIT:
        raise CapabilityError(
            f"sigma_{k} of a {n}x{n} symbolic matrix needs {work} permutation "
            f"products, over the {SIGMA_WORK_LIMIT} limit"
        )
    subtotals = {
        CLASS_WITH_R_AND_T: {},
        CLASS_WITH_T_WITHOUT_R: {},
        CLASS_WITHOUT_T: {},
    }
    counts = dict.fromkeys(subtotals, 0)
    total: SymExpr = {}
    for idx in combinations(range(n), k):
        if n - 1 not in idx:
            cls = CLASS_WITHOUT_T
        elif 0 in idx:
            cls = CLASS_WITH_R_AND_T
        else:
            cls = CLASS_WITH_T_WITHOUT_R
        minor = _det_leibniz(m.entries, idx)
        subtotals[cls] = sym_add(subtotals[cls], minor)
        counts[cls] += 1
        total = sym_add(total, minor)
    return SigmaPartition(subtotals=subtotals, counts=counts, total=total)


def sym_sigma_k(m: SymMatrix, k: int) -> SymExpr:
    """Exact sigma_k of a symbolic symmetric matrix."""
    if not 1 <= k <= m.dim:
        raise ValueError(f"k must be in 1..{m.dim}, got {k}")
    return sym_sigmas(m)[k - 1]


def first_nonpositive_sigma(sigmas: list[SymExpr], k: int) -> int | None:
    """The first j < k whose sigma_j is not certified positive, or None.

    sigma_j is certified positive on r >= 0, t real when it is a nonempty sum
    of terms c * r^a * e^(bt) with every c > 0 and at least one a = 0 term
    (the one that keeps it positive at r = 0).  With sigma_k = 1 this puts
    the matrix in the Garding cone sigma_1, ..., sigma_k > 0 at every point.
    """
    for j, sigma in enumerate(sigmas[: k - 1], start=1):
        if (
            not sigma
            or any(c <= 0 for c in sigma.values())
            or not any(a == 0 for a, _ in sigma)
        ):
            return j
    return None


def rotated_hessian_from_constants(
    n_base: int, k: int, a_const: Fraction, b_const: Fraction
) -> SymMatrix:
    """The rotated Hessian with h'' = (1/A) e^(-(k-1)t) - (B/A) e^t.

    Accepts arbitrary constants so a certification run can also demonstrate
    that perturbed constants fail.
    """
    if n_base < 2:
        raise ValueError(f"n_base must be >= 2, got {n_base}")
    if not 1 <= k <= n_base:
        raise ValueError(f"k must be in 1..{n_base}, got {k}")
    a_const = Fraction(a_const)
    b_const = Fraction(b_const)
    if a_const == 0:
        raise ValueError("leading constant A must be nonzero")
    h2 = sym_add(
        sym_term(1 / a_const, 0, -(k - 1)),
        sym_term(-b_const / a_const, 0, 1),
    )
    # rotated so that x = (r, 0, ..., 0): the cross entries are 2r e^t, 0, ..., 0
    cross = [sym_term(2, 1, 1)] + [sym_zero()] * (n_base - 2)
    corner = sym_add(sym_term(1, 2, 1), h2)
    return SymMatrix.from_rows(arrow_rows(sym_term(2, 0, 1), cross, corner, 0, sym_zero()))


def build_rotated_hessian(n_base: int) -> SymMatrix:
    """The rotated Hessian of the constructed solution in dimension n_base."""
    p = SolutionParams(n_base)
    return rotated_hessian_from_constants(n_base, p.k, p.A, p.B)


@dataclass(frozen=True)
class Certification:
    """Outcome of the exact checks sigma_k(D^2 u) = 1 and D^2 u in Gamma_k.

    `residual` is sigma_k - 1 ({} certifies the identity); `cone_failure_j`
    is the first j < k whose sigma_j is not certified positive (None
    certifies the Garding cone, see `first_nonpositive_sigma`).
    """

    n_base: int
    residual: SymExpr
    cone_failure_j: int | None

    @property
    def k(self) -> int:
        return (self.n_base + 1) // 2

    @property
    def identity_ok(self) -> bool:
        return not self.residual

    @property
    def cone_ok(self) -> bool:
        return self.cone_failure_j is None

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.cone_ok


def verify_exact(n_base: int) -> Certification:
    """Certify, in exact arithmetic, that sigma_k of the solution Hessian is 1
    and that the Hessian lies in the Garding cone, for any odd n_base >= 3.

    Appending inert coordinates leaves every sigma_j unchanged, so the
    certificate also covers the extensions to every n >= 2k - 1.
    """
    sigmas = sym_sigmas(build_rotated_hessian(n_base))  # raises for even or too-small n_base
    k = (n_base + 1) // 2
    return Certification(
        n_base=n_base,
        residual=sym_sub(sigmas[k - 1], sym_const(1)),
        cone_failure_j=first_nonpositive_sigma(sigmas, k),
    )
