"""Exact expansion of sigma_k over the rationals, with zero floating point.

An expression is a finite sum of terms c * r^a * e^(b*t) with rational c,
stored as a dict mapping the exponent pair (a, b) to its Fraction
coefficient.  The zero expression is the empty dict, and no zero coefficient
is ever stored, so dict equality is exact expression equality.

Example:  r^2 e^t + 1/4 e^(-t)  ->  {(2, 1): Fraction(1), (0, -1): Fraction(1, 4)}

This is enough to house every entry of the rotated Hessian of the solution
ansatz (2e^t, 2r e^t and r^2 e^t + h''(t), laid out by solution.arrow_rows)
and so to expand sigma_1..sigma_k of it exactly (`sym_sigmas`), by the
ring-generic Faddeev-LeVerrier loop (`symfunc.faddeev_leverrier`, run over
this ring, stopped at sigma_k; the tests also run it over ints and floats): the
certification that sigma_k collapses to the constant 1, and that every
sigma_j with j < k is positive, is a finite rational computation that reads
no sigma_j past k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .solution import SolutionParams, _check_integers, arrow_rows
from .symfunc import faddeev_leverrier

Monomial = tuple[int, int]  # (a, b): r^a * e^(b*t)
SymExpr = dict[Monomial, Fraction]


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


def sym_sigmas(rows, count: int | None = None) -> list[SymExpr]:
    """Exact sigma_1..sigma_count (default: all n of them) of the symmetric
    matrix ``rows`` of SymExpr entries, by ``symfunc.faddeev_leverrier`` over
    SymExpr, which refuses rows that are not square and symmetric and a
    count outside 1..n.  Each sigma_j is the same expression whatever the
    count.

    The ring operations are looked up on every call, never stored, so that a
    wrapper installed on ``sym_mul`` (a call counter) sees every product.
    """
    return faddeev_leverrier(
        rows, sym_add, sym_mul, lambda e, j: sym_scale(e, Fraction(1, j)), {},
        count=count,
    )


def sym_sigma_k(rows, k: int) -> SymExpr:
    """Exact sigma_k of a symmetric matrix of SymExpr entries, as rows."""
    if not 1 <= k <= len(rows):
        raise ValueError(f"k must be in 1..{len(rows)}, got {k}")
    return sym_sigmas(rows, k)[k - 1]


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
) -> list[list[SymExpr]]:
    """The rotated Hessian with h'' = (1/A) e^(-(k-1)t) - (B/A) e^t.

    Accepts arbitrary constants so a certification run can also demonstrate
    that perturbed constants fail; n_base and k must be integers, not bools.
    """
    _check_integers(n_base=n_base, k=k)
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
    cross = [sym_term(2, 1, 1)] + [{}] * (n_base - 2)
    corner = sym_add(sym_term(1, 2, 1), h2)
    return arrow_rows(sym_term(2, 0, 1), cross, corner, 0, {})


def build_rotated_hessian(n_base: int) -> list[list[SymExpr]]:
    """The rotated Hessian of the constructed solution in dimension n_base, as rows."""
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
    hessian = build_rotated_hessian(n_base)  # raises for even or too-small n_base
    k = (n_base + 1) // 2
    sigmas = sym_sigmas(hessian, k)  # sigma_1..sigma_k: all that the claim reads
    return Certification(
        n_base=n_base,
        residual=sym_sub(sigmas[k - 1], sym_const(1)),
        cone_failure_j=first_nonpositive_sigma(sigmas, k),
    )
