"""Construction of the solution family u(x, t) = r^2 e^t + h(t).

For odd n and k = (n+1)/2, the k-Hessian of the radially-quadratic ansatz
collapses to A e^((k-1)t) h'' + B e^(kt) with

    A = 2^(k-1) * [C(n-2, k-2) + C(n-2, k-1)]  (= 2^(k-1) C(n-1, k-1) by Pascal),
    B = 2^k * C(n-1, k),

so sigma_k(D^2 u) = 1 holds identically once

    h(t) = e^(-(k-1)t) / (A (k-1)^2)  -  (B/A) e^t.

The r^2 term of the expansion carries the coefficient
-C(n-2, k-2) + C(n-2, k-1), which vanishes exactly when 2k = n + 1; that
cancellation is what makes the ansatz work.  So n alone fixes the solution:
``SolutionParams(n)`` derives k, A, B and h's coefficients as exact
rationals, once, together with the double-double coefficients of h'' and
the binomials C(n-2, j) that the scan uses.  Appending m dummy coordinates
(on which u does not depend) extends a core solution in dimension n to
dimension n + m without changing sigma_k.

The scan's per-sample work is one generator, ``spectrum_dd``: for each
sample of a block, from one double exponential, it forms the Hessian's
terms and sigma_1..sigma_k in double-double, with the arithmetic written
out in one Python frame per block, which takes what no sample changes once.
No sample is checked against the overflow guards: the scan checks its
whole box once, with a margin that covers every sample in it
(_check_overflow).  The scan's audit takes the same Hessian exactly, as
the integer parts of its arrow, from ``exact_hessian``, and checks those
sigmas against them; no eigenvalue is formed in double-double.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from . import doubledouble as dd

# e^x overflows double precision near x = 709; refuse slightly earlier.
OVERFLOW_EXPONENT = 700.0
_LOG2_SPLIT_MAX = math.log2(dd.SPLIT_MAX)  # 996.0


def _check_integers(**values) -> None:
    """Refuse, naming it, a value that is a bool or not an integer."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SolutionParams:
    """The solution in core dimension n_base, on m extra dummy coordinates.

    Every other field is derived from n_base in __post_init__: k, the exact
    constants A, B and h = h_coeff_decay e^(-(k-1)t) + h_coeff_growth e^t,
    A_float and h_coeffs_float = (h_coeff_decay, h_coeff_growth) rounded to
    floats (A_float is inf once A passes the largest float, from n = 689
    on; see _check_overflow), h'' = h2_decay_dd e^(-(k-1)t) + h2_growth_dd e^t
    in double-double, each coefficient (1/A and -B/A) its exact value
    rounded once, and arrow_binomials_dd[j] = C(n-2, j) for j = 0..k as
    exact double-doubles (see spectrum_dd).
    """

    n_base: int
    m: int = 0
    k: int = field(init=False)
    A: Fraction = field(init=False)
    B: Fraction = field(init=False)
    h_coeff_decay: Fraction = field(init=False)
    h_coeff_growth: Fraction = field(init=False)
    A_float: float = field(init=False, repr=False)
    h_coeffs_float: tuple[float, float] = field(init=False, repr=False)
    h2_decay_dd: dd.DD = field(init=False, repr=False)
    h2_growth_dd: dd.DD = field(init=False, repr=False)
    arrow_binomials_dd: tuple[dd.DD, ...] = field(init=False, repr=False)

    def __post_init__(self):
        _check_integers(n_base=self.n_base, m=self.m)
        n = self.n_base
        if n < 3 or n % 2 == 0:
            raise ValueError(f"2k = n+1 requires odd n with n >= 3, got n = {n}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        k = (n + 1) // 2
        # C(n-2, j), j = 0..k, each from the last exactly: 12 ms at n = 10001,
        # where k + 1 calls of math.comb took 4.3 s (CPython 3.11, x86-64)
        binomials = [1]
        for j in range(k):
            binomials.append(binomials[-1] * (n - 2 - j) // (j + 1))
        a = Fraction(2 ** (k - 1) * (binomials[k - 2] + binomials[k - 1]))
        b = Fraction(2**k * math.comb(n - 1, k))
        decay = Fraction(1, 1) / (a * (k - 1) ** 2)
        growth = -b / a
        derived = {
            "k": k, "A": a, "B": b, "h_coeff_decay": decay, "h_coeff_growth": growth,
            "A_float": float(a) if a <= sys.float_info.max else math.inf,
            "h_coeffs_float": (float(decay), float(growth)),
            "h2_decay_dd": dd.from_fraction(1 / a),
            "h2_growth_dd": dd.from_fraction(growth),
            # hi + lo is C(n-2, j) exactly: the rest c - int(hi) is an integer
            # below ulp(hi), so a double holds it while c < 2^106; a c past
            # the largest float (from n = 1033 on) is (inf, 0.0), which no
            # kernel reads, since no box passes the radius guard there
            "arrow_binomials_dd": tuple(
                (float(c), float(c - int(float(c))))
                if c <= sys.float_info.max else (math.inf, 0.0)
                for c in binomials
            ),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

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
        x, t, w = tuple(map(float, self.x)), float(self.t), tuple(map(float, self.w))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "w", w)
        for name, values in (("x", x), ("t", (t,)), ("w", w)):
            if not all(map(math.isfinite, values)):
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
    """Value, gradient and Hessian of u at a point; the Hessian as rows, a
    tuple of float tuples."""

    value: float
    gradient: tuple[float, ...]
    hessian: tuple[tuple[float, ...], ...]


def cancellation_coefficient(n: int, k: int) -> int:
    """The exact integer -C(n-2, k-2) + C(n-2, k-1): zero iff 2k = n + 1."""
    _check_integers(n=n, k=k)
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must be in 2..{n - 1}, got {k}")
    return -math.comb(n - 2, k - 2) + math.comb(n - 2, k - 1)


def derive_constants(n_base: int) -> SolutionParams:
    """The core (m = 0) solution in dimension n_base: ``SolutionParams(n_base)``."""
    return SolutionParams(n_base)


# The relative margin on e^t_hi and e^(-(k-1) t_lo) with which a box of
# samples is checked, so that the check covers every sample (_check_overflow)
BOX_MARGIN = 1.0 + 2.0**-40


def _check_overflow(
    p: SolutionParams, x_radius: float, t_lo: float, t_hi: float, margin: float, what
) -> tuple[float, float]:
    """Refuse |x_i| <= R = x_radius, t in [t_lo, t_hi] if Hessians could overflow;
    return e^t_hi and e^(-(k-1) t_lo).

    The exponent guard, |t| (k - 1) <= OVERFLOW_EXPONENT on t_lo and then on
    t_hi, keeps both finite.  Then, with both times `margin`, the absolute
    Hessian entries sum to at most

        F = (n-1) (2 + 4R + R^2) e^t_hi + e^(-(k-1) t_lo) / A + (B/A) e^t_hi,

    which bounds ||D^2 u||_F and every eigenvalue.  The m zero eigenvalues
    of the w block add nothing to any sigma_j, and nothing forms more than
    sigma_n of the n-dimensional core: spectrum_dd's terms and sigma_j
    (j <= k), fro**j (j <= k) in the cone thresholds and the exact audit's
    quotients by D^j (j <= k) are all at most (1 + F)^n.  Requiring
    (1 + F)^n <= doubledouble.SPLIT_MAX = 2^996 keeps them finite and in the
    range where Dekker's split is exact, whatever m is: on t in [-2, 2],
    x_radius up to ~2e49 for n = 3 and ~5e12 for n = 11.  `what` names the
    input in the radius guard's error: the (x, t) of a point, or a
    description of a box.

    eval_jet checks each point, with max |x_i|, t_lo = t_hi = t and margin
    1, and takes its closed form from the two exponentials returned.
    residual_scan checks its box once, with R, [t_min, t_max] and margin
    BOX_MARGIN, and no sample again; this call passes only if the point
    check of every sample (x, t) in the box would, with E = exp(t) and
    1 / ph for the leading part ph of the double-double E^(k-1) that
    spectrum_dd forms, for an exp within an ulp:
    - |t| (k - 1) <= 700: t >= t_lo, since fl(t_lo + v) >= t_lo for v >= 0,
      and t <= t_hi + 1050 2^-52 (two items down); a t_hi within that of
      the exponent limit 700 / (k - 1) = 1400 / (n - 1) makes
      F >= 2 (n-1) e^(1400/(n-1)), so n log2(1 + F) > 1400 / ln 2 > 996 and
      the radius guard refuses the box.  So no sample is compared with the
      exponent limit either.
    - |x_i| <= R: x_i = fl(-R + fl(2R u)) with 0 <= u < 1.
    - E < e^t_hi (1 + 2^-41.9): t = fl(t_lo + fl(w u)) with w = fl(t_hi -
      t_lo), and w and the sum each round by at most half an ulp, so
      t - t_hi <= 1.5 2^-52 max(|t_lo|, |t_hi|) <= 1050 2^-52, as the
      exponent guard keeps |t| (k - 1) <= 700.  exp adds an ulp to E and
      takes at most one from exp(t_hi).
    - 1 / ph < e^(-(k-1) t_lo) (1 + (k + 3) 2^-52): t >= t_lo; E^(k-1) is
      within (k - 1) 2^-52 of e^((k-1)t), its k - 2 products in
      double-double add ~2^-100 each, ph is within 2^-53 of their sum and
      1.0 / ph rounds once more.  The box's exp(fl(-(k-1) t_lo)) loses at
      most 2^-43 to the rounded exponent and an ulp to exp.  No box passes
      this guard once n >= 997 (F >= 1 at every t: e^t >= 1/(n-1) makes the
      first term at least 2, and otherwise e^(-(k-1)t) / A > (n-1)^(k-1) /
      2^(n+k-2) = ((n-1)/8)^(k-1)), so k <= 498 and this is below 2^-42.
    From n = 689 on, A passes the largest float and A_float is inf, so F
    leaves out its second term, which the exponent guard keeps below
    e^700 / 2^1024 < 2^-13 there.  No box passes then either: the exponent
    guard keeps e^t >= e^(-1400/(n-1)), so the first term alone is at least
    2 (n-1) e^(-1400/(n-1)) > 180, past 2^(996/n) - 1 < 1.8.
    So the box's two exponentials exceed the point's by over 2^-41
    relative, even after their rounded product with BOX_MARGIN; every term
    of F carries one of them, F's few rounded sums and products of
    nonnegative floats move it by ~2^-50, and log2, within an ulp (2^-44
    below the 332 it is compared with), keeps that order.
    """
    km1 = p.k - 1
    for t in (t_lo, t_hi):
        if abs(t) * km1 > OVERFLOW_EXPONENT:
            raise OverflowError(
                f"|t| = {abs(t):g} exceeds the exponential overflow guard "
                f"({OVERFLOW_EXPONENT / km1:g} for k = {p.k})"
            )
    et_hi, e_decay_lo = math.exp(t_hi), math.exp(-km1 * t_lo)
    et_bound = et_hi * margin
    bound = (
        (p.n_base - 1) * (2.0 + 4.0 * x_radius + x_radius * x_radius) * et_bound
        + e_decay_lo * margin / p.A_float
        - p.h_coeffs_float[1] * et_bound  # h_coeff_growth = -B/A
    )
    if p.n_base * math.log2(1.0 + bound) > _LOG2_SPLIT_MAX:
        if not isinstance(what, str):
            x, t = what
            what = f"point x = {tuple(x)}, t = {t}"
        raise OverflowError(
            f"{what} lets the Hessian norm reach {bound:.3g}; sigma_1..sigma_{p.n_base} "
            f"stay finite only while (1 + that)^{p.n_base} <= 2^996"
        )
    return et_hi, e_decay_lo


def _closed_form(p: SolutionParams, et: float, e_decay: float) -> tuple[float, float, float]:
    """h, h', h'' at t, from e^t and e^(-(k-1)t)."""
    km1 = p.k - 1
    decay, growth = p.h_coeffs_float[0] * e_decay, p.h_coeffs_float[1] * et
    return decay + growth, -km1 * decay + growth, km1 * km1 * decay + growth


def _fraction_str(q: Fraction) -> str:
    """str(q) by Decimal, which CPython's 4300-digit limit on str(int) does not
    bind: h_coeff_decay's denominator A (k-1)^2 passes it from n = 9513 on."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def h_formula(p: SolutionParams) -> str:
    """Human-readable closed form of h, e.g. '(1/4)*exp(-t) + (-1)*exp(t)'."""
    km1 = p.k - 1
    exponent = "-t" if km1 == 1 else f"-{km1}t"
    decay, growth = map(_fraction_str, (p.h_coeff_decay, p.h_coeff_growth))
    return f"({decay})*exp({exponent}) + ({growth})*exp(t)"


def _check_point(p: SolutionParams, pt: Point) -> None:
    if len(pt.x) != p.n_base - 1 or len(pt.w) != p.m:
        raise ValueError(
            f"point shape ({len(pt.x)} x, {len(pt.w)} w) does not match "
            f"params ({p.n_base - 1} x, {p.m} w)"
        )


def arrow_rows(a, cross, corner, m: int, zero) -> list[list]:
    """The layout of u's Hessian, with entries from any ring, as rows.

    On the x, t block it is the arrow matrix [[a I, c], [c^T, corner]], with
    a = 2e^t on the x diagonal, c = `cross` = 2x e^t in the t row and column
    and corner = r^2 e^t + h''(t); then m rows and columns of `zero` for w.
    eval_jet (float64) and symbolic.rotated_hessian_from_constants (exact,
    x = (r, 0, ..., 0)) compute these entries in their own arithmetic and
    place them here; exact_hessian (integers, scaled) returns its entries as
    they are, and no scan lays them out.
    """
    nx = len(cross)
    dim = nx + 1 + m
    rows = [[zero] * dim for _ in range(dim)]
    for i, c in enumerate(cross):
        rows[i][i] = a
        rows[i][nx] = rows[nx][i] = c
    rows[nx][nx] = corner
    return rows


def eval_jet(p: SolutionParams, pt: Point) -> Jet2:
    """Value, gradient and Hessian of u at pt, from the closed forms.

    Coordinates are ordered x first, then t, then w; the w rows and columns
    of the Hessian are identically zero.
    """
    _check_point(p, pt)
    et, e_decay = _check_overflow(p, max(map(abs, pt.x)), pt.t, pt.t, 1.0, (pt.x, pt.t))
    h0, h1, h2 = _closed_form(p, et, e_decay)
    r2et = sum(v * v for v in pt.x) * et
    cross = [2.0 * v * et for v in pt.x]
    gradient = (*cross, r2et + h1) + (0.0,) * p.m
    hess = arrow_rows(2.0 * et, cross, r2et + h2, p.m, 0.0)
    return Jet2(value=r2et + h0, gradient=gradient, hessian=tuple(map(tuple, hess)))


def spectrum_dd(p: SolutionParams, points):
    """For each (x, t) of `points`, with x the x block (n - 1 floats), yield
    E = math.exp(t), the terms (a, tr, det) of u's Hessian at that point and
    its sigma_1..sigma_k, in double-double, in closed form from that one
    double exponential.

    Terms.  Every entry of D^2 u depends on t only through e^t, so terms
    formed from (E, 0.0) are the exact terms at t* = ln E up to
    double-double rounding, with |t* - t| <= 2^-53 for an exp within half an
    ulp.  The powers e^(jt), j < k, are products with E; e^(-(k-1)t) is
    1/E^(k-1), never a second exponential, whose rounding would not match
    E's; h'' = h2_decay_dd e^(-(k-1)t) + h2_growth_dd e^t, and r^2 e^t is the
    sum of the exact squares of x times E.  Both overflow guards are the
    caller's: every point must lie in a box that _check_overflow has passed
    with the margin it describes, as residual_scan's box does, so that E is
    finite and every product stays below doubledouble.SPLIT_MAX.

    Spectrum.  On the x, t block the Hessian is the arrow matrix
    [[a I, c], [c^T, d]] with a = 2e^t, c = 2x e^t and d = r^2 e^t + h''; the
    w block is zero.  So its eigenvalues are a, with multiplicity n - 2 (the
    x directions orthogonal to c), m zeros, and the two eigenvalues of
    [[a, |c|], [|c|, d]], the roots of mu^2 - tr mu + det with tr = a + d and

        det = a d - |c|^2 = 2e^t h'' - 2r^2 e^(2t) = a (h'' - r^2 e^t),

    formed as the last, never as a d - |c|^2, whose two terms both grow like
    r^2 and cancel.  The kernel stops at the sigmas and yields the terms
    a, tr and det that the scan's verdicts read; it forms no root.

    Sigmas.  prod_i (1 + lambda_i y) = (1 + a y)^(n-2) (1 + tr y + det y^2),
    so with g_j = C(n-2, j) a^j (g_0 = 1, a^j = 2^j e^(jt) for j < k),

        sigma_j = g_j + g_(j-1) tr + g_(j-2) det,

    the last term from j = 2 on: 3k - 3 products and 2k - 1 sums, against
    ~d^2 / 2 of each for the e_j recurrence over all d eigenvalues.  g_j is
    formed in the loop over j that forms sigma_j, which keeps g_(j-1) and
    g_(j-2), each with the split of its hi, in locals: a point builds no
    list of the g_j.

    Every double-double operation is written out here, in one Python frame
    for the whole of `points`: Knuth's TwoSum, Dekker's split and TwoProd
    and the closing FastTwoSum in locals.  What does not depend on the point
    is taken once per call: k, the splits of the two coefficients of h'' and
    of the binomials C(n-2, j), and the powers of two; per point E, a, tr
    and det, which several products share, are split once.  The float
    operations are those of the textbook double-double add, sub, mul and div
    composed as the formulas above read, so every value is that
    composition's bit for bit; tests/conftest.py keeps the composition and
    tests/test_solution.py pins this.  The scan passes one block of samples
    per call, with x and t as plain floats, so that no Point is built per
    sample; its audit reads E and the sigmas.  A one-point call is
    next(spectrum_dd(p, [(x, t)])).  Being a generator, the kernel raises at
    the point that fails, after yielding every point before it.
    """
    split = dd.SPLITTER
    km1 = p.k - 1
    # h'' = h2_decay_dd e^(-(k-1)t) + h2_growth_dd e^t, each coefficient split
    kh, kl = p.h2_decay_dd
    c = split * kh
    khi = c - (c - kh)
    klo = kh - khi
    gh, gl = p.h2_growth_dd
    c = split * gh
    ghi = c - (c - gh)
    glo = gh - ghi
    # C(n-2, j) for j = 1 .. k, each as its hi, its lo and the split of its hi
    binomials = []
    for xh, xl in p.arrow_binomials_dd[1:]:
        c = split * xh
        xhi = c - (c - xh)
        binomials.append((xh, xl, xhi, xh - xhi))
    pow2 = [2.0**j for j in range(2, km1 + 1)]  # a^j = 2^j e^(jt) past j = 1

    for x, t in points:
        E = math.exp(t)
        c = split * E
        ehi = c - (c - E)
        elo = E - ehi
        # e^(jt) for j = 1 .. k - 1, each the product of the last one and
        # (E, 0.0), and a^j = 2^j e^(jt), the exact scaling of each
        ph, pl = E, 0.0
        powers = [(E * 2.0, 0.0)]
        for f in pow2:
            prod = ph * E
            c = split * ph
            xhi = c - (c - ph)
            xlo = ph - xhi
            e = (((xhi * ehi - prod) + xhi * elo + xlo * ehi) + xlo * elo) + (ph * 0.0 + pl * E)
            ph = prod + e
            pl = e - (ph - prod)
            powers.append((ph * f, pl * f))

        # e^(-(k-1)t) = (1.0, 0.0) / (ph, pl): the textbook double-double
        # division, q1 = 1 / ph, then two corrections, each over ph, of the
        # rest less (ph, pl) q, ph split once
        q1 = 1.0 / ph
        c = split * ph
        yhi = c - (c - ph)
        ylo = ph - yhi
        prod = ph * q1
        c = split * q1
        xhi = c - (c - q1)
        xlo = q1 - xhi
        e = (((yhi * xhi - prod) + yhi * xlo + ylo * xhi) + ylo * xlo) + pl * q1
        sh = prod + e
        sl = e - (sh - prod)
        b = -sh
        s = 1.0 + b
        bb = s - 1.0
        e = ((1.0 - (s - bb)) + (b - bb)) + (0.0 - sl)
        rh = s + e
        rl = e - (rh - s)
        q2 = rh / ph
        prod = ph * q2
        c = split * q2
        xhi = c - (c - q2)
        xlo = q2 - xhi
        e = (((yhi * xhi - prod) + yhi * xlo + ylo * xhi) + ylo * xlo) + pl * q2
        sh = prod + e
        sl = e - (sh - prod)
        b = -sh
        s = rh + b
        bb = s - rh
        e = ((rh - (s - bb)) + (b - bb)) + (rl - sl)
        q3 = (s + e) / ph
        s = q1 + q2
        e = (q2 - (s - q1)) + q3
        decay_h = s + e
        decay_l = e - (decay_h - s)

        # h'' = (kh, kl) (decay_h, decay_l) + (gh, gl) (E, 0.0)
        prod = kh * decay_h
        c = split * decay_h
        yhi = c - (c - decay_h)
        ylo = decay_h - yhi
        e = (((khi * yhi - prod) + khi * ylo + klo * yhi) + klo * ylo) + (
            kh * decay_l + kl * decay_h
        )
        uh = prod + e
        ul = e - (uh - prod)
        prod = gh * E
        e = (((ghi * ehi - prod) + ghi * elo + glo * ehi) + glo * elo) + (gh * 0.0 + gl * E)
        vh = prod + e
        vl = e - (vh - prod)
        s = uh + vh
        bb = s - uh
        e = ((uh - (s - bb)) + (vh - bb)) + (ul + vl)
        h2h = s + e
        h2l = e - (h2h - s)

        # r^2 e^t: the chain r = r + TwoProd(v, v) from r = 0, times (E, 0.0)
        rh = rl = 0.0
        for v in x:
            prod = v * v
            c = split * v
            xhi = c - (c - v)
            xlo = v - xhi
            q = ((xhi * xhi - prod) + xhi * xlo + xlo * xhi) + xlo * xlo
            s = rh + prod
            bb = s - rh
            e = ((rh - (s - bb)) + (prod - bb)) + (rl + q)
            rh = s + e
            rl = e - (rh - s)
        prod = rh * E
        c = split * rh
        xhi = c - (c - rh)
        xlo = rh - xhi
        e = (((xhi * ehi - prod) + xhi * elo + xlo * ehi) + xlo * elo) + (rh * 0.0 + rl * E)
        r2h = prod + e
        r2l = e - (r2h - prod)

        # a = 2 (E, 0.0), split once; d = r^2 e^t + h''; tr = a + d
        ah, al = E * 2.0, 0.0
        c = split * ah
        ahi = c - (c - ah)
        alo = ah - ahi
        s = r2h + h2h
        bb = s - r2h
        e = ((r2h - (s - bb)) + (h2h - bb)) + (r2l + h2l)
        dh = s + e
        dl = e - (dh - s)
        s = ah + dh
        bb = s - ah
        e = ((ah - (s - bb)) + (dh - bb)) + (al + dl)
        trh = s + e
        trl = e - (trh - s)

        # det = a (h'' - r^2 e^t), split once
        b = -r2h
        s = h2h + b
        bb = s - h2h
        e = ((h2h - (s - bb)) + (b - bb)) + (h2l - r2l)
        yh = s + e
        yl = e - (yh - s)
        prod = ah * yh
        c = split * yh
        yhi = c - (c - yh)
        ylo = yh - yhi
        e = (((ahi * yhi - prod) + ahi * ylo + alo * yhi) + alo * ylo) + (ah * yl + al * yh)
        deth = prod + e
        detl = e - (deth - prod)
        c = split * deth
        dethi = c - (c - deth)
        detlo = deth - dethi

        # a^k = a^(k-1) a
        wh, wl = powers[-1]
        prod = wh * ah
        c = split * wh
        xhi = c - (c - wh)
        xlo = wh - xhi
        e = (((xhi * ahi - prod) + xhi * alo + xlo * ahi) + xlo * alo) + (wh * al + wl * ah)
        uh = prod + e
        powers.append((uh, e - (uh - prod)))

        # sigma_1 = g_1 + tr; sigma_j = (g_j + g_(j-1) tr) + (det or g_(j-2) det).
        # g_j = C(n-2, j) a^j is formed as the loop reaches j, into (zh, zl);
        # g_(j-1) and g_(j-2) are kept as (fh, fl) and (oh, ol), each with the
        # split of its hi.  (vh, vl) is sigma_2's det term, det itself, and
        # None from sigma_3 on, where g_(j-2) det is formed
        c = split * trh
        thi = c - (c - trh)
        tlo = trh - thi
        pairs = zip(binomials, powers)
        (xh, xl, xhi, xlo), (yh, yl) = next(pairs)
        prod = xh * yh
        c = split * yh
        yhi = c - (c - yh)
        ylo = yh - yhi
        e = (((xhi * yhi - prod) + xhi * ylo + xlo * yhi) + xlo * ylo) + (xh * yl + xl * yh)
        fh = prod + e
        fl = e - (fh - prod)
        s = fh + trh
        bb = s - fh
        e = ((fh - (s - bb)) + (trh - bb)) + (fl + trl)
        uh = s + e
        sigmas = [(uh, e - (uh - s))]
        c = split * fh
        fhi = c - (c - fh)
        flo = fh - fhi
        vh, vl = deth, detl
        for (xh, xl, xhi, xlo), (yh, yl) in pairs:
            prod = xh * yh
            c = split * yh
            yhi = c - (c - yh)
            ylo = yh - yhi
            e = (((xhi * yhi - prod) + xhi * ylo + xlo * yhi) + xlo * ylo) + (xh * yl + xl * yh)
            zh = prod + e
            zl = e - (zh - prod)
            prod = fh * trh
            e = (((fhi * thi - prod) + fhi * tlo + flo * thi) + flo * tlo) + (fh * trl + fl * trh)
            uh = prod + e
            ul = e - (uh - prod)
            s = zh + uh
            bb = s - zh
            e = ((zh - (s - bb)) + (uh - bb)) + (zl + ul)
            sh = s + e
            sl = e - (sh - s)
            if vh is None:
                prod = oh * deth
                e = (((ohi * dethi - prod) + ohi * detlo + olo * dethi) + olo * detlo) + (
                    oh * detl + ol * deth
                )
                vh = prod + e
                vl = e - (vh - prod)
            s = sh + vh
            bb = s - sh
            e = ((sh - (s - bb)) + (vh - bb)) + (sl + vl)
            uh = s + e
            sigmas.append((uh, e - (uh - s)))
            vh = None
            oh = fh
            ol = fl
            ohi = fhi
            olo = flo
            c = split * zh
            fhi = c - (c - zh)
            fh = zh
            fl = zl
            flo = zh - fhi
        yield E, ((ah, al), (trh, trl), (deth, detl)), sigmas


def exact_hessian(p: SolutionParams, x, et: float) -> tuple[int, int, list[int], int]:
    """u's Hessian M at t* = ln et, exactly, as the parts of the integer
    arrow N = D M: a scale D > 0, alpha = D a, cross = D c and corner = D d,
    which arrow_rows would lay out as N.

    `x` is the x block as floats and `et` the double E = fl(e^t) that
    spectrum_dd returns, so every input is rational: E = P / 2^e, x_i = X_i / 2^F
    over one power of two, and the exact constants A and B of
    h'' = e^(-(k-1)t) / A - (B/A) e^t.  For integers A and B,
    D = A P^(k-1) 2^(2F+e) and, with W = A P^k,

        D a = 2^(2F+1) W,  D c_i = 2^(F+1) W X_i,  D r^2 e^t = W sum X_i^2,
        D h'' = 2^(2F+ek) - 2^(2F) B P^k,

    each formed by integer operations (a denominator of A or B, as in a
    perturbed control, multiplies D), and d = r^2 e^t + h''.
    """
    big_p, two_e = et.as_integer_ratio()
    e = two_e.bit_length() - 1
    ratios = [v.as_integer_ratio() for v in x]
    f = max(two_f.bit_length() for _, two_f in ratios) - 1
    xs = [num << (f + 1 - two_f.bit_length()) for num, two_f in ratios]
    a_num, a_den, b_num, b_den = p.A.numerator, p.A.denominator, p.B.numerator, p.B.denominator
    power = big_p ** (p.k - 1)
    scale = a_num * b_den * power << (2 * f + e)
    w = a_num * b_den * power * big_p
    r2et = w * sum(v * v for v in xs)
    h2 = (a_den * b_den << (2 * f + e * p.k)) - (b_num * a_den * power * big_p << (2 * f))
    return scale, w << (2 * f + 1), [w * v << (f + 1) for v in xs], r2et + h2
