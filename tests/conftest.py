"""Shared brute-force oracles, random-input builders and fixtures for the test suite.

The oracles deliberately use the dumbest correct algorithms available
(subset enumeration, cofactor expansion, LAPACK determinants, central
difference stencils, numpy's iterated differences) so they share no code
path with the implementations they check.  ``charpoly_sigmas`` is one
exception, named here as such.  The other is the scan kernel's composition
(``composed_spectrum_dd`` and the functions it calls), which is a reference
for bit-for-bit equality, not for accuracy, and so is built from the
textbook double-double operations kept here; ``composed_eigenvalues_dd``
reads the closed-form eigenvalues off that composition's terms, for the
tests that need them, and ``reference_scan_range`` judges its samples as the
scan did before it took a sample in one pass.  ``reference_audit`` audits a
sample by the expanded route, over D^j, that the exact audit took before it
factored sigma_j(N) as alpha^(j-2) Q_j.  A matrix is its rows, as in
the library: the builders return tuples of float tuples, and the oracles
take any rows.

``visible_cpus`` and ``one_cpu`` set the CPUs that ``residual_scan`` sees,
and so the number of sample ranges it splits a scan into.
"""

import math
import operator
import os
import random
from itertools import combinations

import numpy as np
import pytest

from sigmak import verify
from sigmak.cone import SIGMA_BOUNDARY_REL_TOL
from sigmak.errors import ConvergenceError
from sigmak.solution import Point, eval_jet, exact_hessian, spectrum_dd
from sigmak.symfunc import faddeev_leverrier


def e_brute(values, k):
    """e_k by explicit enumeration of all k-subsets."""
    vals = list(values)
    if k == 0:
        return 1
    total = 0
    for idx in combinations(range(len(vals)), k):
        prod = 1
        for i in idx:
            prod = prod * vals[i]
        total = total + prod
    return total


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def sigma_brute(matrix_rows, k):
    """sigma_k as a sum of principal minors, each by cofactor expansion."""
    n = len(matrix_rows)
    total = 0
    for idx in combinations(range(n), k):
        sub = [[matrix_rows[i][j] for j in idx] for i in idx]
        total = total + det_cofactor(sub)
    return total


def sigma_minors(m, k: int) -> float:
    """sigma_k of rows as the sum of the k x k principal minors' LAPACK determinants."""
    a = np.array(m)
    return float(np.linalg.det([a[np.ix_(s, s)] for s in combinations(range(len(m)), k)]).sum())


def charpoly_sigmas(m) -> tuple[float, ...]:
    """sigma_1..sigma_n by the library's own trace recursion run in float64.

    Not an oracle: it is one of the three routes that acceptance criterion 8
    compares, beside the Jacobi eigenvalues' e_j and ``sigma_minors``.
    """
    return tuple(faddeev_leverrier(m, operator.add, operator.mul, operator.truediv, 0.0))


# The scan's double-double kernel as the composition of double-double
# operations that solution.spectrum_dd writes out in one frame: dd_terms ->
# spectrum_sigmas_dd -> arrow_sigmas over dd_add, Dekker's TwoProd, the
# exact scaling mul_pow2, dd_sub, dd_mul and the textbook division dd_div.
# The kernel's E, terms and sigmas are pinned to these bit for bit
# (test_solution.py), and tests that need the kernel's intermediate terms, or
# a seam inside it, read them here.  composed_eigenvalues_dd forms the
# closed-form eigenvalues from the composition's five terms, with dd_sqrt
# and dd_div; the library forms none.  dd_add, dd_sub, dd_mul and
# sum_squares are pinned to the textbook kernels of test_doubledouble.py,
# which takes two_prod, two_sum, fast_two_sum and mul_f from here and tests
# dd_div and dd_sqrt against exact oracles.
_SPLITTER = 134217729.0  # 2**27 + 1
DD_ZERO = (0.0, 0.0)
DD_ONE = (1.0, 0.0)


def to_float(x) -> float:
    """The double-double (hi, lo) rounded to one float."""
    return x[0] + x[1]


def dd_add(x, y):
    """The double-double sum: TwoSum of the leading parts, plus both
    trailing parts, then FastTwoSum."""
    xh, xl = x
    yh, yl = y
    s = xh + yh
    bb = s - xh
    e = ((xh - (s - bb)) + (yh - bb)) + (xl + yl)
    h = s + e
    return h, e - (h - s)


def dd_sub(x, y):
    """The double-double difference: TwoSum of xh and -yh, plus xl - yl,
    then FastTwoSum.  The scan writes its residual sigma_k - 1 out with
    these float operations."""
    xh, xl = x
    yh, yl = y
    b = -yh
    s = xh + b
    bb = s - xh
    e = ((xh - (s - bb)) + (b - bb)) + (xl - yl)
    h = s + e
    return h, e - (h - s)


def dd_mul(x, y):
    """The double-double product: Dekker's TwoProd of the leading parts, plus
    both cross products xh yl + xl yh, then FastTwoSum, written out in one
    frame, as solution.spectrum_dd writes out each of its products.  A float
    f enters as (f, 0.0)."""
    xh, xl = x
    yh, yl = y
    p = xh * yh
    c = _SPLITTER * xh
    ahi = c - (c - xh)
    alo = xh - ahi
    c = _SPLITTER * yh
    bhi = c - (c - yh)
    blo = yh - bhi
    e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + (xh * yl + xl * yh)
    h = p + e
    return h, e - (h - p)


def dd_elementary_symmetric(values):
    """e_1 .. e_n of double-doubles: symfunc.elementary_symmetric's
    recurrence, seeded with e_1 = the first value, over dd_add and dd_mul."""
    e = []
    for v in values:
        if e:
            e.append(dd_mul(v, e[-1]))
            for j in range(len(e) - 2, 0, -1):
                e[j] = dd_add(e[j], dd_mul(v, e[j - 1]))
            e[0] = dd_add(e[0], v)
        else:
            e.append(v)
    return e


def two_prod(a: float, b: float):
    """Dekker's exact product p + e of two floats."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def two_sum(a: float, b: float):
    """Knuth's exact sum s + e of two floats."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def fast_two_sum(a: float, b: float):
    """The exact sum s + e of two floats with |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def mul_f(x, f: float):
    """The double-double x times the float f, the product y q that dd_div is
    composed of."""
    p, e = two_prod(x[0], f)
    return fast_two_sum(p, e + x[1] * f)


def dd_div(x, y):
    """The double-double quotient: q1 = xh / yh, r = x - y q1, q2 = rh / yh,
    r -= y q2, q3 = rh / yh, then q1 + q2 + q3 by two FastTwoSums."""
    q1 = x[0] / y[0]
    r = dd_sub(x, mul_f(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, mul_f(y, q2))
    q3 = r[0] / y[0]
    s, e = fast_two_sum(q1, q2)
    return fast_two_sum(s, e + q3)


def dd_sqrt(x):
    """The double-double square root: s = sqrt(xh) and one Newton step,
    s + (x - s^2) / 2s; refuses a negative, nan or non-finite x by name."""
    xh = x[0]
    if not xh > 0.0:
        if xh == 0.0:
            return DD_ZERO
        if xh < 0.0:
            raise ValueError("square root of a negative double-double")
        raise ValueError(f"square root of a nan double-double {x!r}")
    s = math.sqrt(xh)
    r = dd_sub(x, two_prod(s, s))
    h, e = fast_two_sum(s, (r[0] + r[1]) / (2.0 * s))
    if h != h:  # an infinite part or a nan lo, or s * s past the largest double
        raise ValueError(f"square root of a non-finite or out-of-range double-double {x!r}")
    return h, e


def sum_squares(xs):
    """The sum of the squares of the floats xs: r = add(r, TwoProd(v, v))
    from r = ZERO."""
    r = DD_ZERO
    for v in xs:
        r = dd_add(r, two_prod(v, v))
    return r


def mul_pow2(x, f: float):
    """x times f, exact when f is a power of two."""
    return (x[0] * f, x[1] * f)


def dd_terms(p, x, t: float):
    """The powers e^t, ..., e^((k-1)t), h''(t) and r^2 e^t in double-double,
    from E = math.exp(t), unguarded, as the kernel is: both overflow guards
    are the box's (solution._check_overflow)."""
    et = (math.exp(t), 0.0)
    et_powers = [et]
    for _ in range(p.k - 2):
        et_powers.append(dd_mul(et_powers[-1], et))
    e_decay = dd_div(DD_ONE, et_powers[-1])
    h2 = dd_add(dd_mul(p.h2_decay_dd, e_decay), dd_mul(p.h2_growth_dd, et))
    return et_powers, h2, dd_mul(sum_squares(x), et)


def spectrum_sigmas_dd(p, terms):
    """The kernel's terms (a, tr, det, d, r^2 e^t) and sigma_1..sigma_k from
    dd_terms' terms (see solution.spectrum_dd for the closed form)."""
    et_powers, h2, r2et = terms
    a = mul_pow2(et_powers[0], 2.0)
    d = dd_add(r2et, h2)
    tr = dd_add(a, d)
    det = dd_mul(a, dd_sub(h2, r2et))
    powers = [mul_pow2(v, 2.0**j) for j, v in enumerate(et_powers, start=1)]
    powers.append(dd_mul(powers[-1], a))
    return (a, tr, det, d, r2et), arrow_sigmas(p.arrow_binomials_dd, powers, tr, det)


def composed_eigenvalues_dd(p, x, t: float):
    """The closed-form eigenvalues at (x, t) from the composition's terms
    (a, tr, det, d, r^2 e^t), ascending: the larger root
    tr/2 + sqrt(((a - d)/2)^2 + |c|^2), det over it, a and the zeros.  The
    larger root is a sum of two terms >= 0 and the smaller det / larger, so
    neither cancels."""
    a, tr, det, d, r2et = spectrum_sigmas_dd(p, dd_terms(p, x, t))[0]
    half_gap = mul_pow2(dd_sub(a, d), 0.5)
    c2 = dd_mul(a, mul_pow2(r2et, 2.0))  # |c|^2 = 4 r^2 e^(2t)
    larger = dd_add(mul_pow2(tr, 0.5), dd_sqrt(dd_add(dd_mul(half_gap, half_gap), c2)))
    values = [dd_div(det, larger), larger] + [a] * (p.n_base - 2) + [DD_ZERO] * p.m
    values.sort()
    return values


def arrow_sigmas(binomials, powers, tr, det):
    """sigma_j = g_j + g_(j-1) tr + g_(j-2) det, g_j = binomials[j] powers[j - 1]."""
    g = [DD_ONE] + [dd_mul(c, power) for c, power in zip(binomials[1:], powers)]
    sigmas = [dd_add(g[1], tr)]
    for j in range(2, len(powers) + 1):
        sigma = dd_add(g[j], dd_mul(g[j - 1], tr))
        sigmas.append(dd_add(sigma, det if j == 2 else dd_mul(g[j - 2], det)))
    return sigmas


def composed_spectrum_dd(p, points):
    """solution.spectrum_dd(p, points) as the composition: for each (x, t)
    of `points`, (E, (a, tr, det), sigmas).  The module globals it calls are
    looked up at call time, so a test may patch dd_terms or arrow_sigmas here
    and pass this function to the scan in the kernel's place."""
    for x, t in points:
        terms = dd_terms(p, x, t)
        five, sigmas = spectrum_sigmas_dd(p, terms)
        yield terms[0][0][0], five[:3], sigmas


def reference_scan_range(p, box, start: int, stop: int) -> tuple:
    """verify._scan_range's partial report of samples start .. stop - 1, by
    the per-sample statements it ran before it judged a sample in one pass:
    x blocks by one comprehension each, the sigmas rounded to a list, the
    residual by dd_sub, the finiteness check on sum(sigmas), and the cone
    verdicts, all() and min(*sigmas) on the sigma rule's list of flags; over
    composed_spectrum_dd, for the tests to hold the scan to bit for bit."""
    t_lo, t_hi = box.t_range
    k, n2 = p.k, p.n_base - 2
    d, nx = p.total_dim, p.n_base - 1
    x_lo, x_width, t_width = -box.x_radius, 2.0 * box.x_radius, t_hi - t_lo
    check_phase = p.n_base == 3 and p.m == 0
    max_resid, argmax = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    for block in range(start, stop, verify.AUDIT_STRIDE):
        size = min(verify.AUDIT_STRIDE, stop - block)
        words = verify.splitmix64_words(box.seed, block * d, size * d)
        points = [
            (
                [x_lo + x_width * ((word >> 11) * 2.0**-53) for word in words[at : at + nx]],
                t_lo + t_width * ((words[at + nx] >> 11) * 2.0**-53),
            )
            for at in range(0, size * d, d)
        ]
        kernel = composed_spectrum_dd(p, points).__next__
        for i, (x, _) in zip(range(block, block + size), points):
            try:
                et, ((a, _), (tr_hi, tr_lo), (det_hi, det_lo)), e = kernel()
                tr, det = tr_hi + tr_lo, det_hi + det_lo
                fro = math.sqrt(n2 * a * a + tr * tr - 2.0 * det)
                sigmas = [hi + lo for hi, lo in e]
                hi, lo = dd_sub(e[k - 1], DD_ONE)
                resid = abs(hi + lo)
                if not math.isfinite(resid + fro + sum(sigmas)):
                    raise ConvergenceError(
                        f"non-finite value: |sigma_{k} - 1| = {resid}, fro = {fro}, "
                        f"sigma_1..sigma_{k} = {sigmas}"
                    )
                if i % verify.AUDIT_STRIDE == 0:
                    verify._audit_sample(p, x, et, e)
            except ConvergenceError as exc:
                pt = verify.sample_point(p, box, i)
                raise ConvergenceError(f"sample {i} at {pt}: {exc}") from exc

            if resid > max_resid:
                max_resid, argmax = resid, i
            positive = [
                sigmas[j - 1] > SIGMA_BOUNDARY_REL_TOL * (1.0 + fro**j) for j in range(1, k + 1)
            ]
            cone_failures += not all(positive)
            lemma_failures += not positive[-1]
            min_sigma_j = min(min_sigma_j, *sigmas)
            if check_phase and abs(
                math.atan(a) + math.atan2(tr, 1.0 - det) - verify.CRITICAL_PHASE_N3
            ) > verify.PHASE_TOL:
                phase_failures += 1
    return max_resid, argmax, cone_failures, lemma_failures, min_sigma_j, phase_failures


def spectrum_dd_at(p, x, t: float):
    """The kernel's (E, (a, tr, det), sigmas) at the one point (x, t):
    next(solution.spectrum_dd(p, [(x, t)])), x as a list, as the scan
    passes it."""
    return next(spectrum_dd(p, [(list(x), t)]))


def reference_audit(p, x, et: float, sigmas) -> None:
    """verify._audit_sample by the expanded route it took before it factored
    sigma_j(N) as alpha^(j-2) Q_j: the coefficients
    g_j + g_(j-1) tau + g_(j-2) delta of (1 + alpha y)^(n-2)
    (1 + tau y + delta y^2), g_j = C(n-2, j) alpha^j, over the exact sigmas'
    (tau, delta) and the scale's (s, |delta|), against D, D^2, ..., D^k.
    Raises the audit's ConvergenceError texts, in its order of checks."""
    n, k = p.n_base, p.k
    scale, alpha, cross, corner = exact_hessian(p, x, et)
    tau, delta = alpha + corner, alpha * corner - sum(c * c for c in cross)
    s = abs(tau) if delta >= 0 else math.isqrt(tau * tau - 4 * delta) + 1
    g = [math.comb(n - 2, j) * alpha**j for j in range(k + 1)]
    exact, sizes = (
        [g[j] + g[j - 1] * b + (g[j - 2] * c if j > 1 else 0) for j in range(1, k + 1)]
        for b, c in ((tau, delta), (s, abs(delta)))
    )
    powers = [scale**j for j in range(1, k + 1)]
    if exact[-1] != powers[-1]:
        raise ConvergenceError(
            f"exact sigma_{k}(N) - D^{k} is {(exact[-1] - powers[-1]) / powers[-1]:.17g} "
            f"D^{k}, not 0"
        )
    for j, (sigma, power) in enumerate(zip(exact[:-1], powers), start=1):
        if sigma <= 0:
            raise ConvergenceError(
                f"exact sigma_{j}(N) is {sigma / power:.17g} D^{j}, not positive"
            )
    unit = verify.SIGMA_AUDIT_UNITS * n * 2.0**-104
    for j, (structured, sigma, power, size) in enumerate(zip(sigmas, exact, powers, sizes), 1):
        gap, tol = verify._gap(structured, sigma, power), unit * (size / power)
        if not gap <= tol:
            raise ConvergenceError(
                f"structured sigma_{j} disagrees with the exact sigma_{j}(N) / D^{j} by "
                f"{gap:g} (tolerance {tol:g})"
            )


def dd_hessian(p, pt):
    """u's Hessian at pt with the double-double entries of the terms that
    dd_terms gives: 2E on the x diagonal, 2xE in the t row and column,
    r^2 E + h'' in the corner, then the zero w block."""
    et_powers, h2, r2et = dd_terms(p, pt.x, pt.t)
    et = et_powers[0]
    nx, dim = p.n_base - 1, p.total_dim
    rows = [[DD_ZERO] * dim for _ in range(dim)]
    for i, v in enumerate(pt.x):
        rows[i][i] = mul_pow2(et, 2.0)
        rows[i][nx] = rows[nx][i] = dd_mul(et, (2.0 * v, 0.0))
    rows[nx][nx] = dd_add(r2et, h2)
    return rows


def central_hessian(func, coords, step: float) -> list[list[float]]:
    """Hessian of a scalar function by central second differences.

    Diagonal entries use the three-point stencil, off-diagonal entries the
    four-point cross stencil; the result is averaged with its transpose.
    """
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


def fd_hessian(p, pt: Point, step: float) -> list[list[float]]:
    """Finite-difference Hessian of u at pt: an oracle for eval_jet."""

    def func(flat):
        return eval_jet(p, Point.from_coords(p, flat)).value

    coords = list(pt.x) + [pt.t] + list(pt.w)
    return central_hessian(func, coords, step)


def nonpoly_witness(p, max_degree: int) -> list[float]:
    """Divided-difference witnesses that u is not a polynomial.

    Entry d (d = 1..max_degree) is the (d+1)-fold forward difference of
    t -> u(0, t) = h(t) at unit spacing from t = 0.  A polynomial of degree
    <= d would make entry d exactly zero.
    """
    origin, w = (0.0,) * (p.n_base - 1), (0.0,) * p.m
    samples = [eval_jet(p, Point(origin, float(t), w)).value for t in range(max_degree + 2)]
    return [float(np.diff(samples, n=d + 1)[0]) for d in range(1, max_degree + 1)]


def diagonal(values) -> tuple[tuple[float, ...], ...]:
    """The diagonal matrix of `values`, as rows."""
    return tuple(
        tuple(float(v) if i == j else 0.0 for j in range(len(values))) for i, v in enumerate(values)
    )


def frobenius_norm(m) -> float:
    """||M||_F of rows, summed in row order."""
    return math.hypot(*(v for row in m for v in row))


def random_symmetric(rng: random.Random, dim: int, scale: float = 5.0) -> tuple[tuple[float, ...], ...]:
    a = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            v = rng.uniform(-scale, scale)
            a[i, j] = v
            a[j, i] = v
    return tuple(map(tuple, a.tolist()))


def random_rotation(rng: random.Random, dim: int, rotations: int | None = None) -> np.ndarray:
    """Orthogonal matrix assembled from random Jacobi (Givens) rotations."""
    q = np.eye(dim)
    if rotations is None:
        rotations = 2 * dim
    for _ in range(rotations):
        p_idx = rng.randrange(dim)
        q_idx = rng.randrange(dim)
        if p_idx == q_idx:
            continue
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        giv = np.eye(dim)
        giv[p_idx, p_idx] = c
        giv[q_idx, q_idx] = c
        giv[p_idx, q_idx] = s
        giv[q_idx, p_idx] = -s
        q = q @ giv
    return q


def rotate_exactly_symmetric(m, q: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Q^T M Q of rows M, averaged with its transpose so that it is exactly symmetric."""
    b = q.T @ np.array(m) @ q
    return tuple(map(tuple, ((b + b.T) / 2.0).tolist()))


@pytest.fixture
def visible_cpus(monkeypatch):
    """A function that makes a scan see `count` CPUs and split its samples
    into up to `count` ranges: os.sched_getaffinity reports CPUs 0 .. count
    - 1, and os.sched_setaffinity, which places the scan's workers on them,
    does nothing, since most of those CPUs need not exist."""

    def restrict(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)

    return restrict


@pytest.fixture
def one_cpu(visible_cpus):
    """One visible CPU: a scan runs every sample in this process, as one loop.

    For tests that count calls, or keep call-numbered state, in functions
    they patch: a forked worker runs its samples on its own copy of that
    state, which the test never sees.
    """
    visible_cpus(1)
