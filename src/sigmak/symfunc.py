"""Elementary symmetric functions of symmetric matrices, two independent ways.

sigma_k of a real symmetric matrix is e_k of its eigenvalues, equivalently the
sum of its k x k principal minors, equivalently (up to sign) a coefficient of
its characteristic polynomial.  The library computes it by two routes, each
implemented separately so that one can check the other; the principal-minor
sum is left to the tests, which take it from LAPACK determinants:

* cyclic Jacobi eigenvalues + the e_j recurrence: the route of cone-check
  and phase-check, in float64 (``eigenvalues_symmetric``: off-diagonal
  target 1e-12 * (1 + ||M||_F), trace check 1e-10 * (1 + ||M||_F), at most
  50 sweeps).  The scan takes its sigmas in closed form
  (``solution.spectrum_dd``) and audits them exactly, with no Jacobi and no
  eigenvalue,
* the Faddeev-LeVerrier trace recursion for sigma_1..sigma_count at once,
  one ring-generic loop (``faddeev_leverrier``): in the library only over
  exact expressions, in ``symbolic.sym_sigmas``, which certifies from
  sigma_1..sigma_k alone; the tests also run it over ints and in float64.

A matrix is its rows in every ring.  A float matrix is a tuple of float
tuples: ``eigenvalues_symmetric`` takes any rows (numpy arrays too) through
one boundary that refuses empty, non-square and non-finite input, then
asymmetric input, as ``faddeev_leverrier`` does in its rings.  Rows that are
symmetric only up to noise are averaged where they are read, by the
``cone-check`` and ``phase-check`` file reader (``cli._read_matrix_file``).
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import ConvergenceError

JACOBI_MAX_SWEEPS = 50
# The cyclic Jacobi's off-diagonal Frobenius target, relative to 1 + ||M||_F.
JACOBI_REL_TOL = 1e-12
# The bound on the drift of the eigenvalue sum from the trace, relative to
# 1 + ||M||_F: the scale of the rounding, whatever the trace itself.  Each
# rotation moves a[p][p] and a[q][q] by -t*apq and +t*apq, so the trace
# changes only by the rounding of two additions, a unit in the last place
# (2^-53 ~1.1e-16) times ||M||_F.  Even 50 sweeps of a 31 x 31 matrix stay
# below 1e-11 times ||M||_F; a lost or mis-signed rotation moves it by
# |t*apq| instead.
TRACE_REL_TOL = 1e-10


def _float_rows(rows) -> tuple[tuple[float, ...], ...]:
    """Any sequence of rows (numpy arrays too) as a square tuple of float
    tuples; refuses empty, non-square and non-finite input, naming the row
    and column (from 1)."""
    try:
        rows = tuple(tuple(map(float, row)) for row in rows)
    except TypeError:
        raise ValueError("expected a square matrix given as a sequence of rows")
    if not rows:
        raise ValueError("matrix dimension must be >= 1")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(rows):
            raise ValueError(f"expected a square matrix, got {len(row)} entries in row {i}")
        for j, v in enumerate(row, start=1):
            if not math.isfinite(v):
                raise ValueError(f"matrix entry {v} at row {i}, column {j} is not finite")
    return rows


def _check_symmetric(rows) -> None:
    """Refuse rows, from any ring, that are empty, not square or not exactly
    symmetric, naming the first row or mirrored pair (from 1) at fault."""
    n = len(rows)
    if not n:
        raise ValueError("matrix dimension must be >= 1")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"expected a square matrix, got {len(row)} entries in row {i + 1}")
        for j in range(i):
            if row[j] != rows[j][i]:
                raise ValueError(
                    f"matrix is not symmetric: entries ({i + 1}, {j + 1}) and "
                    f"({j + 1}, {i + 1}) differ"
                )


def elementary_symmetric(values) -> list:
    """e_1 .. e_n of n values by one pass of the e_j recurrence, cost O(n^2).

    Generic over any values with + and *: floats, ints and Fractions (exact
    on exact inputs).  The recurrence starts from e_1 = the first value, so
    it needs no constants; an empty input gives [].
    """
    e = []
    for v in values:
        if e:
            e.append(v * e[-1])
            for j in range(len(e) - 2, 0, -1):
                e[j] = e[j] + v * e[j - 1]
            e[0] = e[0] + v
        else:
            e.append(v)
    return e


def faddeev_leverrier(rows, add, mul, div, zero, count=None) -> list:
    """sigma_1..sigma_count of the symmetric matrix ``rows`` by the trace
    recursion; ``count`` defaults to the dimension n, so all of them.

    The characteristic polynomial is lambda^n + c_1 lambda^(n-1) + ... + c_n
    with c_j = -tr(A M_j)/j, M_1 = I, M_(j+1) = A M_j + c_j I; then
    sigma_j = (-1)^j c_j.  sigma_j reads only A M_1 .. A M_j, so the
    recursion stops at j = count: a certificate of sigma_k skips the
    products for sigma_(k+1)..sigma_n, and each sigma_j it returns is the
    one the full recursion gives.  A M_1 = A is not formed, each product
    runs only over the nonzero entries of A's rows (the solution Hessian is
    an arrow matrix), and only the upper triangle of the symmetric A M_j is
    computed.  Ring-generic: ``div(x, j)`` divides by the integer j, and an
    entry is zero when it equals ``zero``: the int 0, 0.0 (which -0.0
    equals), or the empty SymExpr of ``symbolic.sym_sigmas`` (``sym_add``
    and ``sym_mul`` drop cancelled terms).  Since only that upper triangle is
    formed, rows that are empty, not square or not exactly symmetric are
    refused, naming the first row or mirrored pair (from 1) at fault.
    """
    _check_symmetric(rows)
    n = len(rows)
    if count is None:
        count = n
    elif isinstance(count, bool) or not isinstance(count, int) or not 1 <= count <= n:
        raise ValueError(f"count must be an integer in 1..{n} (the dimension), got {count!r}")
    # row i of a matrix as {column: entry} over its nonzero entries
    a_rows = [{col: e for col, e in enumerate(row) if e != zero} for row in rows]
    prod = a_rows  # A M_j, here for j = 1
    sigmas = []
    for j in range(1, count + 1):
        trace = reduce(add, (row.get(i, zero) for i, row in enumerate(prod)), zero)
        sigmas.append(div(trace, j if j % 2 else -j))
        if j == count:
            break
        c_j = div(trace, -j)
        mj = [dict(row) for row in prod]  # M_(j+1) = A M_j + c_j I
        for i, row in enumerate(mj):
            row[i] = add(row.get(i, zero), c_j)
            if row[i] == zero:
                del row[i]
        prod = [{} for _ in range(n)]
        for i, a_row in enumerate(a_rows):
            acc = prod[i]
            for mid, a_entry in a_row.items():
                for col, m_entry in mj[mid].items():
                    if col >= i:
                        term = mul(a_entry, m_entry)
                        acc[col] = add(acc[col], term) if col in acc else term
        for i, row in enumerate(prod):
            for col, entry in list(row.items()):
                if entry == zero:
                    del row[col]
                elif col > i:
                    prod[col][i] = entry
    return sigmas


def _cyclic_jacobi(a: list[list[float]], tol: float, trace_tol: float) -> list[float]:
    """Eigenvalues of the symmetric float matrix ``a`` by cyclic Jacobi, ascending.

    ``a`` is overwritten.  Sweeps stop once the off-diagonal Frobenius norm is
    at most ``tol``; a rotation is skipped when its pivot is at most
    tol / (2 dim).  Raises ConvergenceError, carrying that norm, when
    JACOBI_MAX_SWEEPS sweeps do not reach ``tol``, and when the eigenvalue sum
    drifts from the trace by more than ``trace_tol``.
    """
    n = len(a)
    trace = 0.0
    for i in range(n):
        trace += a[i][i]
    skip = tol / (2.0 * n)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off2 = 0.0
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                h = row_p[q]
                off2 += h * h
        off = math.sqrt(2.0 * off2)
        if off <= tol:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"float64 Jacobi did not converge in {JACOBI_MAX_SWEEPS} "
                f"sweeps (off-diagonal norm {off:g}, target {tol:g})"
            )
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(apq) <= skip:
                    continue
                row_q = a[q]
                app = row_p[p]
                aqq = row_q[q]
                # t = sign(theta) / (|theta| + sqrt(theta^2 + 1))
                theta = (aqq - app) / (apq + apq)
                root = math.sqrt(theta * theta + 1.0)
                t = 1.0 / (theta + root if theta >= 0.0 else theta - root)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for i, row_i in enumerate(a):
                    if i != p and i != q:
                        x, y = row_i[p], row_i[q]
                        row_i[p] = row_p[i] = c * x - s * y
                        row_i[q] = row_q[i] = s * x + c * y
                tapq = t * apq
                row_p[p] = app - tapq
                row_q[q] = aqq + tapq
                row_p[q] = row_q[p] = 0.0
    total = 0.0
    for i in range(n):
        total += a[i][i]
    drift = abs(total - trace)
    if drift > trace_tol:
        raise ConvergenceError(
            f"float64 eigenvalue sum drifted from the trace by {drift:g} "
            f"(tolerance {trace_tol:g})"
        )
    return sorted(a[i][i] for i in range(n))


def eigenvalues_symmetric(rows) -> tuple[float, ...]:
    """All eigenvalues of symmetric float rows by cyclic Jacobi in float64,
    sorted ascending.

    Refuses rows that are empty, not square, not finite (checked first, by
    row and column) or not exactly symmetric (by mirrored pair).  Converged
    when the off-diagonal Frobenius norm drops below 1e-12 * (1 + ||M||_F);
    raises ConvergenceError after 50 sweeps, or when the eigenvalue sum
    drifts from the trace by more than 1e-10 * (1 + ||M||_F).
    """
    rows = _float_rows(rows)
    _check_symmetric(rows)
    # every entry in row order: the stopping test reads fro, so another
    # summation could move an eigenvalue's last bit
    fro = math.hypot(*(v for row in rows for v in row))
    return tuple(_cyclic_jacobi(
        [list(row) for row in rows], JACOBI_REL_TOL * (1.0 + fro), TRACE_REL_TOL * (1.0 + fro)
    ))
