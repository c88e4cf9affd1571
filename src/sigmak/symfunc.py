"""Elementary symmetric functions of symmetric matrices, three independent ways.

sigma_k of a real symmetric matrix is e_k of its eigenvalues, equivalently the
sum of its k x k principal minors, equivalently (up to sign) a coefficient of
its characteristic polynomial.  Each route is implemented separately so the
three can serve as cross-checking oracles for one another:

* cyclic Jacobi eigenvalues + the one-row e_k recurrence,
* explicit principal-minor enumeration with LU determinants,
* the Faddeev-LeVerrier trace recursion for all coefficients at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from . import doubledouble as dd
from .errors import CapabilityError, ConvergenceError

# C(14,7) = 3432 minors is still cheap; past that the oracle role is pointless.
MINOR_DIM_LIMIT = 14
JACOBI_MAX_SWEEPS = 50
JACOBI_REL_TOL = 1e-12  # off-diagonal Frobenius target, relative to 1 + ||M||_F


class SymmetricMatrix:
    """Dense real symmetric matrix, immutable after construction.

    Construction rejects input that is not exactly symmetric; use
    :meth:`symmetrized` for data that is symmetric only up to noise.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        a.flags.writeable = False
        self.entries = a

    @classmethod
    def diagonal(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, dim: int) -> "SymmetricMatrix":
        return cls(np.eye(dim))

    @classmethod
    def symmetrized(cls, entries, tol: float = 1e-12) -> "SymmetricMatrix":
        """Average nearly-symmetric input with its transpose; reject beyond tol."""
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        dev = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if dev > tol:
            raise ValueError(f"matrix asymmetry {dev:g} exceeds tolerance {tol:g}")
        return cls((a + a.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def to_lists(self) -> list[list[float]]:
        return self.entries.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self) -> str:
        return f"SymmetricMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a symmetric matrix, sorted ascending."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("eigenvalues must be sorted ascending")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SigmaVector:
    """sigma_1 .. sigma_n of an n x n symmetric matrix."""

    sigmas: tuple[float, ...]
    n: int

    def __post_init__(self):
        if len(self.sigmas) != self.n:
            raise ValueError(f"expected {self.n} sigmas, got {len(self.sigmas)}")

    def sigma(self, j: int) -> float:
        """1-based accessor: sigma(1) is the trace, sigma(n) the determinant."""
        if not 1 <= j <= self.n:
            raise ValueError(f"sigma index {j} out of range 1..{self.n}")
        return self.sigmas[j - 1]


def elementary_symmetric(values, k: int):
    """e_k of a sequence of numbers by the one-row recurrence, cost O(n*k).

    Works on floats, ints and Fractions alike and is exact on exact inputs;
    e_0 is the empty product 1.
    """
    vals = list(values)
    n = len(vals)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    e = [1] + [0] * k
    for i, v in enumerate(vals):
        for j in range(min(i + 1, k), 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[k]


def _lu_det(a: list[list[float]]) -> float:
    """Determinant by in-place LU elimination with partial pivoting."""
    n = len(a)
    det = 1.0
    for col in range(n):
        piv = col
        best = abs(a[col][col])
        for r in range(col + 1, n):
            v = abs(a[r][col])
            if v > best:
                best, piv = v, r
        if a[piv][col] == 0.0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pivval = a[col][col]
        det *= pivval
        row_c = a[col]
        for r in range(col + 1, n):
            row_r = a[r]
            f = row_r[col] / pivval
            if f != 0.0:
                for c in range(col + 1, n):
                    row_r[c] -= f * row_c[c]
    return det


def sigma_via_minors(m: SymmetricMatrix, k: int) -> float:
    """sigma_k as the explicit sum of all k x k principal minors."""
    n = m.dim
    if n > MINOR_DIM_LIMIT:
        raise CapabilityError(
            f"principal-minor enumeration is capped at dim {MINOR_DIM_LIMIT}, got {n}"
        )
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    rows = m.entries.tolist()
    total = 0.0
    for idx in combinations(range(n), k):
        total += _lu_det([[rows[i][j] for j in idx] for i in idx])
    return total


def sigma_all_via_charpoly(m: SymmetricMatrix) -> SigmaVector:
    """All sigma_1..sigma_n at once via the Faddeev-LeVerrier trace recursion.

    The characteristic polynomial is lambda^n + c_1 lambda^(n-1) + ... + c_n
    with c_j = -tr(A M_j)/j, M_1 = I, M_(j+1) = A M_j + c_j I; then
    sigma_j = (-1)^j c_j.
    """
    a = m.entries
    n = m.dim
    eye = np.eye(n)
    mj = eye
    sigmas = []
    sign = -1.0
    for j in range(1, n + 1):
        b = a @ mj
        c = -float(np.trace(b)) / j
        sigmas.append(sign * c)
        sign = -sign
        mj = b + c * eye
    out = SigmaVector(sigmas=tuple(sigmas), n=n)
    # cheap self-checks against independent quantities
    tr = m.trace()
    if abs(out.sigmas[0] - tr) > 1e-10 * (1.0 + abs(tr)):
        raise ConvergenceError(
            f"charpoly recursion lost the trace: {out.sigmas[0]} vs {tr}"
        )
    det = _lu_det(m.entries.tolist())
    fro = m.frobenius_norm()
    if abs(out.sigmas[-1] - det) > 1e-8 * (1.0 + fro**n):
        raise ConvergenceError(
            f"charpoly recursion lost the determinant: {out.sigmas[-1]} vs {det}"
        )
    return out


def _jacobi_sweeps(a: list[list[float]], n: int, tol: float) -> float | None:
    """Run cyclic Jacobi sweeps in place; return final off-norm or None."""
    skip = tol / (2.0 * n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off2 = 0.0
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                off2 += row_p[q] * row_p[q]
        off = math.sqrt(2.0 * off2)
        if off <= tol:
            return off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                app = a[p][p]
                aqq = a[q][q]
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for i in range(n):
                    if i == p or i == q:
                        continue
                    row_i = a[i]
                    aip = row_i[p]
                    aiq = row_i[q]
                    row_i[p] = c * aip - s * aiq
                    row_i[q] = s * aip + c * aiq
                    a[p][i] = row_i[p]
                    a[q][i] = row_i[q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = 0.0
                a[q][p] = 0.0
    off2 = 0.0
    for p in range(n - 1):
        for q in range(p + 1, n):
            off2 += a[p][q] * a[p][q]
    off = math.sqrt(2.0 * off2)
    return off if off <= tol else None


def eigenvalues_symmetric(m: SymmetricMatrix) -> Spectrum:
    """All eigenvalues by the cyclic Jacobi rotation method, sorted ascending.

    Converged when the off-diagonal Frobenius norm drops below
    1e-12 * (1 + ||M||_F); raises ConvergenceError after 50 sweeps.
    """
    n = m.dim
    fro = m.frobenius_norm()
    tol = JACOBI_REL_TOL * (1.0 + fro)
    a = m.entries.tolist()
    off = _jacobi_sweeps(a, n, tol)
    if off is None:
        off2 = sum(
            a[p][q] * a[p][q] for p in range(n - 1) for q in range(p + 1, n)
        )
        off = math.sqrt(2.0 * off2)
        raise ConvergenceError(
            f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {off:g}, target {tol:g})",
            offdiag_norm=off,
        )
    values = tuple(sorted(a[i][i] for i in range(n)))
    tr = m.trace()
    if abs(sum(values) - tr) > 1e-10 * (1.0 + abs(tr)):
        raise ConvergenceError(
            f"eigenvalue sum {sum(values)} drifted from trace {tr}"
        )
    return Spectrum(values=values)


# --- double-double variants -------------------------------------------------
#
# Same cyclic Jacobi and e_j recurrence, carried in double-double arithmetic.
# Used by the verification scan, where |sigma_k - 1| at sample-box corners is
# below what plain doubles can resolve (see module docstring of doubledouble).

DD_JACOBI_REL_TOL = 1e-28
# Each rotation moves a[p][p] and a[q][q] by -t*apq and +t*apq, so the trace
# changes only by the rounding of two double-double additions, a few 2^-104
# (~5e-32) times ||M||_F.  Even 50 sweeps of a 31 x 31 matrix stay below
# 1e-26 * ||M||_F; a lost or mis-signed rotation moves it by |t*apq| instead.
DD_TRACE_REL_TOL = 1e-24


def eigenvalues_symmetric_dd(entries_dd: list[list[dd.DD]]) -> list[dd.DD]:
    """Cyclic Jacobi on a symmetric matrix of double-double entries.

    Sorted ascending.  Raises ConvergenceError after 50 sweeps, or when the
    eigenvalue sum drifts from the trace by more than 1e-24 * (1 + ||M||_F).
    """
    n = len(entries_dd)
    a = [row[:] for row in entries_dd]
    fro2 = 0.0
    for i in range(n):
        for j in range(n):
            fro2 += a[i][j][0] * a[i][j][0]
    fro = math.sqrt(fro2)
    tol = DD_JACOBI_REL_TOL * (1.0 + fro)
    trace = reduce(dd.add, (a[i][i] for i in range(n)), dd.ZERO)
    skip = tol / (2.0 * n)
    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        off2 = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                hi = a[p][q][0]
                off2 += hi * hi
        if math.sqrt(2.0 * off2) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq[0]) <= skip:
                    continue
                app = a[p][p]
                aqq = a[q][q]
                theta = dd.div(dd.sub(aqq, app), dd.mul_pow2(apq, 2.0))
                athe = theta if theta[0] >= 0.0 else dd.neg(theta)
                t = dd.div(
                    dd.ONE,
                    dd.add(athe, dd.sqrt(dd.add_f(dd.mul(theta, theta), 1.0))),
                )
                if theta[0] < 0.0:
                    t = dd.neg(t)
                c = dd.div(dd.ONE, dd.sqrt(dd.add_f(dd.mul(t, t), 1.0)))
                s = dd.mul(t, c)
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip = a[i][p]
                    aiq = a[i][q]
                    new_p = dd.sub(dd.mul(c, aip), dd.mul(s, aiq))
                    new_q = dd.add(dd.mul(s, aip), dd.mul(c, aiq))
                    a[i][p] = new_p
                    a[p][i] = new_p
                    a[i][q] = new_q
                    a[q][i] = new_q
                tapq = dd.mul(t, apq)
                a[p][p] = dd.sub(app, tapq)
                a[q][q] = dd.add(aqq, tapq)
                a[p][q] = dd.ZERO
                a[q][p] = dd.ZERO
    if not converged:
        off2 = sum(
            a[p][q][0] ** 2 for p in range(n - 1) for q in range(p + 1, n)
        )
        off = math.sqrt(2.0 * off2)
        if off > tol:
            raise ConvergenceError(
                f"double-double Jacobi did not converge in {JACOBI_MAX_SWEEPS} "
                f"sweeps (off-diagonal norm {off:g}, target {tol:g})",
                offdiag_norm=off,
            )
    diag = [a[i][i] for i in range(n)]
    drift = abs(dd.to_float(dd.sub(reduce(dd.add, diag, dd.ZERO), trace)))
    if drift > DD_TRACE_REL_TOL * (1.0 + fro):
        raise ConvergenceError(f"double-double eigenvalue sum drifted from the trace by {drift:g}")
    diag.sort(key=dd.to_float)
    return diag


def elementary_symmetric_dd(values: list[dd.DD]) -> list[dd.DD]:
    """e_1 .. e_n of n double-doubles by one pass of the e_j recurrence."""
    e = [dd.ONE] + [dd.ZERO] * len(values)
    for i, v in enumerate(values, start=1):
        for j in range(i, 0, -1):
            e[j] = dd.add(e[j], dd.mul(v, e[j - 1]))
    return e[1:]
