"""Elementary symmetric functions of symmetric matrices, three independent ways.

sigma_k of a real symmetric matrix is e_k of its eigenvalues, equivalently the
sum of its k x k principal minors, equivalently (up to sign) a coefficient of
its characteristic polynomial.  Each route is implemented separately so the
three can serve as cross-checking oracles for one another:

* cyclic Jacobi eigenvalues + the e_j recurrence: the route of every command
  (the scan takes its eigenvalues in closed form, ``solution.spectrum_dd``,
  and shares only the recurrence).  One ring-generic Jacobi runs in two
  arithmetics: float64 for ``cone-check`` and ``phase-check``
  (``eigenvalues_symmetric``: off-diagonal target 1e-12 * (1 + ||M||_F),
  trace check 1e-10 * (1 + ||M||_F)) and double-double for the scan's 1%
  audit of the closed form (``eigenvalues_symmetric_dd``: 1e-28 and 1e-24
  times the same scale); both stop after 50 sweeps,
* explicit principal-minor enumeration with LU determinants: the scan's 1%
  audit of sigma_k, and a test oracle,
* the Faddeev-LeVerrier trace recursion for all coefficients at once, with
  its trace and LU-determinant self-checks: a test oracle only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from . import doubledouble as dd
from .errors import CapabilityError, ConvergenceError

# C(14,7) = 3432 minors is still cheap; past that the oracle role is pointless.
MINOR_DIM_LIMIT = 14
JACOBI_MAX_SWEEPS = 50
# Off-diagonal Frobenius targets of the cyclic Jacobi, relative to 1 + ||M||_F.
JACOBI_REL_TOL = 1e-12
DD_JACOBI_REL_TOL = 1e-28
# Bounds on the drift of the eigenvalue sum from the trace, relative to
# 1 + ||M||_F: the scale of the rounding, whatever the trace itself.  Each
# rotation moves a[p][p] and a[q][q] by -t*apq and +t*apq, so the trace
# changes only by the rounding of two additions, a unit in the last place
# (2^-53 ~1.1e-16 in float64, 2^-104 ~5e-32 in double-double) times ||M||_F.
# Even 50 sweeps of a 31 x 31 matrix stay below 1e-11 resp. 1e-26 times
# ||M||_F; a lost or mis-signed rotation moves it by |t*apq| instead.
TRACE_REL_TOL = 1e-10
DD_TRACE_REL_TOL = 1e-24


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


def elementary_symmetric(values, add=operator.add, mul=operator.mul) -> list:
    """e_1 .. e_n of n values by one pass of the e_j recurrence, cost O(n^2).

    Ring-generic: the default operators serve floats, ints and Fractions (and
    are exact on exact inputs); the scan passes ``dd.add`` and ``dd.mul``.
    The recurrence starts from e_1 = the first value, so it needs no ring
    constants; an empty input gives [].
    """
    e = []
    for v in values:
        if e:
            e.append(mul(v, e[-1]))
            for j in range(len(e) - 2, 0, -1):
                e[j] = add(e[j], mul(v, e[j - 1]))
            e[0] = add(e[0], v)
        else:
            e.append(v)
    return e


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


def _rotate(c: float, s: float, x: float, y: float) -> tuple[float, float]:
    return c * x - s * y, s * x + c * y


# The float64 ring of the cyclic Jacobi; doubledouble.RING is the other one.
FLOAT_RING = SimpleNamespace(
    name="float64", add=operator.add, sub=operator.sub, mul=operator.mul,
    div=operator.truediv, sqrt=math.sqrt, rotate=_rotate, lead=float,
    zero=0.0, one=1.0,
)


def _cyclic_jacobi(a: list[list], ring, tol: float, trace_tol: float) -> list:
    """Eigenvalues of the symmetric matrix ``a`` by cyclic Jacobi, ascending.

    Ring-generic: ``ring`` supplies add, sub, mul, div, sqrt, the plane
    rotation ``rotate(c, s, x, y) = (c x - s y, s x + c y)``, ``lead`` (the
    float that the skip rule, the off-diagonal norm and the sort read), zero
    and one; ``FLOAT_RING`` and ``doubledouble.RING`` are the two in use.
    ``a`` is overwritten.  Sweeps stop once the off-diagonal Frobenius norm is
    at most ``tol``; a rotation is skipped when its pivot is at most
    tol / (2 dim).  Raises ConvergenceError, carrying that norm, when
    JACOBI_MAX_SWEEPS sweeps do not reach ``tol``, and when the eigenvalue sum
    drifts from the trace by more than ``trace_tol``.
    """
    add, sub, mul, div, sqrt = ring.add, ring.sub, ring.mul, ring.div, ring.sqrt
    rotate, lead, zero, one = ring.rotate, ring.lead, ring.zero, ring.one
    n = len(a)
    trace = reduce(add, (a[i][i] for i in range(n)), zero)
    skip = tol / (2.0 * n)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off2 = 0.0
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                h = lead(row_p[q])
                off2 += h * h
        off = math.sqrt(2.0 * off2)
        if off <= tol:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"{ring.name} Jacobi did not converge in {JACOBI_MAX_SWEEPS} "
                f"sweeps (off-diagonal norm {off:g}, target {tol:g})",
                offdiag_norm=off,
            )
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(lead(apq)) <= skip:
                    continue
                row_q = a[q]
                app = row_p[p]
                aqq = row_q[q]
                # t = sign(theta) / (|theta| + sqrt(theta^2 + 1))
                theta = div(sub(aqq, app), add(apq, apq))
                root = sqrt(add(mul(theta, theta), one))
                t = div(one, add(theta, root) if lead(theta) >= 0.0 else sub(theta, root))
                c = div(one, sqrt(add(mul(t, t), one)))
                s = mul(t, c)
                for i, row_i in enumerate(a):
                    if i != p and i != q:
                        x, y = rotate(c, s, row_i[p], row_i[q])
                        row_i[p] = row_p[i] = x
                        row_i[q] = row_q[i] = y
                tapq = mul(t, apq)
                row_p[p] = sub(app, tapq)
                row_q[q] = add(aqq, tapq)
                row_p[q] = row_q[p] = zero
    diag = [a[i][i] for i in range(n)]
    drift = abs(lead(sub(reduce(add, diag, zero), trace)))
    if drift > trace_tol:
        raise ConvergenceError(
            f"{ring.name} eigenvalue sum drifted from the trace by {drift:g} "
            f"(tolerance {trace_tol:g})"
        )
    diag.sort(key=lead)
    return diag


def eigenvalues_symmetric(m: SymmetricMatrix) -> Spectrum:
    """All eigenvalues by cyclic Jacobi in float64, sorted ascending.

    Converged when the off-diagonal Frobenius norm drops below
    1e-12 * (1 + ||M||_F); raises ConvergenceError after 50 sweeps, or when
    the eigenvalue sum drifts from the trace by more than 1e-10 * (1 + ||M||_F).
    """
    fro = m.frobenius_norm()
    values = _cyclic_jacobi(
        m.entries.tolist(),
        FLOAT_RING,
        JACOBI_REL_TOL * (1.0 + fro),
        TRACE_REL_TOL * (1.0 + fro),
    )
    return Spectrum(values=tuple(values))


def eigenvalues_symmetric_dd(entries_dd: list[list[dd.DD]]) -> list[dd.DD]:
    """Cyclic Jacobi on a symmetric matrix of double-double entries, ascending.

    Converged when the off-diagonal norm drops below 1e-28 * (1 + ||M||_F);
    raises ConvergenceError after 50 sweeps, or when the eigenvalue sum drifts
    from the trace by more than 1e-24 * (1 + ||M||_F).
    """
    lead = dd.RING.lead
    fro2 = 0.0
    for row in entries_dd:
        for x in row:
            fro2 += lead(x) * lead(x)
    fro = math.sqrt(fro2)
    return _cyclic_jacobi(
        [row[:] for row in entries_dd],
        dd.RING,
        DD_JACOBI_REL_TOL * (1.0 + fro),
        DD_TRACE_REL_TOL * (1.0 + fro),
    )
