"""Shared brute-force oracles, random-input builders and fixtures for the test suite.

The oracles deliberately use the dumbest correct algorithms available
(subset enumeration, cofactor expansion, LAPACK determinants, central
difference stencils, numpy's iterated differences) so they share no code
path with the implementations they check.  ``charpoly_sigmas`` is the one
exception, named here as such.  A matrix is its rows, as in the library:
the builders return tuples of float tuples, and the oracles take any rows.

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

from sigmak import doubledouble as dd
from sigmak.solution import Point, dd_terms, eval_jet
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


def dd_hessian(p, pt):
    """u's Hessian at pt with the double-double entries that dd_terms gives:
    2E on the x diagonal, 2xE in the t row and column, r^2 E + h'' in the
    corner, then the zero w block."""
    et_powers, h2, r2et = dd_terms(p, pt.x, pt.t)
    et = et_powers[0]
    nx, dim = p.n_base - 1, p.total_dim
    rows = [[dd.ZERO] * dim for _ in range(dim)]
    for i, v in enumerate(pt.x):
        rows[i][i] = dd.mul_pow2(et, 2.0)
        rows[i][nx] = rows[nx][i] = dd.mul(et, (2.0 * v, 0.0))
    rows[nx][nx] = dd.add(r2et, h2)
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
