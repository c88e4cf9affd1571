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

A uniform float u in [0, 1) keeps the top 53 bits: (word >> 11) * 2**-53.
Sample number i in total dimension D consumes words i*D .. i*D + D - 1, one
per coordinate, x block first, then t, then the w block.  The x and w
coordinates are -x_radius + (2 x_radius) u, uniform on [-x_radius,
x_radius], and t is t_min + (t_max - t_min) u.  ``splitmix64_words`` returns
a sample's D words in one call, stepping the state by the golden increment
from word to word.  The scan maps them to its x block and t as plain floats
and builds no Point for a sample unless it reports it as the argmax or
names it in an error; then ``sample_point`` builds the Point of sample i
from the same words by the same mapping.

Since sample i depends on (seed, i) alone, a scan splits its samples into
contiguous ranges, one per CPU that the process may run on, scans the first
range itself and each other one in a forked worker, and merges the ranges'
partial reports in range order by the rules of one loop over all samples.
The report, and any error, are the same however many CPUs run the scan.

Precision
---------
Each sample's eigenvalues and sigma_1..sigma_k are computed once, in
double-double arithmetic, in closed form (``solution.spectrum_sigmas_dd``)
from one set of double-double terms (``solution.dd_terms``): at sample-box
corners the cancellation in sigma_k is too severe for plain doubles to
certify a 1e-9 bound once k reaches 4.  Every entry of D^2 u depends on t
only through e^t, so the terms take one double exponential E = math.exp(t)
per sample and form e^(-(k-1)t) as 1/E^(k-1).  The scan thus evaluates the
Hessian at t* = ln E, with |t* - t| <= 2^-53 for an exp within half an ulp,
and every entry is consistent with that one E; sigma_k - 1 is then at
double-double rounding whatever the last bit of E.  A second exponential
for e^(-(k-1)t), each accurate to an ulp, leaves it at ~1e-16.  So the
residual's last digits follow the platform's libm exp, as phase-check's
atan already does.  The Hessian is an arrow matrix, so its spectrum is a
(n - 2 times), m zeros and the two roots of mu^2 - tr mu + det, and sigma_j
is read off (1 + a x)^(n-2) (1 + tr x + det x^2)
(``solution.arrow_sigmas``).  The residual |sigma_k - 1|, the sigma vector
behind the cone verdicts and min_sigma_j, the negative eigenvalue count and
the n = 3 phase all come from those double-double values, rounded to
float64 only where a float threshold judges them.  The verdicts
(``cone.cone_flags``) and ``sl_phase`` are the ones that ``cone-check`` and
``phase-check`` apply to a float64 Jacobi.

Every 100th sample is audited by routes that do not assume the arrow
structure, from the same double-double terms: the double-double Hessian
(``solution.hessian_dd``) is diagonalized by the general cyclic Jacobi
(``symfunc.eigenvalues_symmetric_dd``), whose eigenvalues must match the
closed-form ones within SPECTRUM_AUDIT_REL_TOL * (1 + ||M||_F); the e_j
recurrence (``symfunc.elementary_symmetric``) over the closed-form
eigenvalues must give the structured sigma_1..sigma_k within
SIGMA_AUDIT_UNITS * d * 2^-104 * e_j(|lambda|); and the Faddeev-LeVerrier
trace recursion (``symfunc.faddeev_leverrier``, the loop that ``symbolic``
runs over exact expressions) over the double-double Hessian must give them
within SIGMA_AUDIT_UNITS * d * 2^-104 * (1 + ||M||_F)^j.  The audit takes
the same path in every dimension.  So the scan keeps checking the arrow
structure that its fast path assumes, without calling ``symbolic``.

Two numeric cross-checks of the solution live with the tests, in
``tests/conftest.py``: the finite-difference Hessian of u (against
``eval_jet``) and the divided differences of h that witness that u is no
polynomial.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

from . import doubledouble as dd
from .cone import cone_flags
from .errors import ConvergenceError
from .solution import (
    Point,
    SolutionParams,
    _check_exponent,
    _check_integers,
    _check_radius,
    dd_terms,
    hessian_dd,
    spectrum_sigmas_dd,
)
from .symfunc import (
    eigenvalues_symmetric_dd,
    elementary_symmetric,
    faddeev_leverrier,
)

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PHASE_TOL = 1e-9
CRITICAL_PHASE_N3 = math.pi / 2
AUDIT_STRIDE = 100  # audit the closed-form spectrum and sigmas on 1% of samples
# A scan forks a worker only for a range of at least this many samples.  A
# worker costs a few ms beyond its samples: the fork (~1.2 ms in a 35 MB
# parent), 2-3 ms before the child runs, and copy-on-write faults in both
# processes (~250 in the parent, ~400 in the child per scan).  Against
# ~44 us per n = 3 sample, the cheapest dimension, two ranges of 100 lost
# (9.3 ms against 8.8 in one range) and two of 200 won (13.8 against 18.2);
# at n = 7, two ranges of 250 took 23.7 ms against 36.8 (medians of 40
# interleaved scans, CPython 3.11 with numpy loaded, 2-vCPU x86-64 Linux).
MIN_RANGE_SAMPLES = 200
# The audit's bound on |Jacobi - closed form| per eigenvalue, relative to
# 1 + ||M||_F.  The Jacobi stops once the off-diagonal Frobenius norm of its
# rotated matrix is at most DD_JACOBI_REL_TOL * (1 + ||M||_F) = 1e-28 * (...);
# by Weyl's inequality, dropping that off-diagonal part moves no eigenvalue
# by more than its norm.  The rest is double-double rounding, a few units of
# 2^-104 ~5e-32 times ||M||_F per step: each rotation perturbs the matrix by
# that much, and even 50 sweeps of a 31 x 31 matrix (23250 rotations) stay
# below 1e-26 * ||M||_F; the closed form and the two routes' Hessian entries
# add a few more units.  A wrong closed form is wrong far above that.
SPECTRUM_AUDIT_REL_TOL = 1e-26
# The audit's bound on |structured sigma_j - recurrence e_j| over the same
# closed-form eigenvalues, in units of d * 2^-104 * e_j(|lambda|), where
# e_j(|lambda|) is the recurrence over the eigenvalues' absolute values
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  A
# double-double product or sum errs by at most ~2 units of 2^-104 relative
# to the product of the operands' magnitudes or to the sum of them.  The
# recurrence passes each product of j eigenvalues through j - 1
# multiplications and at most d additions, so it is within ~2(j + d) <= 4d
# units of e_j(|lambda|).  The structured sigma_j adds three terms of at
# most k + 1 factors each, and its tr and det are the two roots' sum and
# product up to a few units of |mu_1| + |mu_2| and |mu_1 mu_2| (the roots
# carry the rounding of one sqrt and one division); both are bounded by
# the same e_j(|lambda|).  So 8 units of d * 2^-104 * e_j(|lambda|) cover
# both routes; seeded scans at n = 3..13 stay within 1.15 units of
# 2^-104 * e_j(|lambda|).  A wrong binomial or a det off by 1e-20 relative
# misses the bound by ~10 decades.
# The same 8 units bound |structured sigma_j - trace recursion sigma_j|, the
# recursion (symfunc.faddeev_leverrier) run over the audited dd Hessian, in
# units of d * 2^-104 * (1 + ||M||_F)^j: its terms cancel, so it is measured
# against their size, not against e_j(|lambda|).  sigma_j = +-tr(A M_j) / j,
# and tr(A M_j) sums d diagonal entries of at most d products each, so it is
# within ~2(d + d) = 4d units of tr(|A| |M_j|).  Each earlier step's error
# reaches M_j through products with A, which scale it by at most
# ||A||_F = ||M||_F, so the j steps' errors add up to ~4d j units of terms
# of size (1 + ||M||_F)^j, and the division by j takes that back to 4d.
# tr(|A| |M_j|) / j stays near 2 (1 + ||M||_F)^j (at most 2.12 over 100
# seeded Hessians at each odd n = 3..21), hence 8 units; the same audits
# stay within 0.08 units.  At j = k the bound reaches sigma_k = 1 around
# n = 21 (1.45 on the standard box, 5.6e-3 at n = 19), so from there on
# this route cannot catch a wrong sigma_k; the Jacobi and the recurrence
# still check it.
SIGMA_AUDIT_UNITS = 8.0


def splitmix64_words(seed: int, first: int, count: int) -> list[int]:
    """Words first .. first + count - 1 of the counter-based splitmix64 stream
    for `seed`; word c mixes seed + (c+1) * _GOLDEN (mod 2^64)."""
    state = (seed + first * _GOLDEN) & MASK64
    words = []
    for _ in range(count):
        state = (state + _GOLDEN) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        words.append(z ^ (z >> 31))
    return words


@dataclass(frozen=True)
class SampleBox:
    """Axis-aligned sampling region plus the sample budget and seed."""

    x_radius: float
    t_range: tuple[float, float]
    count: int
    seed: int

    def __post_init__(self):
        _check_integers(count=self.count, seed=self.seed)
        for name, values in (("x_radius", (self.x_radius,)), ("t_range", self.t_range)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_radius > 0:
            raise ValueError(f"x_radius must be positive, got {self.x_radius}")
        t_lo, t_hi = self.t_range
        if not t_lo < t_hi:
            raise ValueError(f"t_range must satisfy t_min < t_max, got {self.t_range}")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated outcome of one verification scan."""

    max_abs_residual: float
    argmax_point: Point
    cone_failures: int
    lemma_failures: int
    min_sigma_j: float
    phase_ok: bool | None


def sample_point(p: SolutionParams, box: SampleBox, index: int) -> Point:
    """Deterministic sample number `index`, uniform over the box: the Point
    of its words, x block, then t, then w block."""
    d, nx = p.total_dim, p.n_base - 1
    words = splitmix64_words(box.seed, index * d, d)
    lo, width = -box.x_radius, 2.0 * box.x_radius
    t_lo, t_hi = box.t_range
    (t,) = _scaled(words[nx : nx + 1], t_lo, t_hi - t_lo)
    x = tuple(_scaled(words[:nx], lo, width))
    return Point(x, t, tuple(_scaled(words[nx + 1 :], lo, width)))


def _scaled(words, lo: float, width: float) -> list[float]:
    """lo + width * u for each word's uniform u = (word >> 11) * 2^-53."""
    return [lo + width * ((word >> 11) * 2.0**-53) for word in words]


def residual_scan(p: SolutionParams, box: SampleBox) -> ResidualReport:
    """Scan `box.count` seeded points; aggregate residual, cone and phase checks.

    Every check of a sample reads the same closed-form double-double
    eigenvalues and their sigma_1..sigma_k (see the module docstring);
    every 100th sample is also audited by _audit_sample.  A ConvergenceError
    raised by a sample, including a failed audit, names its index and point.
    The report is a function of (params, box) alone, however many CPUs scan
    the samples (see _scan_ranges).  A sample is carried as its words and
    its x block and t as floats; a Point is built only for the reported
    argmax and the text of an error.
    """
    t_lo, t_hi = box.t_range
    _check_exponent(p, t_lo)
    _check_exponent(p, t_hi)
    _check_radius(
        p, box.x_radius, math.exp(t_hi), math.exp(-(p.k - 1) * t_lo),
        f"x_radius = {box.x_radius:g} with t_range = {box.t_range}",
    )
    max_resid, argmax = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    # a later range's sample wins only by a strictly larger residual or a
    # strictly smaller sigma, as it does when one loop reads all samples
    for resid, index, cones, lemmas, sigma, phases in _scan_ranges(p, box):
        if resid > max_resid:
            max_resid, argmax = resid, index
        cone_failures += cones
        lemma_failures += lemmas
        phase_failures += phases
        min_sigma_j = min(min_sigma_j, sigma)
    check_phase = p.n_base == 3 and p.m == 0
    return ResidualReport(
        max_abs_residual=max_resid,
        argmax_point=sample_point(p, box, argmax),
        cone_failures=cone_failures,
        lemma_failures=lemma_failures,
        min_sigma_j=min_sigma_j,
        phase_ok=phase_failures == 0 if check_phase else None,
    )


def _sample_ranges(count: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) ranges covering samples 0 .. count - 1.

    One range for each of `cpus` CPUs, but at least one, and never a range
    of fewer than MIN_RANGE_SAMPLES samples (one range holds them all then).
    """
    ranges = max(1, min(cpus, count // MIN_RANGE_SAMPLES))
    bounds = [count * r // ranges for r in range(ranges + 1)]
    return list(zip(bounds, bounds[1:]))


def _scan_ranges(p: SolutionParams, box: SampleBox) -> list[tuple]:
    """_scan_range of each sample range, in range order.

    The first range is scanned in this process, each other one in a worker
    forked for it, which sends back its partial report, or the exception
    that stopped it, pickled over a pipe.  The first range in order whose
    scan raised decides the error, as the lowest failing sample does in one
    loop; a worker that ends without a report is an OSError naming its
    range.  Workers are killed and reaped on every way out, so none outlives
    the call.  There is one range per CPU this process may run on, a set
    read once, and a single range where os.fork or os.sched_getaffinity is
    missing.
    """
    allowed = set()
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        allowed = os.sched_getaffinity(0)
    first, *others = _sample_ranges(box.count, len(allowed))
    workers = []  # (pid, read end of its pipe, its range), not yet reaped
    try:
        if others:
            # a forked child starts on its parent's CPU, and the kernel was
            # seen to leave it there, sharing that CPU, for as long as its
            # range took (two ranges of 250 n = 7 samples took 42.5 ms, one
            # range 35.7); so this thread forks each worker from a CPU of its
            # own and then moves to the next one, and each process takes
            # back the whole set, which leaves a running task where it is
            cpus = sorted(allowed)
            os.sched_setaffinity(0, {cpus[0]})
            try:
                for cpu, (start, stop) in zip(cpus[1:], others):
                    workers.append(_fork_range(p, box, start, stop, allowed))
                    os.sched_setaffinity(0, {cpu})
            finally:
                os.sched_setaffinity(0, allowed)
        parts = [_scan_range(p, box, *first)]
        while workers:
            pid, pipe, (start, stop) = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise OSError(
                    f"the scan worker of samples {start} to {stop - 1} ended without "
                    f"a report ({how})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            parts.append(value)
        return parts
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _fork_range(p: SolutionParams, box: SampleBox, start: int, stop: int, allowed: set):
    """Fork a worker that takes back the CPU set `allowed`, scans samples
    start .. stop - 1 and pickles (True, partial report) or (False,
    exception) into a pipe; return its pid, the pipe's read end and (start,
    stop)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the worker never returns into its caller's frames: it leaves by
        # os._exit, with status 0 only once its outcome is written
        status = 1
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, allowed)
            try:
                outcome = (True, _scan_range(p, box, start, stop))
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb"), (start, stop)


def _scan_range(p: SolutionParams, box: SampleBox, start: int, stop: int) -> tuple:
    """Scan samples start .. stop - 1 of the box.

    Returns the range's partial report: the largest residual and the index
    of the first sample that reached it (None while no residual exceeded
    -1), the cone and lemma failure counts, the smallest sigma_j and the
    phase failure count.  Sample i is audited when i % AUDIT_STRIDE == 0.
    """
    t_lo, t_hi = box.t_range
    k = p.k
    d, nx = p.total_dim, p.n_base - 1
    x_lo, x_width, t_width = -box.x_radius, 2.0 * box.x_radius, t_hi - t_lo
    check_phase = p.n_base == 3 and p.m == 0
    max_resid, argmax = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    for i in range(start, stop):
        words = splitmix64_words(box.seed, i * d, d)
        x = _scaled(words[:nx], x_lo, x_width)
        (t,) = _scaled(words[nx : nx + 1], t_lo, t_width)
        try:
            terms = dd_terms(p, x, t)
            lam_dd, e = spectrum_sigmas_dd(p, terms)
            sigmas = [hi + lo for hi, lo in e]
            lam = [hi + lo for hi, lo in lam_dd]
            if i % AUDIT_STRIDE == 0:
                _audit_sample(p, x, terms, lam_dd, e)
        except ConvergenceError as exc:
            pt = sample_point(p, box, i)
            raise ConvergenceError(
                f"sample {i} at {pt}: {exc}", offdiag_norm=exc.offdiag_norm
            ) from exc

        hi, lo = dd.sub(e[k - 1], dd.ONE)
        resid = abs(hi + lo)
        if resid > max_resid:
            max_resid, argmax = resid, i
        _, in_cone, lemma = cone_flags(lam, sigmas, k)
        cone_failures += not in_cone
        lemma_failures += not lemma
        min_sigma_j = min(min_sigma_j, *sigmas)
        if check_phase and abs(sl_phase(lam) - CRITICAL_PHASE_N3) > PHASE_TOL:
            phase_failures += 1
    return max_resid, argmax, cone_failures, lemma_failures, min_sigma_j, phase_failures


def _audit_sample(p: SolutionParams, x, terms, lam_dd: list, sigmas: list) -> None:
    """Check one sample's closed-form spectrum and sigmas against the general routes.

    `x` is the sample's x block as floats and `terms` the dd_terms(p, x, t)
    that lam_dd and sigmas came from.  The cyclic Jacobi of hessian_dd(p, x,
    terms) must give the eigenvalues lam_dd within SPECTRUM_AUDIT_REL_TOL *
    (1 + ||M||_F); the e_j recurrence over lam_dd must give sigma_1..sigma_k
    within SIGMA_AUDIT_UNITS * d * 2^-104 * e_j(|lambda|); and the trace recursion
    over the same dd Hessian must give them within SIGMA_AUDIT_UNITS * d *
    2^-104 * (1 + ||M||_F)^j, in any dimension.  Raises ConvergenceError
    otherwise.
    """
    hess = hessian_dd(p, x, terms)
    lam = [dd.to_float(v) for v in lam_dd]
    fro = math.sqrt(sum(v * v for v in lam))
    by_jacobi = eigenvalues_symmetric_dd(hess)
    gap = max(abs(dd.to_float(dd.sub(mu, nu))) for mu, nu in zip(by_jacobi, lam_dd))
    tol = SPECTRUM_AUDIT_REL_TOL * (1.0 + fro)
    if not gap <= tol:
        raise ConvergenceError(
            f"closed-form spectrum disagrees with the double-double Jacobi by "
            f"{gap:g} (tolerance {tol:g})"
        )
    ring = dd.ring()
    by_recursion = faddeev_leverrier(
        hess, ring.add, ring.mul, lambda trace, j: ring.div(trace, dd.from_float(j)), ring.zero,
        count=p.k,
    )
    unit = SIGMA_AUDIT_UNITS * len(lam) * 2.0**-104
    for route, values, scales in (
        ("the e_j recurrence", elementary_symmetric(lam_dd, dd.add, dd.mul, p.k),
         elementary_symmetric([abs(v) for v in lam], count=p.k)),
        ("the trace recursion", by_recursion, [(1.0 + fro) ** j for j in range(1, p.k + 1)]),
    ):
        for j, (structured, other, scale) in enumerate(zip(sigmas, values, scales), start=1):
            gap = abs(dd.to_float(dd.sub(structured, other)))
            if not gap <= unit * scale:
                raise ConvergenceError(
                    f"structured sigma_{j} disagrees with {route} by {gap:g} "
                    f"(tolerance {unit * scale:g})"
                )


def sl_phase(values) -> float:
    """Sum of arctangents of the eigenvalues (the Lagrangian phase of the graph)."""
    return sum(math.atan(v) for v in values)
