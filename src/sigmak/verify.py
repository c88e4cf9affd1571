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
x_radius], and t is t_min + (t_max - t_min) u.  A scan draws the words of
its samples one block of AUDIT_STRIDE samples at a time, from the start of
its range, in one ``splitmix64_words`` call that mixes all of the block's
words together in the lanes of one Python int; each word is bit for bit the
one defined above.  The scan maps them to a sample's x block and t as plain
floats, skips the w words, and builds no Point for a sample unless it
reports it as the argmax or names it in an error; then ``sample_point``
builds the Point of sample i from its D words by the same mapping.

Since sample i depends on (seed, i) alone, a scan splits its samples into
contiguous ranges, one per CPU that the process may run on, scans the first
range itself and each other one in a forked worker, and merges the ranges'
partial reports in range order by the rules of one loop over all samples.
The report, and any error, are the same however many CPUs run the scan.

Precision
---------
Each sample's eigenvalues and sigma_1..sigma_k are computed once, in
double-double arithmetic, in closed form, by one kernel
(``solution.spectrum_dd``) that writes the double-double operations out in
one Python frame: at sample-box corners the cancellation in sigma_k is too
severe for plain doubles to certify a 1e-9 bound once k reaches 4.  Every
entry of D^2 u depends on t only through e^t, so the kernel takes one
double exponential E = math.exp(t) per sample and forms e^(-(k-1)t) as
1/E^(k-1).  The scan thus evaluates the Hessian at t* = ln E, with
|t* - t| <= 2^-53 for an exp within half an ulp, and every entry is
consistent with that one E; sigma_k - 1 is then at double-double rounding
whatever the last bit of E.  A second exponential for e^(-(k-1)t), each
accurate to an ulp, leaves it at ~1e-16.  So the residual's last digits
follow the platform's libm exp, as phase-check's atan already does.  The
Hessian is an arrow matrix, so its spectrum is a (n - 2 times), m zeros
and the two roots of mu^2 - tr mu + det, and sigma_j is read off
(1 + a x)^(n-2) (1 + tr x + det x^2).  The residual |sigma_k - 1|, the
sigma vector behind the cone verdicts and min_sigma_j, the negative
eigenvalue count and the n = 3 phase all come from those double-double
values, rounded to float64 only where a float threshold judges them.  The
verdicts (``cone.cone_flags``) and ``sl_phase`` are the ones that
``cone-check`` and ``phase-check`` apply to a float64 Jacobi.

Every 100th sample is audited exactly, at its own point (_audit_sample).
Its inputs are rational: the x block and E = fl(e^t) are dyadic floats, and
A and B are exact.  So the Hessian M at t* = ln E, the one the scan's values
stand for, is N / D for the integer matrix N that ``solution.exact_hessian``
forms by integer operations alone, with D = A P^(k-1) 2^(2F+e) for
E = P / 2^e and x_i = X_i / 2^F.  With no tolerance, N must have the closed
form's spectrum: alpha = D a (n - 2 times), 0 (m times) and the roots of
y^2 - tau y + delta (tau = D tr, delta = D^2 det), so (N - alpha I)
(N^2 - tau N + delta I), times N when m > 0, must vanish, and the power
sums tr N^i must match.  That decides N's spectrum even where two of those
values coincide, as at x = 0: every eigenvalue of N is then a root of the
product, and power sums below its degree fix how often each distinct root
occurs.  Read off that spectrum, sigma_k(N) must be D^k, the claim
sigma_k = 1 at that point, and sigma_j(N) > 0 for j < k.  The closed-form
double-double eigenvalues must then lie within SPECTRUM_AUDIT_REL_TOL *
(1 + ||M||_F) of the exact ones, and the structured sigma_j within
SIGMA_AUDIT_UNITS * d * 2^-104 * e_j(|lambda|) of sigma_j(N) / D^j.  The
audit takes the same path in every dimension and none of its checks loses
meaning as n grows; it needs no Jacobi and does not call ``symbolic``.

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
import sys
from array import array
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
    exact_hessian,
    spectrum_dd,
)
from .symfunc import elementary_symmetric

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LOW_HALF = b"\xff" * 8 + bytes(8)  # a 128-bit lane's low 64 bits, little-endian

PHASE_TOL = 1e-9
CRITICAL_PHASE_N3 = math.pi / 2
# audit the closed-form spectrum and sigmas on 1% of samples; a scan also
# draws its words this many samples at a time
AUDIT_STRIDE = 100
# A scan forks a worker only for a range of at least this many samples.  A
# worker costs a few ms beyond its samples: the fork (~0.8 ms in a 30 MB
# parent), ~1 ms before the child runs, and copy-on-write faults in both
# processes (~240 in the parent, ~415 in the child per scan).  Against
# 20-30 us per n = 3 sample, the cheapest dimension, two ranges of 100 lost
# (6.8 ms against 4.0-6.2 in one range) and two of 200 won (10.1-10.7
# against 11.7-12.1); at n = 7, two ranges of 250 took 13.4-15.9 ms against
# 20.6-21.1 (medians of 40 interleaved scans in each of three runs, CPython
# 3.11 with numpy loaded, 2-vCPU x86-64 Linux).
MIN_RANGE_SAMPLES = 200
# The audit's bound on |closed-form eigenvalue - exact eigenvalue|, relative
# to 1 + ||M||_F.  a = 2E is exact in double-double; the larger root,
# tr/2 + sqrt(((a - d)/2)^2 + |c|^2), and the smaller, a (h'' - r^2 e^t) over
# the larger, each take a few double-double operations on operands of at
# most a few ||M||_F (|c|, |d| and a are at most the larger root), so each
# errs by a few units of 2^-104 ~5e-32 times ||M||_F; the constants 1/A and
# B/A of h'' carry one double-double rounding each, and the exact roots are
# known within 2^-101 (see _audit_sample).  Seeded audits at every odd
# n = 3..31 and on boxes up to x_radius 2e49 or t in [27, 28] stay within
# 0.93 units of 2^-104 (1 + ||M||_F); 1e-26 is ~2e5 units.  A wrong closed
# form is wrong far above that.
SPECTRUM_AUDIT_REL_TOL = 1e-26
# The audit's bound on |structured sigma_j - sigma_j(N) / D^j|, in units of
# d * 2^-104 * e_j(|lambda|), where e_j(|lambda|) is the e_j recurrence over
# the eigenvalues' absolute values (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3).  A double-double product or sum errs by at
# most ~2 units of 2^-104 relative to the product of the operands'
# magnitudes or to the sum of them.  The structured sigma_j adds three
# terms of at most k + 1 factors each, and its tr and det carry the
# rounding of the terms they are formed from, a few units of |mu_1| +
# |mu_2| and of |mu_1 mu_2| for the two roots mu; both are bounded by the
# same e_j(|lambda|).  Seeded audits on the boxes above stay within 0.15
# units.  A wrong binomial or a det off by 1e-20 relative misses the bound
# by ~10 decades.
SIGMA_AUDIT_UNITS = 8.0


def splitmix64_words(seed: int, first: int, count: int) -> list[int]:
    """Words first .. first + count - 1 of the counter-based splitmix64 stream
    for `seed`; word c mixes seed + (c+1) * _GOLDEN (mod 2^64).

    The words are mixed together, in one Python int of `count` 128-bit
    lanes.  Lane j starts as the counter (first + j + 1) mod 2^64, which
    wraps to 0 past 2^64 - 1, written through array('Q') and read by
    int.from_bytes in little-endian byte order (byteswapped first on a
    big-endian host).  Times the 64-bit golden increment or a mix constant,
    plus the seed, a lane's value stays below 2^128, so no carry crosses
    into the next lane; each product, and each xor with a right shift,
    which moves the next lane's low bits into this lane's high half, is
    masked to the low 64 bits of every lane before the next step reads it.
    The words are the lanes' low halves, read back the same way.
    """
    start = (first + 1) & MASK64
    head = min(count, MASK64 + 1 - start)  # counters before the wrap to 0
    counters = array("Q", range(start, start + head))
    counters.extend(range(count - head))
    lanes = array("Q", bytes(16 * count))
    lanes[::2] = counters
    if sys.byteorder == "big":
        lanes.byteswap()
    mask = int.from_bytes(_LOW_HALF * count, "little")
    z = int.from_bytes(lanes.tobytes(), "little") * _GOLDEN
    z = (z + int.from_bytes((seed & MASK64).to_bytes(16, "little") * count, "little")) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z ^= z >> 31
    lanes = array("Q", z.to_bytes(16 * count, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes[::2].tolist()


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
    u = [(word >> 11) * 2.0**-53 for word in splitmix64_words(box.seed, index * d, d)]
    lo, width = -box.x_radius, 2.0 * box.x_radius
    t_lo, t_hi = box.t_range
    return Point(
        tuple(lo + width * v for v in u[:nx]),
        t_lo + (t_hi - t_lo) * u[nx],
        tuple(lo + width * v for v in u[nx + 1 :]),
    )


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
    The words are drawn one block of AUDIT_STRIDE samples at a time, from
    `start`, so a range of any length holds one block's words at once.
    """
    t_lo, t_hi = box.t_range
    k = p.k
    d, nx = p.total_dim, p.n_base - 1
    x_lo, x_width, t_width = -box.x_radius, 2.0 * box.x_radius, t_hi - t_lo
    check_phase = p.n_base == 3 and p.m == 0
    max_resid, argmax = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    for block in range(start, stop, AUDIT_STRIDE):
        size = min(AUDIT_STRIDE, stop - block)
        words = splitmix64_words(box.seed, block * d, size * d)
        for i, at in zip(range(block, block + size), range(0, size * d, d)):
            x = [x_lo + x_width * ((word >> 11) * 2.0**-53) for word in words[at : at + nx]]
            t = t_lo + t_width * ((words[at + nx] >> 11) * 2.0**-53)
            try:
                et, lam_dd, e = spectrum_dd(p, x, t)
                sigmas = [hi + lo for hi, lo in e]
                lam = [hi + lo for hi, lo in lam_dd]
                if i % AUDIT_STRIDE == 0:
                    _audit_sample(p, x, et, lam_dd, e)
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


def _audit_sample(p: SolutionParams, x, et: float, lam_dd: list, sigmas: list) -> None:
    """Check one sample's closed-form spectrum and sigmas exactly, at its own
    point, as the module docstring describes.

    `x` is the sample's x block as floats, and et, lam_dd and sigmas are
    what spectrum_dd(p, x, t) returned for it; the Hessian is taken at
    t* = ln et.  Raises ConvergenceError naming the check that failed and
    its exact residual, over the power of D it scales with.
    """
    n, k, m = p.n_base, p.k, p.m
    scale, rows, (alpha, tau, delta) = exact_hessian(p, x, et)
    # the closed form's quadratic, shifted to N - alpha I: y^2 + beta y + gamma
    beta, gamma = 2 * alpha - tau, alpha * (alpha - tau) + delta
    _check_spectrum(rows, alpha, beta, gamma, m, scale)
    exact = _arrow_sigmas(n, alpha, tau, delta, k)
    powers = [scale**j for j in range(1, k + 1)]
    if exact[-1] != powers[-1]:
        raise ConvergenceError(
            f"exact sigma_{k}(N) - D^{k} is {(exact[-1] - powers[-1]) / powers[-1]:.17g} "
            f"D^{k}, not 0"
        )
    for j, (sigma, power) in enumerate(zip(exact[:-1], powers), start=1):
        if sigma <= 0:
            raise ConvergenceError(f"exact sigma_{j}(N) is {sigma / power:.17g} D^{j}, not positive")

    lam = [dd.to_float(v) for v in lam_dd]
    fro = math.sqrt(sum(v * v for v in lam))
    # the exact eigenvalues as integers over den = 2^(shift + 1) D >= 2^101;
    # a root's integer is within 1 of den times the root
    shift = max(0, 100 - scale.bit_length())
    den, root = scale << (shift + 1), math.isqrt((tau * tau - 4 * delta) << 2 * shift)
    exact_lam = sorted(
        [alpha << (shift + 1)] * (n - 2) + [0] * m + [(tau << shift) - root, (tau << shift) + root]
    )
    gap = max(_gap(mu, nu, den) for mu, nu in zip(lam_dd, exact_lam))
    tol = SPECTRUM_AUDIT_REL_TOL * (1.0 + fro)
    if not gap <= tol:
        raise ConvergenceError(
            f"closed-form spectrum disagrees with the exact eigenvalues by {gap:g} "
            f"(tolerance {tol:g})"
        )
    unit = SIGMA_AUDIT_UNITS * len(lam) * 2.0**-104
    scales = elementary_symmetric([abs(v) for v in lam], count=k)
    for j, (structured, sigma, power, size) in enumerate(
        zip(sigmas, exact, powers, scales), start=1
    ):
        gap = _gap(structured, sigma, power)
        if not gap <= unit * size:
            raise ConvergenceError(
                f"structured sigma_{j} disagrees with the exact sigma_{j}(N) / D^{j} by "
                f"{gap:g} (tolerance {unit * size:g})"
            )


def _check_spectrum(rows, alpha: int, beta: int, gamma: int, m: int, scale: int) -> None:
    """Check exactly that the integer matrix `rows` = N has the eigenvalues
    alpha (d - m - 2 times), 0 (m times) and alpha plus each root of
    y^2 + beta y + gamma, whether or not some of these values coincide.

    In N' = N - alpha I those values are 0, -alpha and the two roots, so
    N' (N' + alpha I)^[m > 0] (N'^2 + beta N' + gamma I) = 0 puts every
    eigenvalue of N' on one of the L distinct roots of that product, L at
    most its degree; with tr N'^0 = d, tr N'^i for i = 1 .. degree - 1 then
    fixes how often each root occurs, since the Vandermonde system on L
    distinct values is regular.  The roots repeat where gamma = 0 (x = 0),
    where beta^2 = 4 gamma, or where the closed form's delta = 0 with
    m > 0; that only lowers L.  The product is applied to each unit vector
    by Horner's rule, over N's nonzero entries.  Raises ConvergenceError naming the
    first entry or power sum that differs, over the power of D it scales
    with.
    """
    d = len(rows)
    cols = [[] for _ in range(d)]  # column c of N' as (row, entry), entries nonzero
    for i, row in enumerate(rows):
        for c, entry in enumerate(row):
            if i == c:
                entry -= alpha
            if entry:
                cols[c].append((i, entry))
    # the product is y (y^(l-1) + coeffs[0] y^(l-2) + ... + coeffs[-1]), l = degree
    coeffs = [beta, gamma] if not m else [alpha + beta, alpha * beta + gamma, alpha * gamma]
    degree = len(coeffs) + 1
    raw = [0] * len(coeffs)  # raw[i]: sum over j of entry j of the Horner step i
    for j in range(d):
        vector = [0] * d
        vector[j] = 1
        for i in range(degree):
            product = [0] * d
            for c, value in enumerate(vector):
                if value:
                    for row, entry in cols[c]:
                        product[row] += entry * value
            vector = product
            if i < len(coeffs):
                raw[i] += vector[j]
                vector[j] += coeffs[i]
        for row, value in enumerate(vector):
            if value:
                raise ConvergenceError(
                    f"entry ({row + 1}, {j + 1}) of the closed form's annihilating "
                    f"polynomial at N is {value / scale**degree:g} D^{degree}, not 0"
                )
    # step i's sum is tr N'^i + coeffs[0] tr N'^(i-1) + ... + coeffs[i-2] tr N'
    traces, sums = [], [2, -beta]  # the two roots' power sums, by Newton's identities
    for i, step in enumerate(raw, start=1):
        traces.append(step - sum(c * t for c, t in zip(coeffs, reversed(traces))))
        if i > 1:
            sums.append(-beta * sums[-1] - gamma * sums[-2])
        diff = traces[-1] - sums[i] - m * (-alpha) ** i
        if diff:
            raise ConvergenceError(
                f"tr (N - alpha I)^{i} differs from the closed form's by "
                f"{diff / scale**i:g} D^{i}"
            )


def _arrow_sigmas(n: int, alpha: int, tau: int, delta: int, count: int) -> list[int]:
    """sigma_1..sigma_count of alpha (n - 2 times), zeros and the roots of
    y^2 - tau y + delta: the coefficients of (1 + alpha y)^(n-2) (1 + tau y +
    delta y^2), as solution.spectrum_dd reads them in double-double; a
    separate loop, so that the audit does not check that kernel by
    itself."""
    g, power = [1], 1  # g_j = C(n-2, j) alpha^j
    for j in range(1, count + 1):
        power *= alpha
        g.append(math.comb(n - 2, j) * power)
    return [
        g[j] + g[j - 1] * tau + (g[j - 2] * delta if j > 1 else 0) for j in range(1, count + 1)
    ]


def _gap(value: dd.DD, num: int, den: int) -> float:
    """|hi + lo - num / den| for the double-double (hi, lo) and den > 0,
    rounded once."""
    (h_num, h_den), (l_num, l_den) = value[0].as_integer_ratio(), value[1].as_integer_ratio()
    return abs((h_num * l_den + l_num * h_den) * den - num * h_den * l_den) / (h_den * l_den * den)


def sl_phase(values) -> float:
    """Sum of arctangents of the eigenvalues (the Lagrangian phase of the graph)."""
    return sum(math.atan(v) for v in values)
