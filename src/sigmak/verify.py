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
its range, in one ``splitmix64_words`` call that mixes the block's words
together in the lanes of one Python int, and it draws only the first n of
each sample's D words, its x block and t: lane j starts as the block's base
(seed + (first + 1) * 0x9E3779B97F4A7C15) mod 2^64 plus o_j times the
increment, where o_j = j + (j // n) (D - n) is the word's offset in the
block (o_j = j when m = 0), from lanes of o_j * 0x9E3779B97F4A7C15 and a
lane mask that depend on the word count and that pattern alone and are
built once for the largest count drawn; each word is bit for bit the one
defined above.  So the words, the memory and the time of a scan do not
grow with m.  The scan maps them to a sample's x block and t as plain
floats and builds no Point for a sample unless it reports it as the argmax
or names it in an error; then ``sample_point`` builds the Point of sample i
from all of its D words by the same mapping.

Since sample i depends on (seed, i) alone, a scan splits its samples into
contiguous ranges, one per CPU that the process may run on, scans the first
range itself and each other one in a forked worker, and merges the ranges'
partial reports in range order by the rules of one loop over all samples.
The report, and any error, are the same however many CPUs run the scan.

Precision
---------
Each sample's Hessian terms and sigma_1..sigma_k are computed once, in
double-double arithmetic, in closed form, by one kernel
(``solution.spectrum_dd``) that writes the double-double operations out in
one Python frame per block of AUDIT_STRIDE samples, a generator that takes
what no sample changes once per block: at sample-box corners the
cancellation in sigma_k is too severe for plain doubles to certify a 1e-9
bound once k reaches 4.  No sample is checked against the overflow guards:
residual_scan checks the whole box once, by ``solution._check_overflow``,
with a margin that covers every sample in it.
Every entry of D^2 u depends on t only through e^t, so the kernel takes one
double exponential E = math.exp(t) per sample and forms e^(-(k-1)t) as
1/E^(k-1).  The scan thus evaluates the Hessian at t* = ln E, with
|t* - t| <= 2^-53 for an exp within half an ulp, and every entry is
consistent with that one E; sigma_k - 1 is then at double-double rounding
whatever the last bit of E.  A second exponential for e^(-(k-1)t), each
accurate to an ulp, leaves it at ~1e-16.  So the residual's last digits
follow the platform's libm exp, as phase-check's atan already does.  The
Hessian is an arrow matrix, so its spectrum is a (n - 2 times), m zeros
and the two roots of mu^2 - tr mu + det, and sigma_j is read off
(1 + a x)^(n-2) (1 + tr x + det x^2).  A sample is judged from that
spectrum's invariants, rounded to float64 only where a float threshold
judges them, in one pass per sample: the residual |sigma_k - 1| by the
float operations of the double-double sigma_k - (1.0, 0.0), written out,
and, from one call of ``cone.sigma_verdicts`` (the sigma rule of
``cone-check``), the cone verdicts, min_sigma_j and the sum of the sigmas,
with fro = sqrt((n - 2) a^2 + tr^2 - 2 det); only the smaller root can be
negative, so the lemma verdict is sigma_k's positivity; and the n = 3 phase
is atan(a) + atan2(tr, 1 - det) = arg prod (1 + i lambda).  A non-finite
residual, sigma or fro is a ConvergenceError.  No eigenvalue is formed:
the scan reads a, tr, det and the sigmas, and its audit checks the sigmas.

Every 100th sample is audited exactly, at its own point (_audit_sample).
Its inputs are rational: the x block and E = fl(e^t) are dyadic floats, and
A and B are exact.  So the Hessian M at t* = ln E, the one the scan's values
stand for, is N / D for an integer arrow N, whose parts
``solution.exact_hessian`` forms by integer operations alone, with
D = A P^(k-1) 2^(2F+e) for E = P / 2^e and x_i = X_i / 2^F: alpha = D a on
the x diagonal, the cross entries c = D 2x e^t in the t row and column, the
corner D (r^2 e^t + h'') and 0 on the w block.  With tau = alpha + corner
and delta = alpha corner - |c|^2, the Schur complement of alpha I in
y I - N gives

    det(y I - N) = (y - alpha)^(n-2) (y^2 - tau y + delta) y^m,

so N's spectrum is alpha (n - 2 times), 0 (m times) and the roots of
y^2 - tau y + delta, even where two of those values coincide, as at x = 0.
The audit forms tau and delta from the parts by these definitions, never by
the kernel's det = a (h'' - r^2 e^t), so it checks that formula too.  Read
off that spectrum, sigma_k(N) must be D^k, the claim sigma_k = 1 at that
point, and sigma_j(N) > 0 for j < k.  The structured sigma_j must then lie
within SIGMA_AUDIT_UNITS * n * 2^-104 * e_j(|lambda|) of sigma_j(N) / D^j, n
counting the core eigenvalues that the kernel rounds (the m zeros never
enter it).  The scale e_j(|lambda|) comes from the same integers, with no
root: it is the coefficient of y^j in
(1 + alpha y)^(n-2) (1 + s y + |delta| y^2) over D^j (alpha > 0), where
s = |tau| when delta >= 0 and otherwise
s = isqrt(tau^2 - 4 delta) + 1, an integer upper bound of D (|mu_1| + |mu_2|)
for the two roots mu, which makes the scale an upper bound too.  So the
audit reads what the scan reports from, E and the sigmas, and forms no
eigenvalue.  It takes the same path in every dimension and none of its
checks loses meaning as n grows; it needs no Jacobi and does not call
``symbolic``.

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
from itertools import accumulate, compress, cycle, repeat
from operator import mul

from . import doubledouble as dd
from .cone import sigma_verdicts
from .errors import ConvergenceError
from .solution import (
    BOX_MARGIN,
    Point,
    SolutionParams,
    _check_integers,
    _check_overflow,
    exact_hessian,
    spectrum_dd,
)

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE_ONE = b"\x01" + bytes(15)  # a 128-bit lane holding 1, little-endian
# splitmix64_words' lanes for the largest count drawn so far: (count, the
# lanes of j * _GOLDEN, the lanes of 1, the lanes of 2^64 - 1)
_lanes = (0, 0, 0, 0)
# the same for the last strided pattern drawn, (take, stride) first, whose
# lane j holds (j + (j // take) * (stride - take)) * _GOLDEN
_strided_lanes = ((1, 1), 0, 0, 0, 0)

PHASE_TOL = 1e-9
CRITICAL_PHASE_N3 = math.pi / 2
# audit the closed-form spectrum and sigmas on 1% of samples; a scan also
# draws its words this many samples at a time
AUDIT_STRIDE = 100
# A scan forks a worker only for a range of at least MIN_RANGE_SAMPLES
# samples, and its own first range holds PARENT_HEAD_START samples more than
# each worker's: a worker starts ~1.2 ms after its fork and takes ~0.6 ms
# to exit, and each process pays ~170-220 copy-on-write faults, while a
# sample takes ~7.3, ~11.8 and ~18.8 us at n = 3, 7 and 13 on one CPU
# (BENCH_37.json), ~10, ~15.5 and ~24 when the times below were taken.
# With the first range 0, 25, 50, 75 and 100 samples longer, two ranges of
# 400 n = 3 samples took 4.24, 4.02, 3.87, 3.77 and 3.80 ms (one range
# 4.14), of 500 n = 7 samples 6.4, 6.1, 5.9, 6.0 and 6.1 (one range 7.95)
# and of 500 n = 13 samples 8.8, 8.3, 8.4, 8.7 and 9.0 (one range 12.2); 50
# is the best single count.  With it two ranges first beat one near 360 n = 3
# samples (350: 3.69 against 3.65 ms), 225 at n = 7 (200: 3.39 against
# 3.22; 250: 3.88 against 4.03) and 180 at n = 13 (150: 3.97 against 3.78;
# 200: 4.75 against 4.88), so a scan forks from 2 * 150 + 50 = 350
# samples.  Against equal ranges of at least 200, 350 samples take 3.64
# against 3.66 ms at n = 3, 4.66 against 5.59 at n = 7 and 6.56 against
# 8.53 at n = 13, 400 n = 3 samples 3.78 against 4.06 and 500 n = 7
# samples 5.74 against 6.05 (medians of 40 interleaved scans in each of two
# runs, CPython 3.11.7 with numpy loaded, 2-vCPU x86-64 Linux).
MIN_RANGE_SAMPLES = 150
PARENT_HEAD_START = 50
# The audit's bound on |structured sigma_j - sigma_j(N) / D^j|, in units of
# n * 2^-104 * e_j(|lambda|), where e_j(|lambda|) is e_j over the
# eigenvalues' absolute values (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3), read off N's integers as the audit does, and n counts
# the core eigenvalues: the kernel rounds nothing of the m dummy
# coordinates, whose zero eigenvalues add nothing to any sigma_j.  A
# double-double product or sum errs by at most ~2 units of 2^-104 relative
# to the product of the operands' magnitudes or to the sum of them.  The
# structured sigma_j adds three terms of at most k + 1 factors each, and its
# tr and det carry the rounding of the terms they are formed from, a few
# units of |mu_1| + |mu_2| and of |mu_1 mu_2| for the two roots mu; both are
# bounded by the same e_j(|lambda|).  Seeded audits at every odd n = 3..31
# with m in {0, 2}, and on the boxes x_radius 2e49 (n = 3), 4e12 (n = 11)
# and 1e12 (n = 5) and t in [27, 28] (n = 3), stay within 0.15 units of n.  A
# wrong binomial misses the bound by over 25 decades, h'' from a perturbed
# growth coefficient or from a second exponential by over 12, and a det off
# by 1e-20 relative by ~9.
SIGMA_AUDIT_UNITS = 8.0


def _lane_ints(count: int, offsets) -> tuple[int, int, int]:
    """The lanes of offset * _GOLDEN for the `count` offsets, the lanes of 1
    and the lanes of 2^64 - 1, as ints of `count` 128-bit lanes."""
    lanes = array("Q", bytes(16 * count))
    lanes[::2] = array("Q", offsets)
    if sys.byteorder == "big":
        lanes.byteswap()
    ones = int.from_bytes(_LANE_ONE * count, "little")
    return int.from_bytes(lanes.tobytes(), "little") * _GOLDEN, ones, ones * MASK64


def splitmix64_words(
    seed: int, first: int, count: int, *, take: int = 1, stride: int = 1
) -> list[int]:
    """`count` words of the counter-based splitmix64 stream for `seed`, from
    word `first` on: the first `take` of every `stride` words, so words
    first .. first + count - 1 when take == stride (the default); word c
    mixes seed + (c+1) * _GOLDEN (mod 2^64).  A strided count is a multiple
    of `take`.

    The words are mixed together, in one Python int of `count` 128-bit
    lanes.  Lane j starts as base + o_j * _GOLDEN, below 2^128, masked to
    its low 64 bits, where base = (seed + (first + 1) * _GOLDEN) mod 2^64
    and o_j = j + (j // take) * (stride - take) is the lane's offset from
    `first`: that is word first + o_j's seed + (first + o_j + 1) * _GOLDEN
    mod 2^64, also where the counter passes 2^64, since the base is taken
    mod 2^64.  The lanes of o_j * _GOLDEN, the lanes of 1 that spread the
    base and the lane mask depend on `count` and the pattern alone; _lanes
    keeps them for the largest count drawn so far without a stride, and
    _strided_lanes for the largest count of the last (take, stride) drawn;
    a smaller count takes their low lanes.  Times a mix constant, a lane's
    value stays below 2^128, so no carry crosses into the next lane; each
    product, and each xor with a right shift, which moves the next lane's
    low bits into this lane's high half, is masked to the low 64 bits of
    every lane before the next step reads it.  The words are the lanes' low
    halves, read through array('Q') from int.to_bytes in little-endian byte
    order (byteswapped on a big-endian host).
    """
    global _lanes, _strided_lanes
    if take == stride:
        size, steps, ones, mask = _lanes
        if count > size:
            _lanes = size, steps, ones, mask = count, *_lane_ints(count, range(count))
    else:
        pattern, size, steps, ones, mask = _strided_lanes
        if pattern != (take, stride) or count > size:
            skip = stride - take
            offsets = (j + j // take * skip for j in range(count))
            size, steps, ones, mask = count, *_lane_ints(count, offsets)
            _strided_lanes = (take, stride), size, steps, ones, mask
    if count < size:
        low = (1 << 128 * count) - 1
        steps, ones, mask = steps & low, ones & low, mask & low
    z = (steps + ((seed + (first + 1) * _GOLDEN) & MASK64) * ones) & mask
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

    Every check of a sample reads the same closed-form double-double terms
    and sigma_1..sigma_k (see the module docstring); every 100th sample is
    also audited by _audit_sample.  A ConvergenceError raised by a sample,
    including a failed audit, names its index and point.
    The report is a function of (params, box) alone, however many CPUs scan
    the samples (see _scan_ranges).  A sample is carried as its words and
    its x block and t as floats; a Point is built only for the reported
    argmax and the text of an error.  Only the box is checked against the
    overflow guards, with a margin that covers every sample in it.
    """
    _check_overflow(
        p, box.x_radius, *box.t_range, BOX_MARGIN,
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
    The first range, which the calling process scans, holds
    PARENT_HEAD_START samples more than the others, which split the rest
    evenly.
    """
    rest = count - PARENT_HEAD_START
    ranges = max(1, min(cpus, rest // MIN_RANGE_SAMPLES))
    bounds = [0] + [PARENT_HEAD_START + rest * r // ranges for r in range(1, ranges + 1)]
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
            # range took; so this thread forks each worker from a CPU of its
            # own and then moves to the next one, and each process takes
            # back the whole set, which leaves a running task where it is.
            # The hop gains up to ~3 %, and nothing at n = 13 (2 vCPUs,
            # CPython 3.11.7, medians of 70 scans; with the hop / without /
            # one range): 500 n = 7 samples take 4.86-4.97 / 4.94-5.14 /
            # 5.9 ms, 1000 n = 3 samples 5.64-5.91 / 5.79-5.96 / 7.3, and
            # 1000 n = 13 samples 12.0-12.4 / 11.9-12.2 / 18.9
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
    `start`, each sample's x block and t alone, so a range of any length
    holds one block's n words per sample at once, whatever m; they are
    mapped to floats in one pass, and the block's x blocks, slices of
    those floats, and t go to one spectrum_dd call, whose samples are taken
    one at a time, so that an error names the sample that raised it.  A
    block holds at most one audited sample, whose index is found once per
    block.  A sample then costs the kernel's step, the float operations of
    its residual, norm and phase, one call of cone.sigma_verdicts, which
    judges its sigmas in one pass, and one compare with that index; the math
    functions and phase constants it reads are bound to locals once per
    call.  The box was checked by residual_scan; no sample is.
    """
    t_lo, t_hi = box.t_range
    k, n, n2 = p.k, p.n_base, p.n_base - 2
    d, nx = p.total_dim, p.n_base - 1
    x_lo, x_width, t_width = -box.x_radius, 2.0 * box.x_radius, t_hi - t_lo
    check_phase = p.n_base == 3 and p.m == 0
    x_words = [True] * nx + [False]  # a sample's drawn words: x block, then t
    # read at each call, not at import, so that a test may patch them
    sqrt, isfinite, atan, atan2 = math.sqrt, math.isfinite, math.atan, math.atan2
    phase, phase_tol = CRITICAL_PHASE_N3, PHASE_TOL
    max_resid, argmax = -1.0, None
    cone_failures = lemma_failures = phase_failures = 0
    min_sigma_j = math.inf
    for block in range(start, stop, AUDIT_STRIDE):
        size = min(AUDIT_STRIDE, stop - block)
        # each sample's x block and t, its first n of d words; no w word is
        # drawn
        words = splitmix64_words(box.seed, block * d, size * n, take=n, stride=d)
        # the x words of all the block's samples mapped at once, the t words
        # passed over; sample s's x block is the slice at s * nx
        xs = [
            x_lo + x_width * ((word >> 11) * 2.0**-53) for word in compress(words, cycle(x_words))
        ]
        points = [
            (xs[at : at + nx], t_lo + t_width * ((word >> 11) * 2.0**-53))
            for at, word in zip(range(0, size * nx, nx), words[nx::n])
        ]
        kernel = spectrum_dd(p, points).__next__
        audited = block + (-block) % AUDIT_STRIDE  # the block's multiple of AUDIT_STRIDE
        for i in range(block, block + size):
            try:
                et, ((a, _), (tr_hi, tr_lo), (det_hi, det_lo)), e = kernel()
                tr, det = tr_hi + tr_lo, det_hi + det_lo
                # sum lambda^2 = (n-2) a^2 + tr^2 - 2 det, and tr^2 - 2 det =
                # mu_1^2 + mu_2^2 >= tr^2 / 2 for the two roots: no cancellation
                fro = sqrt(n2 * a * a + tr * tr - 2.0 * det)
                # |sigma_k - 1| by the float operations of the double-double
                # (sh, sl) - (1.0, 0.0): TwoSum(sh, -1.0), sl - 0.0 = sl added,
                # then FastTwoSum
                sh, sl = e[k - 1]
                s = sh - 1.0
                bb = s - sh
                err = ((sh - (s - bb)) + (-1.0 - bb)) + sl
                h = s + err
                resid = abs(h + (err - (h - s)))
                # a > 0, the zeros and the larger root are never negative, so
                # at most one eigenvalue is: the lemma verdict is sigma_k's
                # positivity
                in_cone, lemma, smallest, total = sigma_verdicts(e, fro)
                if not isfinite(resid + fro + total):
                    raise ConvergenceError(
                        f"non-finite value: |sigma_{k} - 1| = {resid}, fro = {fro}, "
                        f"sigma_1..sigma_{k} = {[hi + lo for hi, lo in e]}"
                    )
                if i == audited:
                    _audit_sample(p, points[i - block][0], et, e)
            except ConvergenceError as exc:
                pt = sample_point(p, box, i)
                raise ConvergenceError(f"sample {i} at {pt}: {exc}") from exc

            if resid > max_resid:
                max_resid, argmax = resid, i
            cone_failures += not in_cone
            lemma_failures += not lemma
            if smallest < min_sigma_j:
                min_sigma_j = smallest
            # sum of arctan over a and the roots: arg (1 + i a) (1 - det + i tr)
            if check_phase and abs(atan(a) + atan2(tr, 1.0 - det) - phase) > phase_tol:
                phase_failures += 1
    return max_resid, argmax, cone_failures, lemma_failures, min_sigma_j, phase_failures


def _audit_sample(p: SolutionParams, x, et: float, sigmas: list) -> None:
    """Check one sample's structured sigmas exactly, at its own point, as the
    module docstring describes.

    `x` is the sample's x block as floats, and et and sigmas are what
    spectrum_dd yielded for it; the Hessian is taken at t* = ln et.  Raises
    ConvergenceError naming the check that failed and its exact residual,
    over the power of D it scales with.
    """
    n, k = p.n_base, p.k
    scale, alpha, cross, corner = exact_hessian(p, x, et)
    # the arrow's tau and delta by their definitions, not by the kernel's
    # det = a (h'' - r^2 e^t), which the sigma bound below then checks
    tau = alpha + corner
    delta = alpha * corner - sum(c * c for c in cross)
    # D^j e_j(|lambda|), or a bound above it, is read off s and |delta|:
    # alpha > 0, and the roots of y^2 - tau y + delta have |mu_1 mu_2| =
    # |delta| and |mu_1| + |mu_2| = |tau| when they share a sign, their
    # distance sqrt(tau^2 - 4 delta) otherwise, at most s
    s = abs(tau) if delta >= 0 else math.isqrt(tau * tau - 4 * delta) + 1
    exact, sizes = _arrow_sigmas(n, alpha, ((tau, delta), (s, abs(delta))), k)
    powers = list(accumulate(repeat(scale, k), mul))  # D, D^2, ..., D^k
    if exact[-1] != powers[-1]:
        raise ConvergenceError(
            f"exact sigma_{k}(N) - D^{k} is {(exact[-1] - powers[-1]) / powers[-1]:.17g} "
            f"D^{k}, not 0"
        )
    for j, (sigma, power) in enumerate(zip(exact[:-1], powers), start=1):
        if sigma <= 0:
            raise ConvergenceError(f"exact sigma_{j}(N) is {sigma / power:.17g} D^{j}, not positive")

    unit = SIGMA_AUDIT_UNITS * n * 2.0**-104
    for j, (structured, sigma, power, size) in enumerate(zip(sigmas, exact, powers, sizes), 1):
        gap, tol = _gap(structured, sigma, power), unit * (size / power)
        if not gap <= tol:
            raise ConvergenceError(
                f"structured sigma_{j} disagrees with the exact sigma_{j}(N) / D^{j} by "
                f"{gap:g} (tolerance {tol:g})"
            )


def _arrow_sigmas(n: int, alpha: int, quadratics, count: int) -> list[list[int]]:
    """For each (tau, delta) of `quadratics`, sigma_1..sigma_count of alpha
    (n - 2 times), zeros and the roots of y^2 - tau y + delta: the
    coefficients of (1 + alpha y)^(n-2) (1 + tau y + delta y^2), as
    solution.spectrum_dd reads them in double-double; a separate loop, so
    that the audit does not check that kernel by itself.  The powers
    g_j = C(n-2, j) alpha^j are formed once for all the quadratics: the
    audit's exact sigmas over (tau, delta) and the scale of its bound over
    (s, |delta|)."""
    g, power = [1], 1
    for j in range(1, count + 1):
        power *= alpha
        g.append(math.comb(n - 2, j) * power)
    return [
        [g[j] + g[j - 1] * tau + (g[j - 2] * delta if j > 1 else 0) for j in range(1, count + 1)]
        for tau, delta in quadratics
    ]


def _gap(value: dd.DD, num: int, den: int) -> float:
    """|hi + lo - num / den| for the double-double (hi, lo) and den > 0,
    rounded once."""
    (h_num, h_den), (l_num, l_den) = value[0].as_integer_ratio(), value[1].as_integer_ratio()
    return abs((h_num * l_den + l_num * h_den) * den - num * h_den * l_den) / (h_den * l_den * den)


def sl_phase(values) -> float:
    """Sum of arctangents of the eigenvalues (the Lagrangian phase of the graph)."""
    return sum(math.atan(v) for v in values)
