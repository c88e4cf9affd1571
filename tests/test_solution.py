import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    DD_ONE,
    arrow_sigmas,
    composed_eigenvalues_dd,
    composed_spectrum_dd,
    dd_add,
    dd_hessian,
    dd_sub,
    dd_terms,
    sigma_brute,
    spectrum_dd_at,
    to_float,
)
from sigmak.solution import (
    OVERFLOW_EXPONENT,
    Point,
    SolutionParams,
    arrow_rows,
    cancellation_coefficient,
    derive_constants,
    eval_jet,
    exact_hessian,
    h_formula,
    spectrum_dd,
)
from sigmak import doubledouble as dd
from sigmak.symfunc import eigenvalues_symmetric, elementary_symmetric
from sigmak.verify import (
    AUDIT_STRIDE,
    SIGMA_AUDIT_UNITS,
    SampleBox,
    _audit_sample,
    residual_scan,
    sample_point,
)


def box_holding(x, t: float) -> SampleBox:
    """A one-sample box that holds the point (x, t), with t as its t_max."""
    return SampleBox(max(map(abs, x)) or 1.0, (t - 1.0, t), count=1, seed=0)


class TestCancellationCoefficient:
    def test_vanishes_at_the_pairing(self):
        assert cancellation_coefficient(3, 2) == 0
        assert cancellation_coefficient(7, 4) == 0

    def test_nonzero_off_the_pairing(self):
        assert cancellation_coefficient(4, 2) == 1

    def test_vanishes_iff_2k_equals_n_plus_1(self):
        for n in range(3, 21):
            for k in range(2, n):
                coeff = cancellation_coefficient(n, k)
                assert (coeff == 0) == (2 * k == n + 1), (n, k)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            cancellation_coefficient(5, 1)
        with pytest.raises(ValueError):
            cancellation_coefficient(5, 5)
        # a bool or a float is refused by name, not run as an integer
        for n, k, named in [
            (5.0, 3, "n must be an integer, got 5.0"),
            (True, 2, "n must be an integer, got True"),
            (5, 2.0, "k must be an integer, got 2.0"),
            (5, True, "k must be an integer, got True"),
        ]:
            with pytest.raises(ValueError, match=f"^{named}$"):
                cancellation_coefficient(n, k)


class TestDeriveConstants:
    def test_n3_matches_golden_solution(self):
        p = derive_constants(3)
        assert p.k == 2
        assert p.A == Fraction(4)
        assert p.B == Fraction(4)
        assert p.h_coeff_decay == Fraction(1, 4)
        assert p.h_coeff_growth == Fraction(-1)
        assert h_formula(p) == "(1/4)*exp(-t) + (-1)*exp(t)"

    @pytest.mark.parametrize(
        "n,k,a,b,decay,growth",
        [
            (5, 3, 24, 32, Fraction(1, 96), Fraction(-4, 3)),
            (7, 4, 160, 240, Fraction(1, 1440), Fraction(-3, 2)),
            (9, 5, 1120, 1792, Fraction(1, 17920), Fraction(-8, 5)),
        ],
    )
    def test_higher_dimensions(self, n, k, a, b, decay, growth):
        p = derive_constants(n)
        assert (p.k, p.A, p.B) == (k, a, b)
        assert p.h_coeff_decay == decay
        assert p.h_coeff_growth == growth

    @pytest.mark.parametrize("bad", [4, 2, 1, 0, -3, 10])
    def test_rejects_even_or_small(self, bad):
        with pytest.raises(ValueError, match="odd"):
            derive_constants(bad)

    @pytest.mark.parametrize(
        "args, field",
        [((3.0,), "n_base"), (("3",), "n_base"), ((True,), "n_base"), ((3, 1.5), "m"),
         ((3, 1.0), "m")],
    )
    def test_rejects_non_integers_naming_the_field(self, args, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolutionParams(*args)

    def test_pascal_identity(self):
        # the constants in their closed forms, every derived field of
        # SolutionParams(n, m), and its double-double h'' coefficients bit for bit
        for n in range(3, 52, 2):
            p = derive_constants(n)
            k = p.k
            assert k == (n + 1) // 2
            assert p.A == 2 ** (k - 1) * math.comb(n - 1, k - 1)
            assert p.B == 2**k * math.comb(n - 1, k)
            assert p.h_coeff_decay * p.A * (k - 1) ** 2 == 1
            assert p.h_coeff_growth == -p.B / p.A
            assert p.h2_decay_dd == dd.mul(dd.from_fraction(p.h_coeff_decay), dd.from_float((k - 1) ** 2))
            assert p.h2_growth_dd == dd.from_fraction(p.h_coeff_growth)
            for m in range(3):
                q = SolutionParams(n, m)
                assert q.m == m
                assert (q.k, q.A, q.B, q.h_coeff_decay, q.h_coeff_growth) == (
                    p.k, p.A, p.B, p.h_coeff_decay, p.h_coeff_growth
                )
                assert (q.h2_decay_dd, q.h2_growth_dd) == (p.h2_decay_dd, p.h2_growth_dd)

    @pytest.mark.parametrize("n", [687, 689, 1001, 1033])
    def test_past_the_float_range_of_a(self, n):
        # A = 2^(k-1) C(n-1, k-1) passes the largest float from n = 689 on,
        # and C(n-2, k-1) from n = 1033 on: the exact constants stand,
        # A_float is inf, and the exact Hessian that verify-exact expands is
        # built
        from sigmak.symbolic import build_rotated_hessian

        p = derive_constants(n)
        k = p.k
        assert p.A == 2 ** (k - 1) * math.comb(n - 1, k - 1)
        assert p.h_coeff_decay * p.A * (k - 1) ** 2 == 1
        assert p.h_coeff_growth == -p.B / p.A
        assert p.A_float == (float(p.A) if n == 687 else math.inf)
        assert len(build_rotated_hessian(n)) == n

    @pytest.mark.parametrize("n", [689, 1001, 1033])
    def test_past_the_float_range_of_a_no_box_passes(self, n):
        # the least box the exponent guard lets through: the first term of
        # the radius guard's bound alone refuses it
        p = derive_constants(n)
        t_lo = -0.999 * OVERFLOW_EXPONENT / (p.k - 1)
        box = SampleBox(x_radius=1e-300, t_range=(t_lo, t_lo + 1e-9), count=1, seed=0)
        with pytest.raises(
            OverflowError, match=rf"stay finite only while \(1 \+ that\)\^{n} <= 2\^996$"
        ):
            residual_scan(p, box)
        with pytest.raises(OverflowError, match=r"^point x = \(0\.0, "):
            eval_jet(p, Point((0.0,) * (n - 1), t_lo))


def h_jet(p, t, order):
    """h, h' or h'' at t, as eval_jet gives them at x = 0: the value, the
    gradient's t entry and the Hessian's t, t entry."""
    nx = p.n_base - 1
    jet = eval_jet(p, Point((0.0,) * nx, t, (0.0,) * p.m))
    return (jet.value, jet.gradient[nx], jet.hessian[nx][nx])[order]


class TestHEval:
    def test_value_at_zero(self):
        p = derive_constants(3)
        assert h_jet(p, 0.0, 0) == pytest.approx(-0.75)

    def test_second_derivative_at_zero(self):
        p = derive_constants(3)
        assert h_jet(p, 0.0, 2) == pytest.approx(-0.75)

    def test_value_at_log_two(self):
        p = derive_constants(3)
        assert h_jet(p, math.log(2.0), 0) == pytest.approx(-15.0 / 8.0)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_h2_solves_its_defining_equation(self, n):
        # h'' must equal (1 - B e^(kt)) / (A e^((k-1)t)); two-term exponential
        # sums agreeing at three points agree identically
        p = derive_constants(n)
        a, b, k = float(p.A), float(p.B), p.k
        for t in (-1.0, 0.0, 1.0):
            rhs = (1.0 - b * math.exp(k * t)) / (a * math.exp((k - 1) * t))
            assert h_jet(p, t, 2) == pytest.approx(rhs, rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            h_jet(derive_constants(3), 701.0, 0)
        with pytest.raises(OverflowError):
            h_jet(derive_constants(5), -360.0, 0)  # (k-1)=2 doubles the exponent


class TestEvalJet:
    def test_origin_n3(self):
        p = derive_constants(3)
        jet = eval_jet(p, Point(x=(0.0, 0.0), t=0.0))
        assert jet.value == pytest.approx(-0.75)
        np.testing.assert_allclose(jet.hessian, np.diag([2.0, 2.0, -0.75]))
        assert elementary_symmetric(eigenvalues_symmetric(jet.hessian))[1] == pytest.approx(1.0)

    def test_unit_x_n3(self):
        p = derive_constants(3)
        jet = eval_jet(p, Point(x=(1.0, 0.0), t=0.0))
        assert jet.value == pytest.approx(0.25)
        assert jet.gradient == pytest.approx((2.0, 0.0, -0.25))
        np.testing.assert_allclose(
            jet.hessian,
            [[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 0.25]],
        )

    def test_origin_n5(self):
        p = derive_constants(5)
        jet = eval_jet(p, Point(x=(0.0,) * 4, t=0.0))
        np.testing.assert_allclose(
            jet.hessian, np.diag([2.0, 2.0, 2.0, 2.0, -31.0 / 24.0])
        )
        spectrum = eigenvalues_symmetric(jet.hessian)
        assert elementary_symmetric(spectrum)[2] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        p = derive_constants(3)
        with pytest.raises(ValueError, match="shape"):
            eval_jet(p, Point(x=(1.0,), t=0.0))
        with pytest.raises(ValueError, match="shape"):
            eval_jet(p, Point(x=(1.0, 2.0), t=0.0, w=(0.5,)))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"x": (math.nan, 0.0), "t": 0.0}, "x"),
            ({"x": (0.0, 0.0), "t": math.inf}, "t"),
            ({"x": (0.0, 0.0), "t": 0.0, "w": (-math.inf,)}, "w"),
        ],
    )
    def test_point_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValueError, match=f"point coordinate {field} must be finite"):
            Point(**kwargs)

    def test_radius_guard(self):
        # eval_jet checks each point; the scan's kernel checks none, and
        # residual_scan refuses the box that holds each point instead
        p = derive_constants(3)
        eval_jet(p, Point(x=(1e49, 0.0), t=2.0))
        residual_scan(p, box_holding((1e49, 0.0), 2.0))
        for x, t, point, box in [
            ((1e200, 0.0), 0.0, r"point x = \(1e\+200, 0.0\), t = 0.0",
             r"x_radius = 1e\+200 with t_range = \(-1.0, 0.0\)"),
            ((1e50, 0.0), 2.0, r"point x = \(1e\+50, 0.0\)", r"x_radius = 1e\+50 "),
            ((0.0, 0.0), -400.0, "Hessian norm", r"t_range = \(-401.0, -400.0\) .*Hessian norm"),
        ]:
            with pytest.raises(OverflowError, match=point):
                eval_jet(p, Point(x=x, t=t))
            with pytest.raises(OverflowError, match=box):
                residual_scan(p, box_holding(x, t))

    def test_one_closed_form_evaluation_per_jet(self, monkeypatch):
        # e^t and e^(-(k-1)t), shared by the closed form and the radius guard
        import sigmak.solution

        calls = []
        exp = math.exp

        def counting_exp(x):
            calls.append(x)
            return exp(x)

        monkeypatch.setattr(sigmak.solution.math, "exp", counting_exp)
        eval_jet(derive_constants(7), Point(x=(1.0, -0.5, 2.0, 0.3, -1.2, 0.7), t=0.4))
        assert len(calls) == 2

    def test_value_is_r_squared_e_t_plus_h(self):
        # u = r^2 e^t + h_coeff_decay e^(-(k-1)t) + h_coeff_growth e^t, in
        # 40-digit decimals from the exact coefficients
        p = derive_constants(5)
        pt = Point(x=(0.3, -1.2, 0.0, 2.5), t=0.7)
        with localcontext() as ctx:
            ctx.prec = 40
            t = Decimal(pt.t)
            decay, growth = (Decimal(c.numerator) / c.denominator
                             for c in (p.h_coeff_decay, p.h_coeff_growth))
            r2 = sum(Decimal(v) ** 2 for v in pt.x)
            want = (r2 + growth) * t.exp() + decay * (-(p.k - 1) * t).exp()
        assert eval_jet(p, pt).value == pytest.approx(float(want), rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        p = derive_constants(3)
        pt = Point(x=(0.4, -0.9), t=0.3)
        jet = eval_jet(p, pt)
        eps = 1e-6
        coords = [0.4, -0.9, 0.3]
        for i in range(3):
            up = list(coords)
            dn = list(coords)
            up[i] += eps
            dn[i] -= eps
            fd = (
                eval_jet(p, Point.from_coords(p, up)).value
                - eval_jet(p, Point.from_coords(p, dn)).value
            ) / (2 * eps)
            assert jet.gradient[i] == pytest.approx(fd, abs=1e-7)


class TestExtend:
    def test_zero_extension_is_identity(self):
        assert SolutionParams(3, 0) == derive_constants(3)

    def test_padded_hessian_keeps_sigma_k(self):
        p = SolutionParams(3, 1)
        jet = eval_jet(p, Point(x=(0.0, 0.0), t=0.0, w=(1.7,)))
        assert len(jet.hessian) == 4
        assert sigma_brute(jet.hessian, 2) == pytest.approx(1.0)

    def test_two_dummy_coordinates_reach_dimension_five(self):
        p = SolutionParams(3, 2)
        assert p.total_dim == 5
        assert p.k == 2

    def test_w_rows_are_zero(self):
        p = SolutionParams(3, 2)
        jet = eval_jet(p, Point(x=(1.0, -2.0), t=0.5, w=(3.0, -4.0)))
        h = np.array(jet.hessian)
        assert np.all(h[3:, :] == 0.0) and np.all(h[:, 3:] == 0.0)
        assert jet.gradient[3:] == (0.0, 0.0)

    def test_negative_extension_rejected(self):
        with pytest.raises(ValueError):
            SolutionParams(3, -1)


class TestResidualIdentity:
    @pytest.mark.parametrize("n", [3, 5])
    def test_all_three_float_paths_near_one(self, n):
        # double precision resolves the identity to 1e-9 through k = 3
        from conftest import charpoly_sigmas, sigma_minors
        from sigmak.verify import SampleBox, sample_point

        p = derive_constants(n)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=50, seed=5)
        for i in range(50):
            jet = eval_jet(p, sample_point(p, box, i))
            by_eig = elementary_symmetric(eigenvalues_symmetric(jet.hessian))[p.k - 1]
            by_minors = sigma_minors(jet.hessian, p.k)
            by_charpoly = charpoly_sigmas(jet.hessian)[p.k - 1]
            for value in (by_eig, by_minors, by_charpoly):
                assert value == pytest.approx(1.0, rel=1e-9)


class TestHessianDD:
    """The double-double terms of u's Hessian, as the kernel's composition
    (conftest's dd_terms) forms them, and the closed-form sigmas of
    spectrum_dd."""

    def test_matches_float_hessian(self):
        p = derive_constants(5)
        pt = Point(x=(1.1, -0.4, 2.0, 0.0), t=-0.8)
        hfloat = eval_jet(p, pt).hessian
        hdd = dd_hessian(p, pt)
        for i in range(5):
            for j in range(5):
                assert to_float(hdd[i][j]) == pytest.approx(hfloat[i][j], rel=1e-14, abs=1e-14)

    def test_residual_is_tiny_in_dd(self):
        p = derive_constants(7)
        pt = Point(x=(3.0,) * 6, t=2.0)
        _, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
        assert abs(to_float(dd_sub(sigmas[3], DD_ONE))) < 1e-20

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_h2_against_decimal(self, n):
        # h'' = (k-1)^2 decay e^(-(k-1)t) + growth e^t at t* = ln E,
        # E = math.exp(t): the kernel reads e^t as E and takes e^(-(k-1)t) as
        # 1/E^(k-1); its composition's h'' is the one it forms
        p = derive_constants(n)
        km1 = p.k - 1
        rng = random.Random(n)
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(20):
                t = rng.uniform(-2.0, 2.0)
                h2 = dd_terms(p, (0.0,) * (n - 1), t)[1]
                e = Decimal(math.exp(t))
                decay = (
                    km1**2 * Decimal(p.h_coeff_decay.numerator) / p.h_coeff_decay.denominator
                    / e**km1
                )
                growth = Decimal(p.h_coeff_growth.numerator) / p.h_coeff_growth.denominator * e
                err = abs(Decimal(h2[0]) + Decimal(h2[1]) - (decay + growth))
                assert err <= Decimal("1e-30") * (abs(decay) + abs(growth)), t


def fraction_hessian(p, x, et):
    """u's Hessian at t* = ln et in Fractions, from h's two coefficients."""
    e, xs = Fraction(et), [Fraction(v) for v in x]
    h2 = p.h_coeff_decay * (p.k - 1) ** 2 / e ** (p.k - 1) + p.h_coeff_growth * e
    nx, dim = len(xs), p.total_dim
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i, v in enumerate(xs):
        rows[i][i] = 2 * e
        rows[i][nx] = rows[nx][i] = 2 * v * e
    rows[nx][nx] = sum(v * v for v in xs) * e + h2
    return rows


def exact_rows(p, x, et):
    """exact_hessian's scale D and its parts laid out as the integer rows of N."""
    scale, alpha, cross, corner = exact_hessian(p, x, et)
    return scale, arrow_rows(alpha, cross, corner, p.m, 0)


class TestExactHessian:
    """exact_hessian: u's Hessian at t* = ln E as the integer parts of the
    arrow N = D M over a scale D, which arrow_rows lays out as N."""

    @pytest.mark.parametrize("n, m", [(3, 0), (7, 0), (5, 2), (21, 0)])
    def test_is_the_scaled_rational_hessian(self, n, m):
        p = SolutionParams(n, m)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=10, seed=10 * n + m)
        nx = n - 1
        for i in range(box.count):
            pt = sample_point(p, box, i)
            et = math.exp(pt.t)
            scale, alpha, cross, corner = exact_hessian(p, pt.x, et)
            rows = arrow_rows(alpha, cross, corner, m, 0)
            want = fraction_hessian(p, pt.x, et)
            assert type(scale) is int and scale > 0
            assert all(type(v) is int for v in (alpha, *cross, corner))
            assert [[Fraction(v, scale) for v in row] for row in rows] == want
            assert Fraction(alpha, scale) == want[0][0] == 2 * Fraction(et)
            # a d - |c|^2 from the parts is the kernel's det = a (h'' - r^2 e^t)
            r2et = sum(Fraction(v) ** 2 for v in pt.x) * Fraction(et)
            det = want[0][0] * (want[nx][nx] - 2 * r2et)
            assert Fraction(alpha * corner - sum(c * c for c in cross), scale**2) == det

    def test_scale_is_the_documented_one(self):
        # E = 3 / 2^2 and x = X / 2^3: D = A P^(k-1) 2^(2F+e) = A 3^2 2^8
        p = derive_constants(5)
        scale, rows = exact_rows(p, (0.5, -1.25, 3.0, 0.125), 0.75)
        assert scale == int(p.A) * 3**2 * 2**8
        want = fraction_hessian(p, (0.5, -1.25, 3.0, 0.125), 0.75)
        assert rows == [[scale * v for v in row] for row in want]

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_sigma_k_is_exactly_d_to_the_k(self, n):
        # principal minors by cofactor expansion, over ints
        p = derive_constants(n)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=3, seed=n)
        for i in range(box.count):
            pt = sample_point(p, box, i)
            scale, rows = exact_rows(p, pt.x, math.exp(pt.t))
            assert sigma_brute(rows, p.k) == scale**p.k
            assert all(sigma_brute(rows, j) > 0 for j in range(1, p.k))

    def test_a_perturbed_constant_is_carried_exactly(self):
        # B off by one part in 10^6 is a Fraction: D takes its denominator,
        # and sigma_k(N) is no longer D^k
        p = derive_constants(3)
        object.__setattr__(p, "B", p.B * Fraction(1_000_001, 1_000_000))
        scale, rows = exact_rows(p, (0.5, -1.5), 1.25)
        assert [[Fraction(v, scale) for v in row] for row in rows] == [
            [Fraction(5, 2), 0, Fraction(5, 4)],
            [0, Fraction(5, 2), Fraction(-15, 4)],
            [Fraction(5, 4), Fraction(-15, 4),
             Fraction(5, 2) * Fraction(5, 4) + 1 / (p.A * Fraction(5, 4)) - p.B / p.A * Fraction(5, 4)],
        ]
        assert sigma_brute(rows, 2) != scale**2


class TestHessianByDifferentiation:
    """D^2 u by exact differentiation of u = (sum x_i^2) e^t + h(t) itself,
    with h = e^(-(k-1)t) / (A (k-1)^2) - (B/A) e^t and the paper's
    A = 2^(k-1) C(n-1, k-1), B = 2^k C(n-1, k), against the hand-derived
    entries that exact_hessian (laid out by arrow_rows) and
    symbolic.rotated_hessian_from_constants form.  u is a dict {(e_1, ..., e_(n-1), j): c} of the monomials
    c x_1^e_1 ... x_(n-1)^e_(n-1) e^(jt), with Fraction c."""

    @staticmethod
    def constants(n, k):
        a_const = 2 ** (k - 1) * math.comb(n - 1, k - 1)
        return Fraction(a_const), Fraction(2**k * math.comb(n - 1, k))

    @staticmethod
    def u(n, k, a_const, b_const):
        flat = (0,) * (n - 1)
        u = {flat[:i] + (2,) + flat[i + 1 :] + (1,): Fraction(1) for i in range(n - 1)}
        u[flat + (-(k - 1),)] = 1 / (a_const * (k - 1) ** 2)
        u[flat + (1,)] = -b_const / a_const
        return u

    @staticmethod
    def derivative(poly, var):
        """d poly / d x_(var+1), or d poly / dt for var = n - 1: e^(jt)
        gives j e^(jt)."""
        out = {}
        for mono, coeff in poly.items():
            if mono[var]:
                key = list(mono)
                if var < len(mono) - 1:
                    key[var] -= 1
                key = tuple(key)
                out[key] = out.get(key, 0) + coeff * mono[var]
        return {key: coeff for key, coeff in out.items() if coeff}

    def hessian(self, n, k, a_const, b_const):
        u = self.u(n, k, a_const, b_const)
        first = [self.derivative(u, i) for i in range(n)]
        return [[self.derivative(first[i], j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(3, 16, 2) for m in (0, 2)])
    def test_exact_hessian_is_d2u(self, n, m):
        # rows / D at x = X / 2^F and e^t = E, the dummy rows and columns 0
        p = SolutionParams(n, m)
        a_const, b_const = self.constants(n, p.k)
        assert (p.A, p.B) == (a_const, b_const)
        d2u = self.hessian(n, p.k, a_const, b_const)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=3, seed=n + 100 * m)
        for i in range(box.count):
            pt = sample_point(p, box, i)
            et = math.exp(pt.t)
            scale, rows = exact_rows(p, pt.x, et)
            at = [Fraction(v) for v in pt.x] + [Fraction(et)]

            def value(poly):
                return sum(
                    c * math.prod(v**e for v, e in zip(at[:-1], mono)) * at[-1] ** mono[-1]
                    for mono, c in poly.items()
                )

            want = [[value(entry) for entry in row] + [0] * m for row in d2u]
            want += [[0] * (n + m)] * m
            assert [[Fraction(v, scale) for v in row] for row in rows] == want

    @pytest.mark.parametrize("n", range(3, 16))
    def test_the_rotated_hessian_is_d2u_at_x_equal_r_e_1(self, n):
        # x = (r, 0, ..., 0): a monomial with any other x_i drops out, and
        # x_1^e e^(jt) is the SymExpr term r^e e^(jt)
        from sigmak.symbolic import rotated_hessian_from_constants

        k = (n + 1) // 2
        a_const, b_const = self.constants(n, k)
        want = [
            [
                {(mono[0], mono[-1]): c for mono, c in entry.items() if not any(mono[1:-1])}
                for entry in row
            ]
            for row in self.hessian(n, k, a_const, b_const)
        ]
        assert rotated_hessian_from_constants(n, k, a_const, b_const) == want


def _fro(values) -> float:
    return math.sqrt(sum(to_float(v) ** 2 for v in values))


class TestSpectrumDD:
    """The closed-form eigenvalues of the kernel's composition (conftest's
    composed_eigenvalues_dd) against numpy's eigvalsh of the float Hessian,
    at points where the scan's exact audit passes the kernel's sigmas."""

    def assert_matches_oracles(self, p, pt):
        et, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
        lam = composed_eigenvalues_dd(p, pt.x, pt.t)
        assert len(lam) == p.total_dim
        assert lam == sorted(lam)
        fro = _fro(lam)
        _audit_sample(p, list(pt.x), et, sigmas)
        by_numpy = np.linalg.eigvalsh(eval_jet(p, pt).hessian)
        gaps = [abs(to_float(x) - y) for x, y in zip(lam, by_numpy)]
        assert max(gaps) <= 1e-14 * (1.0 + fro)
        return lam, by_numpy

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
    def test_seeded_points(self, n, m):
        p = SolutionParams(n, m)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=3, seed=1000 * n + m)
        for i in range(box.count):
            self.assert_matches_oracles(p, sample_point(p, box, i))

    @pytest.mark.parametrize("n", [3, 7])
    def test_origin_gives_a_and_d(self, n):
        # x = 0: c = 0, so the 2 x 2 block is diagonal with roots a and d
        p = SolutionParams(n, 1)
        for t in (-1.5, 0.0, 1.5):
            pt = Point(x=(0.0,) * (n - 1), t=t, w=(0.7,))
            lam, _ = self.assert_matches_oracles(p, pt)
            a = 2.0 * math.exp(t)
            d = h_jet(p, t, 2)
            expected = sorted([a] * (n - 1) + [d, 0.0])
            assert [to_float(v) for v in lam] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_equal_diagonal_gives_a_plus_minus_c(self):
        # n = 3, t = 0: d = r^2 + h''(0) = r^2 - 3/4 equals a = 2 at r^2 = 11/4;
        # the 2 x 2 block [[a, |c|], [|c|, a]] has roots a -/+ |c|
        p = derive_constants(3)
        pt = Point(x=(math.sqrt(2.75), 0.0), t=0.0)
        lam, _ = self.assert_matches_oracles(p, pt)
        c = 2.0 * math.sqrt(2.75)
        assert [to_float(v) for v in lam] == pytest.approx([2.0 - c, 2.0, 2.0 + c], rel=1e-14)

    @pytest.mark.parametrize("n", [3, 7, 11])
    @pytest.mark.parametrize("t", [-2.0, 2.0])
    def test_box_corner(self, n, t):
        p = derive_constants(n)
        pt = Point(x=(3.0, -3.0) * ((n - 1) // 2), t=t)
        lam, _ = self.assert_matches_oracles(p, pt)
        sigma_k = elementary_symmetric(lam, dd_add, dd.mul)[p.k - 1]
        assert abs(to_float(dd_sub(sigma_k, DD_ONE))) < 1e-20
        _, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
        assert abs(to_float(dd_sub(sigmas[p.k - 1], DD_ONE))) < 1e-20

    def test_negative_determinant_root(self):
        # n = 3, t = 0.5, x = (1, 0): h'' - r^2 e^t < 0, so det < 0 and the
        # smaller root is the one negative eigenvalue
        p = derive_constants(3)
        pt = Point(x=(1.0, 0.0), t=0.5)
        et = math.exp(0.5)
        det = 2.0 * et * h_jet(p, 0.5, 2) - 2.0 * et * et
        assert det < 0.0
        lam, by_numpy = self.assert_matches_oracles(p, pt)
        assert to_float(lam[0]) < 0.0
        assert to_float(lam[0]) * to_float(lam[-1]) == pytest.approx(det, rel=1e-14)
        negatives = sum(to_float(v) < 0.0 for v in lam)
        assert negatives == sum(v < 0.0 for v in by_numpy) == 1


class TestArrowSigmas:
    """The structured sigma_1..sigma_k of spectrum_dd against the e_j
    recurrence over the closed-form eigenvalues of its composition, within
    the scan audit's bound SIGMA_AUDIT_UNITS * n * 2^-104 * e_j(|lambda|)."""

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_matches_the_recurrence(self, n, m):
        p = SolutionParams(n, m)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=40, seed=100 * n + m)
        unit = SIGMA_AUDIT_UNITS * p.n_base * 2.0**-104
        for i in range(box.count):
            pt = sample_point(p, box, i)
            _, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
            lam = composed_eigenvalues_dd(p, pt.x, pt.t)
            assert len(sigmas) == p.k
            by_recurrence = elementary_symmetric(lam, dd_add, dd.mul)
            scales = elementary_symmetric([abs(to_float(v)) for v in lam])
            for x, y, scale in zip(sigmas, by_recurrence, scales):
                assert abs(to_float(dd_sub(x, y))) <= unit * scale
            assert abs(to_float(dd_sub(sigmas[-1], DD_ONE))) < 1e-20

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_exact_on_exact_inputs(self, n):
        # a, tr and det small integers: every double-double operation is
        # exact, so the formula must equal the recurrence over the roots; the
        # kernel's composition takes them as arguments
        p = derive_constants(n)
        a, mu = 3, (-2, 5)
        powers = [dd.from_float(float(a**j)) for j in range(1, p.k + 1)]
        tr, det = dd.from_float(float(sum(mu))), dd.from_float(float(mu[0] * mu[1]))
        sigmas = arrow_sigmas(p.arrow_binomials_dd, powers, tr, det)
        want = elementary_symmetric([a] * (n - 2) + list(mu))[: p.k]
        assert [to_float(v) for v in sigmas] == want
        assert all(v[1] == 0.0 for v in sigmas)

    def test_binomials_are_exact(self):
        # at n = 71, C(69, j) passes 2^53 from j = 18 on and needs its low part
        p = derive_constants(71)
        assert [Fraction(hi) + Fraction(lo) for hi, lo in p.arrow_binomials_dd] == [
            math.comb(69, j) for j in range(p.k + 1)
        ]
        assert any(lo != 0.0 for _, lo in p.arrow_binomials_dd)


class TestKernelPin:
    """spectrum_dd is conftest's composition dd_terms -> spectrum_sigmas_dd ->
    arrow_sigmas written out in one frame: the same E, terms and sigmas,
    float.hex for float.hex, over blocks of points taken as the scan takes
    them, and the same error, if one stops a block, at the same point.
    Neither guards a point: residual_scan refuses the box instead."""

    @staticmethod
    def outcomes(kernel, p, points):
        # each point's E, terms and sigmas, then the error that stopped the
        # block, if one did
        got = []
        try:
            for et, terms, sigmas in kernel(p, [(list(x), t) for x, t in points]):
                got.append((et.hex(), [tuple(map(float.hex, v)) for v in [*terms, *sigmas]]))
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            got.append((type(exc), str(exc)))
        return got

    @staticmethod
    def samples(p, box):
        return [(pt.x, pt.t) for pt in (sample_point(p, box, i) for i in range(box.count))]

    def assert_pinned(self, p, points):
        for start in range(0, len(points), AUDIT_STRIDE):
            block = points[start : start + AUDIT_STRIDE]
            want = self.outcomes(composed_spectrum_dd, p, block)
            got = self.outcomes(spectrum_dd, p, block)
            for point, g, w in zip(block, got, want):
                assert g == w, (p.n_base, p.m, point)
            assert len(got) == len(want)

    # odd n = 33..51 at m = 0 take the sigma loop through every k up to 26
    @pytest.mark.parametrize("n, m", [
        *((n, m) for n in range(3, 32, 2) for m in (0, 1, 2)),
        *((n, 0) for n in range(33, 52, 2)),
    ])
    def test_seeded_points_origin_and_corners(self, n, m):
        p = SolutionParams(n, m)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=200, seed=100 * n + m)
        points = self.samples(p, box)
        nx = n - 1
        for t in (-2.0, -0.5, 0.0, 2.0):
            points += [((0.0,) * nx, t), ((3.0,) * nx, t), ((3.0, -3.0) * (nx // 2), t)]
        self.assert_pinned(p, points)

    @pytest.mark.parametrize("n, box", [
        (3, SampleBox(x_radius=2e49, t_range=(-2.0, 2.0), count=300, seed=1)),
        (7, SampleBox(x_radius=1e-300, t_range=(-2.0, 2.0), count=300, seed=2)),
        (3, SampleBox(x_radius=3.0, t_range=(27.0, 28.0), count=300, seed=3)),
        (5, SampleBox(x_radius=3.0, t_range=(-6.0, 6.0), count=300, seed=4)),
        (11, SampleBox(x_radius=5e12, t_range=(-2.0, 2.0), count=300, seed=5)),
        # C(69, j) needs its low word from j = 18 on
        (71, SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=50, seed=6)),
    ], ids=["x2e49", "x1e-300", "t27", "t6", "n11-x5e12", "n71"])
    def test_extreme_boxes(self, n, box):
        p = derive_constants(n)
        self.assert_pinned(p, self.samples(p, box))

    @pytest.mark.parametrize("n, x, t, error", [
        (3, (0.0, 0.0), 700.5, "exponential overflow guard"),
        (7, (0.0,) * 6, -233.5, "exponential overflow guard"),
        (3, (1e200, 0.0), 0.0, "Hessian norm"),
        (3, (1e50, 0.0), 2.0, "Hessian norm"),
        (3, (0.0, 0.0), -400.0, "Hessian norm"),
        (11, (6e12,) * 10, 2.0, "Hessian norm"),
    ])
    def test_guard_errors_match(self, n, x, t, error):
        # residual_scan refuses the box that holds each point; the kernel
        # checks no point, as both guards are the box's
        p = derive_constants(n)
        with pytest.raises(OverflowError, match=error):
            residual_scan(p, box_holding(x, t))
