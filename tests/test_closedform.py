"""Closed-form layer: partial fractions, coefficient formula, radius, tail sums."""

import random
from fractions import Fraction as F
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from chebsqrt import (
    BadIndex,
    ChebsqrtError,
    NearPole,
    coeff_closed_range,
    decompose,
    eval_ratfun_complex,
    radius_of_convergence,
    tail_sum_identity,
    taylor_coefficients,
    v_iterate,
)
from chebsqrt.chebyshev import GUARD_BITS
from chebsqrt.cli import _random_disk_rationals
from chebsqrt.verify import resummation_points

PREC = 256
WORK = PREC + GUARD_BITS
TIGHT = mpf(2) ** -(PREC - 16)


def naive_pf_eval(pf, z):
    """The partial-fraction sum as one mpc division per term, at the kernel's W bits."""
    with workprec(pf.prec + GUARD_BITS):
        z = mpmath.mpmathify(z)
        acc = mpf(0)
        for w, rho in zip(pf.weights, pf.pole_params):
            acc += w / (1 - z * rho)
        out = 1 - z / 2 - pf.scale * z * z * acc
    with workprec(pf.prec):
        return +out


def eval_error_bound(n, prec, z, fz):
    """The bound of ``PartialFractionForm.eval``'s docstring on |eval(z) - f(z)|.

    2**-prec |f(z)| + (1 + 2**-prec) B, with B from u = 2**-W, zeta = 1 + |z| and
    delta = min_k |1 - z cos^2(k pi/(n+1))|, all at 2W bits.
    """
    work = prec + GUARD_BITS
    with workprec(2 * work):
        u, N, K = mpf(2) ** -work, n + 1, n // 2
        zeta = 1 + abs(z)
        delta = min(abs(1 - z * mpmath.cospi(mpf(k) / N) ** 2) for k in range(1, K + 1))
        e = 3 * zeta * u
        assert e <= delta / 2
        E = (zeta + e) * u + 10 * u / delta + 6 * zeta * u / delta**2
        B = u + zeta**2 * (E + u) / 4 + 3 * zeta * u / (4 * delta)
        return abs(fz) / 2**prec + (1 + mpf(2) ** -prec) * B


@lru_cache(maxsize=None)
def iterate_and_form(n, prec):
    return v_iterate(n), decompose(n, prec)


def dyadic(x) -> F:
    """x rounded to a multiple of 2**-24, so every input type holds it exactly."""
    return F(round(float(x) * 2**24), 2**24)


def input_forms(re, im):
    """The point re + i*im in each input type that holds it exactly."""
    with workprec(WORK):
        forms = [mpc(mpmath.mpmathify(re), mpmath.mpmathify(im)), complex(re, im)]
        if im == 0:
            forms.append(mpmath.mpmathify(re))
            if re.denominator == 1:
                forms.append(int(re))
    return forms


class TestDecompose:
    def test_rejects_constant_iterate(self):
        with pytest.raises(BadIndex):
            decompose(0)

    def test_head_only_for_degree_one(self):
        pf = decompose(1, PREC)
        assert pf.term_count == 0
        for z in (0, 1, -2, mpf(3) / 8, complex(0.5, -1), mpc("0.375", "0.3125")):
            with workprec(WORK):
                want = 1 - mpmath.mpmathify(z) / 2
            assert pf.eval(z) == want

    def test_single_term_values(self):
        pf = decompose(2, PREC)
        assert pf.term_count == 1
        with workprec(PREC + 32):
            assert abs(pf.weights[0] - mpf(3) / 4) < TIGHT  # sin^2(2 pi/3)
            assert pf.pole_params[0] == mpf(1) / 4  # cos(pi/3) is exact
            assert abs(pf.scale - mpf(1) / 6) < TIGHT

            pf3 = decompose(3, PREC)
            assert pf3.term_count == 1
            assert pf3.weights[0] == 1  # sin(pi/2) is exact
            assert abs(pf3.pole_params[0] - mpf(1) / 2) < TIGHT
            assert pf3.scale == mpf(1) / 8

    def test_term_count_parity(self):
        # odd iterates get no extra term: the middle angle has zero weight
        for m in range(1, 9):
            assert decompose(2 * m, PREC).term_count == m
            assert decompose(2 * m + 1, PREC).term_count == m

    def test_pole_params_decreasing_in_unit_interval(self):
        pf = decompose(15, PREC)
        ps = pf.pole_params
        assert all(0 < p < 1 for p in ps)
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert all(0 < w <= 1 for w in pf.weights)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 255])
    def test_weights_are_sin_squared_of_twice_the_angle(self, n):
        # 4 rho (1 - rho) = sin^2(2 pi k/(n+1)) to a few units of 2**-WORK, the
        # absolute precision at which the fixed-point kernel reads each weight,
        # and rho = cos^2(pi k/(n+1)) to one unit: the error bound of
        # PartialFractionForm.eval takes both
        pf = decompose(n, PREC)
        with workprec(WORK + 64):
            for k, (w, rho) in enumerate(zip(pf.weights, pf.pole_params), start=1):
                assert abs(w - mpmath.sinpi(mpf(2 * k) / (n + 1)) ** 2) <= mpf(2) ** (2 - WORK), k
                assert abs(rho - mpmath.cospi(mpf(k) / (n + 1)) ** 2) <= mpf(2) ** -WORK, k

    def test_json_shape(self):
        doc = decompose(2, PREC).to_json_dict()
        assert doc["n"] == 2 and doc["precision_bits"] == PREC
        assert len(doc["terms"]) == 1
        assert doc["terms"][0]["weight"].startswith("0.75")


class TestPartialFractionEval:
    def test_value_at_origin(self):
        assert abs(decompose(2, PREC).eval(mpf(0)) - 1) < TIGHT

    def test_value_at_one(self):
        got = decompose(2, PREC).eval(mpf(1))
        with workprec(PREC):
            assert abs(got - mpf(1) / 3) < TIGHT

    def test_value_at_minus_one(self):
        # exact iterate value (8+8+1)/(8+4) = 17/12
        got = decompose(3, PREC).eval(mpf(-1))
        with workprec(PREC):
            assert abs(got - mpf(17) / 12) < TIGHT

    def test_near_pole_rejected(self):
        pf = decompose(2, PREC)  # pole parameter 1/4, pole at 4
        with pytest.raises(NearPole):
            pf.eval(mpf(4))
        # a visible distance away is fine
        pf.eval(mpf(4) + mpf(2) ** -20)

    def test_resummation_matches_exact_values(self):
        from chebsqrt.verify import resummation_points

        pts = resummation_points()
        assert len(pts) == 32
        for n in range(2, 17):
            f = v_iterate(n)
            pf = decompose(n, PREC)
            with workprec(PREC + 32):
                for re, im in pts:
                    exact = eval_ratfun_complex(f, re, im)
                    got = pf.eval(mpc(mpmath.mpmathify(re), mpmath.mpmathify(im)))
                    ref = mpc(mpmath.mpmathify(exact[0]), mpmath.mpmathify(exact[1]))
                    assert abs(got - ref) <= TIGHT


class TestFixedPointKernel:
    """The integer kernel against exact values and against the mpc loop it replaced."""

    @pytest.fixture(scope="class", params=[32, 64, 128])
    def case(self, request):
        n = request.param
        return n, v_iterate(n), decompose(n, PREC)

    @staticmethod
    def assert_matches_exact(f, pf, pts):
        for re, im in pts:
            exact = eval_ratfun_complex(f, re, im)
            for z in input_forms(re, im):
                got = pf.eval(z)
                with workprec(WORK + 32):
                    ref = mpc(mpmath.mpmathify(exact[0]), mpmath.mpmathify(exact[1]))
                    assert abs(got - ref) <= TIGHT, (re, im, type(z))

    def test_random_disk_points(self, case):
        n, f, pf = case
        self.assert_matches_exact(f, pf, _random_disk_rationals(random.Random(n), 24))

    def test_annulus_inside_the_nearest_pole(self, case):
        n, f, pf = case
        with workprec(WORK):
            nearest = 1 / pf.pole_params[0]
            mid = (1 + nearest) / 2
            pts = [(dyadic(mid * mpmath.cospi(mpf(j) / 4)), dyadic(mid * mpmath.sinpi(mpf(j) / 4)))
                   for j in range(8)]
        for re, im in pts:
            assert 1 < re * re + im * im < dyadic(nearest) ** 2
        self.assert_matches_exact(f, pf, pts)

    def test_real_points_between_and_beyond_the_poles(self, case):
        n, f, pf = case
        with workprec(WORK):
            poles = [1 / rho for rho in pf.pole_params]
            xs = [(poles[k] + poles[k + 1]) / 2 for k in (0, 1, len(poles) // 2, len(poles) - 2)]
            xs += [poles[-1] * 3 / 2, poles[-1] * 4]
        self.assert_matches_exact(f, pf, [(dyadic(x), F(0)) for x in xs])
        self.assert_matches_exact(f, pf, [(F(x), F(0)) for x in (-3, -1, 0, 1, 2, 7)])

    @given(st.integers(2, 64), st.sampled_from([53, PREC]), st.booleans(),
           st.integers(1, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=150, deadline=None)
    def test_within_the_stated_bound(self, n, prec, annulus, radial, angle):
        # |eval - exact| within the docstring's bound at a dyadic point of the
        # unit disk, or of the annulus 1 < |z| < sec^2(pi/(n+1)) inside
        # the first pole
        f, pf = iterate_and_form(n, prec)
        with workprec(2 * WORK):
            t, first_pole = mpf(radial) / 2**16, 1 / mpmath.cospi(mpf(1) / (n + 1)) ** 2
            radius = 1 + (first_pole - 1) * t if annulus else t
            point = radius * mpmath.expjpi(mpf(angle) / 2**15)
            re, im = (F(round(c * 2**48), 2**48) for c in (point.real, point.imag))
            z = mpc(mpf(re.numerator) / re.denominator, mpf(im.numerator) / im.denominator)
            assert 1 < abs(z) < first_pole if annulus else abs(z) <= 1
        fr, fi = eval_ratfun_complex(f, re, im)
        got = pf.eval(z)
        with workprec(2 * WORK):
            fz = mpc(mpf(fr.numerator) / fr.denominator, mpf(fi.numerator) / fi.denominator)
            assert abs(got - fz) <= eval_error_bound(n, prec, z, fz), (n, prec, re, im)

    def test_bit_for_bit_with_the_mpc_loop(self):
        for n in range(2, 17):
            pf = decompose(n, PREC)
            for re, im in resummation_points():
                for z in input_forms(re, im):
                    got, want = pf.eval(z), naive_pf_eval(pf, z)
                    assert type(got) is type(want)
                    assert got == want, (n, re, im, type(z))

    def test_non_finite_point_rejected(self):
        for n in (1, 8):
            pf = decompose(n, PREC)
            for z in (mpf("inf"), mpf("-inf"), mpf("nan"), mpc(1, mpf("inf")),
                      float("inf"), complex(0, float("nan"))):
                with pytest.raises(ChebsqrtError, match="not a finite point"):
                    pf.eval(z)

    def test_near_pole_at_every_pole(self):
        cutoff = mpf(2) ** -(PREC // 2)
        assert mpmath.nstr(cutoff, 3) == "2.94e-39"
        for n in range(2, 17):
            pf = decompose(n, PREC)
            with workprec(WORK):
                for rho in pf.pole_params:
                    pole = 1 / rho
                    for off in (cutoff / 2, -cutoff / 2, mpc(0, cutoff / 2)):
                        z = pole + off
                        with pytest.raises(NearPole) as info:
                            pf.eval(z)
                        assert str(info.value) == f"z = {z} is within 2.94e-39 of a pole"
                    for off in (4 * cutoff, -4 * cutoff):
                        assert mpmath.isfinite(pf.eval(pole + off))

    @pytest.mark.parametrize("d", [8, 32, 64, 120])
    def test_relative_error_near_a_pole(self, d):
        # the pole parameters hold prec + GUARD_BITS bits, so where
        # |1 - z rho_k| = 2**-d the kernel loses about d of its guard bits
        f, pf = v_iterate(16), decompose(16, PREC)
        bits = PREC + 16  # z is a dyadic rational that fits an mpf at WORK bits
        bound = F(1, 2 ** (PREC - 4)) + F(2 ** (d + 4), 2 ** (PREC + GUARD_BITS))
        for rho in pf.pole_params:
            for side in (1, -1):
                with workprec(WORK + 2 * d):
                    z = F(int(mpmath.nint(mpmath.ldexp((1 + side * mpf(2) ** -d) / rho, bits))),
                          2**bits)
                with workprec(WORK):
                    got = pf.eval(mpf((z.numerator * (2**bits // z.denominator), -bits)))
                exact = f(z)
                assert abs(F(*map(int, mpmath.libmp.to_rational(got._mpf_))) - exact) \
                    <= bound * abs(exact), (d, rho, side)


class TestCoefficientFormula:
    def test_spot_values(self):
        c1, c2, c3 = coeff_closed_range(2, 3, PREC)
        assert abs(c1 + mpf(1) / 2) < TIGHT
        assert abs(c2 + mpf(1) / 8) < TIGHT
        assert abs(c3 + mpf(1) / 32) < TIGHT

    def test_index_zero_rejected(self):
        with pytest.raises(BadIndex):
            coeff_closed_range(2, 0, PREC)
        with pytest.raises(BadIndex):
            coeff_closed_range(0, 1, PREC)

    def test_range_matches_single(self):
        # the m-th entry of a sweep does not depend on how far the sweep runs
        rng = coeff_closed_range(5, 8, PREC)
        for m in (1, 4, 8):
            assert coeff_closed_range(5, m, PREC)[-1] == rng[m - 1]

    def test_matches_exact_taylor_and_negative(self):
        for n in range(2, 13):
            M = 4 * n
            exact = taylor_coefficients(v_iterate(n), M)
            closed = coeff_closed_range(n, M, PREC)
            with workprec(PREC + 32):
                for m in range(1, M + 1):
                    assert closed[m - 1] < 0
                    assert abs(closed[m - 1] - mpmath.mpmathify(exact[m])) <= TIGHT

    @pytest.mark.parametrize("n", [1, 63, 64])
    def test_matches_exact_taylor_at_the_ends(self, n):
        # n = 1 has no terms (c_m = 0 past m = 1); 64 is the coeff-formula cap
        M = 4 * n
        exact = taylor_coefficients(v_iterate(n), M)
        closed = coeff_closed_range(n, M, PREC)
        assert len(closed) == M
        with workprec(PREC + 32):
            for m in range(1, M + 1):
                assert abs(closed[m - 1] - mpmath.mpmathify(exact[m])) <= TIGHT, m


class TestRadius:
    def test_small_cases(self):
        assert radius_of_convergence(2, PREC) == 4
        assert radius_of_convergence(3, PREC) == 2
        assert radius_of_convergence(1, PREC) == mpf("+inf")
        assert radius_of_convergence(0, PREC) == mpf("+inf")

    def test_reciprocal_of_nearest_pole(self):
        for n in (2, 5, 10, 17):
            pf = decompose(n, PREC)
            with workprec(PREC):
                r = radius_of_convergence(n, PREC)
                assert abs(r - 1 / max(pf.pole_params)) < TIGHT * r

    def test_exceeds_one(self):
        for n in range(2, 40):
            assert radius_of_convergence(n, PREC) > 1

    def test_negative_index_refused(self):
        with pytest.raises(BadIndex):
            radius_of_convergence(-1, PREC)


class TestTailSum:
    def test_identity_values(self):
        assert tail_sum_identity(1) == 0
        assert tail_sum_identity(2) == F(1, 24)
        assert tail_sum_identity(3) == F(1, 16)
        with pytest.raises(BadIndex):
            tail_sum_identity(0)

    def test_geometric_oracle_for_n2(self):
        # the tail of the 2nd iterate is sum_{m>=3} 2/4^m = 1/24 exactly
        assert sum(F(2, 4**m) for m in range(3, 60)) < F(1, 24)
        assert F(2, 4**3) / (1 - F(1, 4)) == F(1, 24)

    def test_partial_sums_monotone_and_bounded(self):
        for n in (2, 3, 6, 9):
            ident = tail_sum_identity(n)
            cs = taylor_coefficients(v_iterate(n), n + 60)
            partial = F(0)
            previous = F(-1)
            for m in range(n + 1, n + 61):
                partial += -cs[m]
                assert partial > previous
                assert partial < ident
                previous = partial
