"""Closed-form layer: partial fractions, coefficient formula, radius, tail sums."""

from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpc, mpf, workprec

from chebsqrt import (
    BadIndex,
    NearPole,
    coeff_closed_range,
    decompose,
    eval_ratfun_complex,
    radius_of_convergence,
    tail_sum_identity,
    taylor_coefficients,
    v_iterate,
)

PREC = 256
TIGHT = mpf(2) ** -(PREC - 16)


class TestDecompose:
    def test_rejects_constant_iterate(self):
        with pytest.raises(BadIndex):
            decompose(0)

    def test_head_only_for_degree_one(self):
        pf = decompose(1, PREC)
        assert pf.term_count == 0
        assert pf.head.coeffs == (F(1), F(-1, 2))

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
