"""Iterate construction: steps, composition identities, degrees, series heads."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpf, workprec

from chebsqrt import (
    BadIndex,
    BadRootOrder,
    CapExceeded,
    DegenerateStep,
    Polynomial,
    RationalFunction,
    Scheme,
    halley_step,
    iterate,
    newton_step,
    poly_to_json,
    sqrt_series_coeff,
    taylor_coefficients,
    v_iterate,
    v_step,
)

ONE = RationalFunction(Polynomial([1]))
HALF_SLOPE = RationalFunction(Polynomial([1, F(-1, 2)]))  # 1 - z/2
V2 = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
V3 = RationalFunction(Polynomial([8, -8, 1]), Polynomial([8, -4]))


def direct_v(n):
    """Canonical (num, den) coefficients of v_n from its direct binomial form.

    v_n = sum_i C(N,2i) u^i / sum_i C(N,2i+1) u^i with u = 1 - z, N = n + 1,
    expanded in integers (the z^j coefficient of u^i is (-1)^j C(i,j)) and
    scaled to a monic denominator.  Shares no code with the v chain.
    """
    N = n + 1

    def expand(parity):
        powers = range((N - parity) // 2 + 1)
        return [
            (-1) ** j * sum(math.comb(N, 2 * i + parity) * math.comb(i, j) for i in powers)
            for j in powers
        ]

    num, den = expand(0), expand(1)
    lead = den[-1]
    return tuple(F(c, lead) for c in num), tuple(F(c, lead) for c in den)


class TestSteps:
    def test_v_step_chain(self):
        assert v_step(ONE) == HALF_SLOPE
        assert v_step(HALF_SLOPE) == V2
        assert v_step(V2) == V3

    def test_newton_step(self):
        assert newton_step(ONE, 2) == HALF_SLOPE
        assert newton_step(HALF_SLOPE, 2) == V3
        assert newton_step(ONE, 3) == RationalFunction(Polynomial([1, F(-1, 3)]))

    def test_halley_step(self):
        assert halley_step(ONE, 2) == V2
        assert halley_step(ONE, 3) == RationalFunction(
            Polynomial([3, -2]), Polynomial([3, -1])
        )
        # one Halley step from the 2nd v-iterate lands on the 8th: 3*3 - 1
        v8 = iterate(Scheme.v(), 8)
        assert halley_step(V2, 2) == v8

    def test_degenerate_and_bad_order(self):
        minus_one = RationalFunction(Polynomial([-1]))
        with pytest.raises(DegenerateStep):
            v_step(minus_one)
        with pytest.raises(DegenerateStep):
            newton_step(RationalFunction(Polynomial()), 2)
        with pytest.raises(BadRootOrder):
            newton_step(ONE, 1)
        with pytest.raises(BadRootOrder):
            halley_step(ONE, 0)


class TestIterate:
    def test_base_cases(self):
        assert iterate(Scheme.v(), 0) == ONE
        assert iterate(Scheme.newton(2), 0) == ONE
        assert iterate(Scheme.v(), 2) == V2
        assert iterate(Scheme.newton(2), 2) == V3

    def test_sequence_prefix(self):
        seq = [iterate(Scheme.v(), k) for k in range(4)]
        assert seq == [ONE, HALF_SLOPE, V2, V3]

    def test_memoized_chain_matches(self):
        for n in (0, 1, 5, 9):
            f = iterate(Scheme.v(), n)
            assert f is v_iterate(n)
            assert (f.num.coeffs, f.den.coeffs) == direct_v(n)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            iterate(Scheme.newton(2), 13)
        with pytest.raises(CapExceeded):
            v_iterate(5000)
        with pytest.raises(CapExceeded):
            iterate(Scheme.v(), 5000)
        assert iterate(Scheme.newton(2), 5, max_k=5) is not None
        with pytest.raises(CapExceeded):
            iterate(Scheme.newton(2), 6, max_k=5)

    def test_scheme_validation(self):
        with pytest.raises(BadRootOrder):
            Scheme.newton(1)
        with pytest.raises(ValueError):
            Scheme("bogus")
        with pytest.raises(ValueError):
            Scheme("v", 2)
        assert str(Scheme.halley(3)) == "halley(p=3)"
        assert str(Scheme.v()) == "v"

    @pytest.mark.parametrize("scheme", [Scheme.v(), Scheme.newton(3), Scheme.halley(2)])
    def test_negative_index_rejected(self, scheme):
        with pytest.raises(BadIndex):
            iterate(scheme, -1)

    def test_json_shape(self):
        f = v_iterate(2)
        assert [poly_to_json(f.num), poly_to_json(f.den)] == [["-4", "3"], ["-4", "1"]]


class TestCompositionIdentities:
    def test_newton_iterates_are_v_iterates(self):
        for k in range(1, 8):
            assert iterate(Scheme.newton(2), k) == v_iterate(2**k - 1)

    def test_halley_iterates_are_v_iterates(self):
        for k in range(1, 6):
            assert iterate(Scheme.halley(2), k) == v_iterate(3**k - 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 26, 31, 64])
    def test_chain_matches_direct_binomial_form(self, n):
        f = v_iterate(n)
        assert (f.num.coeffs, f.den.coeffs) == direct_v(n)


class TestStructuralInvariants:
    def test_degree_growth(self):
        for n in range(1, 65):
            f = v_iterate(n)
            assert f.num.degree == (n + 1) // 2
            assert f.den.degree == n // 2

    def test_value_one_at_origin(self):
        for n in range(65):
            f = v_iterate(n)
            assert f.num.coeff(0) == f.den.coeff(0)

    def test_value_at_one(self):
        for n in range(101):
            assert v_iterate(n)(1) == F(1, n + 1)

    def test_head_coefficients(self):
        for n in range(1, 65):
            cs = taylor_coefficients(v_iterate(n), n)
            assert all(cs[m] == sqrt_series_coeff(m) for m in range(n + 1))

    def test_newton_head_lengths(self):
        for k in range(1, 5):
            f = iterate(Scheme.newton(2), k)
            cs = taylor_coefficients(f, 2**k - 1)
            assert all(cs[m] == sqrt_series_coeff(m) for m in range(2**k))

    def test_halley_head_lengths(self):
        for k in range(1, 4):
            f = iterate(Scheme.halley(2), k)
            cs = taylor_coefficients(f, 3**k - 1)
            assert all(cs[m] == sqrt_series_coeff(m) for m in range(3**k))


class TestRatioIdentity:
    @pytest.mark.parametrize("x", [F(1, 10), F(1, 2), F(9, 10)])
    def test_sampled_identity(self, x):
        # (f - w)/(f + w) == ((1 - w)/(1 + w))**(n+1) with w = sqrt(1 - x)
        prec = 256
        tol = mpf(2) ** -(prec - 16)
        with workprec(prec + 32):
            w = mpmath.sqrt(1 - mpmath.mpmathify(x))
            base = (1 - w) / (1 + w)
            for n in range(33):
                v = mpmath.mpmathify(v_iterate(n)(x))
                lhs = (v - w) / (v + w)
                assert abs(lhs - base ** (n + 1)) <= tol

    def test_trivial_at_initial_value(self):
        # the 0-th iterate is 1, both sides are (1 - w)/(1 + w) exactly
        prec = 256
        with workprec(prec):
            w = mpmath.sqrt(mpf(1) / 2)
            lhs = (1 - w) / (1 + w)
            v = mpmath.mpmathify(v_iterate(0)(F(1, 2)))
            assert abs((v - w) / (v + w) - lhs) < mpf(2) ** -(prec - 8)


class TestGeneralRootOrders:
    def test_p3_newton_first_steps(self):
        f1 = iterate(Scheme.newton(3), 1)
        assert f1 == RationalFunction(Polynomial([1, F(-1, 3)]))
        f2 = iterate(Scheme.newton(3), 2)
        assert not f2.is_polynomial
        # heads agree with the cube-root series to 2^k terms
        from chebsqrt import root_series_coeffs

        cs = taylor_coefficients(f2, 8)
        ref = root_series_coeffs(3, 8)
        assert [cs[m] for m in range(4)] == ref[:4]

    def test_p3_halley_first_step(self):
        g1 = iterate(Scheme.halley(3), 1)
        assert g1 == RationalFunction(Polynomial([3, -2]), Polynomial([3, -1]))
