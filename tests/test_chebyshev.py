"""Chebyshev layer: exact coefficients, their values, zero nodes."""

import mpmath
import pytest
from mpmath import mpf, workprec

from chebsqrt import BadIndex, ChebKind, u_zero_nodes
from chebsqrt.chebyshev import _cheb_ints
from oracles import derivative, horner, mul, scale, sub

PREC = 256


def cheb_value(coeffs, x):
    """Value of an exact Chebyshev polynomial by Horner at PREC + 128 bits."""
    with workprec(PREC + 128):
        return horner(coeffs, x)


def closed_form_first(n, x, prec=PREC + 64):
    """Oracle: ((x + s)^n + (x - s)^n) / 2 with s = sqrt(x^2 - 1), x > 1."""
    with workprec(prec):
        s = mpmath.sqrt(x * x - 1)
        return ((x + s) ** n + (x - s) ** n) / 2


def closed_form_second(n, x, prec=PREC + 64):
    """Oracle: ((x + s)^(n+1) - (x - s)^(n+1)) / (2s), x > 1.

    The inner sign of the second term is minus; a plus there (a misprint one
    sometimes sees) would make the whole expression vanish.
    """
    with workprec(prec):
        s = mpmath.sqrt(x * x - 1)
        return ((x + s) ** (n + 1) - (x - s) ** (n + 1)) / (2 * s)


class TestExactPolynomials:
    def test_textbook_values(self):
        assert _cheb_ints(ChebKind.FIRST, 0) == [1]
        assert _cheb_ints(ChebKind.FIRST, 1) == [0, 1]
        assert _cheb_ints(ChebKind.FIRST, 2) == [-1, 0, 2]
        assert _cheb_ints(ChebKind.FIRST, 3) == [0, -3, 0, 4]
        assert _cheb_ints(ChebKind.SECOND, 0) == [1]
        assert _cheb_ints(ChebKind.SECOND, 1) == [0, 2]
        assert _cheb_ints(ChebKind.SECOND, 2) == [-1, 0, 4]
        assert _cheb_ints(ChebKind.SECOND, 3) == [0, -4, 0, 8]

    @pytest.mark.parametrize("kind", [ChebKind.FIRST, ChebKind.SECOND])
    def test_recurrence_consistency(self, kind):
        for n in range(1, 64):
            assert _cheb_ints(kind, n + 1) == sub(
                mul([0, 2], _cheb_ints(kind, n)), _cheb_ints(kind, n - 1)
            )

    def test_derivative_identity(self):
        for n in range(65):
            lhs = scale(n + 1, _cheb_ints(ChebKind.SECOND, n))
            assert lhs == derivative(_cheb_ints(ChebKind.FIRST, n + 1))

    @pytest.mark.parametrize("kind", [ChebKind.FIRST, ChebKind.SECOND])
    def test_parity(self, kind):
        for n in range(32):
            p = _cheb_ints(kind, n)
            assert all(c == 0 for i, c in enumerate(p) if (i - n) % 2)


class TestEvaluation:
    def test_value_one_is_fixed(self):
        for n in range(0, 64, 7):
            assert abs(cheb_value(_cheb_ints(ChebKind.FIRST, n), mpf(1)) - 1) < mpf(2) ** -240

    def test_defining_angle_identity(self):
        # cos(3 * pi/6) = 0
        with workprec(PREC + 64):
            x = mpmath.cospi(mpf(1) / 6)
        assert abs(cheb_value(_cheb_ints(ChebKind.FIRST, 3), x)) < mpf(2) ** -240

    @pytest.mark.parametrize("x_str", ["1.1", "1.5", "2.0"])
    def test_closed_form_agreement(self, x_str):
        tol = mpf(2) ** -(PREC - 10)
        with workprec(PREC + 64):
            x = mpf(x_str)
            for n in range(33):
                t = cheb_value(_cheb_ints(ChebKind.FIRST, n), x)
                ref = closed_form_first(n, x)
                assert abs(t - ref) <= tol * abs(ref)
                u = cheb_value(_cheb_ints(ChebKind.SECOND, n), x)
                ref = closed_form_second(n, x)
                assert abs(u - ref) <= tol * abs(ref)

    def test_quintic_spot_value(self):
        got = cheb_value(_cheb_ints(ChebKind.FIRST, 5), mpf("1.25"))
        ref = closed_form_first(5, mpf("1.25"))
        with workprec(PREC):
            assert abs(got - ref) < mpf(2) ** -(PREC - 10)


class TestZeroNodes:
    def test_small_cases(self):
        n2 = u_zero_nodes(2, PREC)
        assert abs(n2[0] - mpf(1) / 2) < mpf(2) ** -250
        assert abs(n2[1] + mpf(1) / 2) < mpf(2) ** -250
        assert u_zero_nodes(1, PREC) == [mpf(0)]
        n3 = u_zero_nodes(3, PREC)
        with workprec(PREC + 32):
            root_half = mpmath.sqrt(mpf(1) / 2)
            assert abs(n3[0] - root_half) < mpf(2) ** -250
            assert n3[1] == 0
            assert abs(n3[2] + root_half) < mpf(2) ** -250

    def test_decreasing_order(self):
        for n in (4, 9, 16):
            nodes = u_zero_nodes(n, PREC)
            assert all(a > b for a, b in zip(nodes, nodes[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 255])
    def test_nodes_are_symmetric(self, n):
        # node n+1-k is the exact negative of node k (a rounded sum is 0 only
        # if the exact one is); the middle node of odd n is exactly 0
        nodes = u_zero_nodes(n, PREC)
        assert len(nodes) == n
        assert all(nodes[n - k] + nodes[k - 1] == 0 for k in range(1, n + 1))
        if n % 2:
            assert nodes[n // 2] == 0

    def test_nodes_are_roots_of_exact_polynomial(self):
        # cross-check against the exact coefficients: the degree-3 case has
        # roots of 8x^3 - 4x, i.e. 0 and +-sqrt(1/2)
        p = _cheb_ints(ChebKind.SECOND, 3)
        assert p == [0, -4, 0, 8]
        for node in u_zero_nodes(3, PREC):
            with workprec(PREC):
                assert abs(horner(p, node)) < mpf(2) ** -(PREC - 12)

    def test_node_property_via_cheb_ints(self):
        tol = mpf(2) ** -(PREC - 12)
        for n in range(1, 65):
            u_n = _cheb_ints(ChebKind.SECOND, n)
            for node in u_zero_nodes(n, PREC):
                assert abs(cheb_value(u_n, node)) <= tol, n

    def test_no_nodes_below_degree_one(self):
        with pytest.raises(BadIndex):
            u_zero_nodes(0, PREC)
