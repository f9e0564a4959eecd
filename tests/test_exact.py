"""Exact arithmetic layer: polynomials, rational functions, series constants."""

import copy
import math
from itertools import accumulate
import pickle
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chebsqrt import (
    BadIndex,
    BadRootOrder,
    NotAnalyticAtZero,
    PoleAtPoint,
    Polynomial,
    RationalFunction,
    Scheme,
    ZeroDenominator,
    central_binomial_ratio,
    eval_ratfun_complex,
    iterate,
    poly_gcd,
    poly_to_json,
    radius_of_convergence,
    root_series_coeffs,
    sqrt_series_coeff,
    taylor_coefficients,
    v_iterate,
    v_step,
)
from chebsqrt import exact
from chebsqrt.cli import _random_disk_rationals
from chebsqrt.exact import _convolve, _int_gcd, _taylor_scaled
from chebsqrt.verify import _tail_cutoff, _times_one_minus_z
from oracles import mul, scale, strip, taylor
from test_iterates import direct_v

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
coeff_lists = st.lists(small_fractions, min_size=0, max_size=5)
# coefficients of mixed, unrelated denominators and sizes, zeros included
wide_fractions = st.one_of(
    st.just(F(0)),
    st.integers(-(10**20), 10**20).map(F),
    st.fractions(max_denominator=10**9),
)
nonzero_polys = st.lists(small_fractions, min_size=1, max_size=4).filter(
    lambda cs: cs[-1] != 0
)
nonconstant_polys = st.lists(small_fractions, min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0
)
# integer coefficients as the step kernels see them: zeros, 70-bit values and
# 300-bit values, whose products span several machine words
int_coeffs = st.one_of(
    st.just(0), st.integers(-(2**70), 2**70), st.integers(-(2**300), 2**300)
)


def check_product(a, b):
    """_convolve(a, b), checked against the schoolbook oracle and the kept length."""
    out = _convolve(a, b)
    assert len(out) == len(a) + len(b) - 1
    assert strip(out) == mul(a, b)
    return out


def monic(a):
    return scale(1 / a[-1], a)


def naive_eval_complex(coeffs, re, im):
    """Horner on Fractions at re + im*i, reducing after every multiply-add."""
    re, im = F(re), F(im)
    ar, ai = F(0), F(0)
    for c in reversed(coeffs):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


def naive_ratfun_complex(num, den, re, im):
    """Fraction quotient of the naive Horner values; None at a pole."""
    nr, ni = naive_eval_complex(num, re, im)
    dr, di = naive_eval_complex(den, re, im)
    norm = dr * dr + di * di
    if norm == 0:
        return None
    return (nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm


# den(0) of mixed sign and size, including values that are not powers of two,
# large powers of two and 2**a * odd values, whose 2-part the Taylor kernel shifts
den_constants = st.one_of(
    st.sampled_from([F(3), F(-7), F(-1), F(1, 3), F(-7, 12), F(2**100), F(-(2**64)),
                     F(3 * 2**9), F(-96), F(2**20 * 45)]),
    wide_fractions.filter(lambda c: c != 0),
)

# stored pairs for the integer Taylor kernel: random ones, b_0 < 0 among them
# and polynomials (d = 0, often cut below deg num), and the second Newton and
# Halley iterates for p = 3..7, whose b_0 = +-p**e or +-(2p)**e brings odd primes
kernel_functions = st.one_of(
    st.builds(
        lambda num, den0, rest: RationalFunction(Polynomial(num), Polynomial([den0, *rest])),
        st.lists(wide_fractions, max_size=7),
        den_constants,
        st.lists(wide_fractions, max_size=4),
    ),
    st.builds(
        lambda kind, p: iterate(Scheme(kind, p), 2),
        st.sampled_from(["newton", "halley"]),
        st.integers(3, 7),
    ),
)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Polynomial([0, 0]).is_zero
        assert Polynomial().degree == -1

    def test_negative_index_refused(self):
        with pytest.raises(BadIndex):
            Polynomial([1]).coeff(-1)

    @pytest.mark.parametrize("coeffs, text", [
        ([], "0"),
        ([0, 1, 0, -1], "z - z^3"),
        ([-1, 0, F(3, 2), 0, 1], "-1 + 3/2*z^2 + z^4"),
    ])
    def test_str(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text

    def test_gcd(self):
        z2m1 = Polynomial([-1, 0, 1])
        zm1 = Polynomial([-1, 1])
        assert poly_gcd(z2m1, zm1) == zm1
        # result is monic regardless of input scaling
        assert poly_gcd(Polynomial([-4, 0, 4]), Polynomial([-6, 6])) == zm1
        assert poly_gcd(Polynomial(), zm1) == zm1
        assert poly_gcd(Polynomial([1, 1]), Polynomial([2])).degree == 0

    @given(st.lists(int_coeffs, min_size=1, max_size=64),
           st.lists(int_coeffs, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_naive_convolution(self, a, b):
        for x, y in ((a, b), (b, a)):
            check_product(x, y)

    def test_product_edge_operands(self):
        assert _convolve([3], [1, 0, -5]) == [3, 0, -15]
        assert _convolve([1, 0, -5], [0]) == [0, 0, 0]
        assert _convolve([1, 1], [1, -1]) == [1, 0, -1]
        # zero slots at either end are kept; only the store strips trailing zeros
        assert _convolve([0, 1], [1, 0]) == [0, 1, 0]
        # the middle term cancels between two 200-bit partial products
        assert _convolve([2**100, -1], [2**100, 1]) == [2**200, 0, -1]
        # the zero function's pair holds [], which still counts in the length
        assert check_product([], [1, 2]) == [0]
        assert check_product([1, 2], []) == [0]
        # all-zero operands have no bits, and the slot still needs one byte
        assert check_product([0], [0, 0, 0]) == [0, 0, 0]
        # one-element operands of 2^20 bits: a single slot of about 2^21 bits
        big = -(2 ** (2**20 - 1)) - 12345
        assert check_product([big], [big]) == [big * big]
        assert check_product([big], [1, 0, -big]) == [big, 0, -big * big]
        # the squaring alias packs once; it must equal the product of a copy
        a = [3, -(2**80), 0, 7, -1, 2**64 - 1]
        assert check_product(a, a) == _convolve(a, list(a))

    @pytest.mark.parametrize("pattern", ["all -2^b", "all 2^b - 1", "alternating"])
    def test_product_slots_reach_their_bound(self, pattern):
        # every middle slot reaches min(la, lb) * max|a| * max|b|, the bound
        # the slot width is sized for; the alternating signs give negative
        # slots, whose borrows run into the next slot up
        for bits in range(24):
            for la, lb in [(1, 1), (2, 3), (3, 3), (4, 7), (5, 64), (7, 7), (63, 64), (64, 64)]:
                if pattern == "all -2^b":
                    a, b = [-(2**bits)] * la, [-(2**bits)] * lb
                elif pattern == "all 2^b - 1":
                    a, b = [2**bits - 1] * la, [2**bits - 1] * lb
                else:
                    c = 2**bits - 1 or 1
                    a, b = [(-1) ** i * c for i in range(la)], [(-1) ** i * -c for i in range(lb)]
                out = check_product(a, b)
                m = min(la, lb)
                assert abs(out[m - 1]) == m * abs(a[0] * b[0]), (pattern, bits, la, lb)

    def test_gcd_falls_back_when_residues_share_a_factor(self):
        # z + P and z are coprime over Q but equal mod the prime P
        P = 2**30 - 35
        a, b = Polynomial([P, 1]), Polynomial([0, 1])
        assert poly_gcd(a, b) == Polynomial([1])
        assert poly_gcd(b, a) == Polynomial([1])

    def test_gcd_falls_back_when_prime_divides_leading_coefficient(self):
        # G = P*z + 1 is invisible mod the prime P, where the cofactors
        # z + 1 and z + 2 are coprime; the gcd over Q must still find it
        P = 2**30 - 35
        u, v = Polynomial(mul([1, P], [1, 1])), Polynomial(mul([1, P], [2, 1]))
        assert poly_gcd(u, v) == Polynomial([F(1, P), 1])
        coprime = Polynomial([1, 1, P])
        assert poly_gcd(coprime, Polynomial([5, 1])) == Polynomial([1])

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=50, deadline=None)
    def test_gcd_of_planted_common_factor(self, h, f, g):
        got = poly_gcd(Polynomial(mul(h, f)), Polynomial(mul(h, g)))
        assert got == Polynomial(mul(monic(h), poly_gcd(Polynomial(f), Polynomial(g)).coeffs))

    @pytest.mark.parametrize("u, v, want", [
        ([2, 4, 0, 0], [1, 2], [F(1, 2), 1]),  # trailing zeros on one side
        ([-1, 0, 1, 0], [5, 5, 0], [1, 1]),  # trailing zeros on both sides
        ([0, 0], [-3, 0, 3], [-1, 0, 1]),  # an all-zero side
        ([], [0, 7, 0], [0, 1]),  # an empty side against a monomial
        ([0], [0, 0, 0], []),  # both sides zero
        ([6, -9, 3], [4], [1]),  # a constant side
        ([-4], [0, 2, 0], [1]),  # a constant against trailing zeros
    ])
    def test_integer_gcd_matches_poly_gcd(self, u, v, want):
        # poly_gcd sees the stripped Polynomials; the integer gcd strips its lists itself
        g = _int_gcd(u, v)
        assert not g or (g[-1] != 0 and math.gcd(*g) == 1)
        assert Polynomial(F(c, g[-1]) for c in g) == Polynomial(want)
        assert poly_gcd(Polynomial(u), Polynomial(v)) == Polynomial(want)

    def test_json_round_trip(self):
        p = Polynomial([F(1, 2), 0, F(-3, 7)])
        strings = poly_to_json(p)
        assert strings == ["1/2", "0", "-3/7"]
        assert Polynomial(F(c) for c in strings) == p


class TestEquality:
    def test_equal_objects_hash_equal(self):
        # == compares the canonical data of one kind, so equal objects hash alike
        v3 = v_iterate(3)
        values = [1, 3, F(3), F(1, 2), Polynomial(), Polynomial([1]), Polynomial([3]),
                  Polynomial([F(6, 2)]), RationalFunction(1), RationalFunction(Polynomial([2]), 2),
                  v_iterate(0), v3, v3.num, Polynomial(v3.num.coeffs),
                  RationalFunction(v3.num, v3.den)]
        equal = [(a, b) for a in values for b in values if a is not b and a == b]
        for a, b in equal:
            assert b == a and hash(a) == hash(b)
        assert len(equal) == 14
        assert RationalFunction(1) != 1 and Polynomial([3]) != 3
        assert v_iterate(0) != Polynomial([1]) and v_iterate(0) == RationalFunction(1)


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "obj",
        [
            Polynomial(),
            Polynomial([F(1, 3), 0, F(-5, 7)]),
            RationalFunction(Polynomial([4, -3]), Polynomial([4, -1])),
            v_iterate(9),
        ],
        ids=["zero", "poly", "ratfun", "v9"],
    )
    def test_round_trips(self, obj):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)

    @pytest.mark.parametrize(
        "build",
        [lambda: v_iterate(1024), lambda: iterate(Scheme.newton(3), 6)],
        ids=["v1024", "newton3_k6"],
    )
    def test_round_trips_skip_the_gcd(self, build, monkeypatch):
        from chebsqrt import exact

        def no_gcd(a, b):
            raise AssertionError("a gcd ran on a canonical object")

        f = build()
        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        monkeypatch.setattr(exact, "_int_gcd", no_gcd)
        # nor a content gcd: the stored pair names no prime of its content
        monkeypatch.setattr(exact, "math", SimpleNamespace(gcd=no_gcd))
        twins = copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))
        monkeypatch.undo()
        for twin in twins:
            assert type(twin) is RationalFunction and twin == f
            assert twin.num.coeffs == f.num.coeffs and twin.den.coeffs == f.den.coeffs

    def test_older_pickle_loads(self):
        # written by a version that stored monic Fraction coefficients and
        # pickled the pair over one common denominator; any coprime integer
        # pair, whatever its scale and sign, stores as the primitive pair
        f = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
        old = (b"\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07"
               b"getattr\x94\x93\x94\x8c\x0echebsqrt.exact\x94\x8c\x10RationalFunction\x94"
               b"\x93\x94\x8c\r_from_coprime\x94\x86\x94R\x94]\x94(J\xfc\xff\xff\xffK\x03e]\x94"
               b"(J\xfc\xff\xff\xffK\x01e\x86\x94R\x94.")
        for twin in (pickle.loads(old), RationalFunction._from_coprime([8, -6, 0], [8, -2])):
            assert twin == f and hash(twin) == hash(f) and twin.pair == ((-4, 3), (-4, 1))

    def test_assignment_still_raises(self):
        p = pickle.loads(pickle.dumps(Polynomial([1, 2])))
        with pytest.raises(AttributeError):
            p.coeffs = ()
        f = copy.deepcopy(v_iterate(3))
        with pytest.raises(AttributeError):
            f.num = Polynomial([1])


class TestRationalFunction:
    def test_common_factor_cancelled(self):
        f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
        assert f.num == Polynomial([1, 1]) and f.den == Polynomial([1])

    def test_constant_denominator_absorbed(self):
        f = RationalFunction(Polynomial([2, 2]), Polynomial([2]))
        assert f.num == Polynomial([1, 1]) and f.den == Polynomial([1])

    def test_monic_denominator(self):
        # (4 - 3z)/(4 - z) stores as (3z - 4)/(z - 4); same function
        f = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
        assert f.num == Polynomial([-4, 3]) and f.den == Polynomial([-4, 1])
        assert f(F(0)) == 1 and f(F(1)) == F(1, 3)

    def test_normalization_idempotent(self):
        f = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
        again = RationalFunction(f.num, f.den)
        assert again == f and again.num == f.num and again.den == f.den

    @given(coeff_lists, nonzero_polys, nonconstant_polys)
    @settings(max_examples=60, deadline=None)
    def test_planted_common_factor_cancelled(self, num, den, h):
        # h has Fraction coefficients and a negative lead, so the constructor
        # must both cancel it and rescale to a monic denominator
        h = h if h[-1] < 0 else scale(-1, h)
        f = RationalFunction(Polynomial(num), Polynomial(den))
        planted = RationalFunction(Polynomial(mul(num, h)), Polynomial(mul(den, h)))
        assert planted == f
        assert (planted.num.coeffs, planted.den.coeffs) == (f.num.coeffs, f.den.coeffs)

    def test_non_polynomial_parts_rejected(self):
        with pytest.raises(TypeError):
            RationalFunction("x")

    def test_str(self):
        # the numerator and the monic denominator, printed as Polynomial prints them
        assert str(v_iterate(3)) == "(-2 + 2*z - 1/4*z^2) / (-2 + z)"
        assert str(v_iterate(1)) == "1 - 1/2*z"
        f = RationalFunction(Polynomial([0, -1, 0, 1]), Polynomial([2, 0, 2]))
        assert str(f) == "(-1/2*z + 1/2*z^3) / (1 + z^2)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(Polynomial([1]), Polynomial())

    def test_pole_at_point(self):
        f = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
        with pytest.raises(PoleAtPoint):
            f(F(4))

    def test_eval_at_analytic_origin(self):
        f = RationalFunction(Polynomial([-2, 2, F(-1, 4)]), Polynomial([-2, 1]))
        assert f(F(0)) == f.num.coeff(0) / f.den.coeff(0)

    @given(coeff_lists, coeff_lists)
    # v_step of (1 - z)/(1 + z) and of 1 + z: the top coefficients of D = A + B
    # and of N = D - zB cancel, so the store must strip a trailing zero
    @example([1, -1], [1, 1])
    @example([1, 1], [1])
    @settings(max_examples=60, deadline=None)
    def test_canonical_invariants(self, num, den):
        d = Polynomial(den)
        if d.is_zero:
            return
        f = RationalFunction(Polynomial(num), d)
        for g in (f, v_step(f)) if f != RationalFunction(-1) else (f,):
            a, b = g.pair
            assert math.gcd(*a, *b) == 1
            assert b[-1] > 0
            assert (not a or a[-1] != 0) and b[-1] != 0
            assert g.den.coeffs[-1] == 1
            assert poly_gcd(g.num, g.den).degree <= 0 or g.num.is_zero
            again = RationalFunction(g.num, g.den)
            assert again == g and hash(again) == hash(g)

    @given(st.lists(int_coeffs, max_size=5),
           st.lists(int_coeffs, min_size=1, max_size=4).filter(any),
           st.sampled_from([1, 2, 3, 4, 6, 12, 30]), st.integers(0, 3), st.integers(0, 2))
    @example([4, 8], [2], 2, 2, 0)  # content 4: the first pass of r = 2 leaves content 2
    @example([9, 3, 0], [-6, 3, 0], 6, 1, 2)  # trailing zeros, lead of den negative
    @settings(max_examples=150, deadline=None)
    def test_store_finds_a_content_of_the_named_primes(self, num, den, r, e, e2):
        # plant a content c whose primes all divide r on a pair of joint content 1;
        # the scan against r stores what the full rule (r = 0) stores
        g = math.gcd(*num, *den)
        num, den = [x // g for x in num], [x // g for x in den]
        c = r**e * min(q for q in (2, 3, 5) if r % q == 0) ** e2 if r > 1 else 1
        want = RationalFunction._from_coprime(num, den)
        assert want.pair[1][-1] > 0 and math.gcd(*want.pair[0], *want.pair[1]) == 1
        for planted in ([x * c for x in num], [x * c for x in den]), ([-x * c for x in num],
                                                                        [-x * c for x in den]):
            assert RationalFunction._from_coprime(*planted, r) == want
            assert RationalFunction._from_coprime(*planted) == want


class TestTaylor:
    def test_fixture_series(self):
        # oracle: geometric expansion gives -2/4^m for m >= 1
        f = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
        cs = taylor_coefficients(f, 3)
        assert cs == (F(1), F(-1, 2), F(-1, 8), F(-1, 32))
        deep = taylor_coefficients(f, 30)
        for m in range(1, 31):
            assert deep[m] == F(-2, 4**m)

    def test_constant(self):
        cs = taylor_coefficients(RationalFunction(Polynomial([1])), 2)
        assert cs == (F(1), F(0), F(0))

    def test_degree_two_fixture(self):
        f = RationalFunction(Polynomial([8, -8, 1]), Polynomial([8, -4]))
        cs = taylor_coefficients(f, 3)
        assert cs == (F(1), F(-1, 2), F(-1, 8), F(-1, 16))

    def test_not_analytic(self):
        with pytest.raises(NotAnalyticAtZero):
            taylor_coefficients(RationalFunction(Polynomial([1]), Polynomial([0, 1])), 2)

    def test_prefix_consistency(self):
        f = RationalFunction(Polynomial([8, -8, 1]), Polynomial([8, -4]))
        long = taylor_coefficients(f, 12)
        short = taylor_coefficients(f, 5)
        assert long[:6] == short

    def test_series_times_denominator_returns_numerator(self):
        # independent verification: convolving the prefix with den must
        # reproduce num exactly through the cutoff
        f = RationalFunction(Polynomial([3, 0, 2, -1]), Polynomial([2, 1, 0, 0, 1]))
        M = 24
        cs = taylor_coefficients(f, M)
        b = f.den.coeffs
        for m in range(M - len(b) + 2):
            conv = sum(b[j] * cs[m - j] for j in range(len(b)) if j <= m)
            assert conv == f.num.coeff(m)

    @given(
        st.lists(wide_fractions, max_size=7),
        den_constants,
        st.lists(wide_fractions, max_size=4),
        st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_recurrence(self, num, den0, den_rest, M):
        # den_rest may be empty or all zero: then f is a polynomial, and M
        # often falls below deg num
        f = RationalFunction(Polynomial(num), Polynomial([den0, *den_rest]))
        assert list(taylor_coefficients(f, M)) == taylor(f.num.coeffs, f.den.coeffs, M)

    @given(
        st.lists(wide_fractions, min_size=1, max_size=6),
        den_constants,
        st.lists(wide_fractions, max_size=4),
        st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_minus_z_denominator_gives_running_sums(self, num, den0, den_rest, M):
        # coefficient m of A/((1 - z)B) is c_0 + ... + c_m of f = A/B; when
        # A(1) != 0 (f(1) != 0, a pole at 1 included) the pair stays coprime
        f = RationalFunction(Polynomial(num), Polynomial([den0, *den_rest]))
        a, b = f.pair
        assume(sum(a) != 0)
        b_one_minus_z = mul(b, [1, -1])
        g = RationalFunction._from_coprime(a, b_one_minus_z)
        assert g == RationalFunction(Polynomial(a), Polynomial(b_one_minus_z))
        assert list(taylor_coefficients(g, M)) == list(accumulate(taylor_coefficients(f, M)))

    @pytest.mark.parametrize(
        "num, den",
        [
            # canonical den(0) = -7 and 3, mixed denominators in num and den
            ([1, F(2, 3), F(1, 5)], [-7, F(1, 2), 1]),
            ([F(-5, 6), 0, 0, F(7, 4)], [3, F(1, 2), 1]),
            # window denominators 2, 12, 24, 144, 96, ... do not form a chain
            ([1], [1, F(-1, 2), F(-1, 3), 1]),
            # polynomial f, cut both below and above its degree
            ([F(1, 2), F(-2, 9), 0, F(11, 7)], [1]),
        ],
    )
    def test_matches_naive_recurrence_fixed(self, num, den):
        f = RationalFunction(Polynomial(num), Polynomial(den))
        for M in (0, 1, 2, 40):
            assert list(taylor_coefficients(f, M)) == taylor(f.num.coeffs, f.den.coeffs, M)

    def test_matches_naive_recurrence_v12_at_tail_sum_cutoff(self):
        radius = radius_of_convergence(12, 256)
        cutoff = 12 + int(math.ceil(128 / math.log2(float(radius))))
        f = v_iterate(12)
        assert list(taylor_coefficients(f, cutoff)) == taylor(f.num.coeffs, f.den.coeffs, cutoff)

    def test_matches_naive_recurrence_newton3_k4(self):
        f = iterate(Scheme.newton(3), 4)
        assert f.den.coeff(0).denominator > 1
        assert list(taylor_coefficients(f, 512)) == taylor(f.num.coeffs, f.den.coeffs, 512)

    @given(kernel_functions, st.integers(0, 40))
    @example(RationalFunction(Polynomial([1, F(2, 3), F(1, 5)]), Polynomial([-7, F(1, 2), 1])), 30)
    @example(RationalFunction(Polynomial([F(1, 2), F(-2, 9), 0, F(11, 7)])), 2)
    @example(iterate(Scheme.halley(7), 2), 40)
    # each term's D grows by 2**100, more than the headroom: 23 refills in 31 terms
    @example(RationalFunction(Polynomial([1]), Polynomial([2**100, -1])), 30)
    # the odd terms are zero while e = 2
    @example(RationalFunction(Polynomial([1]), Polynomial([4, 0, -1])), 40)
    # b_0 = 3 * 2**9: odd and binary growth together, the headroom refilled 49 times
    @example(RationalFunction(Polynomial([1, 2]), Polynomial([3 * 2**9, 5, -7])), 250)
    # the examples run in order and stop at the first failure: a broken kernel can
    # grow D exponentially on the last one
    @settings(max_examples=150, deadline=None, report_multiple_bugs=False)
    def test_scaled_kernel_matches_oracle_and_keeps_the_lcm(self, f, M):
        # c_m = x_m / D_m with D_m = lcm(den c_0..c_m) exactly, not a multiple
        xs, Ds = _taylor_scaled(f, M)
        cs = taylor(f.num.coeffs, f.den.coeffs, M)
        assert list(map(F, xs, Ds)) == cs
        assert Ds == list(accumulate((c.denominator for c in cs), math.lcm))

    def test_binary_b0_takes_no_gcd(self, monkeypatch):
        # p = 2 has b_0 = +-2**(N-1): its 2-part goes by shifts, and o = 1 needs
        # no gcd.  Inputs: tail-sum's running function for v_16 and Newton k = 4
        a, b = v_iterate(16).pair
        inputs = [(RationalFunction._from_coprime(a, _times_one_minus_z(b), 1), _tail_cutoff(16, 256)),
                  (iterate(Scheme.newton(2), 4), 200)]
        expected = [taylor_coefficients(f, M) for f, M in inputs]

        def no_gcd(*args):
            raise AssertionError("gcd taken")

        monkeypatch.setattr(exact.math, "gcd", no_gcd)
        got = [_taylor_scaled(f, M) for f, M in inputs]
        monkeypatch.undo()
        assert [tuple(map(F, *r)) for r in got] == expected

    def test_partial_sums_converge_inside_radius(self):
        # reconstruction: resummation at x = 1/10 approaches the exact value
        # with a geometric tail (all coefficient magnitudes are <= 1 here)
        f = RationalFunction(Polynomial([8, -8, 1]), Polynomial([8, -4]))
        x = F(1, 10)
        exact = f(x)
        for M in (4, 8, 16):
            cs = taylor_coefficients(f, M)
            partial = sum(cs[m] * x**m for m in range(M + 1))
            assert abs(partial - exact) <= x ** (M + 1) / (1 - x)


class TestSeriesConstants:
    def test_sqrt_series_values(self):
        assert sqrt_series_coeff(0) == 1
        assert sqrt_series_coeff(1) == F(-1, 2)
        assert sqrt_series_coeff(2) == F(-1, 8)
        assert all(sqrt_series_coeff(m) < 0 for m in range(1, 80))

    def test_central_binomial_values(self):
        assert central_binomial_ratio(0) == 1
        assert central_binomial_ratio(2) == F(3, 8)
        assert central_binomial_ratio(1) - central_binomial_ratio(2) == F(1, 8)

    def test_difference_identity(self):
        # consecutive-ratio differences give the sqrt-series magnitudes:
        # -lambda_n = mu_{n-1} - mu_n > 0
        for n in range(1, 200):
            assert -sqrt_series_coeff(n) == central_binomial_ratio(
                n - 1
            ) - central_binomial_ratio(n)

    def test_root_series_square_case_matches(self):
        cs = root_series_coeffs(2, 100)
        for m in range(101):
            assert cs[m] == sqrt_series_coeff(m)

    def test_root_series_values(self):
        assert root_series_coeffs(3, 1) == [1, F(-1, 3)]
        assert root_series_coeffs(7, 0) == [1]
        assert all(c < 0 for c in root_series_coeffs(5, 40)[1:])

    def test_bad_root_order(self):
        with pytest.raises(BadRootOrder):
            root_series_coeffs(1, 4)

    @pytest.mark.parametrize("call", [
        lambda: taylor_coefficients(v_iterate(2), -1),
        lambda: sqrt_series_coeff(-1),
        lambda: central_binomial_ratio(-1),
        lambda: root_series_coeffs(3, -1),
    ], ids=["taylor_coefficients", "sqrt_series_coeff", "central_binomial_ratio",
            "root_series_coeffs"])
    def test_negative_index_refused(self, call):
        with pytest.raises(BadIndex):
            call()


# point coordinates: zero, ints, Fractions of unrelated (also negative)
# denominators, and "p/q" strings
point_parts = st.one_of(
    st.just(0),
    st.integers(-40, 40),
    st.sampled_from([F(3, -7), F(-5, 12), F(1, 64), "-9/16", "7"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    st.fractions(min_value=-3, max_value=3, max_denominator=60).map(str),
)


class TestComplexExactEval:
    def test_poly_at_i(self):
        p = RationalFunction(Polynomial([1, 0, 1]))  # z^2 + 1 vanishes at i
        assert eval_ratfun_complex(p, 0, 1) == (F(0), F(0))

    @given(st.lists(wide_fractions, max_size=7), point_parts, point_parts)
    @settings(max_examples=100, deadline=None)
    def test_poly_matches_naive_horner(self, coeffs, re, im):
        # empty and one-element lists give the zero polynomial and constants
        p = RationalFunction(Polynomial(coeffs))
        for point in ((re, im), (re, 0), (0, im)):
            assert eval_ratfun_complex(p, *point) == naive_eval_complex(coeffs, *point)

    @given(
        st.lists(wide_fractions, max_size=6),
        st.lists(small_fractions, min_size=1, max_size=5),
        point_parts,
        point_parts,
    )
    @settings(max_examples=100, deadline=None)
    def test_ratfun_matches_naive_horner(self, num, den, re, im):
        if Polynomial(den).is_zero:
            return
        f = RationalFunction(Polynomial(num), Polynomial(den))
        for point in ((re, im), (re, 0), (0, im)):
            expected = naive_ratfun_complex(f.num.coeffs, f.den.coeffs, *point)
            if expected is None:
                with pytest.raises(PoleAtPoint):
                    eval_ratfun_complex(f, *point)
            else:
                assert eval_ratfun_complex(f, *point) == expected

    @given(
        st.lists(wide_fractions, max_size=6),
        st.lists(small_fractions, min_size=1, max_size=5),
        point_parts,
    )
    @settings(max_examples=100, deadline=None)
    def test_real_call_matches_naive_horner(self, num, den, x):
        if Polynomial(den).is_zero:
            return
        f = RationalFunction(Polynomial(num), Polynomial(den))
        expected = naive_ratfun_complex(f.num.coeffs, f.den.coeffs, x, 0)
        if expected is None:
            with pytest.raises(PoleAtPoint):
                f(x)
        else:
            assert (f(x), F(0)) == expected
            assert type(f(x)) is F

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_v_matches_direct_form(self, n):
        # exact values of the canonical v_n against its direct binomial form,
        # evaluated by the naive Fraction Horner
        f = v_iterate(n)
        num, den = direct_v(n)
        for re, im in _random_disk_rationals(random.Random(n), 50):
            assert eval_ratfun_complex(f, re, im) == naive_ratfun_complex(num, den, re, im)
            assert f(re) == naive_ratfun_complex(num, den, re, 0)[0]

    def test_conjugate_symmetry(self):
        f = RationalFunction(Polynomial([8, -8, 1]), Polynomial([8, -4]))
        re1, im1 = eval_ratfun_complex(f, F(1, 4), F(1, 3))
        re2, im2 = eval_ratfun_complex(f, F(1, 4), F(-1, 3))
        assert re1 == re2 and im1 == -im2

    def test_pole_detected(self):
        f = RationalFunction(Polynomial([1]), Polynomial([-2, 1]))
        with pytest.raises(PoleAtPoint, match=r"^denominator vanishes at 2\+0i$"):
            eval_ratfun_complex(f, F(2), F(0))
        with pytest.raises(PoleAtPoint, match=r"^denominator vanishes at 2$"):
            f(2)

    def test_complex_pole_detected(self):
        f = RationalFunction(Polynomial([1]), Polynomial([1, 0, 1]))  # 1/(z^2 + 1)
        with pytest.raises(PoleAtPoint, match=r"^denominator vanishes at 0\+1i$"):
            eval_ratfun_complex(f, 0, 1)
        with pytest.raises(PoleAtPoint):
            eval_ratfun_complex(f, "0", F(-1))
        assert eval_ratfun_complex(f, 0, F(1, 2)) == (F(4, 3), F(0))
