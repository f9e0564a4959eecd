"""Iterate construction: steps, composition identities, degrees, series heads."""

import hashlib
import json
import math
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from chebsqrt import (
    BadIndex,
    BadRootOrder,
    CapExceeded,
    ChebKind,
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
from chebsqrt.chebyshev import _cheb_ints
from chebsqrt import exact, iterates
from chebsqrt.iterates import MAX_DEGREE, capped_degree
from oracles import add, mul, power, scale, sub

ONE = RationalFunction(Polynomial([1]))
HALF_SLOPE = RationalFunction(Polynomial([1, F(-1, 2)]))  # 1 - z/2
V2 = RationalFunction(Polynomial([4, -3]), Polynomial([4, -1]))
V3 = RationalFunction(Polynomial([8, -8, 1]), Polynomial([8, -4]))
V4 = RationalFunction(Polynomial([16, -20, 5]), Polynomial([16, -12, 1]))
# the Newton and Halley iterates of the benchmark's build workload
BUILD_SCHEMES = [(Scheme.newton(2), 9), (Scheme.halley(2), 6), (Scheme.newton(3), 5),
                 (Scheme.halley(3), 4)]


def direct_v(n):
    """Canonical (num, den) coefficients of v_n from its direct binomial form.

    v_n = sum_i C(N,2i) u^i / sum_i C(N,2i+1) u^i with u = 1 - z, N = n + 1,
    expanded in integers by Horner in u (each step multiplies by 1 - z) and
    scaled to a monic denominator.  Shares no code with the v chain.
    """
    N = n + 1

    def expand(parity):
        acc = []
        for i in reversed(range((N - parity) // 2 + 1)):
            acc = [c - d for c, d in zip(acc + [0], [0] + acc)] or [0]
            acc[0] += math.comb(N, 2 * i + parity)
        return acc

    num, den = expand(0), expand(1)
    lead = den[-1]
    return tuple(F(c, lead) for c in num), tuple(F(c, lead) for c in den)


ONE_MINUS_Z = [1, -1]


@pytest.fixture(scope="module")
def v_chain():
    """v_0..v_1024 by explicit v_step calls from 1, the oracle for the formula."""
    chain = [ONE]
    for _ in range(1024):
        chain.append(v_step(chain[-1]))
    return chain


def naive_step(kind, f, p=2):
    """Oracle: the step in schoolbook arithmetic, canonicalised by RationalFunction's gcd."""
    a, b = f.num.coeffs, f.den.coeffs
    if kind == "v":
        if not add(a, b):
            raise DegenerateStep("1 + f vanishes identically")
        num, den = add(mul(ONE_MINUS_Z, b), a), add(a, b)
    elif kind == "newton":
        if not a:
            raise DegenerateStep("zero function")
        num = add(scale(p - 1, power(a, p)), mul(ONE_MINUS_Z, power(b, p)))
        den = scale(p, mul(power(a, p - 1), b))
    else:
        ap, wbp = power(a, p), mul(ONE_MINUS_Z, power(b, p))
        num = mul(a, add(scale(p - 1, ap), scale(p + 1, wbp)))
        den = mul(b, add(scale(p + 1, ap), scale(p - 1, wbp)))
        if not den:
            raise DegenerateStep("zero denominator")
    return RationalFunction(Polynomial(num), Polynomial(den))


STEPS = {"v": lambda f, p: v_step(f), "newton": newton_step, "halley": halley_step}

step_coeffs = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=12)
)
canonical_functions = st.builds(
    lambda num, den: RationalFunction(Polynomial(num), Polynomial(den)),
    st.lists(step_coeffs, max_size=5),
    st.lists(step_coeffs, min_size=1, max_size=4).filter(any),
)


def coeff_tuples(f):
    return f.num.coeffs, f.den.coeffs


ZERO = RationalFunction(Polynomial())
# canonical inputs whose step pair shares a factor: A + B = zC gives D(0) = 0 in the
# v step, A = (1 - z)C gives A(1) = 0 in Newton and Halley (unless the constructor
# cancels the planted factor against B)
short_lists = st.lists(step_coeffs, max_size=4)
planted_functions = st.one_of(
    st.builds(lambda c, b: RationalFunction(Polynomial(sub([0, *c], b)), Polynomial(b)),
              short_lists, short_lists.filter(any)),
    st.builds(lambda c, b: RationalFunction(Polynomial(mul(ONE_MINUS_Z, c)), Polynomial(b)),
              short_lists, short_lists.filter(any)),
)


def primes_divide(g, r):
    """Every prime of g divides r (r = 0: any prime)."""
    while (h := math.gcd(g, r)) > 1:
        g //= h
    return g == 1


def handed_contents(build):
    """build()'s result and the (joint content, primes_of) of each pair handed to the store."""
    store, handed = exact.RationalFunction._store, []

    def spy(self, num, den, primes_of=0):
        handed.append((math.gcd(*num, *den), primes_of))
        store(self, num, den, primes_of)

    with mock.patch.object(exact.RationalFunction, "_store", spy):
        return build(), handed


def step_without_gcd(kind, f, p):
    """The step with the general gcd patched to raise, around the step call only.

    Also checks the content lemma: every prime of the pair's joint content
    divides the number the step hands to the store.
    """
    with mock.patch.object(exact, "_int_gcd", side_effect=AssertionError("a step ran the gcd")):
        got, handed = handed_contents(lambda: STEPS[kind](f, p))
    assert all(primes_divide(g, r) for g, r in handed)
    return got


class TestStepKernels:
    @given(canonical_functions, st.sampled_from(sorted(STEPS)), st.sampled_from([2, 3, 4]))
    # the zero function: its numerator [0] has A(1) = 0, so Halley divides out 1 - z
    @example(RationalFunction(Polynomial()), "v", 2)
    @example(RationalFunction(Polynomial()), "newton", 2)
    @example(RationalFunction(Polynomial()), "halley", 2)
    @example(RationalFunction(Polynomial()), "halley", 3)
    @settings(max_examples=150, deadline=None)
    def test_steps_match_oracle(self, f, kind, p):
        try:
            want = naive_step(kind, f, p)
        except DegenerateStep:
            with pytest.raises(DegenerateStep):
                STEPS[kind](f, p)
            return
        assert coeff_tuples(STEPS[kind](f, p)) == coeff_tuples(want)

    def test_iterates_from_one_skip_the_gcd(self, monkeypatch):
        from chebsqrt import exact

        def no_gcd(a, b):
            raise AssertionError("a gcd ran on an iterate built from 1")

        f = v_iterate(3)
        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        monkeypatch.setattr(exact, "_int_gcd", no_gcd)
        assert v_step(f) == V4
        for scheme, k in ((Scheme.newton(2), 4), (Scheme.halley(2), 3), (Scheme.newton(4), 3),
                          (Scheme.halley(3), 2)):
            iterate(scheme, k)

    def test_v_step_cancels_z_when_den_vanishes_at_zero(self):
        # D = A + B = z^2 shares the factor z with N = z^2 - z
        f = RationalFunction(Polynomial([-1, 0, 1]))
        assert v_step(f) == RationalFunction(Polynomial([-1, 1]), Polynomial([0, 1]))

    @pytest.mark.parametrize("kind", ["newton", "halley"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_step_cancels_one_minus_z_when_num_vanishes_at_one(self, kind, p):
        # A(1) = 0: N and D share the factor 1 - z, which the step divides out
        f = RationalFunction(Polynomial([1, -1]), Polynomial([1, 1]))
        assert coeff_tuples(STEPS[kind](f, p)) == coeff_tuples(naive_step(kind, f, p))

    @pytest.mark.parametrize("kind, f, p", [
        pytest.param("v", RationalFunction(Polynomial([-1, 0, 1])), 2, id="v-D=z^2"),
        pytest.param("v", RationalFunction(Polynomial([-1, 1])), 2, id="v-D=z-step-is-0"),
        *[pytest.param(kind, RationalFunction(Polynomial([1, -1]), Polynomial([1, 1])), p,
                       id=f"{kind}-p{p}-A(1)=0") for kind in ("newton", "halley") for p in (2, 3)],
        pytest.param("halley", ZERO, 2, id="halley-p2-zero"),
        pytest.param("halley", ZERO, 3, id="halley-p3-zero"),
    ])
    def test_planted_factor_cancels_by_the_lemma(self, kind, f, p):
        got = step_without_gcd(kind, f, p)
        assert got == naive_step(kind, f, p)
        assert got == RationalFunction(got.num, got.den)  # the general constructor's pair

    @given(st.one_of(canonical_functions, planted_functions), st.sampled_from(sorted(STEPS)),
           st.integers(2, 7))
    # step pairs of joint content 2, a prime of p - 1, which the store divides out
    @example(RationalFunction(F(1, 2)), "newton", 3)
    @example(ONE, "halley", 3)
    @example(ONE, "halley", 5)
    @example(RationalFunction(Polynomial([3, -2]), Polynomial([3, -1])), "halley", 3)  # from 1
    @settings(max_examples=150, deadline=None)
    def test_steps_never_run_the_gcd(self, f, kind, p):
        try:
            got = step_without_gcd(kind, f, p)
        except DegenerateStep:
            return
        assert got == naive_step(kind, f, p)
        assert got == RationalFunction(got.num, got.den)

    @pytest.mark.parametrize("kind, f, p, k", [
        pytest.param("newton", RationalFunction(F(1, 2)), 3, 1, id="newton-p3-half"),
        pytest.param("halley", ONE, 3, 4, id="halley-p3-from-1"),
        pytest.param("halley", ONE, 5, 3, id="halley-p5-from-1"),
    ])
    def test_step_content_is_two(self, kind, f, p, k):
        # Newton at p = 3 on 1/2 hands (10 - 8z, 6) to the store; at odd p Halley's X
        # and Y are even, and each step from 1 hands over content exactly 2
        def build():
            g = f
            for _ in range(k):
                g = STEPS[kind](g, p)
            return g

        got, handed = handed_contents(build)
        assert handed == [(2, p - 1)] * k
        assert got == RationalFunction(got.num, got.den)

    def test_constructions_run_no_content_gcd(self, monkeypatch):
        # the store's scan takes gcd(r, c) only for r dividing p - 1: none for the v chain,
        # v_iterate and p = 2, gcd(2, c) at p = 3; a content-1 pair is stored undivided
        class GcdAgainst:  # exact's math module, its gcd(r, c) limited to r | m
            def __init__(self, m):
                self.m = m

            def __getattr__(self, name):
                return getattr(math, name)

            def gcd(self, r, c):
                if r == 0 or self.m % r:
                    raise AssertionError(f"a content gcd ran against {r}")
                return math.gcd(r, c)

        store, handed = exact.RationalFunction._store, []

        def spy(self, num, den, primes_of=0):
            store(self, num, den, primes_of)
            handed.append((list(num), list(den), self.pair))

        chain = [v_iterate(0)]
        monkeypatch.setattr(exact.RationalFunction, "_store", spy)
        with mock.patch.object(exact, "math", GcdAgainst(1)):
            for _ in range(80):
                chain.append(v_step(chain[-1]))
            v80, newton6, halley4 = (v_iterate(80), iterate(Scheme.newton(2), 6),
                                     iterate(Scheme.halley(2), 4))
        with mock.patch.object(exact, "math", GcdAgainst(2)):
            p3 = iterate(Scheme.newton(3), 4), iterate(Scheme.halley(3), 3)
        monkeypatch.undo()
        assert chain[80] == v80 == halley4 and newton6 == chain[63]
        assert coeff_tuples(v80) == direct_v(80)
        assert all(f == RationalFunction(f.num, f.den) for f in p3)
        undivided = 0
        for num, den, (a, b) in handed:
            if math.gcd(*num, *den) == 1 and b[-1] == den[len(b) - 1]:
                assert all(x is y for x, y in zip(a + b, num[:len(a)] + den[:len(b)]))
                undivided += 1
        assert undivided > 40


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

    def test_v_scheme_matches_direct_binomial_form(self):
        for n in (0, 1, 5, 9):
            f = iterate(Scheme.v(), n)
            assert f == v_iterate(n)
            assert (f.num.coeffs, f.den.coeffs) == direct_v(n)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            iterate(Scheme.newton(2), 13)
        with pytest.raises(CapExceeded):
            v_iterate(5000)
        with pytest.raises(CapExceeded):
            iterate(Scheme.v(), 5000)

    @pytest.mark.parametrize("scheme, ks", [
        (Scheme.v(), (0, 1, 2, 7, 4096)),
        (Scheme.newton(2), range(7)), (Scheme.halley(2), range(5)),
        (Scheme.newton(3), range(5)), (Scheme.halley(3), range(4)),
        (Scheme.newton(4), range(4)), (Scheme.halley(4), range(3)),
    ])
    def test_degree_formula_matches_built_iterates(self, scheme, ks):
        for k in ks:
            f = iterate(scheme, k)
            assert capped_degree(scheme, k) == max(f.num.degree, f.den.degree), k

    def test_degree_cap_refuses_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the degree cap")

        monkeypatch.setattr(iterates, "newton_step", no_step)
        monkeypatch.setattr(iterates, "halley_step", no_step)
        for scheme in (Scheme.halley(2), Scheme.newton(3)):
            with pytest.raises(CapExceeded, match="exceeds the cap"):
                iterate(scheme, 8)
        # huge k and p are refused from the formula alone
        with pytest.raises(CapExceeded):
            iterate(Scheme.halley(2), 10**18)
        with pytest.raises(CapExceeded):
            iterate(Scheme.newton(10**9), 2)
        # the largest admitted k: newton(2) 12 is v_4095, halley(2) 7 is v_2186
        assert capped_degree(Scheme.newton(2), 12) == MAX_DEGREE
        assert capped_degree(Scheme.halley(2), 7) == 1093
        assert capped_degree(Scheme.v(), 4096) == MAX_DEGREE
        with pytest.raises(CapExceeded):
            capped_degree(Scheme.newton(2), 13)
        with pytest.raises(CapExceeded):
            capped_degree(Scheme.halley(2), 8)
        with pytest.raises(CapExceeded):
            capped_degree(Scheme.v(), 4097)

    def test_first_step_power_is_constant_time_in_p(self, monkeypatch):
        # k = 1 has degree 1 for every p, so no cap bounds p there; the step's
        # powers of one-element lists must not convolve p times
        calls = []
        real = iterates._convolve

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(iterates, "_convolve", counting)
        p = 2**20
        assert iterate(Scheme.newton(p), 1) == RationalFunction(Polynomial([1, F(-1, p)]))
        assert len(calls) <= 2  # the step's two products, not powers
        assert iterate(Scheme.halley(p), 1) == RationalFunction(
            Polynomial([2 * p, -(p + 1)]), Polynomial([2 * p, -(p - 1)]))
        assert len(calls) <= 4

    def test_scheme_validation(self):
        with pytest.raises(BadRootOrder):
            Scheme.newton(1)
        with pytest.raises(ValueError):
            Scheme("bogus")
        with pytest.raises(BadRootOrder):
            Scheme("v", 2)
        assert str(Scheme.halley(3)) == "halley(p=3)"
        assert str(Scheme.v()) == "v"

    def test_head_length(self):
        assert [Scheme.v().head_length(k) for k in range(4)] == [1, 2, 3, 4]
        assert [Scheme.newton(3).head_length(k) for k in range(4)] == [1, 2, 4, 8]
        assert [Scheme.halley(2).head_length(k) for k in range(4)] == [1, 3, 9, 27]

    @pytest.mark.parametrize("scheme", [Scheme.v(), Scheme.newton(3), Scheme.halley(2)])
    def test_negative_index_rejected(self, scheme):
        with pytest.raises(BadIndex):
            iterate(scheme, -1)

    def test_json_shape(self):
        f = v_iterate(2)
        assert [poly_to_json(f.num), poly_to_json(f.den)] == [["-4", "3"], ["-4", "1"]]


class TestCompositionIdentities:
    # three routes to one function store one pair, so == and hash agree
    def test_newton_iterates_are_v_iterates(self, v_chain):
        for k in range(1, 10):
            f, g, h = iterate(Scheme.newton(2), k), v_iterate(2**k - 1), v_chain[2**k - 1]
            assert f == g == h and hash(f) == hash(g) == hash(h)

    def test_halley_iterates_are_v_iterates(self, v_chain):
        for k in range(1, 7):
            f, g, h = iterate(Scheme.halley(2), k), v_iterate(3**k - 1), v_chain[3**k - 1]
            assert f == g == h and hash(f) == hash(g) == hash(h)

    @pytest.mark.parametrize("kind, k", [("newton", 10), ("newton", 11), ("halley", 7)])
    def test_large_iterates_are_v_iterates(self, kind, k):
        # past the chain's reach: the last steps multiply operands of degree
        # 256 to 729 with 646- to 1850-bit coefficients, up to degree 1093
        scheme = Scheme(kind, 2)
        assert iterate(scheme, k) == v_iterate(scheme.head_length(k) - 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 26, 31, 64, 255, 511])
    def test_chain_matches_direct_binomial_form(self, v_chain, n):
        f = v_chain[n]
        assert (f.num.coeffs, f.den.coeffs) == direct_v(n)


class TestChebyshevForm:
    def test_formula_matches_chain(self, v_chain):
        for n, f in enumerate(v_chain):
            assert v_iterate(n) == f, n

    @pytest.mark.parametrize("n", [1023, 4096])
    def test_formula_matches_direct_binomial_form(self, n):
        # past the chain's reach; below it the chain agrees with direct_v
        f = v_iterate(n)
        assert (f.num.coeffs, f.den.coeffs) == direct_v(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 255])
    def test_pell_identity_proves_coprime(self, n):
        # A = z^(N/2) T_N(z^(-1/2)), B = z^((N-1)/2) U_(N-1)(z^(-1/2)), N = n + 1
        N = n + 1
        a = _cheb_ints(ChebKind.FIRST, N)[N::-2]
        b = _cheb_ints(ChebKind.SECOND, N - 1)[N - 1 :: -2]
        assert sub(power(a, 2), mul(ONE_MINUS_Z, power(b, 2))) == [0] * N + [1]
        assert b[0] == 2 ** (N - 1)
        # the gcd finds nothing to remove, and the pair is v_n
        assert coeff_tuples(RationalFunction(Polynomial(a), Polynomial(b))) == coeff_tuples(
            v_iterate(n)
        )


class TestStructuralInvariants:
    def test_chain_is_canonical(self):
        # v_iterate skips the gcd; the constructor's gcd must find nothing to remove
        for n in range(1, 257):
            f = v_iterate(n)
            assert coeff_tuples(RationalFunction(f.num, f.den)) == coeff_tuples(f)

    @pytest.mark.parametrize("scheme, k_max", BUILD_SCHEMES)
    def test_newton_halley_iterates_are_canonical(self, scheme, k_max):
        for k in range(1, k_max + 1):
            f = iterate(scheme, k)
            assert coeff_tuples(RationalFunction(f.num, f.den)) == coeff_tuples(f)

    def test_build_output_bytes(self):
        # the build digest of the benchmark: a sha256 prefix of the JSON of each
        # iterate's [poly_to_json(num), poly_to_json(den)], then of that list
        def digest(obj):
            return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]

        chain = [ONE]
        for _ in range(256):
            chain.append(v_step(chain[-1]))
        built = chain[1:]
        for scheme, k_max in BUILD_SCHEMES:
            built += [iterate(scheme, k) for k in range(1, k_max + 1)]
        rows = [digest([poly_to_json(f.num), poly_to_json(f.den)]) for f in built]
        assert digest(rows) == "44284483c608361f"

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
