"""Check battery: principal root, grids, bounds, sign-pattern exploration."""

import dataclasses
import importlib.util
import json
import math
import random
import sys
import weakref
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from chebsqrt import (
    BadIndex,
    BadRootOrder,
    CapExceeded,
    DiskGrid,
    OnBranchCut,
    PoleAtPoint,
    Polynomial,
    RationalFunction,
    Scheme,
    check_coeff_formula,
    check_composition,
    check_disk_bound,
    check_guo_p2,
    check_head,
    check_head_lengths,
    check_monotone_improvement,
    check_mu_bound,
    check_radius_pole,
    check_ratio_identity,
    check_resummation,
    check_sqrt_consistency,
    check_tail_signs,
    check_tail_sum,
    check_uniform_compact,
    check_value_at_one,
    default_suite,
    eval_ratfun_complex,
    guo_explore,
    iterate,
    radius_of_convergence,
    root_series_coeffs,
    sqrt_principal,
    tail_sum_identity,
    taylor_coefficients,
    v_iterate,
    v_step,
)
from chebsqrt import cli, verify
from chebsqrt.chebyshev import DEFAULT_PREC, GUARD_BITS
from chebsqrt.exact import _gaussian_point, _ratfun_gaussian, _taylor_scaled
from chebsqrt.verify import (
    _fixed_horner,
    _fixed_point,
    _FloatEvaluator,
    _grid_errors,
    _head_length,
    _horner_bits,
    _to_mpf,
    _worst,
)
from oracles import add, grid_errors, guo_report, horner, mu_bound_worst, mul, taylor

PREC = 256


def _no_build(n):
    raise AssertionError("an iterate was built before the degree cap")


class TestSqrtPrincipal:
    def test_real_spot_values(self):
        assert sqrt_principal(mpf(0), PREC) == 1
        assert sqrt_principal(mpf(1), PREC) == 0
        assert sqrt_principal(mpf(-3), PREC) == 2

    def test_branch_cut_rejected(self):
        with pytest.raises(OnBranchCut):
            sqrt_principal(mpf("1.5"), PREC)
        with pytest.raises(OnBranchCut):
            sqrt_principal(mpc(2, 0), PREC)

    def test_off_cut_complex_allowed(self):
        w = sqrt_principal(mpc("1.5", "0.1"), PREC)
        assert w.real > 0

    def test_self_consistency_on_grid(self):
        tol = mpf(2) ** (8 - PREC)
        with workprec(PREC + 32):
            for z in DiskGrid(1.0, 6, 12, PREC).points():
                w = sqrt_principal(z, PREC)
                assert abs(w * w - (1 - z)) <= tol
                assert w.real >= 0

    def test_positive_real_part_off_one(self):
        for z in (mpc(0, 1), mpc(-2, 3), mpf("0.999")):
            assert sqrt_principal(z, PREC).real > 0


class TestDiskGrid:
    def test_point_count(self):
        assert len(DiskGrid(1.0, 8, 16, PREC).points()) == 128

    def test_includes_boundary_and_one(self):
        pts = DiskGrid(1.0, 4, 8, PREC).points()
        assert any(z == 1 for z in pts)
        with workprec(PREC):
            assert max(abs(z) for z in pts) == 1

    def test_radius_validation(self):
        with pytest.raises(BadIndex):
            DiskGrid(1.5, 4, 8, PREC)
        with pytest.raises(BadIndex):
            DiskGrid(1.0, 0, 8, PREC)

    def test_samples_are_cached_roots(self):
        # the sources are the points, in order, less each exact conjugate of an
        # earlier point, whose own root is its source's conjugated; every root,
        # read at the default 53 bits, is sqrt_principal's bit for bit, and a
        # source's weight counts it and its conjugates; 7 angles are inexact, so
        # that grid pairs nothing
        assert mpmath.mp.prec == 53
        neg = mpmath.libmp.mpf_neg
        for radius in (1.0, 0.9):
            for radial, angular, count in ((8, 16, 72), (16, 32, 272), (5, 7, 35)):
                grid = DiskGrid(radius, radial, angular, PREC)
                assert grid.sources is grid.sources and len(grid.sources) == count
                assert sum(entry[-1] for entry in grid.sources) == radial * angular
                entries, first, weights = iter(grid.sources), {}, []
                for z in grid.points():
                    (re, im), root = z._mpc_, sqrt_principal(z, PREC + GUARD_BITS)._mpc_
                    j = first.get((re, neg(im)))
                    if j is None:
                        source_z, source_w, *_ = next(entries)
                        assert source_z._mpc_ == z._mpc_ and source_w._mpc_ == root
                        first[z._mpc_] = len(weights)
                        weights.append(1)
                    else:
                        wr, wi = grid.sources[j][1]._mpc_
                        assert root == (wr, neg(wi))
                        weights[j] += 1
                assert next(entries, None) is None
                assert [entry[-1] for entry in grid.sources] == weights

    def test_fixed_form_and_moduli_are_the_samples_exactly(self):
        grid = DiskGrid(0.9, 2, 4, PREC)
        assert grid.sources is grid.sources
        with workprec(4 * PREC):
            for z, w, _, (x, y, s), (wr, wi, t), _ in grid.sources:
                assert mpc(x, y) / 2**s == z and mpc(wr, wi) / 2**t == w
        with workprec(PREC + GUARD_BITS):
            assert [r for _, _, r, *_ in grid.sources] == [abs(z) for z, *_ in grid.sources]


class TestExactChecks:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_head_passes(self, n):
        r = check_head(n)
        assert r.status == "pass"
        assert r.samples == n + 1

    def test_tail_signs_passes(self):
        # the n=2 tail is -2/4^m, strictly negative: cross-check the oracle
        cs = taylor_coefficients(v_iterate(2), 16)
        assert all(cs[m] == F(-2, 4**m) for m in range(1, 17))
        assert check_tail_signs(2, 16).status == "pass"
        assert check_tail_signs(3, 16).status == "pass"

    def test_tail_signs_skips_polynomial(self):
        r = check_tail_signs(1, 16)
        assert r.status == "skip"
        assert "polynomial" in r.note

    def test_value_at_one(self):
        assert check_value_at_one(100).status == "pass"

    def test_composition(self):
        assert check_composition().status == "pass"

    @pytest.mark.parametrize(
        "name, skew",
        [("v_iterate", lambda real: lambda n: real(n + 1)),
         ("v_step", lambda real: lambda f: real(real(f)))],
    )
    def test_composition_compares_each_construction(self, monkeypatch, name, skew):
        # one wrong construction fails the check even when the other two agree
        from chebsqrt import verify

        monkeypatch.setattr(verify, name, skew(getattr(verify, name)))
        r = check_composition()
        assert r.status == "fail" and r.worst_case == {"first_failure": "('newton', 1)"}

    def test_mu_bound(self):
        r = check_mu_bound(3000, PREC)
        assert r.status == "pass"
        assert r.worst_case["n"] == 3000  # margin shrinks with n

    def test_empty_ranges_rejected(self):
        # n_max < 1 would crash on an empty sup list or pass with no samples
        with pytest.raises(BadIndex):
            check_mu_bound(-5, PREC)
        with pytest.raises(BadIndex):
            check_uniform_compact(0, 0.9, PREC)
        with pytest.raises(BadIndex):
            check_monotone_improvement(0, 0.9, PREC)
        with pytest.raises(BadIndex):
            default_suite(n_max=0, prec=PREC)

    def test_tail_and_compact_radius_refused(self):
        with pytest.raises(BadIndex, match="M > n"):
            check_tail_signs(3, 3)
        with pytest.raises(BadIndex, match="compact radius"):
            check_uniform_compact(4, 1.0)

    def test_head_lengths_names_only_its_own_input(self):
        # the row takes no k, so its refusal names M alone
        with pytest.raises(BadIndex, match=r"^head-lengths needs M >= 1$"):
            check_head_lengths(0)
        with pytest.raises(CapExceeded, match="coefficient cap"):
            check_head_lengths(verify.MAX_COEFF_INDEX + 1)

    @pytest.mark.parametrize("name, n_max", [
        ("value_at_one", 4097), ("uniform_compact", 4097), ("monotone_improvement", 4096),
        ("resummation", 4097), ("coeff_formula", 4097), ("radius_pole", 4097),
        ("tail_sum", 4097),
    ])
    def test_index_cap_refuses_before_any_build(self, monkeypatch, name, n_max):
        # each check builds v_n for n up to its top index, v_(n_max + 1) for
        # monotone-improvement; past v_4096 the cap must fire before v_0
        monkeypatch.setattr(verify, "v_iterate", _no_build)
        with pytest.raises(CapExceeded):
            getattr(verify, f"check_{name}")(n_max)

    def test_disk_bound_work_cap(self, monkeypatch):
        # degree x samples up to MAX_DEGREE x 128 is admitted: every 8x16 row under
        # the degree cap and Newton k = 11 on 16x16; past it, refused before the build
        monkeypatch.setattr(verify, "iterate", lambda scheme, k: _no_build(k))
        newton, halley = Scheme.newton(2), Scheme.halley(2)
        for scheme, k, radial, angular in ((newton, 12, 8, 16), (Scheme.v(), 4095, 8, 16),
                                           (newton, 11, 16, 16)):
            with pytest.raises(AssertionError, match="was built"):
                check_disk_bound(scheme, k, DiskGrid(1.0, radial, angular, PREC))
        for scheme, k, radial, angular in ((newton, 12, 16, 16), (newton, 12, 32, 32),
                                           (halley, 7, 16, 16)):
            with pytest.raises(CapExceeded, match="disk-bound cap"):
                check_disk_bound(scheme, k, DiskGrid(1.0, radial, angular, PREC))

    def test_taylor_work_cap(self, monkeypatch):
        # degree x M up to MAX_DEGREE x 256 is admitted: Newton k = 12 (degree 2048)
        # to M = 256 and Halley k = 7 (degree 1093) to M = 479; past it, refused
        # before the build
        monkeypatch.setattr(verify, "iterate", lambda scheme, k: _no_build(k))
        for kind, k, M in (("newton", 12, 256), ("halley", 7, 479)):
            with pytest.raises(AssertionError, match="was built"):
                guo_explore(2, kind, k, M)
        for kind, k, M in (("newton", 12, 257), ("halley", 7, 480)):
            with pytest.raises(CapExceeded, match="Taylor work cap"):
                guo_explore(2, kind, k, M)

    def test_row_indices_refuse_before_any_build(self, monkeypatch):
        monkeypatch.setattr(verify, "v_iterate", _no_build)
        for name in ("head", "tail-signs", "ratio-identity"):
            cap = verify.MAX_RANGE_N[name]
            for n in (cap + 1, 4097):
                with pytest.raises(CapExceeded):
                    verify.CHECKS[name](16, PREC, n=n)
                with pytest.raises(CapExceeded):
                    verify.CHECKS[name](n, PREC)
            # the cap itself is admitted: the row goes on to build its iterate
            with pytest.raises(AssertionError, match="was built"):
                verify.CHECKS[name](16, PREC, n=cap)


class TestRounding:
    def test_rounds_as_mpmathify_of_the_fraction(self):
        # one rounding of p/q, reduced or not: the (a, s) and (b, s) of the
        # Gaussian-integer kernel at the bench points, and a few fixed pairs
        f = v_iterate(64)
        pairs = [(6, 4), (-6, 4), (3, 2), (-3, 2), (-7, 1), (0, 5), (10**40 + 1, 3 * 10**40)]
        for re, im in cli._random_disk_rationals(random.Random(3), 20):
            a, b, s = _ratfun_gaussian(f, *_gaussian_point(re, im))
            pairs += [(a, s), (b, s)]
        assert any(math.gcd(p, q) > 1 for p, q in pairs[7:])  # the kernel's are unreduced
        assert any(p < 0 for p, _ in pairs[7:])
        for prec in (53, PREC + GUARD_BITS + 80):
            with workprec(prec):
                for p, q in pairs:
                    assert _to_mpf(p, q)._mpf_ == mpmath.mpmathify(F(p, q))._mpf_, (p, q, prec)

    @given(st.integers(-(2**400), 2**400), st.integers(-(2**400), 2**400).filter(bool),
           st.sampled_from([53, PREC + GUARD_BITS + 80]))
    @settings(max_examples=200, deadline=None)
    def test_any_pair_either_sign(self, p, q, prec):
        with workprec(prec):
            assert _to_mpf(p, q)._mpf_ == mpmath.mpmathify(F(p, q))._mpf_

    def test_fixed_point_reads_an_mpf_exactly(self):
        for man, exp in [(0, 0), (1, 0), (-3, 5), (5, -7), (-(2**300 + 1), -400), (7, 300)]:
            x, y, s = _fixed_point(mpf((man, exp), prec=301))
            assert (F(x, 2**s), y) == (man * F(2) ** exp, 0) and s >= 0
        for n in (2, 17, 128):
            radius = radius_of_convergence(n, PREC)
            x, _, s = _fixed_point(radius)
            with workprec(4 * PREC):
                assert mpf(x) / 2**s == radius

    def test_no_fraction_reaches_mpmathify(self, monkeypatch):
        # every Fraction rounds through _to_mpf, in the suite and in the CLI alike;
        # mpmath's own conversions go through mp.convert, which mpmathify is bound to
        def guard(real):
            def convert(x, *args, **kwargs):
                assert not isinstance(x, F), f"mpmathify received the Fraction {x}"
                return real(x, *args, **kwargs)

            return convert

        monkeypatch.setattr(mpmath, "mpmathify", guard(mpmath.mpmathify))
        monkeypatch.setattr(mpmath.mp, "convert", guard(mpmath.mp.convert))
        assert all(r.status in ("pass", "skip") for r in default_suite(4, PREC))
        for argv in (["eval", "--scheme", "v", "--k", "5", "--at", "1/3"],
                     ["eval", "--scheme", "newton", "--k", "2", "--at-re", "0.3",
                      "--at-im=-1/7"],
                     ["bench", "--n", "16", "--points", "10"]):
            assert cli.main(argv) == 0, argv


# integer coefficient lists of degree <= 40 and up to 200 bits, either sign
_int_lists = st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=41)
# dyadic components m / 2**e of modulus <= 1.4, so |z| < 2, or exactly zero
_dyadics = st.one_of(
    st.just(F(0)),
    st.integers(0, 80).flatmap(
        lambda e: st.integers(-(7 << e) // 5, (7 << e) // 5).map(lambda m: F(m, 2**e))),
)


def _exact_mpf(c: F):
    """A dyadic Fraction as an mpf; exact at any precision above its bit length."""
    return mpf(c.numerator) / c.denominator


class TestFloatEvaluator:
    @given(_int_lists, _int_lists.filter(any), _dyadics, _dyadics, st.sampled_from([53, 256]))
    @example([3, -5, 7], [1, 2], F(3, 4), F(-5, 8), 53)  # mixed signs
    @example([3, -5, 7], [1, 2], F(-3, 4), F(-5, 8), 53)  # both components negative
    @example([3, -5, 7], [1, 2], F(-2), F(0), 53)  # positive exponent: z = -2
    @example([3, -5, 7], [1, 2], F(0), F(2), 53)  # z = 2i
    @example([3, -5, 7], [1, 2], F(0), F(0), 53)
    @example([3, -5, 7], [1, 2], F(1, 2**80), F(-1), 53)  # exponents 80 apart
    @settings(max_examples=150, deadline=None)
    def test_within_the_fixed_point_bound(self, a, b, re, im, prec):
        # Neither evaluator needs the pair coprime, so the trusted store skips the gcd.
        # A(z) and B(z) are each within eps = sqrt(2)*sum_{j<d}|z|^j * 2^-W, so
        # A/B within eps(1 + |f|)/(|B| - eps); the caller's precision W then
        # rounds A, B and the quotient, at most 2^-W of |A/B| each.
        f = RationalFunction._from_coprime(a, b)
        a, b = f.pair
        work = _horner_bits(f, prec)
        try:
            fr, fi = eval_ratfun_complex(f, re, im)
        except PoleAtPoint:
            assume(False)
        br, bi = eval_ratfun_complex(RationalFunction._from_coprime(b, [1]), re, im)
        with workprec(work):
            got = _FloatEvaluator(f, work)(mpc(_exact_mpf(re), _exact_mpf(im)))
        with workprec(2 * work + 64):
            r = abs(mpc(_exact_mpf(re), _exact_mpf(im)))
            fz = mpc(mpmath.mpmathify(fr), mpmath.mpmathify(fi))
            babs = mpmath.sqrt(mpmath.mpmathify(br * br + bi * bi))
            eps = mpmath.sqrt(2) * sum(r**j for j in range(max(len(a), len(b)) - 1)) / 2**work
            assume(babs > 2 * eps)
            err = eps * (1 + abs(fz)) / (babs - eps)
            assert abs(got - fz) <= err + 4 * (abs(fz) + err) / mpf(2) ** work

    def test_v128_bench_points_within_tolerance(self):
        # at 288 fixed bits the float Horner this evaluator replaced missed 18
        # of these 150 points by up to 2^39 times the tolerance
        f = v_iterate(128)
        work = DEFAULT_PREC + GUARD_BITS
        ev = _FloatEvaluator(f, work)
        a, b = ([mpf(c) for c in ints] for ints in f.pair)
        tol = mpf(2) ** (16 - DEFAULT_PREC)
        new_worst = old_worst = 0
        for re, im in cli._random_disk_rationals(random.Random(1), 150):
            with workprec(work):
                z = mpc(_exact_mpf(re), _exact_mpf(im))
                new, old = ev(z), horner(a, z) / horner(b, z)
            with workprec(2 * work):
                exact = mpc(*map(mpmath.mpmathify, eval_ratfun_complex(f, re, im)))
                new_worst = max(new_worst, abs(new - exact))
                old_worst = max(old_worst, abs(old - exact))
        assert new_worst <= tol < old_worst

    @pytest.mark.parametrize("prec", [53, 256, 368])
    def test_bit_for_bit_with_the_mpc_quotient(self, prec):
        # the four Horner integers and their quotient round as two mpcs and
        # their division would, at the caller's precision, in and beyond the disk
        pts = cli._random_disk_rationals(random.Random(prec), 40)
        pts += [(F(-3), F(0)), (F(7, 2), F(-5, 4)), (F(0), F(9, 8)), (F(0), F(0))]
        for f in (v_iterate(5), v_iterate(64), iterate(Scheme.halley(3), 2)):
            for work in (prec, _horner_bits(f, prec)):
                ev = _FloatEvaluator(f, work)
                with workprec(prec):
                    for re, im in pts:
                        z = mpc(_exact_mpf(re), _exact_mpf(im))
                        x, y, s = _fixed_point(z)
                        ar, ai = _fixed_horner(ev.a, x, y, s, work)
                        br, bi = _fixed_horner(ev.b, x, y, s, work)
                        got, want = ev(z), mpc(ar, ai) / mpc(br, bi)
                        assert got._mpc_ == want._mpc_, (f, work, re, im)


def _gaussian_abs_sq(re, im):
    return re * re + im * im


class TestGridErrors:
    @given(_int_lists, _int_lists.filter(any), _dyadics, _dyadics, _dyadics, _dyadics,
           st.sampled_from([53, 256]))
    @example([3, -5, 7], [1, 2], F(1), F(0), F(0), F(0), 53)  # z = 1, w = 0
    @example([1, -1], [1], F(1), F(0), F(0), F(0), 256)  # f(1) = w = 0: E = 0
    @example([3, -5, 7], [1, 2], F(0), F(-1, 2), F(3, 4), F(0), 53)  # zero components
    @example([3, -5, 7], [1, 2], F(3, 4), F(-5, 8), F(1, 2**300), F(-3, 4), 256)  # 300 apart
    @example([3, -5, 7], [1, 2], F(-5, 8), F(1, 2**80), F(-7, 8), F(1, 2**200), 53)
    @settings(max_examples=150, deadline=None)
    def test_within_the_stated_bound(self, a, b, re, im, wr, wi, prec):
        # The root w = wr + wi*i is any dyadic point.  The result is |a/b - w|
        # for the Horner values a, b, rounded once: within 2^-(W - 1) of it.
        # Against the exact |f(z) - w| it adds the Horner error of
        # TestFloatEvaluator, eps(1 + |f|)/(|B| - eps).
        f = RationalFunction._from_coprime(a, b)
        a, b = f.pair
        work = _horner_bits(f, prec)
        try:
            fr, fi = eval_ratfun_complex(f, re, im)
        except PoleAtPoint:
            assume(False)
        br, bi = eval_ratfun_complex(RationalFunction._from_coprime(b, [1]), re, im)
        with workprec(work):
            z, w = mpc(_exact_mpf(re), _exact_mpf(im)), mpc(_exact_mpf(wr), _exact_mpf(wi))
        (x, y, s), fixed_w = _fixed_point(z), _fixed_point(w)
        har, hai = _fixed_horner(a, x, y, s, work)
        hbr, hbi = _fixed_horner(b, x, y, s, work)
        hb2 = _gaussian_abs_sq(hbr, hbi)
        with workprec(2 * work + 64):
            r = abs(z)
            babs = mpmath.sqrt(mpmath.mpmathify(_gaussian_abs_sq(br, bi)))
            eps = mpmath.sqrt(2) * sum(r**j for j in range(max(len(a), len(b)) - 1)) / 2**work
            assume(babs > 2 * eps and hb2 > 0)
            horner_err = eps * (1 + mpmath.sqrt(mpmath.mpmathify(_gaussian_abs_sq(fr, fi))))
            horner_err /= babs - eps
            exact = mpmath.sqrt(mpmath.mpmathify(_gaussian_abs_sq(fr - wr, fi - wi)))
            # a/b = (har + hai*i)/(hbr + hbi*i), both over 2^work, as exact Fractions
            qr, qi = F(har * hbr + hai * hbi, hb2), F(hai * hbr - har * hbi, hb2)
            tight = mpmath.sqrt(mpmath.mpmathify(_gaussian_abs_sq(qr - wr, qi - wi)))
        [got] = _grid_errors(f, SimpleNamespace(prec=prec,
                                                sources=[(z, w, None, (x, y, s), fixed_w, 1)]))
        assert mpmath.libmp.bitcount(int(got.man)) <= work
        with workprec(2 * work + 64):
            assert abs(got - tight) <= tight * 2 ** (1 - work)
            assert abs(got - exact) <= horner_err + (exact + horner_err) * 2 ** (1 - work)

    @pytest.mark.parametrize("radius, n_max", [(1.0, 33), (0.9, 17)])
    def test_suite_grids_print_as_the_mpc_path(self, radius, n_max):
        # the suite's grids print the same 17 digits as the mpc oracle, which
        # rounds five times at W bits
        grid = DiskGrid(radius, prec=PREC)
        for n in range(1, n_max + 1):
            f = v_iterate(n)
            work = _horner_bits(f, PREC)
            want = grid_errors(_FloatEvaluator(f, work), [(z, w) for z, w, *_ in grid.sources],
                               work)
            assert [mpmath.nstr(e, 17) for e in _grid_errors(f, grid)] == [
                mpmath.nstr(e, 17) for e in want], n


@pytest.mark.parametrize("n_max", [1, 2, 3, 1000, 10_000, 100_000])
def test_mu_bound_matches_the_mpf_recurrence(n_max):
    worst_val, worst = mu_bound_worst(n_max, PREC + GUARD_BITS)
    r = check_mu_bound(n_max, PREC)
    assert r.status == ("pass" if worst_val < 1 else "fail")
    assert r.worst_case == {"n": worst, "pi_n_mu_sq": mpmath.nstr(worst_val, 17)}


class TestFloatChecks:
    def test_ratio_identity(self):
        for n in (0, 2, 5, 31):
            assert check_ratio_identity(n, prec=PREC).status == "pass"

    def test_disk_bound_spot_arithmetic(self):
        # |value at 1 - 0| = 1/3 for the 2nd iterate vs 2/sqrt(2 pi)
        with workprec(64):
            assert mpf(1) / 3 < 2 / mpmath.sqrt(2 * mpmath.pi)
            # Newton k=2 iterate at 1 gives 1/4 vs (2/sqrt(pi))/sqrt(3)
            assert mpf(1) / 4 < 2 / mpmath.sqrt(mpmath.pi) / mpmath.sqrt(3)

    def test_disk_bound_passes(self):
        grid = DiskGrid(1.0, 8, 16, PREC)
        assert check_disk_bound(Scheme.v(), 2, grid).status == "pass"
        assert check_disk_bound(Scheme.v(), 17, grid).status == "pass"
        assert check_disk_bound(Scheme.newton(2), 3, grid).status == "pass"
        assert check_disk_bound(Scheme.halley(2), 2, grid).status == "pass"

    def test_disk_bound_holds_at_large_k(self):
        # v_n's pair coefficients reach about 1.25 n bits, so a float Horner
        # with a fixed guard cancelled away every bit here: a division by zero
        # at k = 512, excesses above 1 at k = 1024 and Newton k = 10.  The
        # pinned worst cases are the bytes of the mpc oracle oracles.grid_errors
        grid = DiskGrid(1.0, 8, 4, PREC)
        pinned = {"z": "(0.0 + 0.625j)", "excess": "1.6480142102576706e-87",
                  "slack": "5.6597994242666952e-73"}
        for scheme, k in ((Scheme.v(), 512), (Scheme.v(), 1024), (Scheme.newton(2), 10)):
            r = check_disk_bound(scheme, k, grid)
            assert r.status == "pass" and r.worst_case == pinned
        # the error at |z| = 1/8 is about 2^-387, so what remains is the
        # root's rounding at prec + GUARD_BITS, far under the 2^-(prec - 16) slack
        excess = mpf(check_disk_bound(Scheme.v(), 128, grid).worst_case["excess"])
        assert excess <= mpf(2) ** (8 - PREC - GUARD_BITS)

    def test_disk_bound_rejects_unproved_orders(self):
        grid = DiskGrid(1.0, 4, 8, PREC)
        with pytest.raises(BadRootOrder):
            check_disk_bound(Scheme.newton(3), 2, grid)

    def test_disk_bound_validates_before_building(self, monkeypatch):
        # newton(3) at k = 8 takes minutes to build; the rejection must not wait for it
        from chebsqrt import verify

        def no_build(*args, **kwargs):
            raise AssertionError("iterate called before validation")

        monkeypatch.setattr(verify, "iterate", no_build)
        grid = DiskGrid(1.0, 4, 8, PREC)
        with pytest.raises(BadRootOrder):
            check_disk_bound(Scheme.newton(3), 8, grid)
        for scheme in (Scheme.v(), Scheme.newton(2), Scheme.halley(2)):
            with pytest.raises(BadIndex):
                check_disk_bound(scheme, 0, grid)

    def test_uniform_compact(self):
        r = check_uniform_compact(16, 0.5, PREC)
        assert r.status == "pass"
        r9 = check_uniform_compact(16, 0.9, PREC)
        assert r9.status == "pass"

    def test_contraction_factor_and_decay(self):
        # on the 0.9 disk the contraction factor stays below 0.52, so the
        # sampled sup at 16 steps is >= 10x smaller than at 8 steps
        grid = DiskGrid(0.9, 8, 16, PREC)
        pts = grid.points()
        work = PREC + 64
        with workprec(work):
            ws = [mpmath.sqrt(1 - z) for z in pts]
            q = max(abs((1 - w) / (1 + w)) for w in ws)
            assert q < mpf("0.52")
            sup8 = max(
                abs(_FloatEvaluator(v_iterate(8), work)(z) - w)
                for z, w in zip(pts, ws)
            )
            sup16 = max(
                abs(_FloatEvaluator(v_iterate(16), work)(z) - w)
                for z, w in zip(pts, ws)
            )
            assert sup16 * 10 <= sup8

    def test_monotone_improvement(self):
        assert check_monotone_improvement(12, 0.9, PREC).status == "pass"

    def test_resummation(self):
        assert check_resummation(12, PREC).status == "pass"

    def test_coeff_formula(self):
        assert check_coeff_formula(12, PREC).status == "pass"

    def test_radius_pole(self):
        assert check_radius_pole(24, PREC).status == "pass"

    def test_tail_sum_adaptive(self):
        assert check_tail_sum(10, PREC).status == "pass"

    def test_tail_sum_worst_case_at_n_max_16(self):
        r = check_tail_sum(16, PREC)
        assert r.status == "pass" and r.samples == 15783
        assert r.worst_case == {
            "n": 10,
            "gap": "2.3023607520404257e-40",
            "tolerance": "5.4210108624275222e-20",
        }

    def test_tail_sum_partial_sums_are_running_sums(self):
        # the check reads its partial sums x_m / D_m off A/((1 - z)B); at every
        # n of the suite they must equal the running sums of the oracle series of v_n
        for n in range(2, 17):
            radius = radius_of_convergence(n, PREC)
            cutoff = n + int(math.ceil((PREC / 2) / math.log2(float(radius))))
            a, b = v_iterate(n).pair
            xs, Ds = _taylor_scaled(RationalFunction._from_coprime(a, mul(b, [1, -1])), cutoff)
            assert list(map(F, xs, Ds)) == list(accumulate(taylor(a, b, cutoff)))

    def test_tail_sum_overshoot_fires(self, monkeypatch):
        # a limit lowered by 2**-40 must be overshot by the partial sums at
        # n = 2; the report must match a plain Fraction running sum
        shift = F(1, 2**40)
        monkeypatch.setattr(verify, "tail_sum_identity", lambda n: tail_sum_identity(n) - shift)
        r = check_tail_sum(2, PREC)
        assert r.status == "fail"
        identity = tail_sum_identity(2) - shift
        radius = radius_of_convergence(2, PREC)
        cutoff = 2 + int(math.ceil((PREC / 2) / math.log2(float(radius))))
        cs = taylor_coefficients(v_iterate(2), cutoff)
        partial = F(0)
        for m in range(3, cutoff + 1):
            partial += -cs[m]
            if partial > identity:
                break
        assert partial > identity
        assert r.worst_case == {"n": 2, "m": m, "overshoot": str(partial - identity)}

    def test_tail_sum_reports_first_overshoot(self, monkeypatch):
        # with the lowered limit both n = 2 and n = 3 overshoot; the report
        # names the first, and the check stops there
        shift = F(1, 2**40)
        monkeypatch.setattr(verify, "tail_sum_identity", lambda n: tail_sum_identity(n) - shift)
        r = check_tail_sum(3, PREC)
        assert r.status == "fail"
        assert (r.worst_case["n"], r.worst_case["m"]) == (2, 20)
        assert r.worst_case == check_tail_sum(2, PREC).worst_case

    def test_tail_sum_cutoff_cap_refuses_before_any_build(self, monkeypatch):
        # the cutoff at n_max = 16 is 10349 at 1024 bits, past the cap; 8089 at
        # 800 bits is admitted, so the check goes on to build its first iterate
        monkeypatch.setattr(verify, "v_iterate", _no_build)
        with pytest.raises(CapExceeded, match="10349"):
            check_tail_sum(16, 1024)
        with pytest.raises(AssertionError, match="was built"):
            check_tail_sum(16, 800)


class TestGuoExplorer:
    def test_square_case_reports(self):
        rep = guo_explore(2, "newton", 2, 16)
        assert rep.head_agreement_length >= 4
        assert rep.first_sign_violation is None
        rep = guo_explore(2, "halley", 1, 16)
        assert rep.head_agreement_length >= 3
        assert rep.first_sign_violation is None

    def test_polynomial_iterate_flagged(self):
        # the first Newton step for the cube root is 1 - z/3 exactly
        rep = guo_explore(3, "newton", 1, 8)
        assert rep.is_polynomial
        assert rep.head_agreement_length >= 2
        assert rep.first_sign_violation is None
        assert rep.coeffs_checked == 1
        assert "polynomial" in rep.note

    def test_open_case_is_report_only(self):
        rep = guo_explore(3, "newton", 3, 64)
        assert rep.head_agreement_length >= 8
        assert rep.coeffs_checked == 64
        counts = rep.sign_counts
        assert counts["negative"] + counts["zero"] + counts["positive"] == 64

    def test_validation(self):
        with pytest.raises(BadRootOrder):
            guo_explore(1, "newton", 1, 8)
        with pytest.raises(BadIndex):
            guo_explore(2, "bogus", 1, 8)
        with pytest.raises(BadIndex):
            guo_explore(2, "newton", 0, 8)
        with pytest.raises(CapExceeded):
            guo_explore(2, "newton", 1, verify.MAX_COEFF_INDEX + 1)

    def test_json_round_trip(self):
        doc = guo_explore(2, "halley", 2, 32).to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["p"] == 2 and doc["scheme"] == "halley"

    def test_square_case_never_violates(self):
        assert check_guo_p2(M=128).status == "pass"

    def test_square_case_first_step_is_clean_too(self):
        # the k=1 Newton iterate is the degree-1 polynomial, so the capped
        # scan sees only its genuinely negative slope coefficient
        rep = guo_explore(2, "newton", 1, 256)
        assert rep.is_polynomial and rep.first_sign_violation is None

    def test_head_lengths(self):
        assert check_head_lengths(M=128).status == "pass"

    def test_a_zero_coefficient_is_counted_as_zero_and_violates(self, monkeypatch):
        # no iterate checked has a zero coefficient, so one is planted: c_9 of
        # Halley k = 2 (past its head of 9), and c_3 with it, inside the head
        real = verify._taylor_scaled

        def zeroed(f, M):
            xs, Ds = real(f, M)
            return [0 if m in (3, 9) else x for m, x in enumerate(xs)], Ds

        monkeypatch.setattr(verify, "_taylor_scaled", zeroed)
        rep = guo_explore(2, "halley", 2, 16)
        assert (rep.head_agreement_length, rep.first_sign_violation) == (3, 3)
        assert rep.sign_counts == {"negative": 14, "zero": 2, "positive": 0}

    @pytest.mark.parametrize("M", [1, 8, 64, 300])
    @pytest.mark.parametrize("kind", ["newton", "halley"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_every_field_matches_the_fraction_oracle(self, p, kind, M):
        # the integer scan reads signs from the scaled numerators and the head
        # by cross products; the oracle compares every coefficient as a Fraction.
        # Newton k = 1 is the polynomial 1 - z/p, scanned to its degree only
        for k in (1, 2, 3):
            f = iterate(Scheme(kind, p), k)
            assert f.is_polynomial == (kind == "newton" and k == 1)
            assert guo_explore(p, kind, k, M).to_json_dict() == guo_report(p, kind, k, M, *f.pair)


def _leading_agreement(cs, ref):
    """The count of leading cs[m] == ref[m], compared as Fractions."""
    return next((m for m, (c, r) in enumerate(zip(cs, ref)) if c != r), len(cs))


class TestHeadScan:
    """``_head_length``, the one head scan of head, head-lengths and explore-guo."""

    @pytest.mark.parametrize("kind", ["newton", "halley"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_newton_and_halley_heads_match_the_fraction_compare(self, p, kind):
        # at M = head_length(k) - 1 every term agrees and the scan returns len(xs)
        for k in (1, 2, 3):
            f = iterate(Scheme(kind, p), k)
            for M in (Scheme(kind, p).head_length(k) - 1, 40):
                expected = _leading_agreement(taylor_coefficients(f, M), root_series_coeffs(p, M))
                assert _head_length(*_taylor_scaled(f, M), p) == expected, (k, M)
            assert _head_length(*_taylor_scaled(f, 40), p) == Scheme(kind, p).head_length(k)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_v_heads_match_the_fraction_compare(self, n):
        f = v_iterate(n)
        for M in (n, n + 8):
            expected = _leading_agreement(taylor_coefficients(f, M), root_series_coeffs(2, M))
            assert _head_length(*_taylor_scaled(f, M), 2) == expected == n + 1

    def test_a_scan_that_differs_at_once_or_never(self):
        assert _head_length([2], [1], 2) == 0
        assert _head_length([1, -1], [1, 2], 2) == 2  # 1 - z/2, the head of sqrt(1 - z)

    def test_head_lengths_reads_each_iterate_only_to_its_head(self, monkeypatch):
        # Newton k = 1..4 and Halley k = 1..3 need c_0..c_(head_length(k) - 1), capped at M
        sizes = []
        real = verify._taylor_scaled

        def sized(f, M):
            sizes.append(M)
            return real(f, M)

        monkeypatch.setattr(verify, "_taylor_scaled", sized)
        assert check_head_lengths(300).status == "pass"
        assert sizes == [1, 3, 7, 15, 2, 8, 26]
        sizes.clear()
        assert check_head_lengths(5).status == "pass"
        assert sizes == [1, 3, 5, 5, 2, 5, 5]


class TestSuiteRunner:
    def test_default_suite_green_and_deterministic(self):
        first = default_suite(n_max=4, prec=PREC)
        assert all(r.status in ("pass", "skip") for r in first)
        again = default_suite(n_max=4, prec=PREC)
        blob1 = "\n".join(json.dumps(r.to_json_dict()) for r in first)
        blob2 = "\n".join(json.dumps(r.to_json_dict()) for r in again)
        assert blob1 == blob2

    def test_table_calls_each_check_by_its_module_name(self, monkeypatch):
        # a timer that rebinds every verify.check_* attribute, as perfbench's
        # verify-all gate does, must see one call per row: the table looks
        # each check up by name, and no check calls another
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for attr in [a for a in vars(verify) if a.startswith("check_")]:
            name = attr[len("check_"):].replace("_", "-")
            monkeypatch.setattr(verify, attr, counting(name, getattr(verify, attr)))
        rows = default_suite(n_max=4, prec=PREC)
        assert calls == [r.name for r in rows]

    def test_perfbench_timer_times_one_call_per_row(self, monkeypatch):
        # the verify-all workload counts its operations with spans.time_checks:
        # one timed call per result row, in order, or the benchmark's count gate fails
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
        spec.loader.exec_module(spans)
        timed = []
        undo = spans.time_checks(lambda name, seconds: timed.append(name))
        try:
            rows = default_suite(n_max=4, prec=PREC)
        finally:
            undo()
        assert timed == [r.name.replace("-", "_") for r in rows]

    def test_worst_keeps_the_first_of_equal_errors(self):
        assert _worst([(1, "a"), (3, "b"), (2, "c"), (3, "d")]) == (3, "b")
        assert _worst(iter([(mpf(0), 1), (mpf(0), 2)])) == (0, 1)

    def test_verify_all_sweeps_each_pair_once_per_grid(self, monkeypatch):
        # the compact rows share their grid's errors of v_1..v_17 (alone they make
        # 16 + 17), and five of the six Newton/Halley disk-bound rows read those of
        # the equal v iterate (16 sweeps for 21 rows): 33 in all, 54 unshared.
        # Each sweep runs A and B on the 72 sources of its 8x16 grid, not on
        # all 128 points: 33 * 72 * 2 Horner calls.  The roots are the two grids'
        # 2 * 72, sqrt-consistency's 128 and ratio-identity's 16 * 5
        calls = []
        real = verify._grid_errors

        def counting(f, grid):
            calls.append((f.pair, grid.radius))
            return real(f, grid)

        def tally(name):
            inner, count = getattr(verify, name), [0]

            def counted(*args):
                count[0] += 1
                return inner(*args)

            monkeypatch.setattr(verify, name, counted)
            return count

        monkeypatch.setattr(verify, "_grid_errors", counting)
        horners, roots = tally("_fixed_horner"), tally("sqrt_principal")
        rows = default_suite(16, PREC)
        assert all(r.status in ("pass", "skip") for r in rows)
        assert [radius for _, radius in calls].count(0.9) == 17
        assert [radius for _, radius in calls].count(1.0) == 16
        assert len(set(calls)) == len(calls) == 33
        assert horners == [33 * 72 * 2] and roots == [2 * 72 + 128 + 16 * 5]

    def test_verify_all_taylor_work_is_pinned(self, monkeypatch):
        # every Taylor coefficient the suite reads goes through the kernel:
        # 74 calls for 19 225 terms, so added Taylor work shows here
        calls = []
        real = verify._taylor_scaled

        def counting(f, M):
            calls.append(M + 1)
            return real(f, M)

        monkeypatch.setattr(verify, "_taylor_scaled", counting)
        rows = default_suite(16, PREC)
        assert all(r.status in ("pass", "skip") for r in rows)
        assert (len(calls), sum(calls)) == (74, 19225)

    @pytest.mark.parametrize("order", [(check_uniform_compact, check_monotone_improvement),
                                       (check_monotone_improvement, check_uniform_compact)])
    def test_compact_rows_alone_equal_their_suite_rows(self, order):
        suite = {r.name: r.to_json_dict() for r in default_suite(4, PREC)}
        for check in order:
            r = check(4, 0.9, PREC)
            assert r.to_json_dict() == suite[r.name]

    @pytest.mark.parametrize("order", [(check_uniform_compact, check_monotone_improvement),
                                       (check_monotone_improvement, check_uniform_compact)])
    def test_compact_rows_on_one_grid_sweep_each_iterate_once(self, monkeypatch, order):
        # uniform-compact reads v_1..v_4 and monotone-improvement v_1..v_5: five
        # sweeps in either order, and each row keeps its suite bytes
        suite = {r.name: r.to_json_dict() for r in default_suite(4, PREC)}
        calls, real = [], verify._grid_errors
        monkeypatch.setattr(verify, "_grid_errors", lambda f, grid: calls.append(f) or real(f, grid))
        grid = DiskGrid(0.9, prec=PREC)
        for check in order:
            r = check(4, grid)
            assert r.to_json_dict() == suite[r.name]
        assert calls == [v_iterate(n) for n in range(1, 6)]

    def test_an_equal_iterate_reads_an_earlier_rows_errors(self, monkeypatch):
        # Newton k = 2 is v_3: after the v_3 row its row sweeps nothing
        grid = DiskGrid(prec=PREC)
        check_disk_bound(Scheme.v(), 3, grid)

        def no_sweep(f, grid):
            raise AssertionError("the grid swept an iterate it holds")

        monkeypatch.setattr(verify, "_grid_errors", no_sweep)
        assert check_disk_bound(Scheme.newton(2), 2, grid).status == "pass"

    def test_grid_errors_are_the_iterates_own(self):
        # v_3 and v_4 have degree 2, v_1 and v_2 degree 1: a memo keyed by
        # anything coarser than the iterate hands one the other's errors
        grid = DiskGrid(0.9, prec=PREC)
        for n in (3, 4, 1, 2, 3):
            f = v_iterate(n)
            assert grid.errors(f) == _grid_errors(f, grid)
        assert grid.errors(iterate(Scheme.newton(2), 2)) is grid.errors(v_iterate(3))

    def test_a_clean_compact_row_after_a_planted_one_passes(self, monkeypatch):
        # no sweep outlives its row: the planted step backwards fails, and the
        # clean rows right after it pass with the suite's bytes
        suite = {r.name: r.to_json_dict() for r in default_suite(4, PREC)}
        real = verify.v_iterate
        with monkeypatch.context() as planted:
            planted.setattr(verify, "v_iterate", lambda n: real(1) if n == 3 else real(n))
            assert check_uniform_compact(4, 0.9, PREC).status == "fail"
            assert check_monotone_improvement(4, 0.9, PREC).status == "fail"
        assert check_uniform_compact(4, 0.9, PREC).to_json_dict() == suite["uniform-compact"]
        assert check_monotone_improvement(4, 0.9, PREC).to_json_dict() == (
            suite["monotone-improvement"])

    def test_the_compact_grid_is_freed_before_the_rows_after_it(self, monkeypatch):
        # the shared grid, its samples and its error vectors go with the
        # monotone row, so they add nothing to the memory of the later rows
        grids, alive = [], []

        class Recorded(DiskGrid):
            def __post_init__(self):
                super().__post_init__()
                grids.append(weakref.ref(self))

        real = verify.check_resummation

        def probe(*args):
            alive.extend(g().radius for g in grids if g() is not None)
            return real(*args)

        monkeypatch.setattr(verify, "DiskGrid", Recorded)
        monkeypatch.setattr(verify, "check_resummation", probe)
        default_suite(4, PREC)
        assert len(grids) == 3 and alive == []  # sqrt-consistency's, disk-bound's, the compact one

    def test_disk_bound_shares_only_an_exact_pair_and_power(self, monkeypatch):
        # v_4 planted for Newton k = 2: it reads the v_4 row's errors, but its
        # power is 4, v_3's, so it reports its own worst case, while the v_3 and
        # v_4 rows keep their bytes
        def by_row(rows):
            return {(r.params["scheme"], r.params["k"]): r.to_json_dict() for r in rows}

        clean = by_row(verify._disk_bound_rows(16, PREC))
        real = verify.iterate
        newton = Scheme.newton(2)
        monkeypatch.setattr(verify, "iterate", lambda scheme, k: (
            real(Scheme.v(), 4) if (scheme, k) == (newton, 2) else real(scheme, k)))
        alone = check_disk_bound(newton, 2, DiskGrid(prec=PREC)).to_json_dict()
        planted = by_row(verify._disk_bound_rows(16, PREC))
        assert planted[str(newton), 2] == alone != clean[str(newton), 2]
        assert planted == {**clean, (str(newton), 2): alone}

    def test_results_carry_sample_counts(self):
        for r in default_suite(n_max=3, prec=PREC):
            assert r.samples >= 0
            assert r.name


def test_computations_read_only_the_pair(monkeypatch, capsys):
    # num and den are monic views for printing and the public API; every
    # construction, check, evaluator and bench strategy reads f.pair
    def view(self):
        raise AssertionError("a computation read a monic view")

    monkeypatch.setattr(RationalFunction, "num", property(view))
    monkeypatch.setattr(RationalFunction, "den", property(view))
    assert all(r.status in ("pass", "skip") for r in default_suite(4, PREC))
    for scheme in (Scheme.v(), Scheme.newton(2), Scheme.newton(3), Scheme.halley(2),
                   Scheme.halley(3)):
        iterate(scheme, 3)
    # D = A + B = z^2 shares the factor z with N = z^2 - z: the v step's lemma divides it out
    assert v_step(RationalFunction(Polynomial([-1, 0, 1]))).pair == ((-1, 1), (0, 1))
    f = v_iterate(9)
    taylor_coefficients(f, 40)
    eval_ratfun_complex(f, F(1, 3), F(-2, 5))
    with workprec(PREC):
        _FloatEvaluator(f, PREC)(mpc("0.25", "0.5"))
    assert cli.main(["bench", "--n", "8", "--points", "5"]) == 0


class TestFailureBranches:
    """Each row below is made to fail by one planted defect on verify's names."""

    @staticmethod
    def plant_on_v3(monkeypatch, planted):
        # v_3 planted worse than v_2 at the source indices of planted, on the unit grid
        def errors(n, grid):
            return [planted.get(i, mpf(0)) if n == 3 else mpf(0) for i in range(len(grid.sources))]

        monkeypatch.setattr(verify, "v_iterate", lambda n: n)
        monkeypatch.setattr(verify, "_grid_errors", errors)
        return check_monotone_improvement(4, 1.0, PREC)

    @staticmethod
    def source_index(grid, i):
        # the index in grid.sources of the i-th point, which must be a source
        z = grid.points()[i]
        return next(j for j, (source, *_) in enumerate(grid.sources) if source._mpc_ == z._mpc_)

    def test_monotone_improvement_fails_inside_and_warns_on_the_circle(self, monkeypatch):
        # v_3 planted worse than v_2 at z = 1/8 and at z = 1: the inside point
        # fails the check, reported at n = 2; the one on |z| = 1 only warns
        grid = DiskGrid(1.0, prec=PREC)
        one = self.source_index(grid, (grid.radial - 1) * grid.angular)
        planted = {0: mpf(2) ** -20, one: mpf(1)}
        assert [grid.sources[i][0] for i in planted] == [mpf(1) / 8, 1]
        assert [grid.sources[i][-1] for i in planted] == [1, 1]
        r = self.plant_on_v3(monkeypatch, planted)
        assert r.status == "fail" and r.samples == 4 * 128
        assert r.worst_case == {"n": 2, "z": "(0.125 + 0.0j)",
                                "increase": "9.5367431640625e-7"}
        assert r.note == "1 boundary warnings (|z| = 1 is not asserted)"

    def test_monotone_improvement_warns_twice_for_a_conjugate_pair_on_the_circle(self, monkeypatch):
        # angles 1 and 15 of 16 on the outer ring: one source of weight 2, two warnings
        grid = DiskGrid(1.0, prec=PREC)
        pair = [(grid.radial - 1) * grid.angular + j for j in (1, grid.angular - 1)]
        (re, im), conj = (grid.points()[i]._mpc_ for i in pair)
        assert im != mpmath.libmp.fzero and conj == (re, mpmath.libmp.mpf_neg(im))
        source = self.source_index(grid, pair[0])
        assert grid.sources[source][-1] == 2
        r = self.plant_on_v3(monkeypatch, {source: mpf(1)})
        assert r.status == "pass" and r.worst_case is None
        assert r.note == "2 boundary warnings (|z| = 1 is not asserted)"

    def test_monotone_improvement_reports_the_first_of_a_conjugate_pair(self, monkeypatch):
        # angles 3 and 13 of 16 on the ring |z| = 1/2: one source of weight 2, the earlier z
        grid = DiskGrid(1.0, prec=PREC)
        first, second = (3 * grid.angular + j for j in (3, grid.angular - 3))
        z = grid.points()[first]
        re, im = z._mpc_
        assert z.imag > 0 and grid.points()[second]._mpc_ == (re, mpmath.libmp.mpf_neg(im))
        source = self.source_index(grid, first)
        assert grid.sources[source][-1] == 2
        r = self.plant_on_v3(monkeypatch, {source: mpf(2) ** -20})
        assert r.status == "fail" and r.note == ""
        assert r.worst_case == {"n": 2, "z": mpmath.nstr(z, 17), "increase": "9.5367431640625e-7"}
        assert r.worst_case["z"] == "(0.19134171618254489 + 0.46193976625564338j)"

    def test_coeff_formula_reports_a_sign_violation(self, monkeypatch):
        # c_3 of v_2 turned positive in both the exact and the closed form: the
        # two agree, so the errors and their worst case stay as they were
        clean = check_coeff_formula(4, PREC)
        taylor, closed = verify._taylor_scaled, verify.coeff_closed_range

        def flipped_taylor(f, M):
            xs, Ds = taylor(f, M)
            return ([-x if (M, m) == (8, 3) else x for m, x in enumerate(xs)], Ds)

        def flipped_closed(n, M, prec):
            return [-c if (n, m) == (2, 3) else c for m, c in enumerate(closed(n, M, prec), 1)]

        monkeypatch.setattr(verify, "_taylor_scaled", flipped_taylor)
        monkeypatch.setattr(verify, "coeff_closed_range", flipped_closed)
        r = check_coeff_formula(4, PREC)
        assert clean.status == "pass" and r.status == "fail"
        assert r.worst_case == {**clean.worst_case, "sign_violation": "(2, 3)"}

    @staticmethod
    def move_poles_inside(monkeypatch, ns):
        # the largest pole parameter of each v_n, n in ns, raised by
        # 2**-(prec - 18) of itself puts its pole inside the radius by more
        # than the slack 2**-(prec - 16)
        real = verify.decompose

        def moved(n, prec):
            pf = real(n, prec)
            if n not in ns:
                return pf
            with workprec(prec + GUARD_BITS):
                rhos = [rho * (1 + mpf(2) ** (18 - prec)) if rho == max(pf.pole_params) else rho
                        for rho in pf.pole_params]
            return dataclasses.replace(pf, pole_params=tuple(rhos))

        monkeypatch.setattr(verify, "decompose", moved)

    def test_radius_pole_reports_a_pole_inside_the_radius(self, monkeypatch):
        clean = check_radius_pole(4, PREC)
        self.move_poles_inside(monkeypatch, (3,))
        r = check_radius_pole(4, PREC)
        assert clean.status == "pass" and r.status == "fail"
        assert r.worst_case == {**clean.worst_case, "pole_violation_at": 3}

    def test_radius_pole_reports_the_first_pole_inside_the_radius(self, monkeypatch):
        clean = check_radius_pole(6, PREC)
        self.move_poles_inside(monkeypatch, (3, 5))
        r = check_radius_pole(6, PREC)
        assert clean.status == "pass" and r.status == "fail"
        assert r.worst_case == {**clean.worst_case, "pole_violation_at": 3}

    def test_resummation_fails_on_one_weight_off(self, monkeypatch):
        # v_5's second weight raised by 2**-(prec - 24) moves its partial
        # fractions by more than the tolerance 2**-(prec - 16) at the larger
        # points, and the worst case names n = 5
        clean = check_resummation(6, PREC)
        real = verify.decompose

        def planted(n, prec):
            pf = real(n, prec)
            if n != 5:
                return pf
            with workprec(prec + GUARD_BITS):
                weights = (pf.weights[0], pf.weights[1] + mpf(2) ** (24 - prec))
            return dataclasses.replace(pf, weights=weights)

        monkeypatch.setattr(verify, "decompose", planted)
        r = check_resummation(6, PREC)
        assert clean.status == "pass" and r.status == "fail"
        assert r.worst_case["n"] == 5 and r.samples == clean.samples
        assert mpf(r.worst_case["error"]) > mpf(r.worst_case["tolerance"])

    def test_guo_rows_catch_one_flipped_sign(self, monkeypatch):
        # c_5 of the Newton k = 3 iterate turned positive: guo-p2 reports it as
        # the first sign violation, head-lengths as a head of 5 short of 2**3
        target = iterate(Scheme.newton(2), 3)
        real = verify._taylor_scaled

        def flipped(f, M):
            xs, Ds = real(f, M)
            return [-x if f == target and m == 5 else x for m, x in enumerate(xs)], Ds

        monkeypatch.setattr(verify, "_taylor_scaled", flipped)
        guo, heads = check_guo_p2(64), check_head_lengths(64)
        assert guo.status == "fail" and guo.worst_case == {"scheme": "newton", "k": 3, "m": 5}
        assert heads.status == "fail"
        assert heads.worst_case == {"scheme": "newton", "k": 3, "head": 5, "required": 8}

    # The rows below had no failing test: each plants the smallest defect the
    # row exists to catch and pins the report it gives.

    @staticmethod
    def plus(f, term):
        """f + term as a rational function: (A + term*B) / B for f = A/B."""
        a, b = f.pair
        return RationalFunction(Polynomial(add(a, mul(term, b))), Polynomial(b))

    def test_head_catches_an_iterate_one_step_short(self, monkeypatch):
        # v_2 in place of v_3 agrees with the sqrt series up to z**2 only
        real = verify.v_iterate
        monkeypatch.setattr(verify, "v_iterate", lambda n: real(n - 1))
        r = check_head(3)
        assert r.status == "fail" and r.samples == 4
        assert r.worst_case == {"m": 3, "value": "-1/32"}

    def test_tail_signs_catches_one_zero_coefficient(self, monkeypatch):
        # the tail must be strictly negative: c_20 of v_4 set to 0 fails it
        real = verify._taylor_scaled

        def zeroed(f, M):
            xs, Ds = real(f, M)
            return [0 if m == 20 else x for m, x in enumerate(xs)], Ds

        monkeypatch.setattr(verify, "_taylor_scaled", zeroed)
        r = check_tail_signs(4, 32)
        assert r.status == "fail" and r.samples == 28
        assert r.worst_case == {"m": 20, "value": "0"}

    def test_value_at_one_catches_a_term_of_2_to_the_minus_40(self, monkeypatch):
        # v_3 + z**9 / 2**40 keeps its head and misses 1/4 at z = 1
        real = verify.v_iterate
        monkeypatch.setattr(verify, "v_iterate", lambda n: (
            self.plus(real(n), [0] * 9 + [F(1, 2**40)]) if n == 3 else real(n)))
        r = check_value_at_one(6)
        assert r.status == "fail" and r.samples == 7
        assert r.worst_case == {"n": 3}

    def test_ratio_identity_catches_a_linear_term_just_over_the_tolerance(self, monkeypatch):
        # v_4 + z / 2**(prec - 20) moves the ratio by about 2**(20 - prec) / (2w),
        # most where w is least, at x = 9/10
        real = verify.v_iterate
        monkeypatch.setattr(verify, "v_iterate",
                            lambda n: self.plus(real(n), [0, F(1, 2 ** (PREC - 20))]))
        r = check_ratio_identity(4, PREC)
        assert r.status == "fail" and r.samples == 5
        assert r.worst_case == {"x": "9/10", "error": "1.1929767829311023e-71",
                                "tolerance": "5.6597994242666952e-73"}

    def test_disk_bound_catches_a_newton_iterate_one_step_short(self, monkeypatch):
        # Newton k = 2 (v_3) in place of k = 3 (v_7) breaks the |z|**8 bound
        real = verify.iterate
        monkeypatch.setattr(verify, "iterate", lambda scheme, k: real(scheme, k - 1))
        r = check_disk_bound(Scheme.newton(2), 3, DiskGrid(prec=PREC))
        assert r.status == "fail" and r.samples == 128
        assert r.worst_case == {"z": "(0.375 + 0.0j)", "excess": "0.00012918488365057188",
                                "slack": "5.6597994242666952e-73"}

    def test_uniform_compact_catches_a_step_backwards(self, monkeypatch):
        # v_1 in place of v_3: the sampled sup rises from v_2's, reported at
        # the earlier index, 2; the geometric bound still holds there
        real = verify.v_iterate
        monkeypatch.setattr(verify, "v_iterate", lambda n: real(1) if n == 3 else real(n))
        r = check_uniform_compact(4, 0.9, PREC)
        assert r.status == "fail" and r.samples == 512
        assert r.worst_case == {"q": "0.51949385329591574", "sup_first": "0.23377223398316209",
                                "sup_last": "0.024870403700300177",
                                "geometric_violation_at": None, "monotonicity_violation_at": 2}

    def test_uniform_compact_catches_a_stalled_chain(self, monkeypatch):
        # v_2 returned for every n >= 2: the sup never rises, but from n = 5
        # it lies above the geometric bound C q**(n+1)
        real = verify.v_iterate
        monkeypatch.setattr(verify, "v_iterate", lambda n: real(min(n, 2)))
        r = check_uniform_compact(6, 0.9, PREC)
        assert r.status == "fail" and r.samples == 768
        assert r.worst_case == {"q": "0.51949385329591574", "sup_first": "0.23377223398316209",
                                "sup_last": "0.1031270726928395",
                                "geometric_violation_at": 5, "monotonicity_violation_at": None}

    def test_sqrt_consistency_catches_a_root_off_by_2_to_the_10_units(self, monkeypatch):
        # the root at z = 1/2 raised by 2**(10 - prec) squares back with a
        # residual of about 2**(11 - prec) |w|, over the tolerance 2**(8 - prec)
        real = verify.sqrt_principal

        def off(z, prec):
            w = real(z, prec)
            with workprec(prec + GUARD_BITS):
                return w + mpf(2) ** (10 - prec) if z == mpf(1) / 2 else w

        monkeypatch.setattr(verify, "sqrt_principal", off)
        r = check_sqrt_consistency(DiskGrid(prec=PREC))
        assert r.status == "fail" and r.samples == 128
        assert r.worst_case == {"z": "(0.5 + 0.0j)", "residual": "1.2502930487731054e-74",
                                "tolerance": "2.2108591501041778e-75"}

    def test_sqrt_consistency_catches_the_other_branch(self, monkeypatch):
        # -w at z = -1 squares back exactly, so only the sign test fails it:
        # the worst residual reported is the clean one, and z = -1 is named
        clean = check_sqrt_consistency(DiskGrid(prec=PREC))
        real = verify.sqrt_principal
        monkeypatch.setattr(verify, "sqrt_principal",
                            lambda z, prec: -real(z, prec) if z == -1 else real(z, prec))
        r = check_sqrt_consistency(DiskGrid(prec=PREC))
        assert clean.status == "pass" and r.status == "fail"
        assert clean.worst_case == {
            "z": "(-0.69290964938346507 + 0.28701257427381733j)",
            "residual": "2.2525045534501052e-77", "tolerance": "2.2108591501041778e-75"}
        assert r.worst_case == {**clean.worst_case, "wrong_branch_z": "(-1.0 + 0.0j)"}

    def test_mu_bound_catches_pi_taken_as_22_over_7(self, monkeypatch):
        # 22/7 exceeds pi by 4.0e-4 of itself, while pi n mu_n**2 stays below
        # 1 by about 1/(4n): from n = 622 on the product passes 1
        monkeypatch.setattr(verify, "mpmath", SimpleNamespace(
            ldexp=mpmath.ldexp, pi=mpf(22) / 7, nstr=mpmath.nstr))
        r = check_mu_bound(10_000, PREC)
        assert r.status == "fail" and r.samples == 10_000
        assert r.worst_case == {"n": 10_000, "pi_n_mu_sq": "1.0003774896849184"}

    def test_coeff_formula_catches_one_coefficient_off(self, monkeypatch):
        # c_5 of v_3's closed form moved by 2**(18 - prec), four times the tolerance
        real = verify.coeff_closed_range

        def shifted(n, M, prec):
            with workprec(prec):
                return [c + mpf(2) ** (18 - prec) if (n, m) == (3, 5) else c
                        for m, c in enumerate(real(n, M, prec), start=1)]

        monkeypatch.setattr(verify, "coeff_closed_range", shifted)
        r = check_coeff_formula(4, PREC)
        assert r.status == "fail" and r.samples == 36
        assert r.worst_case == {"n": 3, "m": 5, "error": "2.2639197697066781e-72",
                                "tolerance": "5.6597994242666952e-73", "sign_violation": None}

    def test_radius_pole_catches_a_radius_off_by_2_to_the_60_units(self, monkeypatch):
        # v_3's radius lowered by 2**(60 - prec) of itself: the denominator
        # there is far above the tolerance 2**(56 - prec), and no pole moves inside
        real = verify.radius_of_convergence

        def low(n, prec):
            r = real(n, prec)
            with workprec(prec + GUARD_BITS):
                return r * (1 - mpf(2) ** (60 - prec)) if n == 3 else r

        monkeypatch.setattr(verify, "radius_of_convergence", low)
        r = check_radius_pole(4, PREC)
        assert r.status == "fail" and r.samples == 3
        assert r.worst_case == {"n": 3, "den_at_radius": "1.9913648889155653e-59",
                                "tolerance": "6.2230152778611417e-61", "pole_violation_at": None}
