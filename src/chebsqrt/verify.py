"""Executable checks for every identity, sign pattern and error bound.

Each check returns a CheckResult; a result is a pass only when every sample
satisfied its bound or identity.  Exact statements (head coefficients, value
at 1, tail signs, composition identities) are checked in exact arithmetic
with zero tolerance; float statements carry tolerances expressed relative to
the working precision (slack 2**-(prec - 16)) so the suite stays meaningful
when the precision is raised.  Every float step runs at prec + GUARD_BITS,
with the roots of 1 - z from ``sqrt_principal``.  An iterate's integer pair
(A, B) is evaluated at a float point by Horner on Gaussian integers in fixed
point (``_fixed_horner``): the point is read exactly (``_fixed_point``),
each step floors once to W fractional bits, W = prec + GUARD_BITS plus the
pair's largest coefficient bit length (``_horner_bits``).  The grid checks
stay on integers after that: |A(z)/B(z) - w| against the grid's dyadic root
w is formed exactly from the Horner values and rounds once, to an mpf at W
bits (``_grid_errors``).  ``_FloatEvaluator`` returns A(z)/B(z) itself: the
four integer parts of A(z) and B(z) round once each and the quotient once,
at the caller's precision, on mpmath's raw tuples.  ``resummation`` holds
``closedform.PartialFractionForm.eval``, which stays on integers up to one
rounding per part of its value, to the exact values.
The mu-bound scan runs on fixed-point integers with prec + GUARD_BITS
fractional bits, and rounds only its worst value.  An exact value p/q
becomes a float through one rounder, ``_to_mpf``, fed the integers of the
exact kernels; ``_fixed_point`` is the one reader back.

Checks are pure; the suite runner executes them in a fixed order and the
JSON-lines output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mpc, mpf, workprec
from mpmath.libmp import from_int, from_rational, fzero, mpc_div

from .chebyshev import DEFAULT_PREC, GUARD_BITS
from .closedform import (
    coeff_closed_range,
    decompose,
    radius_of_convergence,
    tail_sum_identity,
)
from .errors import BadIndex, BadRootOrder, CapExceeded, OnBranchCut
from .exact import (
    ONE_RF,
    RationalFunction,
    _gaussian_horner,
    _gaussian_point,
    _ratfun_gaussian,
    _taylor_scaled,
    _times_one_minus_z,
    root_series_coeffs,
    sqrt_series_coeff,
    taylor_coefficients,
)
from .iterates import Scheme, capped_degree, iterate, v_iterate, v_step

SLACK_BITS = 16

# Largest series index of a coefficient scan, n_max of the mu-bound scan (the
# suite's is 10 000) and sample count of a DiskGrid (its default 8 x 16 is the suite's).
# The mu-bound scan at its cap takes about 0.07 s on a shared 2-vCPU host.
MAX_COEFF_INDEX = 4096
MAX_MU_N = 100_000
MAX_GRID_POINTS = 1024

# Largest cutoff of tail-sum's exact partial sums.  The cutoff grows linearly
# with the precision.  This was the power of two nearest a 5 s run under the
# Fraction recurrence (7-8 s at 800 bits); on the integer kernel, on a shared
# 2-vCPU host, --n-max 16 takes 0.9-1.1 s at 800 bits (cutoff 8089) and
# 1.0-1.1 s at 1024 bits (cutoff 10349, timed past the cap).
MAX_TAIL_CUTOFF = 8192

# Largest n_max of each v-range check, and largest n (or n_max) of the per-n
# rows.  A range builds and checks every v_n up to n_max, and its work grows
# as n_max**2 to n_max**3, so the degree cap alone would admit runs of days.
# Each maximum is the largest power of two whose run stays within about 5 s
# at the default 256 bits (tail-sum's cutoff, which grows with prec, has MAX_TAIL_CUTOFF).
# ratio-identity runs at most 32 rows, so it keeps the degree cap (v_4096).
# The suite passes its n_max to every check, so it admits the least of them.
MAX_RANGE_N = {
    "head": 256,
    "tail-signs": 128,
    "ratio-identity": 4096,
    "value-at-one": 1024,
    "uniform-compact": 64,
    "monotone-improvement": 64,
    "resummation": 128,
    "coeff-formula": 64,
    "radius-pole": 256,
    "tail-sum": 16,
}

# The p = 2 iterates of the composition and head-lengths checks (Newton
# k = 1..4, Halley k = 1..3), and those of the guo-p2 sign scan and the
# suite's Newton and Halley disk-bound rows.
NEWTON_K_MAX, HALLEY_K_MAX = 4, 3
GUO_NEWTON_KS, GUO_HALLEY_KS = (2, 3, 4), (1, 2, 3)


def _v_range(name: str, start: int, n_max: int, ahead: int = 0):
    """The lazy sequence (n, v_iterate(n)), n = start..n_max + ahead, of a range check.

    Refuses before the first build: BadIndex when n_max < start, CapExceeded
    when n_max passes the check's MAX_RANGE_N entry.
    """
    if n_max < start:
        raise BadIndex(f"{name} check starts at n = {start}")
    _refuse_past_cap(name, n_max)
    return ((n, v_iterate(n)) for n in range(start, n_max + ahead + 1))


def _refuse_past_cap(name: str, top: int) -> None:
    if top > MAX_RANGE_N[name]:
        raise CapExceeded(f"n = {top} exceeds the {name} cap {MAX_RANGE_N[name]}")


def _worst(samples):
    """The first (error, where) pair of largest error; ties keep the earlier sample."""
    return max(samples, key=lambda sample: sample[0])


def _slack(prec: int):
    return mpf(2) ** (SLACK_BITS - prec)


def _nstr(x, digits: int = 17) -> str:
    return mpmath.nstr(x, digits)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check over its sample set."""

    name: str
    params: dict
    passed: bool
    samples: int
    worst_case: Optional[dict] = None
    skipped: bool = False
    note: str = ""

    @property
    def status(self) -> str:
        return "skip" if self.skipped else ("pass" if self.passed else "fail")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "samples": self.samples,
            "worst_case": self.worst_case,
            "note": self.note,
        }


@dataclass(frozen=True)
class DiskGrid:
    """Polar sample grid on the closed disk of the given radius.

    radial rings at radii radius*i/radial (i = 1..radial) with angular
    equispaced angles each; the boundary ring and the angle-0 point
    (z = radius) are included.  The samples, their exact fixed-point form
    and their moduli are each built once per grid, on first use.
    """

    radius: float = 1.0
    radial: int = 8
    angular: int = 16
    prec: int = DEFAULT_PREC

    def __post_init__(self):
        if not (0 < self.radius <= 1):
            raise BadIndex("grid radius must be in (0, 1]")
        if self.radial < 1 or self.angular < 1:
            raise BadIndex("grid steps must be positive")
        if self.radial * self.angular > MAX_GRID_POINTS:
            raise CapExceeded(f"the grid exceeds the cap of {MAX_GRID_POINTS} samples")

    def points(self) -> list:
        with workprec(self.prec + GUARD_BITS):
            radius = mpmath.mpmathify(self.radius)
            return [radius * i / self.radial
                    * mpmath.expjpi(mpf(2 * j) / self.angular)
                    for i in range(1, self.radial + 1)
                    for j in range(self.angular)]

    @cached_property
    def samples(self) -> list:
        """(z, sqrt_principal(z)) for every point, the root at prec + GUARD_BITS."""
        return [(z, sqrt_principal(z, self.prec + GUARD_BITS)) for z in self.points()]

    @cached_property
    def fixed(self) -> list:
        """((x, y, s), (wr, wi, t)) for every sample: z = (x + y*i) / 2**s and its
        root (wr + wi*i) / 2**t, read exactly by ``_fixed_point``."""
        return [(_fixed_point(z), _fixed_point(w)) for z, w in self.samples]

    @cached_property
    def moduli(self) -> list:
        """abs(z) at prec + GUARD_BITS for every sample."""
        with workprec(self.prec + GUARD_BITS):
            return [abs(z) for z, _ in self.samples]


def sqrt_principal(z, prec: int = DEFAULT_PREC):
    """Principal square root of 1 - z on the cut plane (cut along [1, +inf)).

    Returns w with w**2 = 1 - z and Re w >= 0; w = 0 exactly at z = 1, and
    Re w > 0 everywhere else off the cut.  Real z > 1 raises OnBranchCut.
    """
    with workprec(prec + GUARD_BITS):
        z = mpc(z)
        if z.imag == 0 and z.real > 1:
            raise OnBranchCut(f"z = {_nstr(z.real)} lies on the cut [1, +inf)")
        w = mpmath.sqrt(1 - z)
    with workprec(prec):
        return +w


def _fixed_horner(ints, x: int, y: int, s: int, work: int) -> tuple[int, int]:
    """(ar, ai) with (ar + ai*i) / 2**work within sqrt(2)*sum_{j<d} |z|**j / 2**work of
    P(z), z = (x + y*i) / 2**s, s >= 0, P of degree d with coefficients ``ints``: one floor a step."""
    ar = ai = 0
    for c in reversed(ints):
        ar, ai = ((ar * x - ai * y) >> s) + (c << work), (ar * y + ai * x) >> s
    return ar, ai


def _to_mpf(p: int, q: int):
    """p/q, q != 0, rounded once toward zero at the working precision: bit for
    bit ``mpmathify(Fraction(p, q))``, without the gcd that reduces the pair."""
    return mpmath.mp.make_mpf(from_rational(p, q, mpmath.mp.prec))


def _fixed_point(z) -> tuple[int, int, int]:
    """(x, y, s) with z = (x + y*i) / 2**s exactly and s >= 0, read from the signed
    mantissas and exponents of an mpc's ``_mpc_`` or of an mpf's ``_mpf_`` (then
    y = 0); ``mpc(z)`` would round it."""
    (xs, xm, xe, _), (ys, ym, ye, _) = z._mpc_ if isinstance(z, mpc) else (z._mpf_, fzero)
    s = max(-xe, -ye, 0)  # a zero component, (0, 0, 0, 0), never raises it
    return (-xm if xs else xm) << (xe + s), (-ym if ys else ym) << (ye + s), s


class _FloatEvaluator:
    """f = A/B at an mpc point, read exactly by ``_fixed_point``.

    A(z) and B(z) run through ``_fixed_horner`` at ``workbits`` fractional
    bits.  Each of their four integer parts rounds once, and the quotient
    once, at the caller's precision and rounding: bit for bit
    ``mpc(ar, ai) / mpc(br, bi)``, without building those two mpcs.
    """

    def __init__(self, f: RationalFunction, workbits: int):
        self.a, self.b = f.pair
        self.work = workbits

    def __call__(self, z):
        x, y, s = _fixed_point(z)
        ar, ai = _fixed_horner(self.a, x, y, s, self.work)
        br, bi = _fixed_horner(self.b, x, y, s, self.work)
        prec, rnd = mpmath.mp._prec_rounding
        num = from_int(ar, prec, rnd), from_int(ai, prec, rnd)
        den = from_int(br, prec, rnd), from_int(bi, prec, rnd)
        return mpmath.mp.make_mpc(mpc_div(num, den, prec, rnd))


def _horner_bits(f: RationalFunction, prec: int) -> int:
    """prec + GUARD_BITS plus the pair's largest coefficient bit length L.

    These are ``_FloatEvaluator``'s fractional bits: its absolute error on
    A(z) and B(z) stays under 2**-(prec + GUARD_BITS) * |B(z)| wherever
    |B(z)| >= 2**-L * sqrt(2)*sum_{j<d} |z|**j, far below B's coefficients.
    """
    return prec + GUARD_BITS + max(abs(c).bit_length() for ints in f.pair for c in ints)


def _grid_errors(f: RationalFunction, grid: DiskGrid) -> list:
    """|f(z) - sqrt(1 - z)| at every grid sample, as mpfs at W = _horner_bits(f, grid.prec) bits.

    A(z) and B(z) come from ``_fixed_horner`` at W fractional bits as Gaussian
    integers a, b over 2**W, and the root from ``grid.fixed`` as
    w = (wr + wi*i) / 2**t.  So a/b - w = E / (2**t * b) with the Gaussian
    integer E = a*2**t - (wr + wi*i)*b, and |E|/|b| is one isqrt of a floored
    quotient, carrying at least W + 8 bits.  The result is |a/b - w| rounded
    once to W bits, within 2**-(W - 1) of it relatively; |b| = 0 raises
    ZeroDivisionError.  No mpc is built, and one mpf per sample.
    """
    work = _horner_bits(f, grid.prec)
    a, b = f.pair
    errs = []
    for (x, y, s), (wr, wi, t) in grid.fixed:
        ar, ai = _fixed_horner(a, x, y, s, work)
        br, bi = _fixed_horner(b, x, y, s, work)
        er, ei = (ar << t) - wr * br + wi * bi, (ai << t) - wr * bi - wi * br
        e2, b2 = er * er + ei * ei, br * br + bi * bi
        k = max(0, 2 * work + 18 - e2.bit_length() + b2.bit_length()) >> 1
        errs.append(mpf((math.isqrt((e2 << 2 * k) // b2), -k - t), prec=work))
    return errs


# --------------------------------------------------------------------------
# exact checks


def check_head(n: int) -> CheckResult:
    """Coefficients 0..n of the n-th linear-fraction iterate equal the
    sqrt-series coefficients exactly."""
    if n < 1:
        raise BadIndex("head check needs n >= 1")
    cs = taylor_coefficients(v_iterate(n), n)
    bad = next((m for m in range(n + 1) if cs[m] != sqrt_series_coeff(m)), None)
    return CheckResult(
        name="head",
        params={"n": n},
        passed=bad is None,
        samples=n + 1,
        worst_case=None if bad is None else {"m": bad, "value": str(cs[bad])},
    )


def check_tail_signs(n: int, M: int) -> CheckResult:
    """Exact coefficients n+1..M are strictly negative.

    Polynomial iterates (n <= 1) have an identically-zero tail; those report
    SKIP with a note instead of a hollow pass.
    """
    if n < 1 or M <= n:
        raise BadIndex("tail check needs n >= 1 and M > n")
    if M > MAX_COEFF_INDEX:
        raise CapExceeded(f"M = {M} exceeds the coefficient cap {MAX_COEFF_INDEX}")
    f = v_iterate(n)
    if f.is_polynomial:
        return CheckResult(
            name="tail-signs",
            params={"n": n, "M": M},
            passed=True,
            samples=0,
            skipped=True,
            note="polynomial iterate: tail coefficients are identically zero",
        )
    xs, Ds = _taylor_scaled(f, M)  # c_m = xs[m] / Ds[m] with Ds[m] > 0
    bad = next((m for m in range(n + 1, M + 1) if xs[m] >= 0), None)
    return CheckResult(
        name="tail-signs",
        params={"n": n, "M": M},
        passed=bad is None,
        samples=M - n,
        worst_case=None if bad is None else {"m": bad, "value": str(Fraction(xs[bad], Ds[bad]))},
    )


def check_value_at_one(n_max: int) -> CheckResult:
    """Exact evaluation at 1 gives 1/(n+1) for n = 0..n_max."""
    vs = _v_range("value-at-one", 0, n_max)
    bad = next((n for n, f in vs if f(1) != Fraction(1, n + 1)), None)
    return CheckResult(
        name="value-at-one",
        params={"n_max": n_max},
        passed=bad is None,
        samples=n_max + 1,
        worst_case=None if bad is None else {"n": bad},
    )


def check_composition() -> CheckResult:
    """Structural equality of three v-iterate constructions that share no code.

    The k-th Newton iterate must equal the (2^k - 1)-th linear-fraction
    iterate as a canonical-form object, and the k-th Halley iterate the
    (3^k - 1)-th.  Each is compared with both the Chebyshev-form
    ``v_iterate`` and a ``v_step`` chain built from 1 up to the largest
    index compared.  Zero tolerance: this is data equality.
    """
    schemes = ((Scheme.newton(2), NEWTON_K_MAX), (Scheme.halley(2), HALLEY_K_MAX))
    chain = [ONE_RF]
    for _ in range(max(scheme.head_length(k_max) for scheme, k_max in schemes) - 1):
        chain.append(v_step(chain[-1]))
    failures = []
    for scheme, k_max in schemes:
        for k in range(1, k_max + 1):
            n, f = scheme.head_length(k) - 1, iterate(scheme, k)
            if f != v_iterate(n) or f != chain[n]:
                failures.append((scheme.kind, k))
    return CheckResult(
        name="composition",
        params={"newton_k_max": NEWTON_K_MAX, "halley_k_max": HALLEY_K_MAX},
        passed=not failures,
        samples=NEWTON_K_MAX + HALLEY_K_MAX,
        worst_case=None if not failures else {"first_failure": str(failures[0])},
    )


def check_mu_bound(n_max: int, prec: int = DEFAULT_PREC) -> CheckResult:
    """Numeric inequality C(2n,n)/4**n <= 1/sqrt(pi n) for n = 1..n_max.

    Checked as pi * n * mu_n**2 < 1 on W-bit fixed-point integers,
    W = prec + GUARD_BITS: mu_n = floor(mu_{n-1} * (2n-1) / (2n)) from
    mu_0 = 2**W, against pi truncated to W fractional bits.  Each floor loses
    under one unit of 2**-W, so mu_n is low by under n units and pi by under
    one; for n <= MAX_MU_N the product is low by under 2**(28 - W) of itself,
    hundreds of bits below the true margin of ~1/(4n).  The compare is
    exact, and the worst value rounds once.
    """
    if n_max < 1:
        raise BadIndex("mu-bound check needs n_max >= 1")
    if n_max > MAX_MU_N:
        raise CapExceeded(f"n_max = {n_max} exceeds the mu-bound cap {MAX_MU_N}")
    work = prec + GUARD_BITS

    def n_mu_sq():  # n * mu_n**2 at 2W fractional bits
        mu = 1 << work
        for n in range(1, n_max + 1):
            mu = mu * (2 * n - 1) // (2 * n)
            yield n * mu * mu, n

    worst_val, worst = _worst(n_mu_sq())  # pi > 0 keeps the argmax and its ties
    with workprec(2 * work):
        worst_val *= int(mpmath.ldexp(mpmath.pi, work))
    return CheckResult(
        name="mu-bound",
        params={"n_max": n_max},
        passed=worst_val < 1 << 3 * work,
        samples=n_max,
        worst_case={"n": worst, "pi_n_mu_sq": _nstr(mpf((worst_val, -3 * work), prec=work))},
    )


# --------------------------------------------------------------------------
# float checks


# The rational points x in (0, 1) of the ratio-identity check.
_RATIO_SAMPLES = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


def check_ratio_identity(n: int, prec: int = DEFAULT_PREC) -> CheckResult:
    """(f(x) - w)/(f(x) + w) equals ((1 - w)/(1 + w))**(n+1), w = sqrt(1-x).

    Sampled at the rational x of _RATIO_SAMPLES; the iterate value is exact and
    rounds once, the square root is a float, and agreement is required within
    2**-(prec - 16).
    """
    f = v_iterate(n)
    tol = _slack(prec)
    with workprec(prec + GUARD_BITS):

        def error(x):
            a, _, s = _ratfun_gaussian(f, x.numerator, 0, x.denominator)
            v = _to_mpf(a, s)
            w = sqrt_principal(_to_mpf(x.numerator, x.denominator), prec + GUARD_BITS)
            return abs((v - w) / (v + w) - ((1 - w) / (1 + w)) ** (n + 1))

        worst_err, worst = _worst((error(x), x) for x in _RATIO_SAMPLES)
    return CheckResult(
        name="ratio-identity",
        params={"n": n},
        passed=bool(worst_err <= tol),
        samples=len(_RATIO_SAMPLES),
        worst_case={"x": str(worst), "error": _nstr(worst_err), "tolerance": _nstr(tol)},
    )


def _disk_bound_factor(scheme: Scheme, k: int):
    # factor and |z|-power of the closed-unit-disk error bound.  By the
    # composition identity the k-th iterate is v_n with n = head_length(k) - 1,
    # so every scheme takes the v bound 2/sqrt(pi n) with power n + 1
    if scheme.kind != "v" and scheme.p != 2:
        raise BadRootOrder("closed-disk bounds are proved for p = 2 only")
    if k < 1:
        raise BadIndex("disk bound needs k >= 1")
    capped_degree(scheme, k)
    n = scheme.head_length(k) - 1
    return 2 / mpmath.sqrt(mpmath.pi * n), n + 1


def check_disk_bound(scheme: Scheme, k: int, grid: DiskGrid) -> CheckResult:
    """|f(z) - sqrt(1-z)| <= factor * |z|**power on the closed unit disk.

    factor = 2/sqrt(pi k) with power k+1 for the linear-fraction scheme;
    2/sqrt(pi)/sqrt(2^k - 1) with power 2^k for Newton (p = 2), and the
    3^k analogue for Halley.  Slack 2**-(prec - 16) covers float rounding.
    """
    prec = grid.prec
    with workprec(prec + GUARD_BITS):
        factor, power = _disk_bound_factor(scheme, k)  # validates before the build
    errs = _grid_errors(iterate(scheme, k), grid)
    tol = _slack(prec)
    with workprec(prec + GUARD_BITS):
        worst_excess, worst = _worst(
            (err - factor * r ** power, z)
            for (z, _), r, err in zip(grid.samples, grid.moduli, errs))
    return CheckResult(
        name="disk-bound",
        params={"scheme": str(scheme), "k": k, "radius": grid.radius,
                "grid": f"{grid.radial}x{grid.angular}"},
        passed=bool(worst_excess <= tol),
        samples=len(errs),
        worst_case={"z": _nstr(worst), "excess": _nstr(worst_excess), "slack": _nstr(tol)},
    )


def check_uniform_compact(
    n_max: int, compact_radius: float = 0.9, prec: int = DEFAULT_PREC
) -> CheckResult:
    """Sampled sup of |f_n - sqrt(1-z)| on a compact disk decays geometrically.

    With q = sampled sup of |(1 - w)/(1 + w)| < 1 and C = 2 sup|w|/(1 - q**2),
    the sup at step n must lie below C * q**(n+1) and be non-increasing in n
    (both up to slack).
    """
    vs = _v_range("uniform-compact", 1, n_max)
    if not 0 < compact_radius < 1:
        raise BadIndex("compact radius must be in (0, 1)")
    grid = DiskGrid(compact_radius, prec=prec)
    tol = _slack(prec)
    sups = [max(_grid_errors(f, grid)) for _, f in vs]
    with workprec(prec + GUARD_BITS):
        ws = [w for _, w in grid.samples]
        q = max(abs((1 - w) / (1 + w)) for w in ws)
        big_c = 2 * max(abs(w) for w in ws) / (1 - q * q)
        geo_bad = next(
            (n for n, s in enumerate(sups, start=1) if s > big_c * q ** (n + 1) + tol),
            None,
        )
        mono_bad = next(
            (n for n in range(1, len(sups)) if sups[n] > sups[n - 1] + tol), None
        )
    passed = geo_bad is None and mono_bad is None
    return CheckResult(
        name="uniform-compact",
        params={"n_max": n_max, "radius": compact_radius},
        passed=bool(passed),
        samples=len(ws) * n_max,
        worst_case={
            "q": _nstr(q),
            "sup_first": _nstr(sups[0]),
            "sup_last": _nstr(sups[-1]),
            "geometric_violation_at": geo_bad,
            "monotonicity_violation_at": mono_bad,
        },
    )


def check_monotone_improvement(
    n_max: int, radius: float = 0.9, prec: int = DEFAULT_PREC
) -> CheckResult:
    """|f_{n+1}(z) - sqrt(1-z)| <= |f_n(z) - sqrt(1-z)| + slack pointwise.

    Asserted on disks of radius <= 0.9.  On the unit circle itself the
    improvement is only a heuristic, so |z| = 1 points are reported in the
    note as warnings rather than failures.
    """
    vs = _v_range("monotone-improvement", 1, n_max, ahead=1)
    grid = DiskGrid(radius, prec=prec)
    tol = _slack(prec)
    bad = None
    warnings = 0
    _, f = next(vs)
    errs = _grid_errors(f, grid)
    with workprec(prec + GUARD_BITS):
        for n, f in vs:  # v_n against v_(n - 1), reported at n - 1
            new_errs = _grid_errors(f, grid)
            for (z, _), before, after in zip(grid.samples, errs, new_errs):
                if after > before + tol:
                    if abs(z) >= 1:
                        warnings += 1
                    elif bad is None:
                        bad = {"n": n - 1, "z": _nstr(z), "increase": _nstr(after - before)}
            errs = new_errs
    return CheckResult(
        name="monotone-improvement",
        params={"n_max": n_max, "radius": radius},
        passed=bad is None,
        samples=len(errs) * n_max,
        worst_case=bad,
        note=f"{warnings} boundary warnings (|z| = 1 is not asserted)" if warnings else "",
    )


def check_sqrt_consistency(grid: DiskGrid) -> CheckResult:
    """sqrt_principal squares back to 1 - z and has nonnegative real part."""
    prec = grid.prec
    tol = mpf(2) ** (8 - prec)
    with workprec(prec + GUARD_BITS):
        roots = [(z, sqrt_principal(z, prec)) for z in grid.points()]
        worst_err, worst = _worst((abs(w * w - (1 - z)), z) for z, w in roots)
    sign_bad = any(w.real < 0 for _, w in roots)
    return CheckResult(
        name="sqrt-consistency",
        params={"radius": grid.radius, "grid": f"{grid.radial}x{grid.angular}"},
        passed=bool(worst_err <= tol and not sign_bad),
        samples=grid.radial * grid.angular,
        worst_case={"z": _nstr(worst), "residual": _nstr(worst_err), "tolerance": _nstr(tol)},
    )


# --------------------------------------------------------------------------
# closed-form cross-checks

# Exact complex sample points (re, im as fractions with denominator 16),
# all inside |z| <= 0.9; paired with 8 real rational points below.
_COMPLEX_SAMPLES_16 = (
    (2, 2), (-2, 2), (-2, -2), (2, -2),
    (4, 6), (-4, 6), (-4, -6), (4, -6),
    (10, 4), (-10, 4), (-10, -4), (10, -4),
    (0, 11), (0, -11),
    (12, 6), (-12, 6), (-12, -6), (12, -6),
    (14, 2), (-14, 2), (-14, -2), (14, -2),
    (6, 12), (-6, 12),
)

_REAL_SAMPLES = (
    Fraction(-9, 10), Fraction(-3, 5), Fraction(-3, 10), Fraction(-1, 10),
    Fraction(1, 10), Fraction(3, 10), Fraction(3, 5), Fraction(9, 10),
)


def resummation_points():
    """The 32 rational sample points used by the resummation check."""
    pts = [(x, Fraction(0)) for x in _REAL_SAMPLES]
    pts.extend((Fraction(a, 16), Fraction(b, 16)) for a, b in _COMPLEX_SAMPLES_16)
    return pts


def check_resummation(n_max: int, prec: int = DEFAULT_PREC) -> CheckResult:
    """Partial-fraction evaluation equals the exact iterate on D(0, 0.9).

    The reference values are exact evaluations on Gaussian integers, each part
    rounded once, compared within 2**-(prec - 16).
    """
    vs = _v_range("resummation", 2, n_max)
    pts = [_gaussian_point(re, im) for re, im in resummation_points()]
    tol = _slack(prec)
    with workprec(prec + GUARD_BITS):
        zs = [mpc(_to_mpf(x, D), _to_mpf(y, D)) for x, y, D in pts]

    def samples():
        for n, f in vs:
            pf = decompose(n, prec)
            with workprec(prec + GUARD_BITS):
                for point, z in zip(pts, zs):
                    a, b, s = _ratfun_gaussian(f, *point)
                    yield abs(pf.eval(z) - mpc(_to_mpf(a, s), _to_mpf(b, s))), (n, z)

    worst_err, worst = _worst(samples())
    return CheckResult(
        name="resummation",
        params={"n": "2..%d" % n_max},
        passed=bool(worst_err <= tol),
        samples=(n_max - 1) * len(pts),
        worst_case={
            "n": worst[0],
            "z": _nstr(worst[1]),
            "error": _nstr(worst_err),
            "tolerance": _nstr(tol),
        },
    )


def check_coeff_formula(n_max: int, prec: int = DEFAULT_PREC) -> CheckResult:
    """Closed-form coefficients match exact ones for m = 1..4n and are negative."""
    vs = _v_range("coeff-formula", 2, n_max)
    tol = _slack(prec)
    sign_bad = None

    def samples():
        nonlocal sign_bad
        for n, f in vs:
            xs, Ds = _taylor_scaled(f, 4 * n)
            closed = coeff_closed_range(n, 4 * n, prec)
            with workprec(prec + GUARD_BITS):
                for m, got in enumerate(closed, start=1):
                    if got >= 0 and sign_bad is None:
                        sign_bad = (n, m)
                    yield abs(got - _to_mpf(xs[m], Ds[m])), (n, m)

    worst_err, worst = _worst(samples())
    return CheckResult(
        name="coeff-formula",
        params={"n": "2..%d" % n_max},
        passed=bool(worst_err <= tol and sign_bad is None),
        samples=sum(4 * n for n in range(2, n_max + 1)),
        worst_case={
            "n": worst[0],
            "m": worst[1],
            "error": _nstr(worst_err),
            "tolerance": _nstr(tol),
            "sign_violation": str(sign_bad) if sign_bad else None,
        },
    )


def check_radius_pole(n_max: int, prec: int = DEFAULT_PREC) -> CheckResult:
    """The computed series radius really is the nearest pole.

    The exact denominator of the n-th iterate, evaluated *exactly* at the
    dyadic approximation of sec^2(pi/(n+1)), must have magnitude below
    2**-(prec - 56); and no pole of the decomposition may lie inside that
    radius: rho * radius <= 1 + 2**-(prec - 16) for every pole parameter.
    The first n with such a pole is reported as ``pole_violation_at``.
    """
    vs = _v_range("radius-pole", 2, n_max)
    tol = Fraction(1, 2 ** (prec - 56))
    pole_bad = None

    def samples():
        nonlocal pole_bad
        for n, f in vs:
            radius = radius_of_convergence(n, prec)
            b = f.pair[1]  # B / lead(B), the monic denominator, evaluated exactly
            x, _, s = _fixed_point(radius)  # radius = x / 2**s
            e = len(b) - 1
            value, _ = _gaussian_horner(b, x, 0, 1 << s, e)
            yield abs(Fraction(value, (1 << s * e) * b[-1])), n
            pf = decompose(n, prec)
            with workprec(prec + GUARD_BITS):
                if pole_bad is None and any(rho * radius > 1 + _slack(prec)
                                            for rho in pf.pole_params):
                    pole_bad = n

    worst_res, worst = _worst(samples())
    return CheckResult(
        name="radius-pole",
        params={"n": "2..%d" % n_max},
        passed=bool(worst_res < tol and pole_bad is None),
        samples=n_max - 1,
        worst_case={
            "n": worst,
            "den_at_radius": _nstr(mpmath.mpf(worst_res.numerator) / worst_res.denominator
                                   if worst_res else mpf(0)),
            "tolerance": _nstr(mpf(2) ** (56 - prec)),
            "pole_violation_at": pole_bad,
        },
    )


def _tail_cutoff(n: int, prec: int) -> int:
    """n + ceil((prec/2) / log2(radius)), CapExceeded past MAX_TAIL_CUTOFF; it grows with n."""
    cutoff = n + int(math.ceil((prec / 2) / math.log2(float(radius_of_convergence(n, prec)))))
    if cutoff > MAX_TAIL_CUTOFF:
        raise CapExceeded(f"the tail-sum cutoff {cutoff} (n = {n}, {prec} bits) "
                          f"exceeds the cap {MAX_TAIL_CUTOFF}")
    return cutoff


def check_tail_sum(n_max: int, prec: int = DEFAULT_PREC) -> CheckResult:
    """Partial tail sums increase monotonically to the closed-form value.

    Cutoff M = n + ceil((prec/2) / log2(radius)) makes the geometric tail
    beyond M smaller than 2**-(prec/2), so the final partial sum must land
    within 2**-(prec/4) of C(2n,n)/4**n - 1/(n+1).  Every partial sum, an
    exact rational, must stay strictly at or below the limit.  The first
    overshoot found ends the check and is reported as its worst case.
    The largest cutoff, n_max's, is checked against MAX_TAIL_CUTOFF before
    the first build.

    The partial sums come from the Taylor layer: coefficient m of
    A/((1 - z)B) is c_0 + ... + c_m for v_n = A/B, so the tail sum to m is
    sums[n] - sums[m].  The pair stays coprime, as A(1)/B(1) = 1/(n+1) != 0,
    and primitive: 1 - z is, and by Gauss's lemma contents multiply.
    The sums stay integers, sums[m] = x_m / D_m with D_m > 0, so the
    overshoot test sums[m] < floor = p/q is x_m*q < p*D_m; only floor, the
    final gap and a reported overshoot are built as Fractions.
    """
    close_tol = Fraction(1, 2 ** (prec // 4))
    gaps, bad, samples = [], None, 0
    vs = _v_range("tail-sum", 1, n_max)
    _tail_cutoff(n_max, prec)  # the largest cutoff, admitted before the first build
    for n, f in vs:
        identity = tail_sum_identity(n)
        if n == 1:
            gaps.append((identity, n))  # empty tail: partial sum is exactly 0
            samples += 1
            continue
        cutoff = _tail_cutoff(n, prec)
        a, b = f.pair
        running = RationalFunction._from_coprime(a, _times_one_minus_z(b), 1)
        xs, Ds = _taylor_scaled(running, cutoff)
        floor = Fraction(xs[n], Ds[n]) - identity  # the tail sum to m overshoots below it
        p, q = floor.numerator, floor.denominator
        m = next((m for m in range(n + 1, cutoff + 1) if xs[m] * q < p * Ds[m]), None)
        samples += (m or cutoff) - n
        if m:
            bad = {"n": n, "m": m, "overshoot": str(floor - Fraction(xs[m], Ds[m]))}
            break
        gaps.append((Fraction(xs[cutoff], Ds[cutoff]) - floor, n))
    worst_gap, worst = _worst(gaps)
    passed = bad is None and worst_gap <= close_tol
    return CheckResult(
        name="tail-sum",
        params={"n": "1..%d" % n_max},
        passed=bool(passed),
        samples=samples,
        worst_case=bad
        or {
            "n": worst,
            "gap": _nstr(mpf(worst_gap.numerator) / worst_gap.denominator if worst_gap else mpf(0)),
            "tolerance": _nstr(mpf(1) / close_tol.denominator),
        },
    )


# --------------------------------------------------------------------------
# sign-pattern exploration


@dataclass(frozen=True)
class GuoReport:
    """Exact sign-pattern findings for one Newton/Halley iterate prefix.

    head_agreement_length counts how many leading coefficients equal those
    of (1 - z)**(1/p).  first_sign_violation is the least m >= 1 whose
    coefficient is >= 0 within the scanned range; for a polynomial iterate
    the scan stops at its degree, because the zeros beyond it are structural
    rather than sign data (that situation is flagged by is_polynomial).
    """

    p: int
    scheme: str
    k: int
    M: int
    coeffs_checked: int
    head_agreement_length: int
    first_sign_violation: Optional[int]
    is_polynomial: bool
    sign_counts: dict = field(default_factory=dict)
    note: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def guo_explore(p: int, scheme_kind: str, k: int, M: int) -> GuoReport:
    """Exact series prefix of the k-th iterate and its sign pattern.

    For p = 2 every coefficient from index 1 on should be strictly negative
    (that is a theorem); for p >= 3 the analogous statement is an open
    conjecture, so this function only reports what it finds and asserts
    nothing.
    """
    if scheme_kind not in ("newton", "halley"):
        raise BadIndex(f"scheme must be newton or halley, got {scheme_kind!r}")
    scheme = Scheme(scheme_kind, p)
    if k < 1 or M < 1:
        raise BadIndex("need k >= 1 and M >= 1")
    if M > MAX_COEFF_INDEX:
        raise CapExceeded(f"M = {M} exceeds the coefficient cap {MAX_COEFF_INDEX}")
    f = iterate(scheme, k)
    cs = taylor_coefficients(f, M)
    ref = root_series_coeffs(p, M)
    head = 0
    while head <= M and cs[head] == ref[head]:
        head += 1
    is_poly = f.is_polynomial
    degree = len(f.pair[0]) - 1
    scan_hi = min(M, degree) if is_poly else M
    violation = next((m for m in range(1, scan_hi + 1) if cs[m] >= 0), None)
    neg = sum(1 for m in range(1, scan_hi + 1) if cs[m] < 0)
    zero = sum(1 for m in range(1, scan_hi + 1) if cs[m] == 0)
    pos = scan_hi - neg - zero
    note = ""
    if is_poly:
        note = (
            f"polynomial iterate of degree {degree}: zero coefficients "
            "beyond the degree are structural and excluded from the sign scan"
        )
    return GuoReport(
        p=p,
        scheme=scheme_kind,
        k=k,
        M=M,
        coeffs_checked=scan_hi,
        head_agreement_length=head,
        first_sign_violation=violation,
        is_polynomial=is_poly,
        sign_counts={"negative": neg, "zero": zero, "positive": pos},
        note=note,
    )


def check_guo_p2(M: int) -> CheckResult:
    """No sign violation may appear at p = 2 (the proved case)."""
    bad = None
    samples = 0
    for kind, ks in (("newton", GUO_NEWTON_KS), ("halley", GUO_HALLEY_KS)):
        for k in ks:
            report = guo_explore(2, kind, k, M)
            samples += report.coeffs_checked
            if report.first_sign_violation is not None and bad is None:
                bad = {"scheme": kind, "k": k, "m": report.first_sign_violation}
    return CheckResult(
        name="guo-p2",
        params={"newton_k": list(GUO_NEWTON_KS), "halley_k": list(GUO_HALLEY_KS), "M": M},
        passed=bad is None,
        samples=samples,
        worst_case=bad,
    )


def check_head_lengths(M: int) -> CheckResult:
    """Head agreement reaches 2^k (Newton) and 3^k (Halley) at p = 2."""
    bad = None
    samples = 0
    for kind, k_max in (("newton", NEWTON_K_MAX), ("halley", HALLEY_K_MAX)):
        for k in range(1, k_max + 1):
            report = guo_explore(2, kind, k, M)
            samples += 1
            required = min(M + 1, Scheme(kind, 2).head_length(k))
            if report.head_agreement_length < required and bad is None:
                bad = {
                    "scheme": kind,
                    "k": k,
                    "head": report.head_agreement_length,
                    "required": required,
                }
    return CheckResult(
        name="head-lengths",
        params={"newton_k_max": NEWTON_K_MAX, "halley_k_max": HALLEY_K_MAX, "M": M},
        passed=bad is None,
        samples=samples,
        worst_case=bad,
    )


# --------------------------------------------------------------------------
# suite runner


def _indices(name: str, n: Optional[int], n_max: int, M: Optional[int] = None):
    """A per-n row's indices, [n] or 1..n_max; past its cap or at M <= n, refused before a build."""
    top = n_max if n is None else n
    _refuse_past_cap(name, top)
    if M is not None and M <= top:
        raise BadIndex(f"{name} needs M > n, got M = {M} at n = {top}")
    return range(1, n_max + 1) if n is None else [n]


def _disk_bound_rows(n_max, prec, k=None, scheme=None, grid=None):
    ks = {"v": range(2, min(n_max, 32) + 1), "newton": GUO_NEWTON_KS, "halley": GUO_HALLEY_KS}
    grid = grid or DiskGrid(prec=prec)
    rows = [(Scheme(s, None if s == "v" else 2), i)
            for s in ([scheme] if scheme else ks) for i in (ks[s] if k is None else [k])]
    for row in rows:
        _disk_bound_factor(*row)  # every row is admitted before the first runs
    return [check_disk_bound(*row, grid) for row in rows]


# The check table, in suite order: name -> rows(n_max, prec, **selectors).
# A row's keyword parameters are its selectors, verify's flags (scheme is a
# name, at p = 2), and their defaults give the suite's rows.  Rows look each
# check_<name> up when they run, so a caller that rebinds verify.check_<name>
# (a timer or a tracer) sees every call, which held functions would bypass.
CHECKS = {
    "sqrt-consistency": lambda n_max, prec, grid=None: [
        check_sqrt_consistency(grid or DiskGrid(prec=prec))],
    "head": lambda n_max, prec, n=None: [check_head(i) for i in _indices("head", n, n_max)],
    "tail-signs": lambda n_max, prec, n=None, M=None: [
        check_tail_signs(i, max(4 * n_max, i + 16) if M is None else M)
        for i in _indices("tail-signs", n, n_max, M)],
    "ratio-identity": lambda n_max, prec, n=None: [
        check_ratio_identity(i, prec=prec) for i in _indices("ratio-identity", n, n_max)[:32]],
    "value-at-one": lambda n_max, prec, n=None: [
        check_value_at_one(max(n_max, 100) if n is None else n)],
    "composition": lambda n_max, prec: [check_composition()],
    "disk-bound": _disk_bound_rows,
    "uniform-compact": lambda n_max, prec, compact_radius=0.9: [
        check_uniform_compact(n_max, compact_radius, prec)],
    "monotone-improvement": lambda n_max, prec, compact_radius=0.9: [
        check_monotone_improvement(n_max, compact_radius, prec)],
    "resummation": lambda n_max, prec: [check_resummation(max(n_max, 2), prec)],
    "coeff-formula": lambda n_max, prec: [check_coeff_formula(max(n_max, 2), prec)],
    "radius-pole": lambda n_max, prec: [check_radius_pole(max(n_max, 2), prec)],
    "tail-sum": lambda n_max, prec: [check_tail_sum(n_max, prec)],
    "guo-p2": lambda n_max, prec, M=256: [check_guo_p2(M)],
    "head-lengths": lambda n_max, prec, M=300: [check_head_lengths(M)],
    "mu-bound": lambda n_max, prec, n=10_000: [check_mu_bound(n, prec)],
}


def default_suite(n_max: int = 16, prec: int = DEFAULT_PREC) -> list[CheckResult]:
    """The full default check battery: every row of CHECKS, in table order."""
    if n_max < 1:
        raise BadIndex("the suite needs n_max >= 1")
    if n_max > min(MAX_RANGE_N.values()):
        raise CapExceeded(f"n_max = {n_max} exceeds the suite cap {min(MAX_RANGE_N.values())}")
    _tail_cutoff(n_max, prec)  # the one row whose cap depends on prec, admitted before any row
    return [r for rows in CHECKS.values() for r in rows(n_max, prec)]
