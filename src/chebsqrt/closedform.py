"""Closed forms for the linear-fraction iterates.

The n-th iterate (n >= 1) equals

    1 - z/2 - (z**2 / (2(n+1))) * sum_{k=1}^{floor(n/2)} w_k / (1 - z rho_k),

with pole parameters rho_k = cos^2(pi k/(n+1)), the squared zeros of U_n,
and weights w_k = sin^2(2 pi k/(n+1)) = 4 rho_k (1 - rho_k).  The k = 1
pole is nearest the origin, so the series radius is sec^2(pi/(n+1)).
``decompose`` builds this one angle table, and the series coefficients are
its Taylor series: c_1 = -1/2 and, for m >= 2,

    c_m = -(1/(2(n+1))) * sum_{k=1}^{floor(n/2)} w_k rho_k^(m-2),

which is the paper's -(1/(n+1)) * sum_{k=1}^{n} cos^(2(m-1))(k theta)
sin^2(k theta), theta = pi/(n+1), with the angles k and n+1-k paired.
Every term is positive, so every coefficient from m = 1 on is negative.
Everything here is float-valued at a controlled binary precision; the
exact-arithmetic route through Taylor extraction is the independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
from mpmath import mpc, mpf, workprec
from mpmath.libmp import from_man_exp, fzero, round_nearest, to_fixed

from .chebyshev import DEFAULT_PREC, GUARD_BITS, u_zero_nodes
from .errors import BadIndex, ChebsqrtError, NearPole
from .exact import central_binomial_ratio
# Not used here: perfbench/tests/test_perfbench.py reads closedform.v_iterate.
from .iterates import v_iterate  # noqa: F401


@dataclass(frozen=True)
class PartialFractionForm:
    """Pole expansion of the n-th linear-fraction iterate.

    Represents 1 - z/2 - scale * z**2 * sum_k weight_k / (1 - z * pole_param_k)
    with pole_param_k = rho_k = cos^2(pi k/(n+1)),
    weight_k = sin^2(2 pi k/(n+1)) = 4 rho_k (1 - rho_k) for k = 1..floor(n/2)
    and scale = 1/(2(n+1)).  For n = 1 the term list is empty and the form
    is exactly 1 - z/2.

    Stored floats carry GUARD_BITS beyond ``prec``, which keeps evaluation
    honest to ``prec`` away from the poles but not near one: where
    |1 - z pole_param_k| = 2**-d the relative error grows like 2**d, up to
    2**(4 - prec) + 2**(d + 4 - prec - GUARD_BITS).  (At n = 16, prec 256, the
    worst over all poles is 2**-221.2 at d = 64 and 2**-165.4 at d = 120.)
    """

    n: int
    scale: mpf
    weights: tuple
    pole_params: tuple
    prec: int

    @property
    def term_count(self) -> int:
        return len(self.weights)

    @cached_property
    def _fixed_terms(self) -> tuple:
        """(w_k << 2W, r_k, r_k**2) for the weights and pole parameters truncated
        to integers w_k, r_k scaled by 2**W, W = prec + GUARD_BITS."""
        work = self.prec + GUARD_BITS
        terms = []
        for w, rho in zip(self.weights, self.pole_params):
            r = to_fixed(rho._mpf_, work)
            terms.append((to_fixed(w._mpf_, work) << 2 * work, r, r * r))
        return tuple(terms)

    def eval(self, z):
        """Value of the partial-fraction expression at a complex point.

        The sum runs on integers scaled by 2**W, W = prec + GUARD_BITS.  With
        X, Y, w_k and r_k the truncations of 2**W times Re z, Im z, weight_k
        and rho_k = pole_param_k, 1 - z rho_k is (a - ib) / 2**W for
        a = 2**W - (X r_k >> W) and b = Y r_k >> W.  Term k takes one division,
        q = floor(w_k 2**(2W) / den), den = a**2 + b**2, and adds q a and q b to
        the real and imaginary sums, which are shifted down by W once into acc.
        With N = n + 1, the head 1 - z/2 - z**2 acc / (2N) of the truncated
        point z' = (X + iY) / 2**W is one Gaussian integer over 2N 2**(3W); it
        is divided by 2N once, with GUARD_BITS more fractional bits, and each
        part is rounded once to nearest at prec bits.

        Error bound.  Let u = 2**-W, K = floor(n/2), zeta = 1 + |z| and
        delta = min_k |1 - z cos^2(k pi/N)|, for the true pole parameters.
        ``decompose``'s rho_k and weight_k lie within u and 4u of cos^2(k pi/N)
        and sin^2(2k pi/N) (tested), so r_k u and w_k u lie within 2u and 5u
        of them, and (a - ib) u is within e = 3 zeta u of 1 - z cos^2(k pi/N).
        While e <= delta/2, q (a + ib) u**2 is within
        E = (zeta + e) u + 10u/delta + 6 zeta u/delta**2 of the true term: the
        floor of q costs |a - ib| u**2 <= (zeta + e) u, the weight 5u/(delta/2)
        and the pole e/(delta**2/2).  The shift adds sqrt(2) u, so acc u is
        within K E + sqrt(2) u of the true sum S, and |S| <= K/delta.  As
        |z - z'| < sqrt(2) u, |z'| <= zeta, |z'**2 - z**2| <= 3 zeta u and, for
        K >= 1, K/(2N) < 1/4 and sqrt(2)/(2N) < 1/4, the head before its
        division is within
        B = u + zeta**2 (E + u)/4 + 3 zeta u/(4 delta)
        of the iterate f(z) (for n = 1, where K = 0, within sqrt(2) u/2).  The
        division's floor adds under 2**-(3W), covered by B's first u, and the
        rounding 2**-prec of the value, so
        |eval(z) - f(z)| <= 2**-prec |f(z)| + (1 + 2**-prec) B.
        On |z| <= 1, delta >= sin^2(pi/N).

        Raises NearPole when z is within 2**-h, h = prec // 2, of a pole
        1/rho_k, tested exactly as den * 2**(2h) < r_k**2, and ChebsqrtError
        when z is not finite.
        """
        work = self.prec + GUARD_BITS
        with workprec(work):
            z = mpmath.mpmathify(z)
            if not mpmath.isfinite(z):
                raise ChebsqrtError(f"z = {z} is not a finite point")
            is_complex = isinstance(z, mpc)
            re, im = z._mpc_ if is_complex else (z._mpf_, fzero)
            x, y = to_fixed(re, work), to_fixed(im, work)
            one = 1 << work
            h = self.prec // 2
            acc_re = acc_im = 0
            for w, r, r2 in self._fixed_terms:
                a = one - (x * r >> work)
                b = y * r >> work
                den = a * a + b * b
                if den << 2 * h < r2:
                    raise NearPole(f"z = {z} is within {mpmath.nstr(mpf(2) ** -h, 3)} of a pole")
                q = w // den
                acc_re += q * a
                acc_im += q * b
        acc_re >>= work
        acc_im >>= work
        # 2N 2**(3W) (1 - z'/2) - (X + iY)**2 acc, with (X + iY)**2 = sr + si*i
        N = self.n + 1
        sr, si = x * x - y * y, 2 * x * y
        hr = (N << 3 * work + 1) - (N * x << 2 * work) - (sr * acc_re - si * acc_im)
        exp = -3 * work - GUARD_BITS
        out_re = from_man_exp((hr << GUARD_BITS) // (2 * N), exp, self.prec, round_nearest)
        if not is_complex:
            return mpmath.mp.make_mpf(out_re)
        hi = -(N * y << 2 * work) - (sr * acc_im + si * acc_re)
        out_im = from_man_exp((hi << GUARD_BITS) // (2 * N), exp, self.prec, round_nearest)
        return mpmath.mp.make_mpc((out_re, out_im))

    def to_json_dict(self) -> dict:
        digits = mpmath.libmp.prec_to_dps(self.prec) + 2
        return {
            "n": self.n,
            "scale": mpmath.nstr(self.scale, digits),
            "terms": [
                {"weight": mpmath.nstr(w, digits), "pole_param": mpmath.nstr(p, digits)}
                for w, p in zip(self.weights, self.pole_params)
            ],
            "precision_bits": self.prec,
        }


def decompose(n: int, prec: int = DEFAULT_PREC) -> PartialFractionForm:
    """Partial-fraction data of the n-th linear-fraction iterate, n >= 1.

    The pole parameters are the squared zeros of the second-kind Chebyshev
    polynomial U_n (the first floor(n/2) of them); no numeric root-finding
    is involved.  Each weight 4 rho_k (1 - rho_k) comes from its own pole
    parameter.  n = 0 is rejected: the constant iterate has no pole data.
    """
    if n < 1:
        raise BadIndex("decomposition is defined for n >= 1")
    work = prec + GUARD_BITS
    with workprec(work):
        scale = 1 / mpf(2 * (n + 1))
        poles = [c * c for c in u_zero_nodes(n, work)[:n // 2]]
        weights = [4 * rho * (1 - rho) for rho in poles]
    return PartialFractionForm(n, scale, tuple(weights), tuple(poles), prec)


def coeff_closed_range(n: int, M: int, prec: int = DEFAULT_PREC) -> list:
    """Closed-form coefficients c_1..c_M: the Taylor series of ``decompose(n, prec)``.

    c_1 = -1/2 and c_m = -scale * sum_k w_k rho_k^(m-2) for m >= 2, each sum
    one ``mpmath.fsum`` over floor(n/2) terms.  Every term is positive, so
    the sign of every c_m is visible: all are negative (0 beyond m = 1 for
    n = 1).  The running powers are shared across m, so the sweep costs
    O(n * M) multiplications.
    """
    if n < 1:
        raise BadIndex("coefficient formula is defined for n >= 1")
    if M < 1:
        raise BadIndex("need at least one coefficient index")
    pf = decompose(n, prec)
    with workprec(prec + GUARD_BITS):
        terms = pf.weights
        out = [mpf(-0.5)]
        for _ in range(2, M + 1):
            out.append(-pf.scale * mpmath.fsum(terms))
            terms = [t * rho for t, rho in zip(terms, pf.pole_params)]
    with workprec(prec):
        return [+x for x in out]


def radius_of_convergence(n: int, prec: int = DEFAULT_PREC):
    """Series radius sec^2(pi/(n+1)) of the n-th iterate; +inf for n <= 1.

    For n <= 1 the iterate is a polynomial, so the radius marker is infinite.
    Equals 1 / max(pole_param) for n >= 2.
    """
    if n < 0:
        raise BadIndex("iterate index must be >= 0")
    if n <= 1:
        return mpf("+inf")
    with workprec(prec + GUARD_BITS):
        out = 1 / mpmath.cospi(mpf(1) / (n + 1)) ** 2
    with workprec(prec):
        return +out


def tail_sum_identity(n: int) -> Fraction:
    """Exact value of the summed tail magnitudes: C(2n,n)/4**n - 1/(n+1).

    This is what sum_{m>n} (-coefficient of z**m) converges to for the n-th
    iterate; it is 0 exactly for n = 1 (a polynomial, empty tail).
    """
    if n < 1:
        raise BadIndex("tail-sum identity is defined for n >= 1")
    return central_binomial_ratio(n) - Fraction(1, n + 1)

