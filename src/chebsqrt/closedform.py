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
from mpmath.libmp import fzero, to_fixed

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
        """(w_k, rho_k) pairs as integers scaled by 2**(prec + GUARD_BITS)."""
        work = self.prec + GUARD_BITS
        return tuple((to_fixed(w._mpf_, work), to_fixed(rho._mpf_, work))
                     for w, rho in zip(self.weights, self.pole_params))

    def eval(self, z):
        """Value of the partial-fraction expression at a complex point.

        The sum runs on integers scaled by 2**W, W = prec + GUARD_BITS.  With
        X, Y, w_k and r_k the truncations of 2**W times Re z, Im z, weight_k
        and rho_k = pole_param_k, 1 - z rho_k is (a - ib) / 2**W for
        a = 2**W - (X r_k >> W) and b = Y r_k >> W, and term k adds
        floor(w_k a 2**W / den) and floor(w_k b 2**W / den), den = a**2 + b**2,
        to the real and imaginary sums.  The head 1 - z/2 - scale z**2 sum is
        then formed at W bits and the result is rounded to prec bits.

        Error bound.  Let u = 2**-W and delta = min_k |1 - z rho_k|.  Each
        truncation and each floor costs under one unit u, so a u and b u are
        within (|z| + 3) u of the real and imaginary parts of 1 - z rho_k on
        the stored (weight_k, rho_k).  While (2|z| + 6) u <= delta/2, each
        term is then within (2 + 2/delta + (4|z| + 13)/delta**2) u of
        weight_k / (1 - z rho_k), and as scale * floor(n/2) < 1/4 the sum
        moves the result by at most |z|**2/4 (2 + 2/delta + (4|z| + 13)/delta**2) u
        before the W-bit head and the final rounding.  On |z| <= 1,
        delta >= sin^2(pi/(n+1)).

        Raises NearPole when z is within 2**-h, h = prec // 2, of a pole
        1/rho_k, tested exactly as den * 2**(2h) < r_k**2, and ChebsqrtError
        when z is not finite.
        """
        work = self.prec + GUARD_BITS
        with workprec(work):
            z = mpmath.mpmathify(z)
            if not mpmath.isfinite(z):
                raise ChebsqrtError(f"z = {z} is not a finite point")
            re, im = z._mpc_ if isinstance(z, mpc) else (z._mpf_, fzero)
            x, y = to_fixed(re, work), to_fixed(im, work)
            one = 1 << work
            h = self.prec // 2
            acc_re = acc_im = 0
            for w, r in self._fixed_terms:
                a = one - (x * r >> work)
                b = y * r >> work
                den = a * a + b * b
                if den << 2 * h < r * r:
                    raise NearPole(f"z = {z} is within {mpmath.nstr(mpf(2) ** -h, 3)} of a pole")
                acc_re += (w * a << work) // den
                acc_im += (w * b << work) // den
            acc = mpf((acc_re, -work))
            if isinstance(z, mpc):
                acc = mpc(acc, mpf((acc_im, -work)))
            out = 1 - z / 2 - self.scale * z * z * acc
        with workprec(self.prec):
            return +out

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

