"""Closed forms for the linear-fraction iterates.

The n-th iterate (n >= 1) equals

    1 - z/2 - (z**2 / (2(n+1))) * sum_{k=1}^{floor(n/2)}
        sin^2(2 pi k/(n+1)) / (1 - z cos^2(pi k/(n+1))),

with the k = 1 pole nearest the origin, so the series radius is
sec^2(pi/(n+1)).  The same angles give the series coefficients directly:
for m >= 1 the coefficient of z**m is

    -(1/(n+1)) * sum_{k=1}^{n} cos^(2(m-1))(k theta) sin^2(k theta),

theta = pi/(n+1).  Everything here is float-valued at a controlled binary
precision; the exact-arithmetic route through Taylor extraction is the
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, workprec

from .chebyshev import DEFAULT_PREC, GUARD_BITS, u_zero_nodes
from .errors import BadIndex, NearPole
from .exact import Polynomial, central_binomial_ratio
# Not used here: perfbench/tests/test_perfbench.py reads closedform.v_iterate.
from .iterates import v_iterate  # noqa: F401

HEAD = Polynomial((1, Fraction(-1, 2)))  # the fixed head 1 - z/2


@dataclass(frozen=True)
class PartialFractionForm:
    """Pole expansion of the n-th linear-fraction iterate.

    Represents head(z) - scale * z**2 * sum_k weight_k / (1 - z * pole_param_k)
    with weight_k = sin^2(2 pi k/(n+1)), pole_param_k = cos^2(pi k/(n+1)) for
    k = 1..floor(n/2) and scale = 1/(2(n+1)).  For n = 1 the term list is
    empty and the form is exactly the head polynomial.

    Stored floats carry guard bits beyond the nominal precision so that
    downstream evaluation stays honest to ``prec``.
    """

    n: int
    scale: mpf
    weights: tuple
    pole_params: tuple
    prec: int

    @property
    def head(self) -> Polynomial:
        return HEAD

    @property
    def term_count(self) -> int:
        return len(self.weights)

    def eval(self, z):
        """Value of the partial-fraction expression at a complex point.

        Raises NearPole when z is within 2**-(prec/2) of a pole 1/pole_param.
        """
        with workprec(self.prec + GUARD_BITS):
            z = mpmath.mpmathify(z)
            cutoff = mpf(2) ** -(self.prec // 2)
            for rho in self.pole_params:
                if abs(z - 1 / rho) < cutoff:
                    raise NearPole(f"z = {z} is within {mpmath.nstr(cutoff, 3)} of a pole")
            acc = mpf(0)
            for w, rho in zip(self.weights, self.pole_params):
                acc += w / (1 - z * rho)
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
    is involved.  n = 0 is rejected: the constant iterate has no pole data.
    """
    if n < 1:
        raise BadIndex("decomposition is defined for n >= 1")
    work = prec + GUARD_BITS
    with workprec(work):
        scale = 1 / mpf(2 * (n + 1))
        count = n // 2
        weights = []
        poles = []
        if count:
            nodes = u_zero_nodes(n, work)[:count]
            for k in range(1, count + 1):
                weights.append(mpmath.sinpi(mpf(2 * k) / (n + 1)) ** 2)
                poles.append(nodes[k - 1] ** 2)
    return PartialFractionForm(n, scale, tuple(weights), tuple(poles), prec)


def coeff_closed_range(n: int, M: int, prec: int = DEFAULT_PREC) -> list:
    """Closed-form coefficients for m = 1..M in one sweep.

    Shares the running powers cos^(2(m-1))(k theta) across m, so the sweep
    costs O(n * M) multiplications instead of O(n * M * log m).
    """
    if n < 1:
        raise BadIndex("coefficient formula is defined for n >= 1")
    if M < 1:
        raise BadIndex("need at least one coefficient index")
    with workprec(prec + GUARD_BITS):
        cos2 = []
        sin2 = []
        for k in range(1, n + 1):
            c = mpmath.cospi(mpf(k) / (n + 1))
            s = mpmath.sinpi(mpf(k) / (n + 1))
            cos2.append(c * c)
            sin2.append(s * s)
        powers = [mpf(1)] * n
        out = []
        inv = -1 / mpf(n + 1)
        for _ in range(1, M + 1):
            total = mpf(0)
            for k in range(n):
                total += powers[k] * sin2[k]
                powers[k] *= cos2[k]
            out.append(inv * total)
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

