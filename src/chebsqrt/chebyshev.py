"""Chebyshev polynomials of the first and second kind.

Exact coefficients come from their explicit integer formulas; the zeros of the
second-kind polynomials, which give the pole parameters of the partial
fractions, are produced directly from their angle form cos(k*pi/(n+1))
rather than by numeric root-finding.
"""

from __future__ import annotations

import enum
import math

import mpmath
from mpmath import mpf, workprec

from .errors import BadIndex
from .exact import Polynomial

DEFAULT_PREC = 256

# Extra working bits so that results are honest to the requested precision.
GUARD_BITS = 32


class ChebKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def cheb_poly(kind: ChebKind, n: int) -> Polynomial:
    """Exact coefficients of the degree-n Chebyshev polynomial.

    From the explicit integer coefficients, j = 0..n//2: the x**(n-2j)
    coefficient of U_n is (-1)**j C(n-j, j) 2**(n-2j), and that of T_n
    (n >= 1; T_0 = 1) is (n/2) (-1)**j (n-j-1)! / (j! (n-2j)!) 2**(n-2j),
    the U-form term times n / (2(n-j)).
    """
    if n < 0:
        raise BadIndex("polynomial degree must be >= 0")
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        c = (-1) ** j * math.comb(n - j, j) * 2 ** (n - 2 * j)
        if kind is ChebKind.FIRST and n:
            c = c * n // (2 * (n - j))
        coeffs[n - 2 * j] = c
    return Polynomial(coeffs)


def u_zero_nodes(n: int, prec: int = DEFAULT_PREC) -> list:
    """The n simple zeros cos(k*pi/(n+1)), k = 1..n, of U_n.

    Returned in decreasing order.  The values carry guard bits beyond the
    requested precision: the polynomials are steep at their outermost zeros
    (|U_n'| grows like (n+1)^3), so handing back exactly-prec roundings
    would cost visibly more than an ulp when the nodes are used as roots.
    """
    if n < 1:
        raise BadIndex("U_0 has no zeros; need n >= 1")
    with workprec(prec + GUARD_BITS):
        return [mpmath.cospi(mpf(k) / (n + 1)) for k in range(1, n + 1)]

